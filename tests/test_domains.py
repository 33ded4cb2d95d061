"""One domain rule for every public numeric argument.

Each exported callable, and each public method of an exported class, refuses
True, nan, inf, -inf and the values just outside its domain, for each numeric
parameter, with a ValueError that names the parameter, before any transform.
The table is checked against ``fujitalab.EXPORTS``: an exported numeric
parameter it does not list fails.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import typing
from enum import Enum
from types import SimpleNamespace

import numpy as np
import pytest

import fujitalab as fl

PROF = fl.ProfileSpec.gaussian(1.0, 1.0, (0.0,))
F = fl.sample(PROF, 1, 16.0, 64)  # a 64-point 1-D Gaussian
PLAN = fl.HeatKernelPlan.for_field(F)
SPEC = fl.ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, PROF)
TRAJ = SimpleNamespace(times=[1.0], q_norms=[1.0])
BELOW_ZERO = math.nextafter(0.0, -1.0)
BELOW_ONE = math.nextafter(1.0, 0.0)


def row(call, *edges, inf_ok=False):
    """A table row: the call with the value in the parameter's place, the
    edge values it must refuse, and whether +inf lies in the domain."""
    return call, edges, inf_ok


# (exported name or "Class.method", parameter) -> row; the integer rows
# refuse the float form of a valid count, and GaussianTerm.center and
# smoothing_check's t_list are fed one coordinate or time in a sequence.
TABLE = {
    ("BoxGeometry", "half_width"): row(lambda v: fl.BoxGeometry(v, 64).resolve(1), 0.0),
    ("BoxGeometry", "points_per_axis"):
        row(lambda v: fl.BoxGeometry(16.0, v).resolve(1), 1, 12, 64.0),
    ("BoxGeometry.resolve", "dim"): row(lambda v: fl.BoxGeometry(16.0, 64).resolve(v), 0, 1.0, 4),
    ("GridField", "dim"): row(lambda v: fl.GridField(v, 16.0, np.zeros(64)), 0, 1.0, 4),
    ("GridField", "half_width"): row(lambda v: fl.GridField(1, v, np.zeros(64)), 0.0),
    ("coordinates", "half_width"): row(lambda v: fl.coordinates(v, 64), 0.0),
    ("coordinates", "M"): row(lambda v: fl.coordinates(16.0, v), 0, 64.0),
    ("sample", "dim"): row(lambda v: fl.sample(PROF, v, 16.0, 64), 0, 1.0, 4),
    ("sample", "half_width"): row(lambda v: fl.sample(PROF, 1, v, 64), 0.0),
    ("sample", "points_per_axis"): row(lambda v: fl.sample(PROF, 1, 16.0, v), 1, 64.0),
    ("lq_norm", "q"): row(lambda v: fl.lq_norm(F, v), BELOW_ONE, "inf", inf_ok=True),
    ("nonlinearity", "p"): row(lambda v: fl.nonlinearity(F, v, 2.0, 1.0), BELOW_ONE),
    ("nonlinearity", "q"):
        row(lambda v: fl.nonlinearity(F, 2.0, v, 1.0), BELOW_ONE, inf_ok=True),
    ("nonlinearity", "alpha"): row(lambda v: fl.nonlinearity(F, 2.0, 2.0, v), BELOW_ZERO),
    ("mittag_leffler", "order"):
        row(lambda v: fl.mittag_leffler(v, 1.0), 0.0, math.nextafter(1.0, 2.0)),
    ("mittag_leffler", "z"): row(lambda v: fl.mittag_leffler(0.5, v), BELOW_ZERO),
    ("gronwall_bound", "A"): row(lambda v: fl.gronwall_bound(v, 1.0, 0.5, 1.0), BELOW_ZERO),
    ("gronwall_bound", "M"): row(lambda v: fl.gronwall_bound(1.0, v, 0.5, 1.0), BELOW_ZERO),
    ("gronwall_bound", "sigma"):
        row(lambda v: fl.gronwall_bound(1.0, 1.0, v, 1.0), BELOW_ZERO, 1.0),
    ("gronwall_bound", "t"): row(lambda v: fl.gronwall_bound(1.0, 1.0, 0.5, v), BELOW_ZERO),
    ("cutoff_laplacian_check", "T"):
        row(lambda v: fl.cutoff_laplacian_check("psi2", v, 1), 0.0),
    ("cutoff_laplacian_check", "dim"):
        row(lambda v: fl.cutoff_laplacian_check("psi2", 100.0, v), 0, 1.0),
    ("cutoff_laplacian_check", "points"):
        row(lambda v: fl.cutoff_laplacian_check("psi2", 100.0, 1, v), 2, 2001.0),
    ("w_condition_check", "dim"): row(lambda v: fl.w_condition_check(PROF, v), 0, 1.0),
    ("certificate_scaling_check", "N"):
        row(lambda v: fl.certificate_scaling_check(v, 1.5, 1.25, 1.0, -0.5), 0, 3.0),
    ("certificate_scaling_check", "p"):
        row(lambda v: fl.certificate_scaling_check(3, v, 1.25, 1.0, -0.5), 1.0),
    ("certificate_scaling_check", "q"):
        row(lambda v: fl.certificate_scaling_check(3, 1.5, v, 1.0, -0.5), BELOW_ONE),
    ("certificate_scaling_check", "alpha"):
        row(lambda v: fl.certificate_scaling_check(3, 1.5, 1.25, v, -0.5), BELOW_ZERO),
    ("certificate_scaling_check", "rho"):
        row(lambda v: fl.certificate_scaling_check(3, 1.5, 1.25, 1.0, v), -1.0),
    ("GaussianTerm", "coefficient"): row(lambda v: fl.GaussianTerm(v, 1.0, (0.0,)), "1"),
    ("GaussianTerm", "rate"): row(lambda v: fl.GaussianTerm(1.0, v, (0.0,)), 0.0),
    ("GaussianTerm", "center"): row(lambda v: fl.GaussianTerm(1.0, 1.0, (v,)), "0"),
    ("ProfileSpec.gaussian", "coefficient"): row(lambda v: fl.ProfileSpec.gaussian(v, 1.0), "1"),
    ("ProfileSpec.gaussian", "rate"): row(lambda v: fl.ProfileSpec.gaussian(1.0, v), 0.0),
    ("ProblemSpec", "dim"): row(lambda v: fl.ProblemSpec(v, 2.0, 2.0, 0.0, 0.0), 0, 1.0),
    ("ProblemSpec", "p"): row(lambda v: fl.ProblemSpec(1, v, 2.0, 0.0, 0.0), 1.0),
    ("ProblemSpec", "q"): row(lambda v: fl.ProblemSpec(1, 2.0, v, 0.0, 0.0), BELOW_ONE),
    ("ProblemSpec", "alpha"): row(lambda v: fl.ProblemSpec(1, 2.0, 2.0, v, 0.0), BELOW_ZERO),
    ("ProblemSpec", "rho"): row(lambda v: fl.ProblemSpec(1, 2.0, 2.0, 0.0, v), -1.0),
    ("profile_integral", "dim"): row(lambda v: fl.profile_integral(PROF, v), 0, 1.0),
    ("gaussian_weighted_integral", "dim"):
        row(lambda v: fl.gaussian_weighted_integral(PROF, v, 1.0), 0, 1.0),
    ("gaussian_weighted_integral", "rate"):
        row(lambda v: fl.gaussian_weighted_integral(PROF, 1, v), 0.0),
    ("HeatKernelPlan", "dim"): row(lambda v: fl.HeatKernelPlan(v, 64, 16.0), 0, 1.0, 4),
    ("HeatKernelPlan", "points_per_axis"):
        row(lambda v: fl.HeatKernelPlan(1, v, 16.0), 1, 64.0),
    ("HeatKernelPlan", "half_width"): row(lambda v: fl.HeatKernelPlan(1, 64, v), 0.0),
    ("HeatKernelPlan.multiplier", "t"): row(lambda v: PLAN.multiplier(v), BELOW_ZERO),
    ("apply", "t"): row(lambda v: fl.apply(PLAN, F, v), BELOW_ZERO),
    ("apply_direct", "t"): row(lambda v: fl.apply_direct(F, v), BELOW_ZERO),
    ("smoothing_check", "a"):
        row(lambda v: fl.smoothing_check(F, v, math.inf, [0.1]), BELOW_ONE, inf_ok=True),
    ("smoothing_check", "b"):
        row(lambda v: fl.smoothing_check(F, 2, v, [0.1]), math.nextafter(2.0, 0.0),
            inf_ok=True),
    ("smoothing_check", "t_list"): row(lambda v: fl.smoothing_check(F, 1, 2, [0.1, v]), 0.0),
    ("kernel_weight_constant", "dim"):
        row(lambda v: fl.kernel_weight_constant(PROF, v), 0, 1.0),
    ("comparison_lower_bound", "q"):
        row(lambda v: fl.comparison_lower_bound(PROF, TRAJ, v, dim=1), BELOW_ONE,
            inf_ok=True),
    ("comparison_lower_bound", "dim"):
        row(lambda v: fl.comparison_lower_bound(PROF, TRAJ, 2.0, dim=v), 0, 1.0),
    ("comparison_lower_bound", "tol"):
        row(lambda v: fl.comparison_lower_bound(PROF, TRAJ, 2.0, dim=1, tol=v),
            BELOW_ZERO, 1.0),
    ("SolverConfig", "dt0"): row(lambda v: fl.SolverConfig(dt0=v), 0.0),
    ("SolverConfig", "t_end"): row(lambda v: fl.SolverConfig(t_end=v), 0.0),
    ("SolverConfig", "blowup_threshold"): row(lambda v: fl.SolverConfig(blowup_threshold=v), 0.0),
    ("SolverConfig", "min_dt"): row(lambda v: fl.SolverConfig(dt0=0.01, min_dt=v), 0.0, 0.02),
    ("picard_solve", "T"): row(lambda v: fl.picard_solve(SPEC, F, None, v, nodes=4), 0.0),
    ("picard_solve", "nodes"): row(lambda v: fl.picard_solve(SPEC, F, None, 0.1, v), 1, 4.0),
    ("uniqueness_probe", "T"): row(lambda v: fl.uniqueness_probe(SPEC, v), 0.0),
    ("uniqueness_probe", "levels"):
        row(lambda v: fl.uniqueness_probe(SPEC, 0.1, levels=v), 0, 1.5),
}

# The exported callables whose numbers the table does not feed, each with
# the reason beside it.
EXEMPT = dict.fromkeys(
    ("delta", "sigma", "fujita_scaling_p", "p_star", "blowup_criterion", "gep_exponents",
     "r_window", "beta", "beta_upper_bound", "certificate_exponent"),
    "exponents' exact formula functions take Fractions and keep their own domain "
    "comparisons: verify's exponent_sign lemma calls them thousands of times, and "
    "test_exponent_sign_lemma_runs_the_library_with_fewest_operations pins their "
    "operation counts")
NUMERIC = {"float", "int", "float | None", "int | None"}


def _annotation(param):
    a = param.annotation
    return a.__forward_arg__ if isinstance(a, typing.ForwardRef) else a


def _target(name: str):
    """The exported callable, or the "Class.method" of an exported class."""
    return functools.reduce(getattr, name.split("."), fl)


def _numeric_parameters() -> set:
    """(name, parameter) for every numeric parameter of an exported callable
    or of a public method of an exported class, named "Class.method": one
    annotated float or int (or either or None), or one not annotated.

    Exceptions and enums take no number, and a named tuple that an exported
    function returns is a result record, built from checked values; so are
    its methods.  An instance method's first parameter is the instance.
    """
    exported = {name: getattr(fl, name) for name in fl.__all__}
    returned = {inspect.signature(obj).return_annotation for obj in exported.values()
                if inspect.isfunction(obj)}
    found = set()
    for name, obj in exported.items():
        if isinstance(obj, type) and (issubclass(obj, (BaseException, Enum))
                                      or (hasattr(obj, "_fields") and name in returned)):
            continue
        params = {name: list(inspect.signature(obj).parameters.values())}
        for attr, member in vars(obj).items() if isinstance(obj, type) else ():
            if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr)):
                method = list(inspect.signature(getattr(obj, attr)).parameters.values())
                params[f"{name}.{attr}"] = method[inspect.isfunction(member):]
        for key, method in params.items():
            for param in method:
                if param.annotation is param.empty or _annotation(param) in NUMERIC:
                    found.add((key, param.name))
    return found


def test_the_table_lists_every_numeric_parameter_of_an_exported_callable():
    found = _numeric_parameters()
    unlisted = {(name, p) for name, p in found if name not in EXEMPT} - set(TABLE)
    assert not unlisted, f"numeric parameters the domain table does not list: {unlisted}"
    # each row names a parameter of an exported callable, and each exemption
    # an exported callable that has numeric parameters
    for name, param in TABLE:
        assert param in inspect.signature(_target(name)).parameters, (name, param)
    assert set(EXEMPT) == {name for name, _ in found} - {name for name, _ in TABLE}
    assert set(EXEMPT) <= set(fl.EXPORTS["exponents"])


def test_the_guard_sees_an_unlisted_numeric_parameter(monkeypatch):
    def shifted(f: fl.GridField, t: float, by) -> fl.GridField:
        return f

    monkeypatch.setattr(fl.semigroup, "shifted", shifted, raising=False)
    monkeypatch.setattr(fl, "__all__", [*fl.__all__, "shifted"])
    monkeypatch.setitem(fl._HOME, "shifted", "semigroup")
    assert {("shifted", "t"), ("shifted", "by")} <= _numeric_parameters() - set(TABLE)
    # and one that a public method of an exported class takes
    monkeypatch.setattr(fl.HeatKernelPlan, "shifted", shifted, raising=False)
    assert {("HeatKernelPlan.shifted", "t"), ("HeatKernelPlan.shifted", "by")} <= \
        _numeric_parameters() - set(TABLE)
    assert ("HeatKernelPlan.shifted", "f") not in _numeric_parameters()


@pytest.mark.parametrize("key", sorted(TABLE), ids=".".join)
def test_each_numeric_parameter_refuses_values_outside_its_domain(key, monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran before the refusal")

    for attr in ("rfftn", "irfftn", "irfft", "ifft", "fft", "fftn"):
        monkeypatch.setattr(np.fft, attr, no_transform)
    call, edges, inf_ok = TABLE[key]
    for v in (True, math.nan, -math.inf, *(() if inf_ok else (math.inf,)), *edges):
        with pytest.raises(ValueError) as exc:
            call(v)
        # the name, or the name opening one of ProblemSpec's failed conditions
        assert re.search(rf"\b{key[1]}(\b|_)", str(exc.value)), (key, v, str(exc.value))


def test_a_numpy_integer_counts_everywhere():
    n = np.int64
    assert fl.sample(PROF, n(1), 16.0, n(64)).grid == F.grid
    assert fl.BoxGeometry(16.0, n(64)).resolve(n(1)) == (16.0, 64)
    assert fl.HeatKernelPlan(n(1), n(64), 16.0).grid == F.grid
    assert np.array_equal(fl.coordinates(16.0, n(64)), F.axis)
    assert fl.ProblemSpec(n(1), 2.0, 2.0, 0.0, 0.0, PROF) == SPEC
    assert fl.profile_integral(PROF, n(1)) == fl.profile_integral(PROF, 1)
    assert fl.kernel_weight_constant(PROF, n(1)) == fl.kernel_weight_constant(PROF, 1)
    assert fl.w_condition_check(PROF, n(1)) == fl.w_condition_check(PROF, 1)
    assert fl.cutoff_laplacian_check("psi2", 100.0, n(1), n(201)) == \
        fl.cutoff_laplacian_check("psi2", 100.0, 1, 201)
    assert fl.certificate_scaling_check(n(3), 1.5, 1.25, 1.0, -0.5) == \
        fl.certificate_scaling_check(3, 1.5, 1.25, 1.0, -0.5)
