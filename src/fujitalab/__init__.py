"""Numerical laboratory for a semilinear heat equation whose source term
couples a memory-free nonlocal amplitude ||u(t)||_q^alpha with a local power
|u|^p and a forcing profile switched on like t^rho.

The package splits into parameter handling (`problem`), exact critical
exponent arithmetic (`exponents`), periodic grid fields (`field`), the heat
propagator (`semigroup`), mild-solution time stepping and Picard iteration
(`solver`), analytic lemma verifiers (`oracles`), and a CLI (`cli`).
``EXPORTS`` below is the one list of the public names: each submodule's
``__all__`` is its entry, and the package exports them all in its order.

``import fujitalab`` loads no submodule.  Each loads on the first use of
itself or of one of its names, so the exponent calculus never pays for the
solver and a solver run never pays for the calculus.  The CLI loads in each
command only what that command uses (``exponents``: `problem` and
`exponents`; ``verify``: those and `oracles`; ``simulate``: `problem`,
`field`, `semigroup` and `solver`; ``sweep``: all five), and only
``sweep --jobs N`` with more than one worker loads the process pool.
"""

import importlib

__version__ = "0.1.0"

# The one list of public names: each submodule builds its __all__ from its entry.
EXPORTS = {
    "exponents": (
        "Regime", "BlowupCriterion", "GepExponents", "RWindow", "ExponentReport",
        "delta", "sigma", "fujita_scaling_p", "p_star", "blowup_criterion",
        "gep_exponents", "r_window", "beta", "beta_upper_bound",
        "certificate_exponent", "classify", "exponent_report",
    ),
    "field": (
        "BlowupSignal", "BoxGeometry", "GridField", "coordinates", "sample",
        "lq_norm", "nonlinearity",
    ),
    "oracles": (
        "MLResult", "SeriesDivergenceError", "mittag_leffler", "gronwall_bound",
        "cutoff_laplacian_check", "w_condition_check", "certificate_scaling_check",
    ),
    "problem": (
        "GaussianTerm", "ProfileSpec", "ProblemSpec", "ValidationReport",
        "SpecFieldError", "InadmissibleError", "profile_integral",
        "gaussian_weighted_integral", "validate",
    ),
    "semigroup": (
        "HeatKernelPlan", "apply", "apply_direct", "smoothing_check",
        "kernel_weight_constant", "comparison_lower_bound",
    ),
    "solver": (
        "Verdict", "SolverConfig", "TrajectoryRecord", "PicardResult", "UniquenessReport",
        "NonContractionError", "IterationLimitError", "run", "run_from_fields",
        "picard_solve", "uniqueness_probe",
    ),
}
_HOME = {name: sub for sub, names in EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    """Import a submodule for itself or one of its names.

    Nothing is cached here: each access forwards to the submodule, so a name
    patched there and restored later reads the same through the package.
    """
    if name in EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *EXPORTS, *__all__})
