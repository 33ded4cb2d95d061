"""Profile and parameter-record checks: closed-form Gaussian integrals against
adaptive quadrature, JSON round trips, and the two error channels (malformed
field vs inadmissible values)."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from fujitalab.field import sample
from fujitalab.oracles import w_condition_check
from fujitalab.problem import (
    KERNEL_AVERAGE_TOL,
    GaussianTerm,
    InadmissibleError,
    ProblemSpec,
    ProfileSpec,
    SpecFieldError,
    gaussian_weighted_integral,
    profile_integral,
    profile_min_rate,
    profile_on_axis,
    profile_sign,
    scale_profile,
    validate,
)
from fujitalab.semigroup import comparison_lower_bound, kernel_weight_constant


def test_profile_kinds():
    # a profile is its terms; the JSON "kind" is written from them and
    # checked against them when read
    assert ProfileSpec.zero() == ProfileSpec(())
    assert ProfileSpec.zero().to_json_dict() == {"kind": "zero", "terms": []}
    g = ProfileSpec.gaussian(1.0, 2.0, (0.0,))
    assert g.terms == (GaussianTerm(1.0, 2.0, (0.0,)),)
    assert g.to_json_dict() == {"kind": "gaussian_sum", "terms": [[1.0, 2.0, [0.0]]]}
    for prof in (ProfileSpec.zero(), g):
        assert ProfileSpec.from_json_dict(prof.to_json_dict()) == prof
    for d in ({"kind": "splines"}, {"kind": "zero", "terms": [[1.0, 1.0, [0.0]]]},
              {"kind": "gaussian_sum", "terms": []}):
        with pytest.raises(SpecFieldError):
            ProfileSpec.from_json_dict(d)


def test_gaussian_term_validation():
    with pytest.raises(ValueError):
        GaussianTerm(1.0, 0.0, (0.0,))
    with pytest.raises(ValueError):
        GaussianTerm(1.0, -2.0, (0.0,))
    with pytest.raises(ValueError):
        GaussianTerm(math.inf, 1.0, (0.0,))
    with pytest.raises(ValueError):
        GaussianTerm(1.0, 1.0, (math.nan,))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_profile_on_axis_matches_pointwise_reference(dim, gauss_sum):
    rows = [(1.0, 1.0, (0.3, -0.2, 0.5)[:dim]), (-0.4, 2.5, (0.0, 1.0, -1.5)[:dim]),
            (0.7, 0.2, (-2.0,) * dim)]
    prof = ProfileSpec.gaussian_sum(rows)
    ax = np.linspace(-6.0, 5.0, 23)
    vals = profile_on_axis(prof, dim, ax)
    assert vals.shape == (23,) * dim
    pts = np.stack(np.meshgrid(*([ax] * dim), indexing="ij"), axis=-1)
    assert np.allclose(vals, gauss_sum(rows, pts), rtol=0, atol=1e-15)
    assert not profile_on_axis(ProfileSpec.zero(), dim, ax).any()
    with pytest.raises(ValueError):
        profile_on_axis(prof, dim + 1, ax)  # centres of another dimension


def test_profile_integral_matches_quadrature(gauss_sum):
    rows = [(0.8, 1.0, (0.0,)), (-1.0, 2.0, (0.3,))]
    prof = ProfileSpec.gaussian_sum(rows)
    exact = profile_integral(prof, 1)
    num, err = quad(lambda x: float(gauss_sum(rows, [x])), -np.inf, np.inf)
    assert abs(exact - num) <= 1e-9 + 10 * err
    # dim 2 via separability: each isotropic term integrates per axis
    prof2 = ProfileSpec.gaussian_sum([(0.8, 1.0, (0.0, 0.0)), (-1.0, 2.0, (0.3, 0.0))])
    exact2 = profile_integral(prof2, 2)
    by_hand = sum(t.coefficient * (math.pi / t.rate) for t in prof2.terms)
    assert exact2 == pytest.approx(by_hand, rel=1e-15)
    with pytest.raises(ValueError):
        profile_integral(prof, 0)


def test_gaussian_weighted_integral_matches_quadrature(gauss_sum):
    rows = [(0.8, 1.0, (0.0,)), (-1.0, 2.0, (0.3,))]
    prof = ProfileSpec.gaussian_sum(rows)
    rate = 0.7
    exact = gaussian_weighted_integral(prof, 1, rate)
    num, err = quad(lambda x: math.exp(-rate * x**2) * float(gauss_sum(rows, [x])),
                    -np.inf, np.inf)
    assert abs(exact - num) <= 1e-9 + 10 * err
    with pytest.raises(ValueError):
        gaussian_weighted_integral(prof, 1, 0.0)


def test_scale_and_min_rate():
    prof = ProfileSpec.gaussian_sum([(1.0, 3.0, (0.0,)), (2.0, 0.5, (1.0,))])
    assert profile_min_rate(prof) == 0.5
    assert profile_min_rate(ProfileSpec.zero()) == math.inf
    doubled = scale_profile(prof, 2.0)
    assert [t.coefficient for t in doubled.terms] == [2.0, 4.0]
    assert scale_profile(ProfileSpec.zero(), 5.0).terms == ()


def _spec_dict(**overrides):
    d = {
        "dim": 1,
        "p": 2.0,
        "q": 2.0,
        "alpha": 0.0,
        "rho": 0.0,
        "u0": {"kind": "gaussian_sum", "terms": [[0.5, 1.0, [0.0]]]},
        "w": {"kind": "zero", "terms": []},
    }
    d.update(overrides)
    return d


def test_json_round_trip():
    spec = ProblemSpec.from_json_dict(_spec_dict())
    again = ProblemSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()


def test_spec_hash_is_content_addressed():
    a = ProblemSpec.from_json_dict(_spec_dict())
    b = ProblemSpec.from_json_dict(_spec_dict(p=2.5))
    assert a.spec_hash() != b.spec_hash()
    # key order in the source dict must not matter
    scrambled = json.loads(json.dumps(_spec_dict(), sort_keys=True))
    assert ProblemSpec.from_json_dict(scrambled).spec_hash() == a.spec_hash()


def test_malformed_fields_raise_spec_field_error():
    def gsum(*terms):
        return {"kind": "gaussian_sum", "terms": list(terms)}

    for overrides, expected in (
        ({"p": "three"}, ("p", "must be a number, got str")),
        ({"p": True}, ("p", "must be a number, got bool")),
        ({"p": 10**400}, ("p", "int too large to convert to float")),
        ({"dim": 10**400}, ("dim", "int too large to convert to float")),
        ({"dim": 1.5}, ("dim", "must be an integer")),
        ({"dim": math.nan}, ("dim", "must be an integer")),
        ({"dim": math.inf}, ("dim", "must be an integer")),
        ({"u0": [1.0, 1.0, [0.0]]}, ("u0", "profile must be an object")),
        ({"u0": {"kind": "wavelets"}},
         ("u0.kind", "must be one of ('gaussian_sum', 'zero')")),
        ({"u0": {"kind": "gaussian_sum", "terms": "nope"}}, ("u0.terms", "must be a list")),
        ({"u0": gsum([1.0, 1.0])},
         ("u0.terms[0]", "not enough values to unpack (expected 3, got 2)")),
        ({"w": {"kind": "zero", "terms": [[1.0, 1.0, [0.0]]]}},
         ("w", "zero profile carries no terms")),
        ({"w": gsum()}, ("w", "gaussian_sum needs at least one term")),
        ({"u0": gsum([1.0, 1.0, [0.0, 0.0]])}, ("spec", "u0 term center must have dim 1")),
        ({"u0": gsum([0.5, 1.0, [0.0]], ["x", 1.0, [0.0]])},
         ("u0.terms[1]", "coefficient must be a real number, got 'x'")),
        ({"u0": gsum(["0.5", "1", "12"])},
         ("u0.terms[0]", "coefficient must be a real number, got '0.5'")),
        ({"u0": gsum([0.5, 1.0, [True]])},
         ("u0.terms[0]", "center must be a real number, got True")),
        ({"u0": gsum([10**400, 1.0, [0.0]])},
         ("u0.terms[0]", "int too large to convert to float")),
        ({"u0": gsum([1.0, -1.0, [0.0]])},
         ("u0.terms[0]", "rate must be positive and finite, got -1.0")),
        ({"u0": gsum([1.0, 1.0, 0.0])}, ("u0.terms[0]", "'float' object is not iterable")),
    ):
        with pytest.raises(SpecFieldError) as exc:
            ProblemSpec.from_json_dict(_spec_dict(**overrides))
        assert (exc.value.field_name, exc.value.reason) == expected, overrides
    missing = _spec_dict()
    del missing["q"]
    with pytest.raises(SpecFieldError) as exc:
        ProblemSpec.from_json_dict(missing)
    assert exc.value.field_name == "q"
    with pytest.raises(SpecFieldError):
        ProblemSpec.from_json_dict([1, 2, 3])


def test_inadmissible_values_raise_inadmissible_error():
    cases = {
        "dim_positive_integer": {"dim": 0},
        "p_gt_1": {"p": 1.0},
        "q_ge_1": {"q": 0.5},
        "alpha_nonneg": {"alpha": -1.0},
        "rho_gt_minus_1": {"rho": -1.0},
    }
    for name, overrides in cases.items():
        with pytest.raises(InadmissibleError) as exc:
            ProblemSpec.from_json_dict(_spec_dict(**overrides))
        assert name in exc.value.failed_conditions


# ----------------------------------------------------- sign decision

def test_profile_sign_on_random_mixed_sums(gauss_sum):
    # a "no" witness is negative under the hand-written sum, and a "yes" is
    # not contradicted by a dense sample: a grid and random points
    rng = np.random.default_rng(31)
    answers = []
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        rows = [(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.2, 3.0)),
                 tuple(float(y) for y in rng.uniform(-1.5, 1.5, dim)))
                for _ in range(rng.integers(2, 5))]
        nonneg, witness = profile_sign(ProfileSpec.gaussian_sum(rows), dim)
        answers.append(nonneg)
        if nonneg is False:
            assert gauss_sum(rows, witness) < 0, rows
        elif nonneg:
            ax = np.linspace(-4.0, 4.0, 41)
            grid = np.stack(np.meshgrid(*[ax] * dim, indexing="ij"), axis=-1)
            assert witness is None
            assert gauss_sum(rows, grid).min() >= -KERNEL_AVERAGE_TOL, rows
            points = rng.uniform(-8.0, 8.0, (4000, dim))
            assert gauss_sum(rows, points).min() >= -KERNEL_AVERAGE_TOL, rows
    assert answers.count(True) > 30 and answers.count(False) > 150


# e^{-|x|^2} - 0.5 e^{-2|x-y|^2} >= 0 iff |x|^2 - 2|x-y|^2 <= ln 2 for every
# x; the left side peaks at 2|y|^2, so |y|^2 <= 0.34 keeps these nonnegative
NONNEG_MIXED = [
    [(1.0, 1.0, (0.0,)), (-0.5, 2.0, (0.3,))],
    [(1.0, 1.0, (0.0, 0.0)), (-0.5, 2.0, (0.1, 0.0))],
    [(1.0, 1.0, (0.0,) * 3), (-0.5, 2.0, (0.1, 0.0, -0.1))],
]


def test_profile_sign_says_yes_to_nonnegative_mixed_sums(monkeypatch):
    for rows in NONNEG_MIXED:
        assert profile_sign(ProfileSpec.gaussian_sum(rows), len(rows[0][2])) == (True, None)
    # terms of one rate and centre are merged: these sums are 0 and e^{-x^2}
    for c in (1.0, 2.0):
        assert profile_sign(ProfileSpec.gaussian_sum(
            [(c, 1.0, (0.0,)), (-1.0, 1.0, (0.0,))]), 1) == (True, None)
    # a used-up box budget is undecided, not yes
    monkeypatch.setattr("fujitalab.problem.SIGN_BOXES", 1)
    rows = NONNEG_MIXED[2]
    assert profile_sign(ProfileSpec.gaussian_sum(rows), 3) == (None, None)


def test_a_far_field_past_float_range_is_undecided_and_not_certified():
    # 2e^{-x^2} - e^{-(x - 1e-6)^2} < 0 only for x > ln(2)/2e-6, where both
    # terms underflow; equal least rates at distinct centres leave it open
    w = ProfileSpec.gaussian_sum([(2.0, 1.0, (0.0,)), (-1.0, 1.0, (1e-6,))])
    assert profile_sign(w, 1) == (None, None)
    rep = w_condition_check(w, 1)
    assert not rep.holds_kernel_nonneg and rep.witness is None
    traj = SimpleNamespace(times=[1.0], q_norms=[1.0])
    assert comparison_lower_bound(w, traj, 2.0, dim=1).skipped == "data sign undecided"


def test_a_far_field_radius_past_float_range_is_undecided(monkeypatch):
    # the centres lie 2e308 apart, so the far-field radius overflows to inf
    # and the sign is left open before the box search, which needs numpy
    w = ProfileSpec((GaussianTerm(1, 1, (-1e308,)), GaussianTerm(-1, 2, (1e308,))))
    monkeypatch.setattr("fujitalab.problem.np", None)
    assert profile_sign(w, 1) == (None, None)


def test_center_dimension_must_match():
    with pytest.raises(ValueError):
        ProblemSpec(2, 2.0, 2.0, 0.0, 0.0, ProfileSpec.gaussian(1.0, 1.0, (0.0,)))


def test_profile_of_another_dimension_is_refused():
    # a 2-D Gaussian asked for its 1-D certificate, a 1-D one for a 3-D constant
    with pytest.raises(ValueError, match="dim"):
        w_condition_check(ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0)), 1)
    with pytest.raises(ValueError, match="dim"):
        kernel_weight_constant(ProfileSpec.gaussian(1.0, 1.0, (0.0,)), dim=3)
    with pytest.raises(ValueError, match="dim"):
        gaussian_weighted_integral(ProfileSpec.gaussian(1.0, 1.0, (0.0,)), 2, 1.0)
    with pytest.raises(ValueError, match="dim"):
        profile_sign(ProfileSpec.gaussian(1.0, 1.0, (0.0,)), 2)
    # pi for this 2-D Gaussian, not the 1-D sqrt(pi)
    with pytest.raises(ValueError, match="dim"):
        profile_integral(ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0)), 1)
    # sampling a 3-D centre on a 2-D grid would drop its third coordinate,
    # and a 1-D centre on a 2-D grid would index past it
    with pytest.raises(ValueError, match="dim"):
        sample(ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0, 5.0)), 2, 8.0, 16)
    with pytest.raises(ValueError, match="dim"):
        sample(ProfileSpec.gaussian(1.0, 1.0, (0.0,)), 2, 8.0, 16)


def test_parameter_bands():
    # base region only
    rep = validate(ProblemSpec(1, 2.0, 2.0, 0.0, 0.0))
    assert rep.lwp_ok and rep.uniq_ok
    # the open band 0 < alpha < 1 breaks the fixed-point hypotheses
    rep = validate(ProblemSpec(1, 2.0, 2.0, 0.5, 0.0))
    assert not rep.lwp_ok
    assert "alpha_fixed_point_ok" in rep.failed()
    # scaling bound q > dim*(p-1)/2
    rep = validate(ProblemSpec(3, 3.0, 2.0, 0.0, 0.0))
    assert not rep.conditions["q_gt_scaling"]
    # uniqueness additionally wants q >= p
    rep = validate(ProblemSpec(1, 3.0, 2.0, 0.0, 0.0))
    assert rep.lwp_ok and not rep.uniq_ok


def test_validate_reads_the_record():
    spec = ProblemSpec.from_json_dict(_spec_dict())
    rep = validate(spec)
    assert rep.failed() == []
