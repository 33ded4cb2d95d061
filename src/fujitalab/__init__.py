"""Numerical laboratory for a semilinear heat equation whose source term
couples a memory-free nonlocal amplitude ||u(t)||_q^alpha with a local power
|u|^p and a forcing profile switched on like t^rho.

The package splits into parameter handling (`problem`), exact critical
exponent arithmetic (`exponents`), periodic grid fields (`field`), the heat
propagator (`semigroup`), mild-solution time stepping and Picard iteration
(`solver`), analytic lemma verifiers (`oracles`), and a CLI (`cli`).
Each submodule's ``__all__`` is exactly what the package exports.

``import fujitalab`` loads `problem`, `field`, `semigroup` and `solver`.
`exponents` and `oracles` load on the first use of any of their names, so a
run that never asks for the exponent calculus or the lemma suite does not
pay for importing them.  The CLI loads them only in the commands that use
them, and only ``sweep --jobs N`` with more than one worker loads the
process pool.
"""

import importlib

from .field import *
from .problem import *
from .semigroup import *
from .solver import *

__version__ = "0.1.0"

# The names of the submodules that load on first use, as in their __all__
# (tests/test_package.py checks the package __all__ against the submodules').
_ON_FIRST_USE = {
    "exponents": (
        "Regime", "BlowupCriterion", "GepExponents", "RWindow", "ExponentReport",
        "delta", "sigma", "fujita_scaling_p", "p_star", "blowup_criterion",
        "gep_exponents", "r_window", "beta", "beta_upper_bound",
        "certificate_exponent", "classify", "exponent_report",
    ),
    "oracles": (
        "MLResult", "SeriesDivergenceError", "mittag_leffler", "gronwall_bound",
        "cutoff_laplacian_check", "w_condition_check", "certificate_scaling_check",
    ),
}
__all__ = [name for sub in ("exponents", "field", "oracles", "problem", "semigroup", "solver")
           for name in (_ON_FIRST_USE[sub] if sub in _ON_FIRST_USE else globals()[sub].__all__)]


def __getattr__(name):
    """Import an on-first-use submodule for itself or one of its names.

    Nothing is cached here: each access forwards to the submodule, so a name
    patched there and restored later reads the same through the package.
    """
    if name in _ON_FIRST_USE:
        return importlib.import_module(f"{__name__}.{name}")
    for sub, names in _ON_FIRST_USE.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{sub}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ON_FIRST_USE, *__all__})
