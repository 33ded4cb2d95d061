"""Numerical laboratory for a semilinear heat equation whose source term
couples a memory-free nonlocal amplitude ||u(t)||_q^alpha with a local power
|u|^p and a forcing profile switched on like t^rho.

The package splits into parameter handling (`problem`), exact critical
exponent arithmetic (`exponents`), periodic grid fields (`field`), the heat
propagator (`semigroup`), mild-solution time stepping and Picard iteration
(`solver`), analytic lemma verifiers (`oracles`), and a CLI (`cli`).
Each submodule's ``__all__`` is exactly what the package exports.
"""

from . import exponents, field, oracles, problem, semigroup, solver
from .exponents import *
from .field import *
from .oracles import *
from .problem import *
from .semigroup import *
from .solver import *

__version__ = "0.1.0"

__all__ = (exponents.__all__ + field.__all__ + oracles.__all__ + problem.__all__
           + semigroup.__all__ + solver.__all__)
