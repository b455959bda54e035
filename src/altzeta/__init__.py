"""Numerics for the alternating zeta function via finite partial sums.

The library evaluates the partial sums of the zeta and alternating zeta
Dirichlet series, verifies the exact algebraic identities relating them to
a closed-form integral and its right-endpoint Riemann sum, demonstrates by
computation that the alternating zeta function vanishes at the points
1 + 2k*pi*i/log 2 (k a nonzero integer) while taking the value log 2 at
s = 1, and measures how fast the quadrature defect decays.
"""

from .decay import (
    DEGENERACY_FLOOR,
    DecayFit,
    StripSample,
    defect_ladder,
    fit_decay,
    strip_sweep,
)
from .identities import (
    Residual,
    defect,
    integral_closed_form,
    residual_suite,
    riemann_sum,
)
from .kernel import MACHINE_EPSILON, SumResult, pow_neg, sum_fixed_order
from .partial_sums import DEFAULT_MAX_TERMS, band_sum, eta_partial, zeta_partial
from .zeros import (
    DEFAULT_K_LIMIT,
    ToleranceNotReached,
    ZeroCheck,
    ZeroPoint,
    eta_reference,
    eta_richardson,
    zero_check,
    zero_point,
)

__version__ = "0.1.0"

__all__ = [
    "DecayFit",
    "DEGENERACY_FLOOR",
    "DEFAULT_K_LIMIT",
    "DEFAULT_MAX_TERMS",
    "MACHINE_EPSILON",
    "Residual",
    "StripSample",
    "SumResult",
    "ToleranceNotReached",
    "ZeroCheck",
    "ZeroPoint",
    "band_sum",
    "defect",
    "defect_ladder",
    "eta_partial",
    "eta_reference",
    "eta_richardson",
    "fit_decay",
    "integral_closed_form",
    "pow_neg",
    "residual_suite",
    "riemann_sum",
    "strip_sweep",
    "sum_fixed_order",
    "zero_check",
    "zero_point",
    "zeta_partial",
]
