"""Multiplicative dependence of integer vectors on hyperplanes.

Exact decision procedures, exhaustive counts stratified by multiplicative
rank, rational hypercube slice volumes, and the asymptotic constants those
counts converge to.
"""

from .errors import RegimeError
from .arith import SignedFactorization, f_base, factorize, gcd_vec, psi0, radical
from .relations import (
    full_support_relation,
    has_full_support_relation,
    is_dependent,
    mult_rank,
    relation,
    verify_relation,
)
from .slicevol import V_alpha, V_alpha_positive, mm_half_cube_Q, mm_unit_cube_Q, simplex_Q
from .latticecount import (
    CountReport,
    CurveSystemSpec,
    DomainSpec,
    HyperplaneSpec,
    count_S,
    covolume_ratio,
    hyperplane_lattice_count,
)
from .constants import (
    C0,
    C1,
    C1_k3,
    C2_k3,
    C_e1,
    C_k2,
    C_positive,
    C_total,
    ConstantBreakdown,
    S2prime,
    alpha_pm,
    alpha_star,
    delta,
)

__version__ = "0.1.0"

__all__ = [
    "RegimeError",
    "SignedFactorization", "factorize", "radical", "psi0", "f_base", "gcd_vec",
    "is_dependent", "relation", "mult_rank",
    "has_full_support_relation", "full_support_relation", "verify_relation",
    "mm_unit_cube_Q", "mm_half_cube_Q", "simplex_Q", "V_alpha", "V_alpha_positive",
    "HyperplaneSpec", "DomainSpec", "CountReport", "CurveSystemSpec",
    "covolume_ratio", "hyperplane_lattice_count", "count_S",
    "alpha_star", "alpha_pm", "delta", "C0", "C1", "C2_k3", "C1_k3",
    "S2prime", "C_k2", "C_e1", "C_total", "C_positive", "ConstantBreakdown",
    "__version__",
]
