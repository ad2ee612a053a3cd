"""Exact power-series calculus for additive, multiplicative, and stable
operations in connective K-theory and graded K-theory: formal-group-law
derivatives, the composition ring, profinite integrality criteria, the
stable-membership tests, and the topological basis with its integer
invariants d_n.
"""

from .arith import (
    IncompatibleCongruences,
    InfiniteValuation,
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    compatible_lift,
    crt_lift,
    gen_binomial,
    is_unit,
    vp,
    vp_factorial,
)
from .linalg import ModMatrix, howell_form, in_howell_span, in_row_span, solve_vandermonde
from .series import (
    Composer,
    ProfiniteRing,
    Q,
    SeqWindow,
    TruncSeries,
    TruncationExhausted,
    Z,
    adams_series,
    b_map,
    compose_op,
    desuspend,
    lg_decompose,
    lg_series,
    phi,
    valuation,
    weighted_lg,
)
from .multisym import (
    ADD,
    MULT,
    MultiSeries,
    NotIntegrable,
    aformula_check,
    integrate_symmetric,
    is_double_symmetric,
    is_symmetric,
    iter_partial,
    partial_derivative,
    star_sum,
)
from .classify import (
    N33_sequence,
    NotInGroup,
    classical_approx,
    decompose_Qn_hat,
    in_Opnm_phi,
    in_Qn,
    in_Qnm,
    rho_n,
)
from .stable import (
    BasisSeries,
    DnRecord,
    a_min,
    construct_Fn,
    construct_Gn,
    decompose_S0,
    dn,
    dn_tilde,
    s_criterion,
    s_oracle,
    stable_mult_check,
    tower_member,
    twisted_adams,
)
from .kgr import (
    BiSeqWindow,
    NumericalPoly,
    decompose_TZ,
    fseq,
    interval_in_N,
    pair,
    reflect,
    shift,
    to_e_basis,
)

__version__ = "0.1.0"
