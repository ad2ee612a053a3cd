"""Exact power-series calculus for additive, multiplicative, and stable
operations in connective K-theory and graded K-theory: formal-group-law
derivatives, the composition ring, profinite integrality criteria, the
stable-membership tests, and the topological basis with its integer
invariants d_n.

The package loads lazily (PEP 562): ``import ckops`` runs no submodule, and
a submodule is imported on the first use of a name it exports
(``ckops.dn``) or of the submodule itself (``ckops.stable``).
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports through the package
_EXPORTS = {
    "arith": "IncompatibleCongruences InfiniteValuation PrecisionError PrimeBudget ProfiniteApprox"
    " compatible_lift crt_lift gen_binomial is_unit vp vp_factorial",
    "linalg": "ModMatrix howell_form in_howell_span in_row_span solve_vandermonde",
    "series": "Composer ProfiniteRing Q SeqWindow TruncSeries TruncationExhausted Z adams_series"
    " b_map compose_op desuspend lg_decompose lg_series phi valuation weighted_lg",
    "multisym": "MultiSeries NotIntegrable aformula_check integrate_symmetric"
    " is_double_symmetric is_symmetric iter_partial star_sum",
    "classify": "N33_sequence NotInGroup classical_approx decompose_Qn_hat in_Opnm_phi in_Qn"
    " in_Qnm rho_n",
    "stable": "BasisSeries DnRecord a_min construct_Fn construct_Gn decompose_S0 dn dn_tilde"
    " s_criterion s_oracle stable_mult_check tower_member twisted_adams",
    "kgr": "NumericalPoly decompose_TZ fseq interval_in_N pair reflect shift to_e_basis",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "suites", "cli")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
