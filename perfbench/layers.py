"""Per-layer attribution of a cProfile run over ckops.

A layer is a module of the package: a function's time and calls go to the
``src/ckops/<module>.py`` file it lives in.  The stdlib ``fractions`` module
is its own bucket.  Built-in functions (``math.comb``, ``pow``, ...) have no
file, so their self time goes to the layer of the function that called them,
using cProfile's per-caller timings.  Other stdlib code (``argparse``,
``json``) belongs to no layer.
"""

from __future__ import annotations

import fractions
import os
import pstats

import ckops
from ckops import arith, classify, cli, kgr, linalg, multisym, series, stable

LAYERS = ("arith", "linalg", "series", "multisym", "classify", "stable", "kgr", "cli", "fractions")

_PKG_DIR = os.path.dirname(os.path.realpath(ckops.__file__))
_FRACTIONS_FILE = os.path.realpath(fractions.__file__)

# (metric stem, function whose profile entry it reads, fields reported):
# "calls" is cProfile's call count, "self_s" its own time, "cum_s" the time
# including callees
FUNCTION_METRICS = (
    ("multisym.iter_partial", multisym.iter_partial, ("calls",)),
    ("multisym.subst_first", multisym.subst_first, ("calls",)),
    ("multisym.MultiSeries.__mul__", multisym.MultiSeries.__mul__, ("calls", "self_s")),
    ("classify.in_Qn", classify.in_Qn, ("calls",)),
    ("classify.in_Qnm", classify.in_Qnm, ("calls",)),
    ("classify.in_Opnm_phi", classify.in_Opnm_phi, ("calls",)),
    ("series.TruncSeries.__mul__", series.TruncSeries.__mul__, ("calls",)),
    ("series.TruncSeries.substitute", series.TruncSeries.substitute, ("calls",)),
    ("series.phi", series.phi, ("calls",)),
    ("series.Composer.__init__", series.Composer.__init__, ("cum_s",)),
    ("arith.PrimeBudget.exponent", arith.PrimeBudget.exponent, ("calls",)),
    ("arith.ProfiniteApprox.divide_exact", arith.ProfiniteApprox.divide_exact, ("calls",)),
    ("arith.crt_lift", arith.crt_lift, ("calls",)),
    ("arith.compatible_lift", arith.compatible_lift, ("calls",)),
    ("linalg.howell_form", linalg.howell_form, ("calls", "cum_s")),
    ("linalg.in_row_span", linalg.in_row_span, ("calls",)),
    ("linalg.solve_vandermonde", linalg.solve_vandermonde, ("cum_s",)),
    ("stable.construct_Gn", stable.construct_Gn, ("calls",)),
    ("stable.construct_Fn", stable.construct_Fn, ("cum_s",)),
    ("stable.tower_member", stable.tower_member, ("cum_s",)),
    ("kgr.fseq", kgr.fseq, ("calls",)),
    ("cli.main", cli.main, ("cum_s",)),
)
_FIELD = {"calls": 1, "self_s": 2, "cum_s": 3}  # index in a pstats entry

# metric stem -> lru_cache-wrapped function
CACHES = {
    "series.lg_cache": series._lg_coeffs,
    "series.chain_weights_cache": series.chain_weights,
    "series.stirling2_cache": series.stirling2,
    "kgr.fn_cache": kgr._fn_cached,
}


def _layer(filename: str) -> str | None:
    path = os.path.realpath(filename)
    if path == _FRACTIONS_FILE:
        return "fractions"
    if os.path.dirname(path) == _PKG_DIR:
        name = os.path.splitext(os.path.basename(path))[0]
        return name if name in LAYERS else None
    return None


def cache_snapshot() -> dict:
    return {name: fn.cache_info() for name, fn in CACHES.items()}


class CacheCounter:
    """Hits and misses summed over the intervals passed to ``add``."""

    def __init__(self):
        self.hits = {name: 0 for name in CACHES}
        self.misses = {name: 0 for name in CACHES}

    def add(self, before: dict, after: dict) -> None:
        for name in CACHES:
            self.hits[name] += after[name].hits - before[name].hits
            self.misses[name] += after[name].misses - before[name].misses

    def metrics(self) -> dict:
        out = {}
        for name, fn in CACHES.items():
            total = self.hits[name] + self.misses[name]
            out[f"{name}.hit_ratio"] = self.hits[name] / total if total else 0.0
            out[f"{name}.size"] = fn.cache_info().currsize
        return out


def layer_metrics(profile) -> dict:
    """``<layer>.self_s`` and ``<layer>.calls`` for every layer, plus the
    named function metrics, from a cProfile.Profile."""
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename == "~":
            for caller, (_cnc, _ccc, ctt, _cct) in callers.items():
                layer = _layer(caller[0])
                if layer:
                    self_s[layer] += ctt
            continue
        layer = _layer(filename)
        if layer:
            self_s[layer] += tt
            calls[layer] += nc
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    for stem, fn, fields in FUNCTION_METRICS:
        code = fn.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        for field in fields:
            out[f"{stem}.{field}"] = entry[_FIELD[field]] if entry else (0 if field == "calls" else 0.0)
    return out
