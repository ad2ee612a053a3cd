"""The package's own contracts: lazy names, the modules each CLI command
loads, and value semantics of the record classes."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ckops
from ckops import (
    BasisSeries,
    DnRecord,
    NumericalPoly,
    PrimeBudget,
    ProfiniteApprox,
    SeqWindow,
    adams_series,
    construct_Fn,
    dn,
    s_criterion,
    twisted_adams,
)
from ckops.classify import Component, ComponentClass
from ckops.stable import CriterionReport

_SRC = str(Path(ckops.__file__).resolve().parent.parent)


def _python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports ckops from this tree."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return proc.stdout


# -- the lazy package ----------------------------------------------------------------


def test_every_exported_name_is_its_home_modules_object():
    assert len(set(ckops.__all__)) == len(ckops.__all__)
    for name in ckops.__all__:
        home = importlib.import_module(f"ckops.{ckops._HOME[name]}")
        assert getattr(ckops, name) is getattr(home, name), name
    assert set(ckops.__all__) <= set(dir(ckops))
    assert {"stable", "suites", "cli", "__version__"} <= set(dir(ckops))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ckops.no_such_name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ckops import *", namespace)
    assert set(ckops.__all__) <= set(namespace)
    assert namespace["dn"](6).value == 4032


def test_import_loads_no_submodule_until_a_name_is_used():
    out = _python(
        "import sys, ckops\n"
        "before = sorted(m for m in sys.modules if m.startswith('ckops'))\n"
        "value = ckops.stable.dn(3).value\n"
        "print(before, value, 'ckops.classify' in sys.modules)"
    )
    assert out.split() == ["['ckops']", "8", "False"]


# -- each CLI command loads only what it calls ---------------------------------------

_FOOTPRINT = """
import contextlib, io, json, sys
before = set(sys.modules)
from ckops.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# linalg loads only with the lattice routes (tower_member, s_oracle)
_STABLE_PATH = {"ckops", "ckops.cli", "ckops.arith", "ckops.series", "ckops.stable"}


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["check", "--test", "s"], _STABLE_PATH),
        (["dn", "--max", "4"], _STABLE_PATH),
        (["check", "--test", "qn"],
         {"ckops", "ckops.cli", "ckops.arith", "ckops.series", "ckops.multisym", "ckops.classify"}),
        (["verify", "adams", "--trunc", "4"],
         {"ckops", "ckops.cli", "ckops.arith", "ckops.series", "ckops.suites"}),
        (["verify", "basis", "--trunc", "4"], _STABLE_PATH | {"ckops.suites"}),
        (["check", "--test", "tower"], _STABLE_PATH | {"ckops.linalg"}),
    ],
)
def test_command_loads_only_the_modules_it_calls(tmp_path, argv, loaded):
    if argv[0] == "check":
        f = tmp_path / "a3.json"
        f.write_text(json.dumps(adams_series(3, 6).to_json()))
        argv = argv + ["--input", str(f)]
    new = json.loads(_python(_FOOTPRINT, *argv))
    assert {m for m in new if m.startswith("ckops")} == loaded
    assert "dataclasses" not in new


# -- zero runtime dependencies ---------------------------------------------------------

_EVERY_MODULE = """
import sys
before = {m.partition(".")[0] for m in sys.modules}  # what a bare interpreter loads
import json, pkgutil, ckops
names = [info.name for info in pkgutil.iter_modules(ckops.__path__)]
for name in names:
    __import__("ckops." + name)
added = {m.partition(".")[0] for m in sys.modules} - before - {"ckops"}
print(json.dumps({"modules": sorted(names), "foreign": sorted(added - sys.stdlib_module_names)}))
"""


def test_every_module_imports_only_the_standard_library():
    out = json.loads(_python(_EVERY_MODULE))
    files = sorted(f.stem for f in Path(ckops.__file__).parent.glob("*.py") if f.stem != "__init__")
    assert out["modules"] == files
    assert out["foreign"] == []


# -- the demos print their recorded output --------------------------------------------

_DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.stem for p in _DEMOS.glob("*.py")))
def test_demo_prints_its_recorded_output(demo):
    # as the CI demos step runs them: a fresh interpreter, no cached bytecode
    env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(_DEMOS / f"{demo}.py")], capture_output=True,
                          env=env, cwd=_DEMOS.parent, check=True)
    assert proc.stdout == (_DEMOS / "expected" / f"{demo}.txt").read_bytes()


def test_every_cache_is_bounded():
    # a long session must not grow a table without bound; the four caches
    # whose hit ratios the benchmark reads are among them
    caches = {}
    for info in pkgutil.iter_modules(ckops.__path__):
        module = importlib.import_module(f"ckops.{info.name}")
        caches.update((f"{info.name}.{name}", fn) for name, fn in vars(module).items()
                      if hasattr(fn, "cache_info"))
    assert {"series._lg_coeffs", "series.chain_weights", "series.stirling2", "kgr._fn_cached"} <= set(caches)
    for name, fn in caches.items():
        assert fn.cache_info().maxsize is not None, name


# -- value semantics of the record classes -------------------------------------------


def test_hashable_records_compare_and_hash_by_value():
    pairs = [
        (PrimeBudget((2, 3), (4, 4)), PrimeBudget.uniform([3, 2], 4), PrimeBudget((2, 3), (4, 5))),
        (SeqWindow(-1, [1, 2]), SeqWindow(-1, (1, 2)), SeqWindow(0, (1, 2))),
        (NumericalPoly((0, 1)), NumericalPoly([Fraction(0), 1]), NumericalPoly((0, 1, 0))),
    ]
    for a, same, other in pairs:
        assert a == same and hash(a) == hash(same)
        assert a != other
        assert a != tuple(a._fields())
    budget = PrimeBudget.uniform([2], 3)
    assert budget == budget  # the identity fast path


def test_unhashable_records_compare_by_value():
    budget = PrimeBudget.uniform([2, 3], 6)
    b = ProfiniteApprox.from_int(budget, 4)
    c = ProfiniteApprox.from_int(budget, 5)
    triples = [
        (dn(6), DnRecord(6, 4032, {2: 6, 3: 2, 7: 1}), dn(5)),
        (s_criterion(adams_series(3, 8), primes=[2, 5]), CriterionReport(True, None, []),
         CriterionReport(True, None, [(2, 3, 8)])),
        (construct_Fn(2, 6, budget), construct_Fn(2, 6, budget), construct_Fn(3, 6, budget)),
        (twisted_adams(b, c, 4), twisted_adams(b, c, 4), twisted_adams(c, c, 4)),
        (Component(1, {2: (1, 1)}, 2, Fraction(1)), Component(1, {2: (1, 1)}, 2, Fraction(1)),
         Component(1, {2: (1, 1)}, 4, Fraction(1))),
        (ComponentClass(2, True, Fraction(1, 3), None, {}),
         ComponentClass(2, True, Fraction(1, 3), None, {}),
         ComponentClass(2, False, None, (2, 1, 1), {})),
    ]
    for a, same, other in triples:
        assert a == same, a
        assert a != other, a
        with pytest.raises(TypeError):
            hash(a)
    assert BasisSeries("F", 0, adams_series(1, 2)) != construct_Fn(0, 2, budget)
