"""The loader and the alternating timer of scripts/bench.py.

The script imports every source tree it times into one process, each as a
package of its own name, and calls the trees' versions of a layer in turn.
These tests load the repo's own tree twice through its loader, and drive its
group measurement with recording fakes, so that nothing real is timed.
"""

import importlib.util
import os
import shutil
import sys
from pathlib import Path

import pytest

import seasonal_dispersal

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seasonal_dispersal"


@pytest.fixture(scope="module")
def bench():
    # the script pins OPENBLAS_NUM_THREADS on import; later tests start
    # processes that would inherit it
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    spec = importlib.util.spec_from_file_location("bench_script",
                                                  ROOT / "scripts" / "bench.py")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    finally:
        if threads is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = threads
    return mod


def _modules(name: str) -> dict:
    """The modules in sys.modules of the package ``name``, keyed by their
    name inside it ("" for the package)."""
    return {key.partition(".")[2]: mod for key, mod in sys.modules.items()
            if key.partition(".")[0] == name}


@pytest.fixture
def load(bench):
    """``bench.load_tree``, with every module it imported removed afterwards."""
    names = []

    def load(src, name):
        names.append(name)
        return bench.load_tree(src, name)

    yield load
    for key in [key for key in sys.modules if key.partition(".")[0] in names]:
        del sys.modules[key]


def test_a_tree_loaded_twice_shares_no_module(load):
    a = load(PACKAGE.parent, "bench_test_a")
    b = load(PACKAGE.parent, "bench_test_b")
    mods_a, mods_b = _modules("bench_test_a"), _modules("bench_test_b")
    assert set(mods_a) == set(mods_b)
    assert {"", "cli", "_csvtext", "evolution", "operator", "periodic",
            "spectral"} <= set(mods_a)
    assert not {id(mod) for mod in mods_a.values()} & {id(mod) for mod in mods_b.values()}
    for mod in (*mods_a.values(), *mods_b.values()):
        assert Path(mod.__file__).resolve().is_relative_to(PACKAGE)
    assert a.cli is mods_a["cli"] and b.cli is mods_b["cli"]
    assert a.evolution._rk4_span is not b.evolution._rk4_span
    assert a.evolution is not seasonal_dispersal.evolution
    assert a.SeasonParams is not b.SeasonParams


@pytest.mark.parametrize("module, old, new", [
    ("spectral.py", "from .operator import", "from seasonal_dispersal.operator import"),
    ("cli.py", "\ndef main(",
     "\ndef _late():\n    import seasonal_dispersal.evolution\n\n\ndef main("),
], ids=["from", "in_a_function"])
def test_a_tree_importing_itself_absolutely_is_refused(load, tmp_path, module, old, new):
    # the absolute import would load the package found on sys.path, this
    # checkout's, in place of the tree's own module
    tree = tmp_path / "seasonal_dispersal"
    shutil.copytree(PACKAGE, tree, ignore=shutil.ignore_patterns("__pycache__"))
    path = tree / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(ImportError, match=f"{module} imports seasonal_dispersal absolutely"):
        load(tmp_path, "bench_test_c")
    assert not _modules("bench_test_c")


def test_trees_are_called_in_alternating_order_with_equal_runs(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "MIN_RUNS", 6)
    monkeypatch.setattr(bench, "BUDGET_S", 0.0)
    monkeypatch.setattr(bench, "PASSES", 2)
    log = []

    def build(sd, key, tmp):
        assert (key, tmp) == ("group", str(tmp_path))
        log.append(("build", sd))

        def call():
            log.append(sd)
            return sd

        return [("x_ms", call, 1e3, lambda result: {"who": (sd, result)}),
                ("y_mib", lambda: log.append(("once", sd)) or bytearray(2**21), None, None)]

    monkeypatch.setattr(bench, "build", build)
    a, b = bench.measure_group(["A", "B"], "group", str(tmp_path))
    # each pass builds, the tree built first alternating, then makes one
    # warm-up round and MIN_RUNS / PASSES timed rounds, the order reversed
    # from round to round; the untimed row, the tracemalloc peak of a call
    # that allocates 2 MiB, is one call per tree, once
    timed = ["A", "B", "B", "A", "A", "B"]
    assert log == [("build", "A"), ("build", "B"), "A", "B", *timed,
                   ("once", "A"), ("once", "B"),
                   ("build", "B"), ("build", "A"), "A", "B", *timed]
    assert a["x_ms"]["runs"] == b["x_ms"]["runs"] == 6
    # each tree's extra fields, from its own warm-up result
    assert (a["x_ms"]["who"], b["x_ms"]["who"]) == (("A", "A"), ("B", "B"))
    for rec in (a, b):
        assert rec["y_mib"]["runs"] == 1
        assert 2.0 <= rec["y_mib"]["value"] < 2.1
    assert not {"ratio", "ratio_q1", "ratio_q3"} & set(a["x_ms"])
    assert 0 < b["x_ms"]["ratio_q1"] <= b["x_ms"]["ratio"] <= b["x_ms"]["ratio_q3"]


def test_identity_report_of_a_tree_against_itself_is_empty(bench, load, tmp_path, monkeypatch):
    # each copy runs the case into a directory of its own; a copy whose
    # summary differs in one line is reported with that line and nothing else
    a = load(PACKAGE.parent, "bench_test_a")
    b = load(PACKAGE.parent, "bench_test_b")
    case = {"attractor-1": bench.identity_corpus()["attractor-1"]}
    assert bench.identity_report([a, b], tmp_path / "same", case) == []
    for sd in (a, b):
        written = (tmp_path / "same" / sd.__name__ / "attractor-1").iterdir()
        assert sorted(p.name for p in written) == ["attractor.cfg", "attractor.csv",
                                                   "attractor.summary.txt"]
    monkeypatch.setattr(b.cli, "SCHEMA_VERSION", 2)
    assert bench.identity_report([a, b], tmp_path / "other", case) == [
        "attractor-1 bench_test_b against bench_test_a: attractor.summary.txt line 1: "
        "'schema_version = 2' != 'schema_version = 1'"]
