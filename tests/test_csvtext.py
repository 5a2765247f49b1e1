"""The CSV formatter, in-process and as the filter process of ``simulate``."""

import subprocess
import sys

import numpy as np
import pytest

from seasonal_dispersal import _csvtext, cli

FILTER = [sys.executable, "-I", "-S", _csvtext.__file__]
NODES = np.linspace(-0.2, 0.2, 5)


def rows():
    """Rows of both widths: folded (3 of 5 values) and full (5)."""
    rng = np.random.default_rng(5)
    full = rng.uniform(0.0, 2.0, 5)
    return [(0.0, rng.uniform(0.0, 2.0, 3)), (0.1, full),
            (1 / 3, np.array([0.0, -0.0, 5e-324])), (60.0, 1e22 * full)]


def stream(rows) -> bytes:
    return (_csvtext.stream_head("t,x,u", NODES)
            + b"".join(_csvtext.RECORD.pack(t, len(row)) + row.tobytes() for t, row in rows)
            + _csvtext.END)


@pytest.mark.parametrize("n_rows", [4, 0])
def test_filter_writes_the_in_process_bytes(tmp_path, n_rows):
    data = rows()[:n_rows]
    cli._atomic_write(str(tmp_path / "in_process.csv"), _csvtext.lines("t,x,u", data, NODES))
    with open(tmp_path / "filter.csv", "wb") as out:
        run = subprocess.run(FILTER, input=stream(data), stdout=out,
                             stderr=subprocess.PIPE, timeout=60)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "filter.csv").read_bytes() == \
        (tmp_path / "in_process.csv").read_bytes()


def test_cut_stream_exits_nonzero():
    data = stream(rows())
    head = len(_csvtext.stream_head("t,x,u", NODES))
    # inside the header line, at the end of the head, inside a record, and
    # before the end marker
    for cut in (2, head, head + 20, len(data) - len(_csvtext.END)):
        run = subprocess.run(FILTER, input=data[:cut], capture_output=True, timeout=60)
        assert run.returncode == 1, (cut, run.stderr)


def test_imports_only_the_standard_library():
    code = ("import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('_csvtext', {_csvtext.__file__!r})\n"
            "before = set(sys.modules)\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "outside = sorted(m for m in set(sys.modules) - before\n"
            "                 if m.split('.')[0] not in sys.stdlib_module_names)\n"
            "assert not outside, outside\n")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
