"""The package surface that perfbench/tracing.py wraps.

The benchmark instruments the package from outside, by replacing module
attributes that callers look up at call time. A rename or a changed call
route leaves its wrappers unset or unreached, and the benchmark then fails
or reads zeros. These tests read the tracer's target list and change nothing
under perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from seasonal_dispersal import (BoundaryCondition, DispersalOperator, Grid,
                                LaplaceKernel, periodic)

from helpers import P2, params

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_exists(tracing):
    for mod, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"seasonal_dispersal.{mod}")
        assert callable(getattr(owner, attr, None)), f"{mod}.{attr}"
    # the traced apply wrapper reads op.K.shape
    assert callable(DispersalOperator.apply)
    assert hasattr(DispersalOperator, "K")


def test_classify_reaches_critical_length_once(monkeypatch):
    calls = []
    crit = periodic.critical_length

    def counted(*args, **kwargs):
        calls.append(args)
        return crit(*args, **kwargs)

    monkeypatch.setattr(periodic, "critical_length", counted)
    out = periodic.classify(params(P2), LaplaceKernel(20.0), BoundaryCondition.DIRICHLET,
                            domain=Grid.centered(8.0, 64))
    assert len(calls) == 1
    assert out.ell_star is not None and out.lambda1 < 0
