"""The package surface that the benchmark under perfbench/ uses.

The benchmark instruments the package from outside, by replacing module
attributes that callers look up at call time, and reads fields of the
results those calls return. A rename or a changed call route leaves its
wrappers unset or unreached, and the benchmark then fails or reads zeros;
the capture wrappers read results on every untraced solve too. These tests
read the tracer's target list and extractors and change nothing under
perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import seasonal_dispersal as sd
from seasonal_dispersal import (BoundaryCondition, DispersalOperator, Extinction,
                                Grid, LaplaceKernel, PeriodicSolution, StepControl,
                                critical_length, find_periodic_solution, periodic,
                                principal_eigenpair)

from helpers import P1, P2, dirichlet_op, params

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


def test_extractors_read_real_results(tracing):
    # what the wrappers keep from assemble, principal_eigenpair,
    # critical_length and both outcomes of find_periodic_solution
    p1, p2 = params(P1), params(P2)
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, 24, p1.d)
    pair = principal_eigenpair(op, p1.a)
    assert tracing._op_n(op) == 24
    assert tracing._eigen(pair) == {"iterations": pair.iterations,
                                    "residual": pair.residual, "n": 24}

    sol = find_periodic_solution(p1, op, pair, StepControl.for_params(p1, 100))
    assert isinstance(sol, PeriodicSolution)
    rec = tracing._iteration(sol)
    assert rec["periods"] == 1  # the certified pair and its image
    assert rec["final_gap"] == sol.trace.gaps[-1] <= 1e-8
    assert rec["trace_bytes"] == 2 * (2 * 24 * 8) + 2 * 8  # upper, lower, gaps

    op2 = dirichlet_op(LaplaceKernel(20.0), 1.0, 24, p2.d)
    ext = find_periodic_solution(p2, op2, principal_eigenpair(op2, p2.a),
                                 StepControl.for_params(p2, 100))
    assert isinstance(ext, Extinction)
    rec = tracing._iteration(ext)
    assert rec["periods"] == 1 and rec["final_gap"] == ext.final_supnorm

    crit = critical_length(p2, LaplaceKernel(20.0))
    rec = tracing._bracket(crit)
    lo, hi = rec["bracket"]
    assert lo <= rec["ell_star"] <= hi
    assert rec["lambda_lo"] > 0.0 > rec["lambda_hi"]


def test_package_calls_of_the_benchmark():
    # perfbench/run.py times DispersalOperator.apply on a Grid.centered
    # operator, and the simulate-figure oracle of perfbench/workloads.py
    # evolves one period on a Grid(l1, l2, n) operator
    p = sd.SeasonParams(**P1)
    op = sd.assemble(sd.LaplaceKernel(scale=20.0), sd.Grid.centered(0.4, 16),
                     sd.BoundaryCondition.DIRICHLET, p.d)
    assert isinstance(op, sd.DispersalOperator)
    u = np.cos(np.pi * op.grid.nodes / 0.4)
    assert sd.DispersalOperator.apply(op, u).shape == (16,)
    op = sd.assemble(sd.LaplaceKernel(scale=20.0), sd.Grid(-0.2, 0.2, 16),
                     sd.BoundaryCondition.DIRICHLET, p.d)
    ctl = sd.StepControl(dt_good=0.004)
    end = sd.evolve(sd.StateVector(u), p, op, ctl, p.omega).final.values
    assert end.shape == (16,) and np.all(end > 0.0)


@pytest.mark.parametrize("seed", [1, 901, 902, 911])
def test_benchmark_cosine_starts_are_stepped_on_their_half(tmp_path, seed):
    # each workload's seeded habitat Grid(-hw, hw, n) has exactly mirrored
    # nodes, so its cosine start is even bit for bit and folded
    from seasonal_dispersal.config import parse_config
    from seasonal_dispersal.operator import _fold_width

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  TRACING.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for w in workloads.WORKLOADS.values():
        inputs = workloads.make_inputs(w, seed, tmp_path)
        cfg = parse_config((tmp_path / f"{w.name}.cfg").read_text())
        x = cfg.grid.nodes
        assert cfg.grid.l2 == inputs.half_width
        assert np.array_equal(x, -x[::-1])
        assert _fold_width(cfg.u0.values) == (cfg.grid.n + 1) // 2
