#!/usr/bin/env python3
"""Time the solver layer by layer at fixed sizes and record the numbers.

Each layer is timed at n = 128, 512 and 2048, or at the size or settings
given below, on the P1 operator (Laplace kernel of scale 20 on the habitat
[-0.2, 0.2], Dirichlet) unless said otherwise:

* ``operator.assemble_us``: one ``assemble`` call;
* ``operator.apply_us``: one ``DispersalOperator.apply``;
* ``spectral.eigen_ms``: one ``principal_eigenpair`` at its default
  tolerance, with the operator products it took beside it;
* ``spectral.eigen_wide_ms``: the same on the ``threshold-wide`` operator
  (P2, kernel scale 1, habitat [-50, 50]), at n = 2048 only, where the top
  two eigenvalues of K lie close together;
* ``spectral.critical_length_ms``: one ``critical_length`` for P2 at
  tolerance 1e-4, keyed by the kernel scale (1 and 20), with the number of
  eigen-solves it made beside it;
* ``evolution.period_map_ms``: one ``period_map`` at 400 RK4 steps per
  good season;
* ``evolution.rk4_step_us``: one RK4 step of one state, the mean over a
  50-step good-season span (the span builds its matrix once), and
  ``evolution.rk4_step_us.block2`` and ``.block3`` the same for an (n, 2)
  and an (n, 3) block of states (the periodic solve carries its pair as
  an (n, 3) block);
* ``evolution.simulate_figure_ms``: the ``simulate`` run behind the figures
  (60 periods from the cosine start at n = 128 only, nominal step 1/2000 of
  the good season, a sample every 100 nominal steps): ``fit_step`` and
  ``evolve`` at the step it chose, with the steps per good season beside it;
* ``periodic.find_ms``: one ``find_periodic_solution`` at 400 RK4 steps
  per good season (the ``attractor`` benchmark config), at n = 128 only:
  the monotone loop it replaced took minutes at n = 2048; with the
  column-periods it took at that step and before it, on the coarse-step
  period map, beside it;
* ``periodic.find_p2_ms``: the same solve at P2 (d = 1) on the habitat
  [-3.34, 3.34] of the same kernel, where lambda1 is about -0.02, at n = 128
  only, a case nearer the persistence threshold, with the same counts;
* ``periodic.find_near_ms``: one P2 solve on the habitat of length 4.319876
  at n = 64, 200 RK4 steps per good season and a budget of 400 periods,
  where lambda1 is about -2.6e-4, with the same counts beside it (or, on a
  tree where it raises, the error's class name and the time to the raise).

Each figure is the median of repeated calls after one warm-up call. BLAS is
pinned to one thread for this process. The results are merged into the JSON
file under ``--label``, so two source trees can be recorded side by side:

    python scripts/bench.py --label change --out BENCH.json
    python scripts/bench.py --src ../other-checkout/src --label parent --out BENCH.json
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (128, 512, 2048)
FIND_N = 128
P2_LENGTH = 6.68
NEAR = dict(length=4.319876, n=64, steps=200, max_periods=400)
P2 = dict(delta=0.2, a=1.2, b=0.6, d=1.0, rho=0.6, omega=1.0)
WIDE_N = 2048
CRITICAL_SCALES = (1.0, 20.0)
ABOUT = ("Median wall time per call after one warm-up call, BLAS pinned to one "
         "thread, on the P1 operator (Laplace kernel of scale 20, habitat "
         "[-0.2, 0.2], Dirichlet). spectral.eigen_ms is one principal_eigenpair "
         "('products': operator products taken); spectral.eigen_wide_ms the same "
         "on P2, kernel scale 1, habitat [-50, 50], n = 2048; "
         "spectral.critical_length_ms one critical_length for P2 at tol 1e-4, "
         "keyed by kernel scale ('eigen_solves': principal_eigenpair calls); "
         "evolution.period_map_ms, periodic.find_ms and periodic.find_p2_ms "
         "(n = 128 only) use 400 RK4 steps per good season; periodic.find_p2_ms "
         "solves P2 (d = 1) on the habitat [-3.34, 3.34], lambda1 about -0.02; "
         "periodic.find_near_ms solves P2 on a habitat of length 4.319876, n = 64, "
         "200 steps per good season, at most 400 periods, lambda1 about -2.6e-4 "
         "('error': the class raised). The periodic.find layers record 'periods', "
         "the column-periods taken at the given step, and 'coarse_periods', those "
         "taken before on the coarse-step period map. "
         "evolution.rk4_step_us is one RK4 step, the mean over a 50-step span, "
         "of a state (.block2, .block3: of an (n, 2), (n, 3) block). "
         "evolution.simulate_figure_ms (n = 128 only) is fit_step plus evolve "
         "over 60 periods from the cosine start, nominal 2000 steps per good "
         "season and stride 100 ('steps_per_season': the steps evolve took).")
STEPS_PER_SEASON = 400
SPAN_STEPS = 50
FIGURE_PERIODS = 60
BUDGET_S = 1.0
MIN_RUNS = 3


def median_seconds(fn) -> tuple[float, int]:
    """Median wall seconds of ``fn()`` over at least MIN_RUNS calls and
    BUDGET_S seconds, after one untimed warm-up call."""
    fn()
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_RUNS or time.perf_counter() - start < BUDGET_S:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples)


def periods(sol) -> dict:
    """The column-periods a periodic solve took at its step and before it."""
    return {"periods": sol.periods, "coarse_periods": sol.coarse_periods}


def measure(sd, n: int) -> dict:
    evolution = sd.evolution
    p = sd.SeasonParams(delta=0.2, a=1.2, b=0.6, d=0.6, rho=0.6, omega=1.0)
    kernel = sd.LaplaceKernel(20.0)
    grid = sd.Grid.centered(0.4, n)
    dirichlet = sd.BoundaryCondition.DIRICHLET
    op = sd.assemble(kernel, grid, dirichlet, p.d)
    u = np.cos(np.pi * grid.nodes / 0.4)
    ctl = sd.StepControl.for_params(p, STEPS_PER_SEASON)

    p2 = sd.SeasonParams(**P2)
    pair = sd.principal_eigenpair(op, p.a)
    layers = [
        ("operator.assemble_us", lambda: sd.assemble(kernel, grid, dirichlet, p.d), 1e6, {}),
        ("operator.apply_us", lambda: op.apply(u), 1e6, {}),
        ("spectral.eigen_ms", lambda: sd.principal_eigenpair(op, p.a), 1e3,
         {"products": pair.iterations}),
        ("evolution.period_map_ms", lambda: sd.period_map(sd.StateVector(u), p, op, ctl),
         1e3, {})]
    if n == WIDE_N:
        wide = sd.assemble(sd.LaplaceKernel(1.0), sd.Grid.centered(100.0, n), dirichlet, p2.d)
        layers.append(("spectral.eigen_wide_ms", lambda: sd.principal_eigenpair(wide, p2.a),
                       1e3, {"products": sd.principal_eigenpair(wide, p2.a).iterations}))
    good = p.good_season_length
    for name, state in (("evolution.rk4_step_us", u),
                        ("evolution.rk4_step_us.block2", np.column_stack([u, 0.5 * u])),
                        ("evolution.rk4_step_us.block3",
                         np.column_stack([u, 0.5 * u, 0.25 * u]))):
        layers.append((name, lambda state=state: evolution._rk4_span(
            state, op, p, good * SPAN_STEPS / STEPS_PER_SEASON, SPAN_STEPS, 1e-12),
            1e6 / SPAN_STEPS, {}))
    if n == FIND_N:
        nominal = sd.StepControl.for_params(p, 2000, stride=100)
        u0 = sd.StateVector(u)

        def simulate():
            ctl = evolution.fit_step(u0, p, op, nominal)[0]
            sd.evolve(u0, p, op, ctl, FIGURE_PERIODS * p.omega)
            return ctl

        layers.append(("evolution.simulate_figure_ms", simulate, 1e3,
                       {"steps_per_season": simulate().steps_for(good)}))
        layers.append(("periodic.find_ms",
                       lambda: sd.find_periodic_solution(p, op, pair, ctl), 1e3,
                       periods(sd.find_periodic_solution(p, op, pair, ctl))))
        op2 = sd.assemble(kernel, sd.Grid.centered(P2_LENGTH, n), dirichlet, p2.d)
        pair2 = sd.principal_eigenpair(op2, p2.a)
        ctl2 = sd.StepControl.for_params(p2, STEPS_PER_SEASON)
        layers.append(("periodic.find_p2_ms",
                       lambda: sd.find_periodic_solution(p2, op2, pair2, ctl2), 1e3,
                       periods(sd.find_periodic_solution(p2, op2, pair2, ctl2))))
    out = {}
    for name, fn, scale, extra in layers:
        secs, runs = median_seconds(fn)
        out[name] = {"value": scale * secs, "runs": runs, **extra}
    return out


def measure_near(sd) -> dict:
    """The NEAR solve, with its column-periods or the class of its error."""
    p2 = sd.SeasonParams(**P2)
    op = sd.assemble(sd.LaplaceKernel(20.0), sd.Grid.centered(NEAR["length"], NEAR["n"]),
                     sd.BoundaryCondition.DIRICHLET, p2.d)
    pair = sd.principal_eigenpair(op, p2.a)
    ctl = sd.StepControl.for_params(p2, NEAR["steps"])

    def solve() -> dict:
        try:
            return periods(sd.find_periodic_solution(
                p2, op, pair, ctl, max_periods=NEAR["max_periods"]))
        except sd.SolverError as err:
            return {"error": type(err).__name__}

    outcome = solve()
    secs, runs = median_seconds(solve)
    return {"value": 1e3 * secs, "runs": runs, **outcome}


def measure_critical_length(sd, scale: float) -> dict:
    """One P2 critical_length at ``scale``, with its count of eigen-solves."""
    p2 = sd.SeasonParams(**P2)
    kernel = sd.LaplaceKernel(scale)
    solve = sd.spectral.principal_eigenpair
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    sd.spectral.principal_eigenpair = counted
    try:
        sd.critical_length(p2, kernel)
        solves = len(calls)
    finally:
        sd.spectral.principal_eigenpair = solve
    secs, runs = median_seconds(lambda: sd.critical_length(p2, kernel))
    return {"value": 1e3 * secs, "runs": runs, "eigen_solves": solves}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                    help="source tree holding the seasonal_dispersal package")
    ap.add_argument("--label", required=True, help="key the results are stored under")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to create or update")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    import seasonal_dispersal as sd

    layers = {}

    def record(key, recs):
        for name, rec in recs.items():
            layers.setdefault(name, {})[key] = rec
            extra = "".join(f", {k} {v}" for k, v in rec.items() if k not in ("value", "runs"))
            print(f"{key:8s}  {name:28s} {rec['value']:12.3f}  ({rec['runs']} runs{extra})",
                  flush=True)

    for n in SIZES:
        record(str(n), measure(sd, n))
    record(f"{NEAR['n']}", {"periodic.find_near_ms": measure_near(sd)})
    for scale in CRITICAL_SCALES:
        record(f"scale{scale:g}",
               {"spectral.critical_length_ms": measure_critical_length(sd, scale)})

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["about"] = ABOUT
    doc.setdefault("runs", {})[args.label] = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "layers": layers,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
