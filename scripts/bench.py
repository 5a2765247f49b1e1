#!/usr/bin/env python3
"""Time the solver layer by layer at fixed sizes and record the numbers.

Each layer is timed at n = 128, 512 and 2048, or at the size or settings
given below, on the P1 operator (Laplace kernel of scale 20 on the habitat
[-0.2, 0.2], Dirichlet) unless said otherwise:

* ``operator.assemble_us``: one ``assemble`` call;
* ``operator.apply_us``: one ``DispersalOperator.apply``;
* ``spectral.eigen_ms``: one ``principal_eigenpair`` (at
  ``spectral.EIGEN_TOL``), with the operator products it took beside it;
* ``spectral.eigen_wide_ms``: the same on the ``threshold-wide`` operator
  (P2, kernel scale 1, habitat [-50, 50]), at n = 2048 only, where the top
  two eigenvalues of K lie close together;
* ``spectral.critical_length_ms``: one ``critical_length`` for P2 (at
  ``spectral.BRACKET_TOL`` = 1e-4), keyed by the kernel scale (1 and 20),
  with the number of eigen-solves it made beside it;
* ``evolution.period_map_ms``: one ``period_map`` at 400 RK4 steps per
  good season, which is one period of ``evolve``, its samples included
  (``BENCH_19.json`` and earlier time the bare period, without samples);
* ``evolution.rk4_step_us``: one RK4 step of one state, the mean over a
  50-step good-season span, with the linear part A built before the timing
  (``BENCH_17.json`` and earlier files count the build of A in the span, so
  at n = 2048 their rows do not compare with these), and
  ``evolution.rk4_step_us.block2`` and ``.block3`` the same for an (n, 2)
  and an (n, 3) block of states (the periodic solve carries its pair as
  such a block of the even part, ceil(n/2) rows), and
  ``evolution.rk4_step_us.fold`` the same for the leading ceil(n/2) nodes
  of the even state on the folded linear part, the width at which every
  start of the benchmark workloads is stepped (since ``BENCH_34.json``);
* ``evolution.simulate_figure_ms``: the ``simulate`` run behind the figures
  (60 periods from the cosine start at n = 128 only, nominal step 1/2000 of
  the good season, a sample every 100 nominal steps): ``fit_step`` and
  ``evolve`` at the step it chose, with the steps per good season beside it
  (the library path, which collects the samples; the subcommand streams
  them into its CSV, which ``cli.simulate_ms`` below times);
* ``cli.export_ms``: one ``export_trajectory`` of that run's trajectory (n =
  128 only) into a temporary directory, with its CSV data rows beside it;
* ``cli.simulate_ms``: the figure's ``simulate`` end to end through
  ``cli.main`` (``scripts/p1_figure.cfg``, n = 128, its CSV and summary
  written into a temporary directory), and ``cli.simulate_peak_mib`` the
  tracemalloc peak of one more such call, made outside the timed ones, in
  this process alone (since ``BENCH_32.json``, ``simulate`` formats its CSV
  in a second process, which it does not count);
* ``periodic.find_ms``: one ``find_periodic_solution`` at 400 RK4 steps
  per good season (the ``attractor`` benchmark config), at n = 128 only:
  the monotone loop it replaced took minutes at n = 2048; with the
  column-periods it took at that step and before it, on the coarse-step
  period map, beside it;
* ``periodic.find_p2_ms``: the same solve at P2 (d = 1) on the habitat
  [-3.34, 3.34] of the same kernel, where lambda1 is about -0.02, at n = 128
  only, a case nearer the persistence threshold, with the same counts;
* ``periodic.find_near_ms``: one P2 solve on the habitat of length 4.319876
  at n = 64 and 200 RK4 steps per good season, where lambda1 is about
  -2.6e-4, with the same counts beside it (or, on a tree where it raises,
  the error's class name and the time to the raise); ``BENCH_22.json`` and
  earlier give it a budget of 400 periods, which it never reaches;
* ``periodic.profile_study_ms``: one ``asymptotic_profile_study`` of
  acceptance criterion 7 (P1, Laplace kernel of scale 1, habitats of
  length 10, 20 and 40 at 16 nodes per scale, so n = 256, 320 and 640, and
  400 RK4 steps per good season).

Each ``periodic.find`` layer includes its eigen-solve:
``find_periodic_solution(p, op, ctl)`` solves for the eigenpair of its own
operator (``BENCH_22.json`` and earlier time those solves without it; the
profile study has always made its eigen-solves). A tree whose
``find_periodic_solution`` takes the eigenpair as an argument does not run.

Each figure is the median of at least MIN_RUNS = 10 calls, and of as many
as fill one second, after one warm-up call (``BENCH_22.json`` and earlier
took at least 3, so their slowest layers rest on 4-6 calls). BLAS is
pinned to one thread. The results are merged into the JSON file, one run per
``--label``. Given ``--src`` and ``--label`` once per source tree, in the same
order, the script measures the trees alternately, each layer group (one size,
the near-threshold solve, the profile study, one kernel scale of
critical_length) in a fresh subprocess per tree, the tree that goes first
alternating from group to group, so that the medians of a pair share the
machine's drift. The rk4 rows call ``evolution._linear_part(op, a, b, m)``
at m = n, and m = ceil(n/2) for the folded row, so every ``--src`` tree must
build its linear part from the column, with that signature; a tree from
before it, whose ``_linear_part`` takes the dense K, does not run.

Usage:

    python scripts/bench.py --label mine --out BENCH.json
    python scripts/bench.py --src ../parent/src --label parent \
        --src src --label change --out BENCH.json
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse
import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

SIZES = (128, 512, 2048)
FIND_N = 128
P2_LENGTH = 6.68
NEAR = dict(length=4.319876, n=64, steps=200)
P2 = dict(delta=0.2, a=1.2, b=0.6, d=1.0, rho=0.6, omega=1.0)
WIDE_N = 2048
CRITICAL_SCALES = (1.0, 20.0)
PROFILE_LENGTHS = (10.0, 20.0, 40.0)
#: the "about" entry of the JSON file: the docstring above its usage lines
ABOUT = " ".join(__doc__.split("\nUsage:")[0].split())
STEPS_PER_SEASON = 400
SPAN_STEPS = 50
FIGURE_PERIODS = 60
FIGURE_CONFIG = Path(__file__).resolve().parent / "p1_figure.cfg"
BUDGET_S = 1.0
MIN_RUNS = 10


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
    full = evolution._linear_part(op, p.a, p.b, n)
    m = (n + 1) // 2
    folded = evolution._linear_part(op, p.a, p.b, m)
    for name, A, state in (
            ("evolution.rk4_step_us", full, u),
            ("evolution.rk4_step_us.block2", full, np.column_stack([u, 0.5 * u])),
            ("evolution.rk4_step_us.block3", full, np.column_stack([u, 0.5 * u, 0.25 * u])),
            ("evolution.rk4_step_us.fold", folded, u[:m])):
        layers.append((name, lambda A=A, state=state: evolution._rk4_span(
            state, A, p.b, good * SPAN_STEPS / STEPS_PER_SEASON, SPAN_STEPS),
            1e6 / SPAN_STEPS, {}))
    if n == FIND_N:
        nominal = sd.StepControl.for_params(p, 2000, stride=100)
        u0 = sd.StateVector(u)

        def simulate():
            ctl = evolution.fit_step(u0, p, op, nominal)[0]
            sd.evolve(u0, p, op, ctl, FIGURE_PERIODS * p.omega)
            return ctl

        fitted = simulate()
        layers.append(("evolution.simulate_figure_ms", simulate, 1e3,
                       {"steps_per_season": fitted.steps_for(good)}))
        layers.append(("periodic.find_ms",
                       lambda: sd.find_periodic_solution(p, op, ctl), 1e3,
                       periods(sd.find_periodic_solution(p, op, ctl))))
        op2 = sd.assemble(kernel, sd.Grid.centered(P2_LENGTH, n), dirichlet, p2.d)
        ctl2 = sd.StepControl.for_params(p2, STEPS_PER_SEASON)
        layers.append(("periodic.find_p2_ms",
                       lambda: sd.find_periodic_solution(p2, op2, ctl2), 1e3,
                       periods(sd.find_periodic_solution(p2, op2, ctl2))))
    out = {}
    for name, fn, scale, extra in layers:
        secs, runs = median_seconds(fn)
        out[name] = {"value": scale * secs, "runs": runs, **extra}
    if n == FIND_N:
        out["cli.export_ms"] = measure_export(
            sd.evolve(u0, p, op, fitted, FIGURE_PERIODS * p.omega))
        out.update(measure_simulate())
    return out


def measure_export(tr) -> dict:
    """One export_trajectory of ``tr``, into a temporary directory."""
    from seasonal_dispersal import cli
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trajectory.csv")
        secs, runs = median_seconds(lambda: cli.export_trajectory(tr, path))
    return {"value": 1e3 * secs, "runs": runs, "rows": tr.values.size}


def measure_simulate() -> dict:
    """The figure's ``simulate`` through ``cli.main``, writing into a
    temporary directory, and the tracemalloc peak of one more call."""
    from seasonal_dispersal import cli
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", "--config", str(FIGURE_CONFIG),
                "--override", f"out.trajectory={tmp}/trajectory.csv",
                "--override", f"out.summary={tmp}/summary.txt"]

        def simulate():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError("simulate of the figure config failed")

        secs, runs = median_seconds(simulate)
        tracemalloc.start()
        try:
            simulate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"cli.simulate_ms": {"value": 1e3 * secs, "runs": runs},
            "cli.simulate_peak_mib": {"value": peak / 2**20, "runs": 1}}


def measure_near(sd) -> dict:
    """The NEAR solve, with its column-periods or the class of its error."""
    p2 = sd.SeasonParams(**P2)
    op = sd.assemble(sd.LaplaceKernel(20.0), sd.Grid.centered(NEAR["length"], NEAR["n"]),
                     sd.BoundaryCondition.DIRICHLET, p2.d)
    ctl = sd.StepControl.for_params(p2, NEAR["steps"])

    def solve() -> dict:
        try:
            return periods(sd.find_periodic_solution(p2, op, ctl))
        except sd.SolverError as err:
            return {"error": type(err).__name__}

    outcome = solve()
    secs, runs = median_seconds(solve)
    return {"value": 1e3 * secs, "runs": runs, **outcome}


def measure_profile_study(sd) -> dict:
    """Criterion 7's profile study."""
    p = sd.SeasonParams(delta=0.2, a=1.2, b=0.6, d=0.6, rho=0.6, omega=1.0)
    kernel = sd.LaplaceKernel(1.0)
    secs, runs = median_seconds(
        lambda: sd.asymptotic_profile_study(p, kernel, PROFILE_LENGTHS))
    return {"value": 1e3 * secs, "runs": runs}


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


#: the layer groups, each keyed as it is stored in the JSON file
GROUPS = (*(str(n) for n in SIZES), str(NEAR["n"]), "criterion7",
          *(f"scale{scale:g}" for scale in CRITICAL_SCALES))


def measure_group(sd, key: str) -> dict:
    """The layers of the group ``key`` of GROUPS: {layer name: record}."""
    if key == str(NEAR["n"]):
        return {"periodic.find_near_ms": measure_near(sd)}
    if key == "criterion7":
        return {"periodic.profile_study_ms": measure_profile_study(sd)}
    if key.startswith("scale"):
        return {"spectral.critical_length_ms":
                measure_critical_length(sd, float(key[len("scale"):]))}
    return measure(sd, int(key))


def run_group(src: Path, key: str) -> dict:
    """``measure_group`` on the tree ``src`` in a fresh Python process."""
    out = subprocess.run([sys.executable, __file__, "--group", key, "--src", str(src)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="source tree holding the seasonal_dispersal package, once "
                         "per --label (default: this checkout's src)")
    ap.add_argument("--label", action="append",
                    help="key the results of the tree are stored under")
    ap.add_argument("--out", type=Path, help="JSON file to create or update")
    ap.add_argument("--group", choices=GROUPS,
                    help="measure this one layer group of the one --src and print "
                         "it as JSON (the subprocess of a recording run)")
    args = ap.parse_args(argv)
    srcs = [src.resolve() for src in args.src or
            [Path(__file__).resolve().parent.parent / "src"]]

    if args.group:
        if len(srcs) != 1:
            ap.error("--group measures one --src")
        sys.path.insert(0, str(srcs[0]))
        import seasonal_dispersal as sd
        print(json.dumps(measure_group(sd, args.group)))
        return 0
    if args.out is None or not args.label or len(args.label) != len(srcs):
        ap.error("give --out, and --label once per --src")

    trees = list(zip(args.label, srcs))
    layers = {label: {} for label in args.label}
    for i, key in enumerate(GROUPS):
        for label, src in (trees if i % 2 == 0 else trees[::-1]):
            for name, rec in run_group(src, key).items():
                layers[label].setdefault(name, {})[key] = rec
                extra = "".join(f", {k} {v}" for k, v in rec.items()
                                if k not in ("value", "runs"))
                print(f"{label:8s} {key:10s} {name:28s} {rec['value']:12.3f}  "
                      f"({rec['runs']} runs{extra})", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["about"] = ABOUT
    date = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    machine = {"system": platform.system(), "machine": platform.machine(),
               "cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__,
               "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}
    for label in args.label:
        doc.setdefault("runs", {})[label] = {"date": date, "machine": machine,
                                             "layers": layers[label]}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
