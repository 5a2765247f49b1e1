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

Every ``--src`` tree is imported in this one process, each as a package
of its own name (``bench_tree0``, ``bench_tree1``, ...), so each has its own
modules; a tree with a module that imports ``seasonal_dispersal`` by its
absolute name is refused, since that import would run another tree's code.
Each layer group (one size, the near-threshold solve, the profile study,
one kernel scale of critical_length) is built PASSES = 4 times per tree,
the tree built first alternating, so that the timings sample more than one
allocation layout. After each build, every layer makes one untimed warm-up
call per tree, then calls each tree's version in turn, the order reversed
each round (A B, B A, ...), for at least MIN_RUNS / PASSES rounds and until
BUDGET_S / PASSES seconds per tree have passed. So each tree makes the same
number of calls, at least MIN_RUNS = 10 and as many as fill BUDGET_S = 1
second, and each figure is the median of them (``BENCH_34.json`` and
earlier time each group once per tree, in a process of its own).
``cli.simulate_peak_mib`` is the tracemalloc peak of one call per tree, on
the first build. BLAS is pinned to one thread. The results are merged into
the JSON file, one run per ``--label``.

Each tree after the first has, per layer, the median of its per-call time
ratio to the first tree over the rounds, ``ratio``, and its quartiles,
``ratio_q1`` and ``ratio_q3``: both calls of a round share the machine's
speed, so a ratio resolves a change that the two medians, each spread by
the machine's drift, cannot. Read a change against an A/A run, the same
tree given twice: an A/A ratio is 1 up to the resolution of that layer on
that machine, and a change resolves only where its ratio lies outside the
A/A spread. In ``BENCH_36.json``'s A/A run every layer read 0.96-1.02,
except ``evolution.rk4_step_us.block3`` at n = 512 (1.08) and
``periodic.profile_study_ms`` (0.945); an earlier A/A run read 1.08-1.18 on
four RK4 rows at n = 128 and 512, whose step time a build's allocation
layout moves by up to about 20% either way.

The rk4 rows call ``evolution._linear_part(op, a, b, m)`` at m = n, and
m = ceil(n/2) for the folded row, so every ``--src`` tree must build its
linear part from the column, with that signature; a tree from before it,
whose ``_linear_part`` takes the dense K, does not run.

With ``--identity`` the script times nothing: it runs each tree's
``cli.main`` on a fixed corpus, each tree into directories of its own, and
compares every output with the first tree's. The corpus is the four
``perfbench/workloads.make_inputs`` configs at seeds 1, 2 and 3,
``scripts/p1_figure.cfg``, the same config on a Neumann habitat, and
criterion 7's profile study (P1, kernel scale 1, habitats of length 10, 20
and 40). It prints a line for every exit status, CSV (by sha256) and summary
line that differs, ``wall_time_s`` excepted, and exits 1 if there is any.

Usage:

    python scripts/bench.py --label mine --out BENCH.json
    python scripts/bench.py --src ../parent/src --label parent \
        --src src --label change --out BENCH.json
    python scripts/bench.py --identity --src ../parent/src --src src
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import platform
import re
import statistics
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
WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
IDENTITY_SEEDS = (1, 2, 3)
BUDGET_S = 1.0
MIN_RUNS = 10
PASSES = 4


def load_tree(src: Path, name: str):
    """The package of the tree ``src`` with its ``cli`` module, imported as
    the package ``name``; ImportError naming the module if a line of one of
    its modules imports the package by its absolute name."""
    pkg = src / "seasonal_dispersal"
    for path in sorted(pkg.glob("*.py")):
        if re.search(rf"^\s*(from|import)\s+{pkg.name}\b", path.read_text(), re.M):
            raise ImportError(f"{path} imports {pkg.name} absolutely, which "
                              "would time another tree's code")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sd = importlib.util.module_from_spec(spec)
    sys.modules[name] = sd
    spec.loader.exec_module(sd)
    importlib.import_module(f"{name}.cli")
    return sd


def time_alternately(calls) -> tuple[list, list[list[float]]]:
    """The results of one untimed warm-up round of ``calls``, and the seconds
    of each over the timed rounds that follow, the order reversed each round,
    for at least MIN_RUNS / PASSES rounds and BUDGET_S / PASSES s per call."""
    results = [call() for call in calls]
    samples = [[] for _ in calls]
    order = list(zip(calls, samples))
    start = time.perf_counter()
    while (len(samples[0]) < -(-MIN_RUNS // PASSES)
           or time.perf_counter() - start < BUDGET_S * len(calls) / PASSES):
        for call, secs in order:
            t0 = time.perf_counter()
            call()
            secs.append(time.perf_counter() - t0)
        order.reverse()
    return results, samples


def periods(sol) -> dict:
    """The column-periods a periodic solve took at its step and before it."""
    return {"periods": sol.periods, "coarse_periods": sol.coarse_periods}


def size_layers(sd, n: int, tmp: str) -> list:
    """The layers of the group of the size ``n`` (see ``build``)."""
    evolution = sd.evolution
    p = sd.SeasonParams(delta=0.2, a=1.2, b=0.6, d=0.6, rho=0.6, omega=1.0)
    kernel = sd.LaplaceKernel(20.0)
    grid = sd.Grid.centered(0.4, n)
    dirichlet = sd.BoundaryCondition.DIRICHLET
    op = sd.assemble(kernel, grid, dirichlet, p.d)
    u = np.cos(np.pi * grid.nodes / 0.4)
    ctl = sd.StepControl.for_params(p, STEPS_PER_SEASON)

    p2 = sd.SeasonParams(**P2)
    layers = [
        ("operator.assemble_us", lambda: sd.assemble(kernel, grid, dirichlet, p.d), 1e6, None),
        ("operator.apply_us", lambda: op.apply(u), 1e6, None),
        ("spectral.eigen_ms", lambda: sd.principal_eigenpair(op, p.a), 1e3,
         lambda pair: {"products": pair.iterations}),
        ("evolution.period_map_ms", lambda: sd.period_map(sd.StateVector(u), p, op, ctl),
         1e3, None)]
    if n == WIDE_N:
        wide = sd.assemble(sd.LaplaceKernel(1.0), sd.Grid.centered(100.0, n), dirichlet, p2.d)
        layers.append(("spectral.eigen_wide_ms", lambda: sd.principal_eigenpair(wide, p2.a),
                       1e3, lambda pair: {"products": pair.iterations}))
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
            1e6 / SPAN_STEPS, None))
    if n == FIND_N:
        nominal = sd.StepControl.for_params(p, 2000, stride=100)
        u0 = sd.StateVector(u)

        def simulate():
            ctl = evolution.fit_step(u0, p, op, nominal)[0]
            return ctl, sd.evolve(u0, p, op, ctl, FIGURE_PERIODS * p.omega)

        tr = simulate()[1]
        op2 = sd.assemble(kernel, sd.Grid.centered(P2_LENGTH, n), dirichlet, p2.d)
        ctl2 = sd.StepControl.for_params(p2, STEPS_PER_SEASON)
        out = os.path.join(tmp, sd.__name__)
        argv = ["simulate", "--config", str(FIGURE_CONFIG),
                "--override", f"out.trajectory={out}-trajectory.csv",
                "--override", f"out.summary={out}-summary.txt"]

        def simulate_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                if sd.cli.main(argv) != 0:
                    raise RuntimeError("simulate of the figure config failed")

        layers += [
            ("evolution.simulate_figure_ms", simulate, 1e3,
             lambda run: {"steps_per_season": run[0].steps_for(good)}),
            ("periodic.find_ms", lambda: sd.find_periodic_solution(p, op, ctl), 1e3, periods),
            ("periodic.find_p2_ms", lambda: sd.find_periodic_solution(p2, op2, ctl2), 1e3,
             periods),
            ("cli.export_ms", lambda: sd.cli.export_trajectory(tr, f"{out}-export.csv"), 1e3,
             lambda _: {"rows": tr.values.size}),
            ("cli.simulate_ms", simulate_cli, 1e3, None),
            ("cli.simulate_peak_mib", simulate_cli, None, None)]
    return layers


#: the layer groups, each keyed as it is stored in the JSON file
GROUPS = (*(str(n) for n in SIZES), str(NEAR["n"]), "criterion7",
          *(f"scale{scale:g}" for scale in CRITICAL_SCALES))


def build(sd, key: str, tmp: str) -> list:
    """The layers of the group ``key`` of GROUPS on the tree ``sd``, built
    afresh, writing into the directory ``tmp``: (name, call, scale of its
    seconds to the recorded unit or None for the tracemalloc peak of one call
    in MiB, extra fields from the result of its warm-up call or None)."""
    p2 = sd.SeasonParams(**P2)
    if key == str(NEAR["n"]):  # with its column-periods or the class of its error
        op = sd.assemble(sd.LaplaceKernel(20.0), sd.Grid.centered(NEAR["length"], NEAR["n"]),
                         sd.BoundaryCondition.DIRICHLET, p2.d)
        ctl = sd.StepControl.for_params(p2, NEAR["steps"])

        def solve() -> dict:
            try:
                return periods(sd.find_periodic_solution(p2, op, ctl))
            except sd.SolverError as err:
                return {"error": type(err).__name__}

        return [("periodic.find_near_ms", solve, 1e3, dict)]
    if key == "criterion7":
        p = sd.SeasonParams(delta=0.2, a=1.2, b=0.6, d=0.6, rho=0.6, omega=1.0)
        kernel = sd.LaplaceKernel(1.0)
        return [("periodic.profile_study_ms",
                 lambda: sd.asymptotic_profile_study(p, kernel, PROFILE_LENGTHS), 1e3, None)]
    if key.startswith("scale"):  # with the count of eigen-solves of one call
        kernel = sd.LaplaceKernel(float(key[len("scale"):]))
        solve, calls = sd.spectral.principal_eigenpair, []
        sd.spectral.principal_eigenpair = lambda *a, **kw: calls.append(None) or solve(*a, **kw)
        try:
            sd.critical_length(p2, kernel)
        finally:
            sd.spectral.principal_eigenpair = solve
        return [("spectral.critical_length_ms", lambda: sd.critical_length(p2, kernel), 1e3,
                 lambda _: {"eigen_solves": len(calls)})]
    return size_layers(sd, int(key), tmp)


def measure_group(trees, key: str, tmp: str) -> list[dict]:
    """Per package of ``trees``, the records {layer name: record} of the group
    ``key``, built PASSES times, the first tree first on every other pass."""
    recs = [{} for _ in trees]
    samples = {}
    for k in range(PASSES):
        step = 1 if k % 2 == 0 else -1
        for layer in zip(*[build(sd, key, tmp) for sd in trees[::step]][::step]):
            name, _, scale, _ = layer[0]
            calls = [call for _, call, _, _ in layer]
            if scale is None:  # one call per tree, on the first pass
                for rec, call in zip(recs, calls if k == 0 else ()):
                    tracemalloc.start()
                    try:
                        call()
                        rec[name] = {"value": tracemalloc.get_traced_memory()[1] / 2**20,
                                     "runs": 1}
                    finally:
                        tracemalloc.stop()
                continue
            results, secs = time_alternately(calls)
            for rec, (*_, extra), result in zip(recs, layer, results):
                rec.setdefault(name, {}).update(extra(result) if extra else {})
            samples.setdefault(name, (scale, []))[1].append(secs)
    for name, (scale, passes) in samples.items():
        secs = [sum(own, []) for own in zip(*passes)]
        for rec, own in zip(recs, secs):
            rec[name].update(value=scale * statistics.median(own), runs=len(own))
        for rec, own in zip(recs[1:], secs[1:]):
            ratios = [b / a for a, b in zip(secs[0], own)]
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            rec[name].update(ratio=statistics.median(ratios), ratio_q1=q1, ratio_q3=q3)
    return recs


def identity_corpus() -> dict:
    """The cases of ``--identity``, by name: each a function of an empty
    directory that writes the case's config there if it has one of its own,
    and returns the ``cli.main`` argv that writes its outputs there."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def figure(*overrides):
        return lambda d: ["simulate", "--config", str(FIGURE_CONFIG),
                          "--override", f"out.trajectory={d / 'trajectory.csv'}",
                          "--override", f"out.summary={d / 'summary.txt'}", *overrides]

    def profile(d: Path) -> list:
        (d / "profile.cfg").write_text(
            "preset = P1\nkernel.scale = 1\n"
            f"profile.lengths = {', '.join(f'{L:g}' for L in PROFILE_LENGTHS)}\n"
            f"out.profile = {d / 'profile.csv'}\nout.summary = {d / 'summary.txt'}\n")
        return ["profile-study", "--config", str(d / "profile.cfg")]

    corpus = {f"{name}-{seed}": lambda d, w=w, seed=seed: workloads.make_inputs(w, seed, d).argv
              for name, w in workloads.WORKLOADS.items() for seed in IDENTITY_SEEDS}
    corpus.update({"p1_figure": figure(), "p1_figure-neumann": figure("--override", "bc=neumann"),
                   "criterion7": profile})
    return corpus


def identity_report(trees, tmp: Path, corpus: dict) -> list[str]:
    """One line per difference of a tree after the first from the first on
    the ``corpus`` (see ``identity_corpus``): its exit status, a CSV's
    sha256, a missing file, or a summary line other than ``wall_time_s``;
    and one per case that the first tree does not run with exit status 0.
    Each tree's case runs in the directory ``tmp / tree name / case name``."""
    report = []
    for case, argv in corpus.items():
        outputs = []
        for sd in trees:
            d = tmp / sd.__name__ / case
            d.mkdir(parents=True)
            with contextlib.redirect_stdout(io.StringIO()):
                status = sd.cli.main(argv(d))
            files = {}
            for path in sorted(d.iterdir()):
                if path.suffix == ".txt":
                    files[path.name] = [line for line in path.read_text().splitlines()
                                        if not line.startswith("wall_time_s = ")]
                elif path.suffix != ".cfg":
                    files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            outputs.append((status, files))
        (status0, files0), name0 = outputs[0], trees[0].__name__
        if status0 != 0:  # a case that fails shows nothing
            report.append(f"{case} {name0}: exit status {status0}")
        for sd, (status, files) in zip(trees[1:], outputs[1:]):
            where = f"{case} {sd.__name__} against {name0}"
            if status != status0:
                report.append(f"{where}: exit status {status} != {status0}")
            for name in sorted(files0.keys() | files.keys()):
                ours, theirs = files.get(name), files0.get(name)
                if ours is None or theirs is None:
                    report.append(f"{where}: {name} only in "
                                  f"{name0 if ours is None else sd.__name__}")
                elif isinstance(ours, str):
                    if ours != theirs:
                        report.append(f"{where}: {name} sha256 {ours} != {theirs}")
                else:
                    report += [f"{where}: {name} line {k}: {a!r} != {b!r}"
                               for k, (a, b) in enumerate(
                                   itertools.zip_longest(ours, theirs), 1) if a != b]
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="source tree holding the seasonal_dispersal package, once "
                         "per --label (default: this checkout's src)")
    ap.add_argument("--label", action="append",
                    help="key the results of the tree are stored under")
    ap.add_argument("--out", type=Path, help="JSON file to create or update")
    ap.add_argument("--identity", action="store_true",
                    help="compare the outputs of the --src trees on the identity "
                         "corpus instead of timing them")
    args = ap.parse_args(argv)
    srcs = [src.resolve() for src in args.src or
            [Path(__file__).resolve().parent.parent / "src"]]
    if args.identity:
        if len(srcs) < 2:
            ap.error("--identity compares two or more --src trees")
        with tempfile.TemporaryDirectory() as tmp:
            trees = [load_tree(src, f"bench_tree{i}") for i, src in enumerate(srcs)]
            report = identity_report(trees, Path(tmp), identity_corpus())
        print("\n".join(report) if report else
              "identical: every exit status, CSV and summary line but wall_time_s")
        return 1 if report else 0
    if args.out is None or not args.label or len(args.label) != len(srcs):
        ap.error("give --out, and --label once per --src")

    layers = {label: {} for label in args.label}
    with tempfile.TemporaryDirectory() as tmp:
        trees = [load_tree(src, f"bench_tree{i}") for i, src in enumerate(srcs)]
        for key in GROUPS:
            for label, recs in zip(args.label, measure_group(trees, key, tmp)):
                for name, rec in recs.items():
                    layers[label].setdefault(name, {})[key] = rec
                    extra = "".join(f", {k} {v:.3f}" if isinstance(v, float) else f", {k} {v}"
                                    for k, v in rec.items() if k not in ("value", "runs"))
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
