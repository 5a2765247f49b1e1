#!/usr/bin/env python3
"""Benchmark of the seasonal-dispersal CLI on four oracle-checked workloads.

Run from the repository root:

    python3 perfbench/run.py --workload attractor --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Each solve is one in-process call of ``seasonal_dispersal.cli.main(argv)``
with stdout captured: config parse, assembly, solve and CSV/summary write.
One caller runs solves back to back (closed loop) for ``--seconds``. The
last line of stdout is a JSON object with the metrics BENCHMARK.json names:
its ``end_to_end`` ones with ``--trace 0``, its ``per_layer`` ones with
``--trace 1``. See perfbench/README.md.
"""

import os

# BLAS is pinned to one thread before numpy is imported; the set-up probes
# inherit the setting through the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import PRESETS, WORKLOADS, Oracle, csv_digest, make_inputs, parse_summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
SETUP_PROBES = 7
APPLY_SIZES = (128, 512, 2048)


def load_package():
    """Import the package from the checkout's ``src``; never an installed copy."""
    if not (SRC / "seasonal_dispersal" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'seasonal_dispersal'} not found; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import seasonal_dispersal
    from seasonal_dispersal import cli, periodic, spectral
    return seasonal_dispersal, {"cli": cli, "periodic": periodic, "spectral": spectral}


def set_up(workload: str, seed: int, work_dir: Path):
    """Everything a run does before its first solve: import and inputs."""
    package, modules = load_package()
    work_dir.mkdir(parents=True, exist_ok=True)
    return package, modules, make_inputs(WORKLOADS[workload], seed, work_dir)


def probe_setup(args) -> float:
    """Seconds from the start of a fresh process to ready for its first solve."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {rc} after {line!r}")
    return seconds


def reference_seconds(kind: str, n: int, reps: int) -> float:
    """Seconds for a fixed loop of the same kind of work as a workload's
    solver that shares no code with the package: ``reps`` RK4 steps with one
    dense n x n matvec per stage, or ``reps`` power iterations on a dense
    n x n matrix. Run beside the solves, its time measures how fast the
    machine runs that kind of work at that moment."""
    x = np.linspace(-1.0, 1.0, n)
    a = np.subtract.outer(x, x)
    # in place, so that n=2048 needs one 32 MiB matrix and no temporaries
    np.abs(a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a /= n
    u = np.cos(x)
    t0 = time.perf_counter()
    if kind == "rk4":
        h = 1e-3
        for _ in range(reps):
            k1 = a @ u - u * (0.4 + 0.6 * u)
            v = u + 0.5 * h * k1
            k2 = a @ v - v * (0.4 + 0.6 * v)
            v = u + 0.5 * h * k2
            k3 = a @ v - v * (0.4 + 0.6 * v)
            v = u + h * k3
            k4 = a @ v - v * (0.4 + 0.6 * v)
            u = u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        for _ in range(reps):
            u = a @ u
            u /= np.linalg.norm(u)
    return time.perf_counter() - t0


def steal_seconds() -> float:
    """Seconds the hypervisor took from this machine's CPUs since boot."""
    with contextlib.suppress(OSError, IndexError, ValueError):
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    return float("nan")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpu": platform.machine(),
           "caches": {}}
    # hardware facts for the record only; absent files leave the defaults
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), env["cpu"])
    with contextlib.suppress(OSError):
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            key = "L" + (d / "level").read_text().strip() + (d / "type").read_text().strip()[0]
            env["caches"][key] = (d / "size").read_text().strip()
    return env


def time_apply(package, n: int) -> float:
    """Median microseconds per DispersalOperator.apply at size n, standalone."""
    p = package.SeasonParams(**PRESETS["P1"])
    op = package.assemble(package.LaplaceKernel(scale=20.0), package.Grid.centered(0.4, n),
                          package.BoundaryCondition.DIRICHLET, p.d)
    u = np.cos(np.pi * op.grid.nodes / 0.4)
    t0 = time.perf_counter()
    for _ in range(10):
        op.apply(u)
    reps = max(10, int(0.02 / ((time.perf_counter() - t0) / 10)))
    batches = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(reps):
            op.apply(u)
        batches.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(batches)


def run_solve(cli, inputs, instrument, traced: bool) -> dict:
    """One timed CLI call; output files are inspected after the clock stops."""
    if inputs.csv_path is not None:
        Path(inputs.csv_path).unlink(missing_ok=True)
    buf = io.StringIO()
    error = rc = None
    root = instrument.open_span("solve") if traced else None
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(inputs.argv))
    except Exception:
        error = traceback.format_exc(limit=4)
    finally:
        seconds = time.perf_counter() - t0
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        if traced:
            instrument.close_span(root)
    spans, kept = instrument.take()
    cpu = cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime
    solve = {"seconds": seconds, "cpu_seconds": cpu, "traced": traced, "rc": rc,
             "error": error, "summary": parse_summary(buf.getvalue()), "kept": kept,
             "spans": spans, "csv": None}
    if inputs.csv_path is not None and Path(inputs.csv_path).exists():
        solve["csv"] = csv_digest(inputs.csv_path)
    return solve


def run(args) -> int:
    package, modules, inputs = set_up(args.workload, args.seed, WORK)
    instrument = tracing.Instrument(modules, package.DispersalOperator)
    apply_sizes = {n: time_apply(package, n) for n in APPLY_SIZES} if args.trace else {}

    solves = []
    setup_times = []
    reference_times = []
    rounds = []
    first_csv = None
    steal0 = steal_seconds()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        # set-up probes and reference loops run between solves, so that they
        # sample the machine over the whole run rather than in one burst
        if not args.trace:
            setup_times.append(probe_setup(args))
            reference_times.append(reference_seconds(*inputs.workload.reference))
        # the traced run alternates plain and traced solves, plain first
        traced = bool(args.trace) and len(solves) % 2 == 1
        instrument.install(traced)
        try:
            solves.append(run_solve(modules["cli"], inputs, instrument, traced))
        finally:
            instrument.remove()
        if solves[-1]["csv"] is not None:
            if first_csv is None:
                first_csv = Path(inputs.csv_path).with_suffix(".first.csv")
                os.replace(inputs.csv_path, first_csv)
            else:
                os.unlink(inputs.csv_path)
        rounds.append(time.perf_counter() - round_start)
        loop_seconds = time.perf_counter() - start
        # stop before a round that would overrun; a traced run needs one of each kind
        if loop_seconds + statistics.median(rounds) > args.seconds \
                and len(solves) > args.trace:
            break
    steal = steal_seconds() - steal0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(args))

    oracle = Oracle(inputs, package, first_csv)
    failed = 0
    for s in solves:
        s["problems"] = oracle.check(s)
        failed += bool(s["problems"])
        for problem in s["problems"]:
            print(f"FAILED solve: {problem}", file=sys.stderr)

    plain = [s["seconds"] for s in solves if not s["traced"]]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(solves)} solves "
          f"in {loop_seconds:.1f} s, closed loop, one caller; "
          f"half-width {inputs.half_width!r}")
    if args.trace:
        metrics = layer_metrics(solves, apply_sizes, plain)
        names = load_spec()["per_layer"]
    else:
        # the machine's slowdown over the run, as measured by the reference
        # loops (see README); every solve had one reference loop before it
        slowdown = statistics.fmean(reference_times) / inputs.workload.reference_nominal_s
        metrics = {"solve_s": statistics.fmean(plain) / slowdown,
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": peak_rss_mib}
        names = load_spec()["end_to_end"]
        print(f"  solve_s samples: {len(plain)}, slowdown {slowdown:.4f} from as many "
              f"reference loops; setup_s samples: {len(setup_times)}")
        print(f"  unscaled wall seconds per solve: median {statistics.median(plain):.4g}, "
              f"mean {statistics.fmean(plain):.4g}")
    # CPU time and steal are recorded to tell the program's own variation from
    # the machine's (see README)
    cpu = statistics.median(s["cpu_seconds"] for s in solves if not s["traced"])
    print(f"  median CPU seconds per solve {cpu:.4g}; steal {steal:.3g} s over the loop")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()}
    for name, m in result.items():
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'fail_ratio':34s} {failed}/{len(solves)} = {failed / len(solves):g}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "half_width": inputs.half_width, "environment": environment(),
              "solve_seconds": [s["seconds"] for s in solves],
              "solve_cpu_seconds": [s["cpu_seconds"] for s in solves],
              "traced": [s["traced"] for s in solves], "setup_seconds": setup_times,
              "reference_seconds": reference_times, "steal_seconds": steal,
              "problems": [s["problems"] for s in solves], "metrics": result}
    if args.trace:
        record["spans"] = [{"solve": k, "name": sp[0], "parent": sp[1], "start": sp[2],
                            "end": sp[3], "self": own, "apply_calls": sp[4],
                            "apply_s": sp[5], "apply_n": sp[6]}
                           for k, s in enumerate(solves)
                           for sp, own in zip(s["spans"], tracing.self_times(s["spans"]))]
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(f"  environment: {json.dumps(record['environment'])}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(solves),
                      "failed": failed, "metrics": result}))
    return 0


def layer_metrics(solves: list, apply_sizes: dict, plain: list) -> dict:
    """Medians over the traced solves of each per-layer figure."""
    traced = [s for s in solves if s["traced"]]
    per_solve = []
    for s in traced:
        m = tracing.solve_layers(s["spans"], s["kept"])
        _, nbytes, rows = s["csv"] or (None, 0, 0)
        m["cli.export_mb"] = nbytes / 2**20
        m["cli.export_rows"] = rows
        per_solve.append(m)
    metrics = {}
    for k, v in per_solve[0].items():
        # counts stay whole numbers
        median = statistics.median_low if isinstance(v, int) else statistics.median
        metrics[k] = median(m[k] for m in per_solve)
    for n, us in apply_sizes.items():
        metrics[f"operator.apply_us.n{n}"] = us
    # within each adjacent (plain, traced) pair, so that drift slower than one
    # pair cancels
    pairs = zip(solves[0::2], solves[1::2])
    metrics["trace.overhead_share"] = statistics.median(
        t["seconds"] / p["seconds"] - 1.0 for p, t in pairs)
    return metrics


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report."""
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        rc = rc or proc.returncode
    return rc


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        set_up(args.workload, args.seed, WORK / "probe")
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
