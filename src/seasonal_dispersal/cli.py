"""Command line front end and CSV/summary persistence.

Subcommands map one-to-one onto the analysis operations::

    simulate         time integration, trajectory CSV
    classify         regime verdict for the configured habitat
    spectrum         principal eigenvalue and threshold for the habitat
    critical-length  sign-change length of the threshold eigenvalue
    periodic         periodic attractor (or extinction certificate), CSV
    profile-study    attractor deviation from the scalar orbit vs length
    ode-reference    closed-form scalar periodic orbit

Exit codes: 0 success, 2 configuration error, 3 solver error. All artifact
files are written atomically (temp file plus rename), so a failed run never
leaves partial CSVs behind; the summary records the failure instead.
``simulate`` writes each sample into its temp file as it is stepped, so it
holds no whole trajectory.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .config import ScenarioConfig, parse_config
from .errors import ConfigError, SolverError, ValidationError
# perfbench/tracing.py wraps cli.evolve and cli.export_trajectory, which
# simulate no longer calls: it streams evolution.samples into its CSV
from .evolution import Trajectory, evolve, fit_step, samples
from .model import BoundaryCondition, StateVector
from .operator import _fold_width, assemble
from .periodic import (Extinction, PeriodicSolution, ProfileEntry,
                       asymptotic_profile_study, classify,
                       find_periodic_solution, ode_periodic_solution)
from .spectral import critical_length, principal_eigenpair

SCHEMA_VERSION = 1

COMMANDS = ("simulate", "classify", "spectrum", "critical-length", "periodic",
            "profile-study", "ode-reference")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


@dataclass
class RunSummary:
    """Flat result record, rendered as ``key = value`` text in field order.

    Fields left at None are omitted; ``extra`` follows, sorted by key.
    """

    command: str
    status: str = "ok"
    error: Optional[str] = None
    classification: Optional[str] = None
    evidence: Optional[str] = None
    growth_margin: Optional[float] = None
    sigma1: Optional[float] = None
    lambda1: Optional[float] = None
    ell_star: Optional[float] = None
    final_supnorm: Optional[float] = None
    eigen_residual: Optional[float] = None
    periodic_residual: Optional[float] = None
    ode_z0: Optional[float] = None
    dt_good: Optional[float] = None
    wall_time_s: Optional[float] = None
    grid_n: Optional[int] = None
    n_periods: Optional[int] = None
    extra: dict = field(default_factory=dict)

    def to_text(self) -> str:
        items = [(f.name, getattr(self, f.name)) for f in fields(self)
                 if f.name != "extra"]
        items += sorted(self.extra.items())
        lines = [f"schema_version = {SCHEMA_VERSION}"]
        lines += [f"{k} = {_fmt(v) if isinstance(v, float) else v}"
                  for k, v in items if v is not None]
        return "\n".join(lines) + "\n"


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a new temp file beside ``path``, then rename it
    over ``path``; on any failure the temp file is removed and ``path`` is
    left as it was. The temp file is created with mode 0o666, so it gets the
    process umask as open() applies it."""
    parent = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(parent, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: str, rows: Iterable[tuple[float, np.ndarray]],
               nodes=None) -> Optional[tuple[float, np.ndarray]]:
    """CSV of ``header``, then one line ``t,x,value`` per row ``(t, values)``
    and node, rows and nodes in the given order; without ``nodes``, one line
    ``t,value`` per row. A row of m < n values stands for the even state
    whose trailing n - m = floor(n/2) nodes mirror its leading ones, as
    ``_fold_width`` cuts it; any other row holds all n values. Each node is
    formatted once per file, into a ``%s`` template that the time joins and
    one ``%`` fills per row. The row's m values are formatted with
    ``%.17g``, as ``_fmt`` does, and their strings repeated for the mirror
    nodes. The rows are consumed one at a time, each streamed into the temp
    file of the atomic write, so an iterator of rows is never held whole.
    Returns the last row.
    """
    cols = [""] if nodes is None else [_fmt(x) + "," for x in nodes]
    n = len(cols)
    # "t,".join(template) puts the time before every node column
    template = [""] + [c + "%s\n" for c in cols]
    leading = {m: ",".join(["%.17g"] * m) for m in ((n + 1) // 2, n)}
    last = None

    def lines():
        nonlocal last
        yield header + "\n"
        for last in rows:
            t, row = last
            m = len(row)
            s = (leading[m] % tuple(row.tolist())).split(",")
            yield (_fmt(t) + ",").join(template) % tuple(s + s[:n - m][::-1])

    _atomic_write(path, lines())
    return last


def _folded_rows(times, values, n: int):
    """The rows of ``_write_csv`` for ``values`` of n columns, each row cut
    to its ``_fold_width``."""
    values = np.asarray(values, dtype=float).reshape(-1, n)  # an empty profile too
    return ((t, row[:m]) for t, row, m in zip(times, values, _fold_width(values).tolist()))


def export_trajectory(tr: Trajectory, path: str) -> None:
    """Trajectory CSV: header ``t,x,u``, times ascending, nodes ascending."""
    _write_csv(path, "t,x,u", _folded_rows(tr.times, tr.values, tr.grid.n), tr.grid.nodes)


def export_periodic(sol: PeriodicSolution, path: str) -> None:
    """Periodic attractor CSV: header ``t,x,ustar``."""
    _write_csv(path, "t,x,ustar", _folded_rows(sol.times, sol.values, sol.grid.n),
               sol.grid.nodes)


def export_profile(entries: list[ProfileEntry], path: str) -> None:
    """Profile-study CSV: header ``L,deviation``."""
    _write_csv(path, "L,deviation", _folded_rows([e.length for e in entries],
                                                 [e.deviation for e in entries], 1))


def _require(cfg_value, key: str, command: str):
    if cfg_value is None:
        raise ConfigError(f"subcommand {command!r} requires key {key!r}")
    return cfg_value


def _record_verdict(summary: RunSummary, cfg: ScenarioConfig) -> None:
    """The classification lines of ``simulate`` and ``classify``."""
    verdict = classify(cfg.params, cfg.kernel, cfg.bc, domain=cfg.grid)
    summary.classification = verdict.regime.value
    summary.sigma1 = verdict.sigma1
    summary.lambda1 = verdict.lambda1
    summary.ell_star = verdict.ell_star


def run_scenario(command: str, cfg: ScenarioConfig) -> RunSummary:
    """Execute one subcommand pipeline; artifacts are written on success only."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown subcommand {command!r}")
    p = cfg.params
    t_start = time.perf_counter()
    summary = RunSummary(command=command, growth_margin=p.growth_margin)
    # profile-study and critical-length solve on grids of their own, and
    # ode-reference steps none; only simulate and periodic take time steps
    if command not in ("profile-study", "critical-length", "ode-reference"):
        summary.grid_n = cfg.grid.n
    good = p.good_season_length
    if command == "periodic":
        summary.dt_good = good / cfg.ctl.steps_for(good)  # the step taken

    if command == "simulate":
        n_periods = _require(cfg.n_periods, "run.n_periods", command)
        _require(cfg.out_trajectory, "out.trajectory", command)
        op = assemble(cfg.kernel, cfg.grid, cfg.bc, p.d)
        ctl, step_error = fit_step(cfg.u0, p, op, cfg.ctl)
        summary.dt_good = good / ctl.steps_for(good)
        if step_error is not None:
            summary.extra["step_error_estimate"] = step_error
        _record_verdict(summary, cfg)
        # streamed: each sample is written as it is stepped
        _, final = _write_csv(cfg.out_trajectory, "t,x,u",
                              samples(cfg.u0, p, op, ctl, n_periods * p.omega),
                              cfg.grid.nodes)
        # the sup norm of a folded state is that of the state it stands for
        summary.final_supnorm = StateVector(final).sup_norm
        summary.n_periods = n_periods

    elif command == "classify":
        _record_verdict(summary, cfg)

    elif command == "spectrum":
        op = assemble(cfg.kernel, cfg.grid, cfg.bc, p.d)
        if cfg.bc is BoundaryCondition.DIRICHLET:
            pair = principal_eigenpair(op, p.a)
            summary.sigma1 = pair.sigma1
            summary.eigen_residual = pair.residual
            summary.extra["eigen_iterations"] = pair.iterations
            summary.lambda1 = p.lambda1(pair.sigma1)
        else:
            summary.lambda1 = classify(p, cfg.kernel, cfg.bc).lambda1

    elif command == "critical-length":
        res = critical_length(p, cfg.kernel)
        summary.classification = res.verdict.value
        summary.ell_star = res.ell_star
        if res.bracket is not None:
            summary.extra["bracket_lo"] = res.bracket[0]
            summary.extra["bracket_hi"] = res.bracket[1]

    elif command == "periodic":
        if cfg.bc is not BoundaryCondition.DIRICHLET:
            raise ConfigError("subcommand 'periodic' requires bc = dirichlet")
        op = assemble(cfg.kernel, cfg.grid, cfg.bc, p.d)
        sol = find_periodic_solution(p, op, cfg.ctl)
        summary.sigma1 = sol.pair.sigma1
        summary.eigen_residual = sol.pair.residual
        summary.lambda1 = sol.lambda1
        summary.extra["periods"] = sol.periods
        if isinstance(sol, Extinction):
            summary.classification = "extinction"
            summary.evidence = "below_threshold"
            summary.final_supnorm = sol.final_supnorm
        else:
            _require(cfg.out_periodic, "out.periodic", command)
            export_periodic(sol, cfg.out_periodic)
            summary.classification = "periodic_solution"
            summary.periodic_residual = sol.residual
            summary.final_supnorm = sol.sup_norm
            summary.extra["coarse_periods"] = sol.coarse_periods
            summary.extra["coarse_steps"] = sol.coarse_steps

    elif command == "profile-study":
        lengths = _require(cfg.profile_lengths, "profile.lengths", command)
        _require(cfg.out_profile, "out.profile", command)
        entries = asymptotic_profile_study(p, cfg.kernel, lengths)
        export_profile(entries, cfg.out_profile)
        summary.extra["n_lengths"] = len(entries)
        summary.extra["final_deviation"] = entries[-1].deviation

    elif command == "ode-reference":
        sol = ode_periodic_solution(p)
        if sol is None:
            summary.classification = "no_positive_solution"
        else:
            summary.classification = "periodic_solution"
            summary.ode_z0 = sol.z0

    summary.wall_time_s = time.perf_counter() - t_start
    return summary


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--override expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="seasonal-dispersal",
        description="Seasonal nonlocal dispersal logistic model toolkit")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to key = value config")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text, _parse_overrides(args.override))
        summary = run_scenario(args.command, cfg)
    except ValidationError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:  # only run_scenario raises it, so cfg is set
        summary = RunSummary(command=args.command, status="failed", error=str(exc))

    if cfg.out_summary is not None:
        _atomic_write(cfg.out_summary, [summary.to_text()])
    if summary.status == "failed":
        print(f"solver error: {summary.error}", file=sys.stderr)
        return 3
    sys.stdout.write(summary.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
