"""Command line front end and CSV/summary persistence.

Subcommands map one-to-one onto the analysis operations::

    simulate         time integration, trajectory CSV
    classify         regime verdict for the configured habitat
    spectrum         principal eigenvalue and threshold for the habitat
    critical-length  sign-change length of the threshold eigenvalue, no habitat
    periodic         periodic attractor (or extinction certificate), CSV
    profile-study    attractor deviation from the scalar orbit vs length, no habitat
    ode-reference    closed-form scalar periodic orbit, no habitat

Exit codes: 0 success, 2 configuration error, 3 solver error or an output not
written. All artifact files are written atomically (temp file plus rename), so
a failed run never leaves partial CSVs behind; the summary records the failure
instead. The temp file is created with mode 0o666, so every file gets the
process umask, which the writes never change.

``simulate`` sends each sample, as it is stepped, to a second process that
formats it and writes it into the temp file (``CSV_FILTER``, which runs
``_csvtext`` on the standard library alone), so the formatting runs on a
second core while the samples are stepped, and ``simulate`` holds no whole
trajectory. The temp file, its rename and its removal stay with this process.
The other CSVs are formatted in-process by the same ``_csvtext.lines``.
"""

import argparse
import contextlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _csvtext
from ._csvtext import _fmt
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


#: the command of the process that writes ``simulate``'s CSV: the stream of
#: ``_csvtext.stream_head`` and records on its stdin, the temp file its stdout
CSV_FILTER = (sys.executable, "-I", "-S", _csvtext.__file__)


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


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator[int]:
    """A new temp file beside ``path``, open for writing as the descriptor
    yielded: the block's writes go in, and once the block ends the descriptor
    is closed and the file renamed over ``path``. If the block raises, the
    temp file is removed and ``path`` is left as it was; an OSError comes
    back as one naming ``path``. The temp file is created with mode 0o666, so
    it gets the process umask as open() applies it."""
    parent = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(parent, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        try:
            yield fd
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path!r}: {exc}") from exc
        raise


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks``, consumed one at a time, atomically to
    ``path``."""
    with _atomic_file(path) as fd, _csvtext.text_file(fd) as fh:
        fh.writelines(chunks)


def _stream_csv(path: str, header: str, rows: Iterable[tuple[float, np.ndarray]],
                nodes: np.ndarray) -> Optional[np.ndarray]:
    """Write the CSV of ``_csvtext.lines(header, rows, nodes)`` atomically to
    ``path`` through the ``CSV_FILTER`` process, which formats each row while
    the next is computed; returns the values of the last row.

    The temp file exists before the process starts. It is renamed over
    ``path`` only once the end marker went out and the process exited 0.
    On any failure the process is reaped and the temp file removed: a
    failure of ``rows`` is re-raised as it is (the process sees its input
    cut and exits 1), and a failure of the process raises OSError naming its
    exit status.
    """
    last = None
    with _atomic_file(path) as fd:
        proc = subprocess.Popen(CSV_FILTER, stdin=subprocess.PIPE, stdout=fd)
        sent = False
        try:
            with proc.stdin as pipe:
                pipe.write(_csvtext.stream_head(header, nodes))
                for t, last in rows:
                    pipe.write(_csvtext.RECORD.pack(t, len(last)) + last.tobytes())
                pipe.write(_csvtext.END)
            sent = True
        except BrokenPipeError:
            pass  # the process stopped reading; its exit status says why
        finally:
            status = proc.wait()
        if status != 0 or not sent:
            raise OSError(f"the CSV formatting process exited with status {status}"
                          + ("" if sent else " before the end of its input"))
    return last


def _folded_rows(times, values, n: int):
    """The rows of ``_csvtext.lines`` for ``values`` of n columns, each row
    cut to its ``_fold_width``."""
    values = np.asarray(values, dtype=float).reshape(-1, n)  # an empty profile too
    return ((t, row[:m]) for t, row, m in zip(times, values, _fold_width(values).tolist()))


def export_trajectory(tr: Trajectory, path: str) -> None:
    """Trajectory CSV: header ``t,x,u``, times ascending, nodes ascending."""
    _atomic_write(path, _csvtext.lines("t,x,u", _folded_rows(tr.times, tr.values, tr.grid.n),
                                       tr.grid.nodes))


def export_periodic(sol: PeriodicSolution, path: str) -> None:
    """Periodic attractor CSV: header ``t,x,ustar``."""
    _atomic_write(path, _csvtext.lines("t,x,ustar",
                                       _folded_rows(sol.times, sol.values, sol.grid.n),
                                       sol.grid.nodes))


def export_profile(entries: list[ProfileEntry], path: str) -> None:
    """Profile-study CSV: header ``L,deviation``."""
    _atomic_write(path, _csvtext.lines("L,deviation", _folded_rows(
        [e.length for e in entries], [e.deviation for e in entries], 1)))


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
    # ode-reference on none; the other four need the habitat
    if command not in ("profile-study", "critical-length", "ode-reference"):
        summary.grid_n = _require(cfg.grid, "domain.l1", command).n
    good = p.good_season_length

    if command == "simulate":
        n_periods = _require(cfg.n_periods, "run.n_periods", command)
        _require(cfg.out_trajectory, "out.trajectory", command)
        op = assemble(cfg.kernel, cfg.grid, cfg.bc, p.d)
        ctl, step_error = fit_step(cfg.u0, p, op, cfg.ctl)
        summary.dt_good = good / ctl.steps_for(good)
        if step_error is not None:
            summary.extra["step_error_estimate"] = step_error
        _record_verdict(summary, cfg)
        # streamed: each sample is formatted and written as it is stepped
        final = _stream_csv(cfg.out_trajectory, "t,x,u",
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
        summary.dt_good = good / cfg.ctl.steps_for(good)  # the step taken
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


_PARSER = argparse.ArgumentParser(
    prog="seasonal-dispersal",
    description="Seasonal nonlocal dispersal logistic model toolkit")
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="path to key = value config")
_PARSER.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key")


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)

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
    except (SolverError, OSError) as exc:  # only run_scenario raises them, so cfg is set
        summary = RunSummary(command=args.command, status="failed", error=str(exc))

    rendered = summary.to_text()
    if cfg.out_summary is not None:
        _atomic_write(cfg.out_summary, [rendered])
    if summary.status == "failed":
        print(f"run failed: {summary.error}", file=sys.stderr)
        return 3
    sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
