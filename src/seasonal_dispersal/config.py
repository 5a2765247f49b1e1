"""Scenario configuration: flat key = value text, presets, initial conditions.

The format is deliberately trivial: one ``key = value`` per line, ``#``
comments, dotted section names. ``preset`` fills the published parameter
sets (P1)-(P3) with the Laplace kernel of scale 20; explicit keys override
preset values.
"""

import csv
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ValidationError
from .evolution import StepControl
from .model import (BoundaryCondition, Grid, KernelSpec, LaplaceKernel,
                    SeasonParams, StateVector, TabulatedKernel)
from .periodic import _profile_lengths

PRESETS = {
    "P1": dict(delta=0.2, d=0.6, a=1.2, b=0.6, rho=0.6, omega=1.0),
    "P2": dict(delta=0.2, d=1.0, a=1.2, b=0.6, rho=0.6, omega=1.0),
    "P3": dict(delta=0.8, d=0.6, a=1.2, b=0.6, rho=0.6, omega=1.0),
}
PRESET_KERNEL_SCALE = 20.0

_FLOAT_KEYS = {"delta", "a", "b", "d", "rho", "omega", "kernel.scale",
               "domain.l1", "domain.l2", "time.dt_good", "ic.l", "ic.c"}
_INT_KEYS = {"grid.n", "run.n_periods"}
_STR_KEYS = {"preset", "kernel.type", "kernel.table_path", "bc", "ic.type",
             "ic.table_path", "out.trajectory", "out.summary", "out.periodic",
             "out.profile", "profile.lengths"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: model data plus run and output settings."""

    params: SeasonParams
    kernel: KernelSpec
    bc: BoundaryCondition
    grid: Grid
    ctl: StepControl
    u0: StateVector
    n_periods: Optional[int]
    out_trajectory: Optional[str]
    out_summary: Optional[str]
    out_periodic: Optional[str]
    out_profile: Optional[str]
    profile_lengths: Optional[tuple[float, ...]]


def _parse_lines(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, value = body.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        if not value:
            raise ConfigError(f"key {key!r} has an empty value (line {lineno})")
        raw[key] = value
    return raw


def _convert(key: str, value: str):
    if key in _FLOAT_KEYS:
        try:
            v = float(value)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None
        if not math.isfinite(v):
            raise ConfigError(f"key {key!r}: value must be finite, got {value!r}")
        return v
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from None
    return value


def _read_xy_csv(path: str, expected_header: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read table {path!r}: {exc}") from None
    if not rows or tuple(h.strip() for h in rows[0]) != expected_header:
        raise ConfigError(f"table {path!r} must start with header {','.join(expected_header)!r}")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:] if row])
    except ValueError:
        raise ConfigError(f"table {path!r} contains a non-numeric cell") from None
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ConfigError(f"table {path!r} needs at least two x,value rows")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"table {path!r} contains a non-finite cell")
    return data[:, 0], data[:, 1]


def load_kernel_table(path: str) -> TabulatedKernel:
    """Kernel table CSV: header ``x,J``, uniform samples from -W to W."""
    xs, vs = _read_xy_csv(path, ("x", "J"))
    steps = np.diff(xs)
    if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
        raise ConfigError(f"kernel table {path!r} must have uniformly increasing x")
    if abs(xs[0] + xs[-1]) > 1e-12 * max(1.0, abs(xs[-1])):
        raise ConfigError(f"kernel table {path!r} must span a symmetric range [-W, W]")
    try:
        return TabulatedKernel(values=vs, half_width=float(xs[-1]))
    except ValueError as exc:
        raise ConfigError(f"kernel table {path!r}: {exc}") from None


def _check_writable(key: str, path: str) -> None:
    if os.path.isdir(path):
        raise ConfigError(f"key {key!r}: {path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"key {key!r}: directory {parent!r} does not exist")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"key {key!r}: directory {parent!r} is not writable")


def parse_config(text: str, overrides: Optional[dict[str, str]] = None) -> ScenarioConfig:
    """Parse and validate scenario text; raise ConfigError naming the first bad key,
    or with the text of the ValidationError by which a model class refused it."""
    raw = _parse_lines(text)
    for key, value in (overrides or {}).items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        if not value:
            raise ConfigError(f"key {key!r} has an empty value (override)")
        raw[key] = value
    try:
        return _scenario(raw)
    except ValidationError as exc:  # a ConfigError keeps its type and text
        raise ConfigError(str(exc)) from None


def _scenario(raw: dict[str, str]) -> ScenarioConfig:
    values: dict = {}
    if "preset" in raw:
        name = raw["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; choose one of {sorted(PRESETS)}")
        values.update(PRESETS[name])
        values["kernel.type"] = "laplace"
        values["kernel.scale"] = PRESET_KERNEL_SCALE
    for key in sorted(k for k in raw if k != "preset"):
        values[key] = _convert(key, raw[key])

    missing = [k for k in ("delta", "a", "b", "d", "rho", "omega") if k not in values]
    if missing:
        raise ConfigError(f"missing required parameter key {missing[0]!r}")
    params = SeasonParams(delta=values["delta"], a=values["a"], b=values["b"],
                          d=values["d"], rho=values["rho"], omega=values["omega"])

    ktype = values.get("kernel.type", "laplace")
    if ktype == "laplace":
        if "kernel.scale" not in values:
            raise ConfigError("kernel.type = laplace requires kernel.scale")
        kernel: KernelSpec = LaplaceKernel(scale=values["kernel.scale"])
    elif ktype == "table":
        if "kernel.table_path" not in values:
            raise ConfigError("kernel.type = table requires kernel.table_path")
        kernel = load_kernel_table(values["kernel.table_path"])
    else:
        raise ConfigError(f"kernel.type must be 'laplace' or 'table', got {ktype!r}")

    bc_name = values.get("bc", "dirichlet")
    try:
        bc = BoundaryCondition(bc_name)
    except ValueError:
        raise ConfigError(f"bc must be 'dirichlet' or 'neumann', got {bc_name!r}") from None

    if "domain.l1" not in values or "domain.l2" not in values:
        raise ConfigError("domain.l1 and domain.l2 are required")
    grid = Grid(l1=values["domain.l1"], l2=values["domain.l2"], n=values.get("grid.n", 256))

    dt_good = values.get("time.dt_good", params.good_season_length / 2000.0)
    try:
        ctl = StepControl(dt_good=dt_good, stride=100)
    except ValueError as exc:
        raise ConfigError(f"time.dt_good: {exc}") from None

    ic_type = values.get("ic.type", "cosine")
    ic_l = values.get("ic.l")
    ic_c = values.get("ic.c")
    if ic_type == "cosine":
        if ic_l is None:
            raise ConfigError("ic.type = cosine requires ic.l")
        if ic_l <= 0:
            raise ConfigError(f"ic.l must be positive, got {ic_l!r}")
        if grid.l1 != -ic_l or grid.l2 != ic_l:
            raise ConfigError(
                f"ic.type = cosine requires the symmetric domain [-{ic_l!r}, {ic_l!r}], "
                f"got [{grid.l1!r}, {grid.l2!r}]")
        u0 = np.cos(np.pi * grid.nodes / (2.0 * ic_l))
    elif ic_type == "constant":
        if ic_c is None:
            raise ConfigError("ic.type = constant requires ic.c")
        if ic_c < 0:
            raise ConfigError(f"ic.c must be nonnegative, got {ic_c!r}")
        u0 = np.full(grid.n, ic_c)
    elif ic_type == "table":
        if "ic.table_path" not in values:
            raise ConfigError("ic.type = table requires ic.table_path")
        xs, us = _read_xy_csv(values["ic.table_path"], ("x", "u"))
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("ic table must have strictly increasing x")
        if np.any(us < 0):
            raise ConfigError("ic table contains negative densities")
        u0 = np.interp(grid.nodes, xs, us)
    else:
        raise ConfigError(f"ic.type must be cosine, constant or table, got {ic_type!r}")

    n_periods = values.get("run.n_periods")
    if n_periods is not None and n_periods < 1:
        raise ConfigError(f"run.n_periods must be >= 1, got {n_periods!r}")

    profile_lengths = None
    if "profile.lengths" in values:
        try:
            profile_lengths = [float(s) for s in values["profile.lengths"].split(",")]
        except ValueError:
            raise ConfigError("profile.lengths must be comma-separated numbers") from None
        profile_lengths = _profile_lengths(profile_lengths)

    outs = {}
    for key in ("out.trajectory", "out.summary", "out.periodic", "out.profile"):
        path = values.get(key)
        if path is not None:
            _check_writable(key, path)
        outs[key] = path

    return ScenarioConfig(params=params, kernel=kernel, bc=bc, grid=grid, ctl=ctl,
                          u0=StateVector(u0), n_periods=n_periods,
                          out_trajectory=outs["out.trajectory"],
                          out_summary=outs["out.summary"],
                          out_periodic=outs["out.periodic"],
                          out_profile=outs["out.profile"],
                          profile_lengths=profile_lengths)
