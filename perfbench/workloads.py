"""The four benchmark workloads: seeded config files and correctness oracles.

Each workload is one CLI call. The seed draws the habitat half-width within
+-2% of its nominal value; every other key is fixed, so a workload keeps its
defining property (sign of lambda1, grid size, step count) on every seed.

The oracles run outside the timed region. They restate the published
parameter sets and the Laplace kernel here rather than reading them from the
package, so the eigenvalue check is independent of the code under test.
"""

import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np

PRESETS = {
    "P1": dict(delta=0.2, d=0.6, a=1.2, b=0.6, rho=0.6, omega=1.0),
    "P2": dict(delta=0.2, d=1.0, a=1.2, b=0.6, rho=0.6, omega=1.0),
}
PRESET_SCALE = 20.0
EIGEN_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str
    half_width: float
    keys: tuple  # further (key, value) config pairs
    csv_key: str | None  # out.* key of the CSV artefact, if the call writes one
    # (kind, n, reps) of the loop that measures the machine's speed beside the
    # solves, and that loop's seconds at the reference machine's usual speed
    reference: tuple
    reference_nominal_s: float


# Seconds each reference loop took on the reference machine (perfbench/README.md).
# Only their ratio to a run's own reference times matters; they are constants,
# so a change to the package cannot move them.
NOMINAL_RK4_128 = 2.2
NOMINAL_RK4_64 = 1.8
NOMINAL_POWER_2048 = 1.25

# why each workload is here: perfbench/README.md
WORKLOADS = {w.name: w for w in [
    Workload("attractor", "periodic", "P1", 0.2,
             (("grid.n", "128"), ("time.dt_good", "0.001")), "out.periodic",
             ("rk4", 128, 50000), NOMINAL_RK4_128),
    Workload("extinction", "periodic", "P2", 0.5,
             (("grid.n", "64"), ("time.dt_good", "0.002")), None,
             ("rk4", 64, 50000), NOMINAL_RK4_64),
    Workload("threshold-wide", "classify", "P2", 50.0,
             (("kernel.scale", "1"), ("grid.n", "2048")), None,
             ("power", 2048, 600), NOMINAL_POWER_2048),
    # the keys of scripts/p1_figure.cfg, restated so that the input stays fixed
    Workload("simulate-figure", "simulate", "P1", 0.2,
             (("grid.n", "128"), ("run.n_periods", "60")), "out.trajectory",
             ("rk4", 128, 50000), NOMINAL_RK4_128),
]}


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one run: the config file and the CLI argv."""

    workload: Workload
    half_width: float
    csv_path: str | None
    argv: list


def make_inputs(w: Workload, seed: int, work_dir) -> Inputs:
    """Write the seeded config for ``w`` into ``work_dir``."""
    rng = random.Random(f"{w.name}:{seed}")
    hw = w.half_width * (1.0 + rng.uniform(-0.02, 0.02))
    keys = [("preset", w.preset), ("domain.l1", repr(-hw)), ("domain.l2", repr(hw)),
            *w.keys,
            # parse_config requires ic.* keys for every subcommand
            ("ic.type", "cosine"), ("ic.l", repr(hw)),
            ("out.summary", str(work_dir / f"{w.name}.summary.txt"))]
    csv_path = None
    if w.csv_key is not None:
        csv_path = str(work_dir / f"{w.name}.csv")
        keys.append((w.csv_key, csv_path))
    config_path = work_dir / f"{w.name}.cfg"
    config_path.write_text("".join(f"{k} = {v}\n" for k, v in keys))
    return Inputs(w, hw, csv_path, [w.command, "--config", str(config_path)])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def dense_threshold(preset: str, scale: float, l1: float, l2: float, n: int):
    """(sigma1, lambda1) from a dense eigvalsh of d K on the midpoint grid."""
    p = PRESETS[preset]
    dx = (l2 - l1) / n
    x = l1 + (np.arange(n) + 0.5) * dx
    K = np.exp(-np.abs(x[:, None] - x[None, :]) / scale) / (2.0 * scale) * dx
    r = float(np.linalg.eigvalsh(p["d"] * K)[-1])
    sigma1 = p["d"] - p["a"] - r
    return sigma1, (1.0 - p["rho"]) * sigma1 + p["rho"] * p["delta"]


def parse_summary(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def csv_digest(path: str) -> tuple[str, int, int]:
    """(sha256, bytes, data rows) of a CSV file, read in chunks."""
    h, size, lines = hashlib.sha256(), 0, 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), size, lines - 1


class Oracle:
    """Checks one solve's outputs; references are computed once per run."""

    def __init__(self, inputs: Inputs, package, first_csv):
        self.inputs = inputs
        w = inputs.workload
        self.p = PRESETS[w.preset]
        keys = dict(w.keys)
        self.scale = float(keys.get("kernel.scale", PRESET_SCALE))
        self.n = int(keys["grid.n"])
        good_season = (1.0 - self.p["rho"]) * self.p["omega"]
        self.dt_good = float(keys.get("time.dt_good", good_season / 2000))
        hw = inputs.half_width
        self.sigma1, self.lambda1 = dense_threshold(w.preset, self.scale, -hw, hw, self.n)
        self.package = package
        self.csv_sha = self.csv_problems = None
        if first_csv is not None:
            self.csv_sha = csv_digest(first_csv)[0]
            self.csv_problems = self._csv_content(first_csv)

    def check(self, solve: dict) -> list[str]:
        """Problems found in one solve; empty when it passed."""
        if solve["error"]:
            return [solve["error"]]
        s = solve["summary"]
        if solve["rc"] != 0 or s.get("status") != "ok":
            return [f"exit code {solve['rc']}, status {s.get('status')}"]
        problems = [f"eigen residual {e['residual']:g} at n={e['n']}"
                    for e in solve["kept"].get("spectral.principal_eigenpair", [])
                    if not e["residual"] <= EIGEN_TOL]
        try:
            for key, ref in (("sigma1", self.sigma1), ("lambda1", self.lambda1)):
                if not abs(float(s[key]) - ref) <= EIGEN_TOL:
                    problems.append(f"{key} {s[key]} differs from dense {ref!r}")
            problems += getattr(self, "_" + self.inputs.workload.name.replace("-", "_"))(s, solve)
        except (KeyError, ValueError) as exc:
            problems.append(f"summary field missing or malformed: {exc!r}")
        if self.inputs.csv_path is not None:
            problems += self._csv(solve)
        return problems

    def _attractor(self, s, solve):
        finds = solve["kept"]["periodic.find_periodic_solution"]
        sup = float(s["final_supnorm"])
        out = []
        if s.get("classification") != "periodic_solution" or not self.lambda1 < 0:
            out.append(f"verdict {s.get('classification')} with lambda1 {self.lambda1:g}")
        if not (len(finds) == 1 and finds[0]["final_gap"] <= 1e-8):
            out.append(f"monotone gap not <= 1e-8: {finds}")
        if not float(s["periodic_residual"]) <= 1e-8 * max(1.0, sup):
            out.append(f"periodic residual {s['periodic_residual']}")
        if not 0.0 < sup <= self.p["a"] / self.p["b"]:
            out.append(f"sup u* {sup} outside (0, a/b]")
        return out

    def _extinction(self, s, solve):
        if (s.get("classification"), s.get("evidence")) == ("extinction", "below_threshold") \
                and self.lambda1 > 0 and float(s["lambda1"]) > 0:
            return []
        return [f"verdict {s.get('classification')}/{s.get('evidence')}, "
                f"lambda1 {s.get('lambda1')}"]

    def _threshold_wide(self, s, solve):
        out = []
        if s.get("classification") != "critical_length" or not self.lambda1 < 0:
            out.append(f"verdict {s.get('classification')} with lambda1 {self.lambda1:g}")
        crit = solve["kept"].get("spectral.critical_length", [])
        if len(crit) != 1:
            return out + [f"{len(crit)} critical_length results captured"]
        c = crit[0]
        lo, hi = c["bracket"]
        if not (c["lambda_lo"] > 0 > c["lambda_hi"] and 0 < hi - lo <= 1e-4
                and float(s["ell_star"]) == c["ell_star"]):
            out.append(f"critical length bracket {c}")
        # independent signs at the bracket ends, on the grid the bisection uses
        for ell, sign in ((lo, 1.0), (hi, -1.0)):
            n = max(256, math.ceil(64.0 * ell / self.scale))
            lam = dense_threshold(self.inputs.workload.preset, self.scale,
                                  -0.5 * ell, 0.5 * ell, n)[1]
            if not sign * lam > 0:
                out.append(f"dense lambda1 {lam:g} at bracket end {ell!r}")
        return out

    def _simulate_figure(self, s, solve):
        if s.get("classification") == "persist_all_domains" and self.lambda1 < 0:
            return []
        return [f"verdict {s.get('classification')} with lambda1 {self.lambda1:g}"]

    def _csv(self, solve) -> list[str]:
        """The CSV equals the run's first one, whose content is checked once."""
        if solve["csv"] is None:
            return ["no CSV written"]
        if solve["csv"][0] != self.csv_sha:
            return ["CSV differs from the first solve's"]
        return self.csv_problems

    def _csv_content(self, path) -> list[str]:
        with open(path) as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        hw, n, p = self.inputs.half_width, self.n, self.p
        x = -hw + (np.arange(n) + 0.5) * (2.0 * hw / n)
        times = data[::n, 0]
        out = []
        if data.shape[0] % n or not np.all(data[:, 0].reshape(-1, n) == times[:, None]):
            return [f"{data.shape[0]} rows are not whole blocks of {n} nodes"]
        if not (np.all(np.diff(times) > 0)
                and np.allclose(data[:, 1].reshape(-1, n), x, rtol=0, atol=1e-14)):
            out.append("times not ascending or nodes not the grid")
        u = data[:, 2]
        if self.inputs.workload.command == "periodic":
            if header != "t,x,ustar" or not (np.all(u > 0)
                                             and np.max(u) <= p["a"] / p["b"]):
                out.append(f"header {header!r} or u* outside (0, a/b]")
            # u*(0) is a fixed point of the period map at 4x the step count too
            dev = float(np.max(np.abs(self._one_period_reference(u[:n]) - u[:n])))
            if not dev <= 1e-8 * max(1.0, float(np.max(u))):
                out.append(f"u*(0) moves {dev:g} under the 4x-step period map")
            return out
        if header != "t,x,u":
            out.append(f"header {header!r}")
        u0 = np.cos(np.pi * x / (2.0 * hw))
        bound = max(p["a"] / p["b"], float(np.max(u0))) * (1.0 + 1e-6)
        if not (np.all(u >= 0) and np.all(u <= bound)):
            out.append(f"u outside [0, {bound}]")
        at_omega = np.flatnonzero(times == p["omega"])
        if at_omega.size != 1:
            return out + ["no sample at t = omega"]
        ref = self._one_period_reference(u0)
        dev = float(np.max(np.abs(data[at_omega[0] * n:(at_omega[0] + 1) * n, 2] - ref)))
        if not dev <= 1e-8:
            out.append(f"row at t = omega deviates {dev:g} from the 4x-step reference")
        return out

    def _one_period_reference(self, u0):
        """State at t = omega from u0, by evolve at 4x the workload's step count."""
        sd = self.package
        p = sd.SeasonParams(**self.p)
        hw = self.inputs.half_width
        op = sd.assemble(sd.LaplaceKernel(scale=self.scale), sd.Grid(-hw, hw, self.n),
                         sd.BoundaryCondition.DIRICHLET, p.d)
        ctl = sd.StepControl(dt_good=self.dt_good / 4)
        return sd.evolve(sd.StateVector(u0), p, op, ctl, p.omega).final.values
