"""Outside-in instrumentation of the seasonal_dispersal package.

Wrappers are installed on the module attributes that callers look up at call
time (``cli.assemble``, ``spectral.principal_eigenpair``, ...), so nothing
under ``src/`` is edited. Two modes:

* capture only (the untraced end-to-end run): the three solver entry points
  whose results the correctness checks need keep a small record of each
  return value; nothing is timed.
* traced: every target records a span (name, parent, start, end) in memory.
  ``DispersalOperator.apply`` runs hundreds of thousands of times per solve,
  so instead of a span per call it adds its call count, time and size to the
  enclosing span.
"""

import time
from dataclasses import dataclass, field

import numpy as np

# span list layout: [name, parent index, start, end, apply calls, apply seconds, apply n]
NAME, PARENT, START, END, A_CALLS, A_SECS, A_N = range(7)


def _op_n(op):
    return op.n


def _eigen(pair):
    return {"iterations": pair.iterations, "residual": pair.residual,
            "n": pair.phi1.size}


def _bracket(res):
    return {"ell_star": res.ell_star, "bracket": res.bracket,
            "lambda_lo": res.lambda_lo, "lambda_hi": res.lambda_hi}


def _iteration(sol):
    gaps = np.array(sol.trace.gaps, dtype=float)
    return {"periods": len(sol.trace) - 1, "final_gap": float(gaps[-1]), "gaps": gaps,
            "trace_bytes": sol.trace.upper.nbytes + sol.trace.lower.nbytes + gaps.nbytes}


# (module, attribute, span name, extractor of the return value or None)
TARGETS = [
    ("cli", "parse_config", "config.parse_config", None),
    ("cli", "run_scenario", "cli.run_scenario", None),
    ("cli", "assemble", "operator.assemble", _op_n),
    ("spectral", "assemble", "operator.assemble", _op_n),
    ("periodic", "assemble", "operator.assemble", _op_n),
    ("cli", "principal_eigenpair", "spectral.principal_eigenpair", _eigen),
    ("periodic", "principal_eigenpair", "spectral.principal_eigenpair", _eigen),
    ("spectral", "principal_eigenpair", "spectral.principal_eigenpair", _eigen),
    ("cli", "critical_length", "spectral.critical_length", _bracket),
    ("periodic", "critical_length", "spectral.critical_length", _bracket),
    ("cli", "evolve", "evolution.evolve", None),
    ("periodic", "evolve", "evolution.evolve", None),
    ("periodic", "period_map", "evolution.period_map", None),
    ("cli", "find_periodic_solution", "periodic.find_periodic_solution", _iteration),
    ("cli", "classify", "periodic.classify", None),
    ("cli", "export_trajectory", "cli.export", None),
    ("cli", "export_periodic", "cli.export", None),
    ("cli", "export_profile", "cli.export", None),
]

#: results the correctness checks read, captured in both modes
CHECKED = {"spectral.principal_eigenpair", "spectral.critical_length",
           "periodic.find_periodic_solution"}


@dataclass
class Instrument:
    """Installs and removes the wrappers; owns the spans and captured results."""

    modules: dict
    operator_class: type
    spans: list = field(default_factory=list)
    kept: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def install(self, traced: bool) -> None:
        for mod, attr, name, extract in TARGETS:
            if traced or name in CHECKED:
                owner = self.modules[mod]
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                wrap = self._timed if traced else self._captured
                setattr(owner, attr, wrap(fn, name, extract))
        if traced:
            fn = self.operator_class.apply
            self._saved.append((self.operator_class, "apply", fn))
            self.operator_class.apply = self._timed_apply(fn)

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take(self) -> tuple[list, dict]:
        """The spans and kept records so far (grouped by span name); both are
        left empty for the next solve."""
        kept = {}
        for name, info in self.kept:
            kept.setdefault(name, []).append(info)
        spans = list(self.spans)
        self.kept.clear()
        self.spans.clear()
        return spans, kept

    def open_span(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, 0, 0.0, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close_span(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _captured(self, fn, name, extract):
        kept = self.kept

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            kept.append((name, extract(out)))
            return out
        return wrapper

    def _timed(self, fn, name, extract):
        kept = self.kept

        def wrapper(*args, **kwargs):
            idx = self.open_span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close_span(idx)
            if extract is not None:
                kept.append((name, extract(out)))
            return out
        return wrapper

    def _timed_apply(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def apply(op, u):
            t0 = clock()
            out = fn(op, u)
            t1 = clock()
            s = spans[stack[-1]]
            s[A_CALLS] += 1
            s[A_SECS] += t1 - t0
            s[A_N] = op.K.shape[0]
            return out
        return apply


def apply_bytes(n: int) -> int:
    """Computed bytes one dense apply moves: K once, and u, K u, L u."""
    return 8 * n * n + 3 * 8 * n


def self_times(spans: list) -> list:
    """Span duration minus the time its child spans and its applies cover."""
    own = [s[END] - s[START] - s[A_SECS] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def solve_layers(spans: list, kept: dict) -> dict:
    """Per-layer figures of one traced solve, from its spans and the return
    values its wrappers kept (span name -> list of extracted records)."""
    own = self_times(spans)
    dur = {}
    count = {}
    for s in spans:
        dur[s[NAME]] = dur.get(s[NAME], 0.0) + s[END] - s[START]
        count[s[NAME]] = count.get(s[NAME], 0) + 1
    calls = sum(s[A_CALLS] for s in spans)
    secs = sum(s[A_SECS] for s in spans)
    nbytes = sum(s[A_CALLS] * apply_bytes(s[A_N]) for s in spans)
    evo = [s for s in spans if s[NAME].startswith("evolution.")]
    evo_calls = sum(s[A_CALLS] for s in evo)
    evo_secs = sum(s[A_SECS] for s in evo)
    rk_steps = evo_calls // 4
    rk_step_us = 1e6 * sum(s[END] - s[START] for s in evo) / rk_steps if rk_steps else 0.0
    evo_apply_us = 1e6 * evo_secs / evo_calls if evo_calls else 0.0

    ns = kept.get("operator.assemble", [])
    eig = kept.get("spectral.principal_eigenpair", [])
    finds = kept.get("periodic.find_periodic_solution", [])
    crit_spans = {i for i, s in enumerate(spans) if s[NAME] == "spectral.critical_length"}
    cli_self = sum(o for s, o in zip(spans, own) if s[NAME] in ("solve", "cli.run_scenario"))
    return {
        "config.parse_s": dur.get("config.parse_config", 0.0),
        "operator.assemble_s": dur.get("operator.assemble", 0.0),
        "operator.matrix_mb": max((8 * n * n + 8 * n for n in ns), default=0) / 2**20,
        "operator.apply_us": 1e6 * secs / calls if calls else 0.0,
        "operator.apply_calls": calls,
        "operator.apply_bytes": nbytes,
        "evolution.period_map_s": dur.get("evolution.period_map", 0.0),
        "evolution.period_maps": count.get("evolution.period_map", 0),
        "evolution.evolve_s": dur.get("evolution.evolve", 0.0),
        "evolution.rk_steps": rk_steps,
        "evolution.rk_step_us": rk_step_us,
        "evolution.step_overhead_share":
            1.0 - 4.0 * evo_apply_us / rk_step_us if rk_steps else 0.0,
        "spectral.eigen_s": dur.get("spectral.principal_eigenpair", 0.0),
        "spectral.eigen_calls": count.get("spectral.principal_eigenpair", 0),
        "spectral.eigen_iterations": sum(e["iterations"] for e in eig),
        "spectral.eigen_residual": max((e["residual"] for e in eig), default=0.0),
        "spectral.critical_length_s": dur.get("spectral.critical_length", 0.0),
        "spectral.lambda_evals": sum(1 for s in spans if s[NAME] == "operator.assemble"
                                     and s[PARENT] in crit_spans),
        "periodic.find_s": dur.get("periodic.find_periodic_solution", 0.0),
        "periodic.periods": sum(f["periods"] for f in finds),
        "periodic.contraction_rate": (contraction_rate(finds[0]["gaps"])
                                      if finds else 0.0),
        "periodic.trace_mb": sum(f["trace_bytes"] for f in finds) / 2**20,
        "cli.export_s": dur.get("cli.export", 0.0),
        "cli.self_s": cli_self,
    }


def contraction_rate(gaps: np.ndarray) -> float:
    """Median of gap[k] / gap[k-1] over the second half of the iteration."""
    ratios = gaps[1:] / gaps[:-1]
    return float(np.median(ratios[ratios.size // 2:])) if ratios.size else 0.0
