import dataclasses
import errno
import importlib.util
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seasonal_dispersal import (BoundaryCondition, ConfigError, Grid,
                                LaplaceKernel, MonotoneIterationTrace,
                                PeriodicSolution, StateVector, StepControl,
                                Trajectory, assemble, evolve,
                                find_periodic_solution)
from seasonal_dispersal import _csvtext, cli
from seasonal_dispersal.cli import export_periodic, export_trajectory, main
from seasonal_dispersal.config import parse_config
from seasonal_dispersal.errors import EigenConvergenceError, PositivityError, SolverError
from seasonal_dispersal.evolution import fit_step
from seasonal_dispersal.operator import _fold_width

from helpers import P1, params, tent_kernel_table


def make_config(tmp_path, body):
    path = tmp_path / "scenario.cfg"
    path.write_text(body)
    return str(path)


def assert_no_child_process():
    # os.waitpid(-1) raises ChildProcessError only when this process has no
    # child, running or exited and not yet reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


BASE_P1 = """
# published parameter set
preset = P1
domain.l1 = -0.2
domain.l2 = 0.2
grid.n = 24
ic.type = cosine
ic.l = 0.2
"""


class TestParseConfig:
    def test_preset_P1(self):
        cfg = parse_config(BASE_P1)
        p = cfg.params
        assert (p.delta, p.d, p.a, p.b, p.rho, p.omega) == (0.2, 0.6, 1.2, 0.6, 0.6, 1.0)
        assert isinstance(cfg.kernel, LaplaceKernel)
        assert cfg.kernel.scale == 20.0
        assert cfg.bc is BoundaryCondition.DIRICHLET
        assert cfg.grid.n == 24

    def test_preset_P2_changes_only_d(self):
        cfg = parse_config(BASE_P1.replace("P1", "P2"))
        assert cfg.params.d == 1.0
        assert cfg.params.delta == 0.2

    def test_preset_P3(self):
        cfg = parse_config(BASE_P1.replace("P1", "P3"))
        assert cfg.params.delta == 0.8

    def test_explicit_keys_override_preset(self):
        cfg = parse_config(BASE_P1 + "d = 0.9\nkernel.scale = 5\n")
        assert cfg.params.d == 0.9
        assert cfg.kernel.scale == 5.0

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config(BASE_P1 + "rho = 1.5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            parse_config(BASE_P1 + "foo = 1\n")

    def test_non_numeric_value_names_key(self):
        with pytest.raises(ConfigError, match="domain.l1"):
            parse_config("preset = P1\ndomain.l1 = left\ndomain.l2 = 1\n"
                         "ic.type = constant\nic.c = 1\n")

    def test_cosine_requires_symmetric_domain(self):
        with pytest.raises(ConfigError, match="symmetric"):
            parse_config(BASE_P1.replace("domain.l1 = -0.2", "domain.l1 = -0.3"))

    def test_cosine_initial_state_positive_and_peaked(self):
        cfg = parse_config(BASE_P1)
        u0 = cfg.u0
        assert np.all(u0.values > 0)
        assert np.argmax(u0.values) in (11, 12)

    def test_constant_ic(self):
        cfg = parse_config("preset = P1\ndomain.l1 = -1\ndomain.l2 = 1\n"
                           "ic.type = constant\nic.c = 0.5\n")
        assert np.all(cfg.u0.values == 0.5)

    def test_overrides(self):
        cfg = parse_config(BASE_P1, overrides={"grid.n": "48", "bc": "neumann"})
        assert cfg.grid.n == 48
        assert cfg.bc is BoundaryCondition.NEUMANN

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override"):
            parse_config(BASE_P1, overrides={"nope": "1"})

    def test_missing_domain_rejected(self, tmp_path, capsys):
        # a config without a habitat parses; a subcommand that solves on the
        # habitat refuses it at run time
        path = make_config(tmp_path, "preset = P1\nic.type = constant\nic.c = 1\n")
        assert main(["classify", "--config", path]) == 2
        assert "'domain.l1'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["domain.l1 = -1", "domain.l2 = 1"])
    def test_single_domain_key_rejected(self, key):
        with pytest.raises(ConfigError, match="must be given together"):
            parse_config(f"preset = P1\n{key}\n")

    @pytest.mark.parametrize("n", [24, 25])
    def test_cosine_start_is_the_habitats_own(self, n):
        # no ic.* key: the default cosine start takes its width from the
        # habitat, which need not be symmetric
        cfg = parse_config(f"preset = P1\ndomain.l1 = 0\ndomain.l2 = 0.4\ngrid.n = {n}\n")
        u0 = cfg.u0.values
        assert np.all(u0 > 0)
        assert abs(cfg.grid.nodes[np.argmax(u0)] - 0.2) <= cfg.grid.dx / 2
        np.testing.assert_allclose(u0, np.sin(np.pi * cfg.grid.nodes / 0.4), atol=1e-15)
        assert _fold_width(u0) == n

    @pytest.mark.parametrize("name", ["attractor", "extinction", "threshold-wide",
                                      "simulate-figure"])
    def test_ic_l_is_redundant_in_the_benchmark_configs(self, tmp_path, name):
        # the benchmark's configs set ic.l to the half-width; without it the
        # start has the same bits
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench"
            / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        inputs = workloads.make_inputs(workloads.WORKLOADS[name], 1, tmp_path)
        text = Path(inputs.argv[-1]).read_text()
        assert "\nic.l = " in text
        without = "".join(line + "\n" for line in text.splitlines()
                          if not line.startswith("ic.l"))
        assert parse_config(without).u0.values.tobytes() == \
            parse_config(text).u0.values.tobytes()

    def test_profile_lengths_parsing(self):
        cfg = parse_config(BASE_P1 + "profile.lengths = 10, 20, 40\n")
        assert cfg.profile_lengths == (10.0, 20.0, 40.0)
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(BASE_P1 + "profile.lengths = 10, 5\n")

    def test_kernel_table_loaded(self, tmp_path):
        w = 1.5
        table = tent_kernel_table(w, m=41)
        xs = np.linspace(-w, w, 41)
        path = tmp_path / "kern.csv"
        path.write_text("x,J\n" + "\n".join(f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, table)))
        cfg = parse_config(BASE_P1.replace("preset = P1\n", "preset = P1\nkernel.type = table\n")
                           + f"kernel.table_path = {path}\n")
        assert cfg.kernel.half_width == w

    def test_kernel_table_from_formula_at_linspace_nodes_runs(self, tmp_path):
        # the tent written at linspace nodes is symmetric to rounding only
        xs = np.linspace(-0.1, 0.1, 41)
        path = tmp_path / "kern.csv"
        path.write_text("x,J\n" + "\n".join(f"{x!r},{(1.0 - abs(x) / 0.1) / 0.1!r}"
                                             for x in xs.tolist()))
        cfg = make_config(tmp_path, BASE_P1 + f"kernel.type = table\nkernel.table_path = {path}\n"
                          f"run.n_periods = 1\nout.trajectory = {tmp_path}/t.csv\n")
        assert main(["simulate", "--config", cfg]) == 0

    def test_ic_table_interpolated(self, tmp_path):
        path = tmp_path / "ic.csv"
        path.write_text("x,u\n-0.2,0.0\n0.0,1.0\n0.2,0.0\n")
        cfg = parse_config(BASE_P1.replace("ic.type = cosine\nic.l = 0.2\n",
                                           f"ic.type = table\nic.table_path = {path}\n"))
        u0 = cfg.u0
        assert np.all(u0.values >= 0)
        assert np.max(u0.values) > 0.9

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind, column", [("ic", 0), ("ic", 1),
                                              ("kernel", 0), ("kernel", 1)])
    def test_non_finite_table_cell_names_the_table(self, tmp_path, capsys, kind,
                                                   column, cell):
        # a NaN u once escaped as a bare ValidationError about the state, and
        # a NaN kernel x was refused for non-uniform spacing
        xs = np.linspace(-1.0, 1.0, 5)
        if kind == "ic":
            header, body = "x,u", BASE_P1.replace(
                "ic.type = cosine\nic.l = 0.2\n", "ic.type = table\n")
            rows = [[x, 1.0 - x * x] for x in xs]
        else:
            header, body = "x,J", BASE_P1 + "kernel.type = table\n"
            rows = [[x, 1.0 - abs(x)] for x in xs]
        rows[1][column] = cell
        path = tmp_path / f"{kind}.csv"
        path.write_text(header + "\n" + "\n".join(f"{x},{v}" for x, v in rows) + "\n")
        body += f"{kind}.table_path = {path}\n"
        with pytest.raises(ConfigError, match=f"table {str(path)!r} contains a non-finite"):
            parse_config(body)
        assert main(["classify", "--config", make_config(tmp_path, body)]) == 2
        assert "non-finite cell" in capsys.readouterr().err

    def test_unwritable_output_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(BASE_P1 + f"out.summary = {tmp_path}/nodir/s.txt\n")


class TestExportTrajectory:
    def _tiny_trajectory(self):
        return Trajectory(times=np.array([0.0, 0.6]),
                          values=np.array([[1.0, 2.0], [0.25, 0.5]]),
                          grid=Grid.centered(0.4, 2))

    def test_row_count(self, tmp_path):
        path = str(tmp_path / "t.csv")
        export_trajectory(self._tiny_trajectory(), path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + 2 * 2

    @staticmethod
    def _as_periodic(tr):
        trace = MonotoneIterationTrace(upper=tr.values[:1], lower=tr.values[:1],
                                       gaps=np.zeros(1))
        return PeriodicSolution(times=tr.times, values=tr.values, residual=0.0,
                                lambda1=-0.1, pair=None, trace=trace, grid=tr.grid,
                                periods=0)

    @pytest.mark.parametrize("kind", ["trajectory", "periodic"])
    def test_round_trip_bit_exact(self, tmp_path, kind):
        tr = self._tiny_trajectory()
        path = str(tmp_path / "t.csv")
        if kind == "trajectory":
            export_trajectory(tr, path)
        else:
            export_periodic(self._as_periodic(tr), path)
        header, *lines = Path(path).read_text().splitlines()
        assert header == {"trajectory": "t,x,u", "periodic": "t,x,ustar"}[kind]
        parsed = np.array([[float(c) for c in ln.split(",")] for ln in lines])
        assert np.array_equal(parsed[:, 0], np.repeat(tr.times, 2))
        assert np.array_equal(parsed[:, 1], np.tile(tr.grid.nodes, 2))
        assert np.array_equal(parsed[:, 2], tr.values.ravel())

    def test_ordering(self, tmp_path):
        p = params(P1)
        op = assemble(LaplaceKernel(20.0), Grid.centered(0.4, 4),
                      BoundaryCondition.DIRICHLET, p.d)
        tr = evolve(StateVector(np.full(4, 0.5)), p, op,
                    StepControl.for_params(p, 20, stride=5), p.omega)
        path = str(tmp_path / "t.csv")
        export_trajectory(tr, path)
        lines = Path(path).read_text().splitlines()[1:]
        data = np.array([[float(c) for c in ln.split(",")] for ln in lines])
        ts = data[:, 0]
        assert np.all(np.diff(ts) >= 0)
        for t in np.unique(ts):
            xs = data[ts == t, 1]
            assert np.all(np.diff(xs) > 0)

    def test_empty_trajectory_header_only(self, tmp_path):
        tr = Trajectory(times=np.zeros(0), values=np.zeros((0, 3)),
                        grid=Grid.centered(1.0, 3))
        path = str(tmp_path / "t.csv")
        export_trajectory(tr, path)
        assert Path(path).read_text() == "t,x,u\n"

    def test_failed_export_leaves_no_files(self, tmp_path):
        # the second time row fails, after the header and the first row have
        # streamed into the temp file
        tmp_at_failure = []

        def times():
            yield 0.0
            tmp_at_failure.extend(tmp_path.glob("*.tmp"))
            raise RuntimeError("second time row failed")

        tr = dataclasses.replace(self._tiny_trajectory(), times=times())
        with pytest.raises(RuntimeError, match="second time row failed"):
            export_trajectory(tr, str(tmp_path / "t.csv"))
        assert len(tmp_at_failure) == 1
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _reference(header, times, values, nodes):
        """The CSV text with every value formatted on its own."""
        f = lambda v: format(float(v), ".17g")
        out = [header + "\n"]
        for t, row in zip(times, values):
            cols = [""] * len(row) if nodes is None else [f(x) + "," for x in nodes]
            out += [f"{f(t)},{c}{f(v)}\n" for c, v in zip(cols, row)]
        return "".join(out)

    @pytest.mark.parametrize("n", [1, 2, 3, 128])
    def test_mirrored_and_other_rows_match_reference(self, tmp_path, n):
        # mirrored rows (m < n) reuse the strings of their leading half; a row
        # one ulp off its mirror, or with a -0.0 mirroring +0.0, takes the
        # one-% path; both give the same bytes as formatting every value
        grid = Grid.centered(0.4, n)
        half = np.random.default_rng(n).uniform(0.0, 2.0, (n + 1) // 2)
        even = np.concatenate([half, half[:n // 2][::-1]])
        off = even.copy()
        off[-1] = np.nextafter(off[-1], 3.0)
        signed = even.copy()
        signed[0], signed[-1] = 0.0, -0.0
        values = np.array([even, off, 1 / 3 * even, signed, np.zeros(n)])
        times = [0.0, 0.1, 1 / 3, 5e-324, 60.0]
        path = tmp_path / "t.csv"
        cli._atomic_write(str(path), _csvtext.lines("t,x,u", cli._folded_rows(times, values, n),
                                                    grid.nodes))
        assert path.read_text() == self._reference("t,x,u", times, values, grid.nodes)

    def test_profile_csv_matches_reference(self, tmp_path):
        values = [[0.1], [1 / 3], [-0.0], [5e-324]]
        lengths = [10.0, 20.0, 40.0, 80.0]
        path = tmp_path / "p.csv"
        cli._atomic_write(str(path), _csvtext.lines("L,deviation",
                                                    cli._folded_rows(lengths, values, 1)))
        assert path.read_text() == self._reference("L,deviation", lengths, values, None)
        cli._atomic_write(str(path), _csvtext.lines("L,deviation", cli._folded_rows([], [], 1)))
        assert path.read_text() == "L,deviation\n"

    @pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, 1e-300, 1 / 3, 1e22])
    def test_row_template_formats_as_fmt(self, v):
        # _csvtext.lines fills its row template with b"%.17g"; the summary
        # formats its floats with _fmt
        assert b"%.17g" % v == _csvtext._fmt(v).encode()


class TestRunSummary:
    def test_all_fields_in_output_order(self):
        full = cli.RunSummary(
            command="periodic", status="ok", error="none",
            classification="extinction", evidence="below_threshold",
            growth_margin=0.1, sigma1=-0.75, lambda1=0.125, ell_star=4.25,
            final_supnorm=1e-11, eigen_residual=2.5e-9, periodic_residual=3e-10,
            ode_z0=1.5, dt_good=0.0002, wall_time_s=0.25, grid_n=64, n_periods=3,
            extra={"periods": 801, "bracket_lo": 4.0, "n_lengths": "2"})
        assert full.to_text() == """\
schema_version = 1
command = periodic
status = ok
error = none
classification = extinction
evidence = below_threshold
growth_margin = 0.10000000000000001
sigma1 = -0.75
lambda1 = 0.125
ell_star = 4.25
final_supnorm = 9.9999999999999994e-12
eigen_residual = 2.5000000000000001e-09
periodic_residual = 3e-10
ode_z0 = 1.5
dt_good = 0.00020000000000000001
wall_time_s = 0.25
grid_n = 64
n_periods = 3
bracket_lo = 4
n_lengths = 2
periods = 801
"""

    def test_failed_summary(self):
        failed = cli.RunSummary(command="simulate", status="failed", error="boom")
        assert failed.to_text() == ("schema_version = 1\ncommand = simulate\n"
                                    "status = failed\nerror = boom\n")


class TestRunScenario:
    def _sim_config(self, tmp_path, extra=""):
        return make_config(tmp_path, BASE_P1 + f"""
run.n_periods = 2
out.trajectory = {tmp_path}/traj.csv
out.summary = {tmp_path}/summary.txt
""" + extra)

    def test_simulate_writes_artifacts_and_summary(self, tmp_path):
        path = self._sim_config(tmp_path)
        rc = main(["simulate", "--config", path])
        assert rc == 0
        assert os.path.exists(tmp_path / "traj.csv")
        summary = (tmp_path / "summary.txt").read_text()
        assert "schema_version = 1" in summary
        assert "status = ok" in summary
        assert "classification = persist_all_domains" in summary
        fields = dict(line.split(" = ", 1) for line in summary.splitlines())
        assert float(fields["final_supnorm"]) >= 1e-2

    def test_summary_supnorm_matches_csv_tail(self, tmp_path):
        path = self._sim_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "summary.txt").read_text().splitlines())
        lines = (tmp_path / "traj.csv").read_text().splitlines()[1:]
        data = np.array([[float(c) for c in ln.split(",")] for ln in lines])
        t_last = data[-1, 0]
        block = data[data[:, 0] == t_last]
        assert float(summary["final_supnorm"]) == np.max(np.abs(block[:, 2]))

    def test_determinism_byte_identical(self, tmp_path):
        path = self._sim_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        first = (tmp_path / "traj.csv").read_bytes()
        assert main(["simulate", "--config", path]) == 0
        assert (tmp_path / "traj.csv").read_bytes() == first

    @pytest.mark.parametrize("start", ["even", "one_ulp_off"])
    def test_simulate_csv_is_the_export_of_evolve(self, tmp_path, start):
        # simulate streams its samples through the formatting process: its
        # CSV is the in-process export of the same run, for folded rows (an
        # even start) and for full-width rows (a start one ulp off its mirror)
        cfg = parse_config(Path(self._sim_config(tmp_path)).read_text())
        u = cfg.u0.values.copy()
        if start == "one_ulp_off":
            u[-1] = np.nextafter(u[-1], 2.0)
        assert int(_fold_width(u)) == {"even": 12, "one_ulp_off": 24}[start]
        cfg = dataclasses.replace(cfg, u0=StateVector(u))
        assert cli.run_scenario("simulate", cfg).status == "ok"
        assert_no_child_process()
        p = cfg.params
        op = assemble(cfg.kernel, cfg.grid, cfg.bc, p.d)
        ctl = fit_step(cfg.u0, p, op, cfg.ctl)[0]
        export_trajectory(evolve(cfg.u0, p, op, ctl, cfg.n_periods * p.omega),
                          str(tmp_path / "reference.csv"))
        assert (tmp_path / "traj.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    def test_classify_subcommand(self, tmp_path):
        path = make_config(tmp_path, BASE_P1 + f"out.summary = {tmp_path}/s.txt\n")
        assert main(["classify", "--config", path]) == 0
        text = (tmp_path / "s.txt").read_text()
        assert "classification = persist_all_domains" in text
        assert "lambda1 = " in text

    def test_simulate_and_classify_write_one_verdict(self, tmp_path):
        # P2 on a habitat below its critical length: every verdict line is set
        path = make_config(tmp_path, BASE_P1.replace("P1", "P2") + f"""
run.n_periods = 1
out.trajectory = {tmp_path}/traj.csv
out.summary = {tmp_path}/s.txt
""")
        keys = ("classification", "sigma1", "lambda1", "ell_star")
        verdicts = []
        for command in ("simulate", "classify"):
            assert main([command, "--config", path]) == 0
            summary = dict(line.split(" = ", 1) for line in
                           (tmp_path / "s.txt").read_text().splitlines())
            verdicts.append([summary.get(k) for k in keys])
        assert verdicts[0] == verdicts[1]
        assert None not in verdicts[0]
        assert verdicts[0][0] == "critical_length"

    def test_spectrum_subcommand(self, tmp_path):
        path = make_config(tmp_path, BASE_P1 + f"out.summary = {tmp_path}/s.txt\n")
        assert main(["spectrum", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert float(summary["sigma1"]) < 0.6 - 1.2
        assert float(summary["eigen_residual"]) <= 1e-8

    def test_spectrum_neumann_closed_form(self, tmp_path):
        path = make_config(tmp_path, BASE_P1 + f"bc = neumann\nout.summary = {tmp_path}/s.txt\n")
        assert main(["spectrum", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert "sigma1" not in summary
        assert float(summary["lambda1"]) == pytest.approx(-0.36)

    def test_critical_length_subcommand(self, tmp_path):
        path = make_config(tmp_path, BASE_P1.replace("P1", "P2")
                           + f"out.summary = {tmp_path}/s.txt\n")
        assert main(["critical-length", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert summary["classification"] == "critical_length"
        assert float(summary["bracket_hi"]) - float(summary["bracket_lo"]) <= 1e-4

    def test_periodic_subcommand(self, tmp_path):
        path = make_config(tmp_path, BASE_P1 + f"""
time.dt_good = 0.001
out.summary = {tmp_path}/s.txt
out.periodic = {tmp_path}/per.csv
""")
        assert main(["periodic", "--config", path]) == 0
        lines = (tmp_path / "per.csv").read_text().splitlines()
        assert lines[0] == "t,x,ustar"
        assert len(lines) > 1
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert summary["classification"] == "periodic_solution"
        assert float(summary["periodic_residual"]) <= 1e-8 * max(
            1.0, float(summary["final_supnorm"]))

    def test_periodic_summary_reports_periods(self, tmp_path):
        path = make_config(tmp_path, BASE_P1 + f"time.dt_good = 0.001\n"
                           f"out.summary = {tmp_path}/s.txt\nout.periodic = {tmp_path}/per.csv\n")
        assert main(["periodic", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        cfg = parse_config(Path(path).read_text())
        op = assemble(cfg.kernel, cfg.grid, cfg.bc, cfg.params.d)
        sol = find_periodic_solution(cfg.params, op, cfg.ctl)
        assert int(summary["periods"]) == sol.periods
        assert summary["grid_n"] == "24"
        assert float(summary["dt_good"]) == pytest.approx(0.001)

    @pytest.mark.parametrize("command, body", [
        ("critical-length", BASE_P1.replace("P1", "P2")),
        ("profile-study", BASE_P1.replace("0.2", "1") + "kernel.scale = 1\n"
         "profile.lengths = 4, 6\n"),
        ("ode-reference", BASE_P1),
    ])
    def test_own_grid_subcommands_omit_config_grid(self, tmp_path, command, body):
        # two solve on grids sized from their lengths, not on grid.n/dt_good,
        # and ode-reference steps no grid at all
        path = make_config(tmp_path, body + f"out.summary = {tmp_path}/s.txt\n"
                           f"out.profile = {tmp_path}/prof.csv\n")
        assert main([command, "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert "grid_n" not in summary and "dt_good" not in summary
        assert summary["status"] == "ok"

    @pytest.mark.parametrize("command, body", [
        ("critical-length", "preset = P2\n"),
        ("ode-reference", "preset = P1\n"),
        ("profile-study", "preset = P1\nkernel.scale = 1\nprofile.lengths = 4, 6\n"),
    ])
    def test_own_grid_subcommands_need_no_habitat(self, tmp_path, command, body):
        # the same summary as with a habitat and an ic.l that none of them reads
        def summary_lines(text, name):
            path = make_config(tmp_path, text + f"out.summary = {tmp_path}/{name}.txt\n"
                               f"out.profile = {tmp_path}/{name}.csv\n")
            assert main([command, "--config", path]) == 0
            return [line for line in (tmp_path / f"{name}.txt").read_text().splitlines()
                    if not line.startswith("wall_time_s = ")]

        bare = summary_lines(body, "bare")
        assert bare == summary_lines(
            body + "domain.l1 = -3\ndomain.l2 = 3\nic.type = cosine\nic.l = 3\n", "dummy")
        assert "status = ok" in bare

    @pytest.mark.parametrize("command", ["spectrum", "classify", "periodic"])
    def test_asymmetric_habitat_needs_no_ic_keys(self, tmp_path, command):
        path = make_config(tmp_path, "preset = P1\ndomain.l1 = 0\ndomain.l2 = 0.4\n"
                           f"grid.n = 24\nout.summary = {tmp_path}/s.txt\n"
                           f"out.periodic = {tmp_path}/per.csv\n")
        assert main([command, "--config", path]) == 0
        summary = (tmp_path / "s.txt").read_text()
        assert "status = ok" in summary and "grid_n = 24" in summary

    @pytest.mark.parametrize("command", ["classify", "spectrum"])
    def test_stepless_subcommands_omit_dt_good(self, tmp_path, command):
        # both solve on the config's grid but take no time step
        path = make_config(tmp_path, BASE_P1 + f"out.summary = {tmp_path}/s.txt\n")
        assert main([command, "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert "dt_good" not in summary
        assert summary["grid_n"] == "24"

    def test_simulate_summary_reports_step_taken(self, tmp_path):
        path = self._sim_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "summary.txt").read_text().splitlines())
        cfg = parse_config(Path(path).read_text())
        op = assemble(cfg.kernel, cfg.grid, cfg.bc, cfg.params.d)
        fit, est = fit_step(cfg.u0, cfg.params, op, cfg.ctl)
        assert fit.dt_good > cfg.ctl.dt_good
        assert float(summary["dt_good"]) == fit.dt_good
        assert float(summary["step_error_estimate"]) == est

    @pytest.mark.parametrize("command", ["simulate", "periodic"])
    def test_summary_dt_good_is_the_step_taken(self, tmp_path, command):
        # 0.3 rounds to one step over the 0.4 good season, and the nominal
        # step is kept: no multiple of 100 samples fits in one step
        path = self._sim_config(tmp_path, "time.dt_good = 0.3\n"
                                f"out.periodic = {tmp_path}/per.csv\n")
        assert main([command, "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "summary.txt").read_text().splitlines())
        assert float(summary["dt_good"]) == 0.4

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_take_the_mode_open_gives(self, tmp_path, umask, mode):
        path = self._sim_config(tmp_path)
        old = os.umask(umask)
        try:
            assert main(["simulate", "--config", path]) == 0
        finally:
            os.umask(old)
        for name in ("traj.csv", "summary.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    def test_writes_leave_the_umask_alone(self, tmp_path, monkeypatch):
        # setting the umask, even for a moment, changes the mode of files
        # that other threads create meanwhile; the writes never call it
        path = self._sim_config(tmp_path)
        old = os.umask(0o022)

        def refused(mask):
            raise AssertionError("os.umask called")

        try:
            monkeypatch.setattr(os, "umask", refused)
            assert main(["simulate", "--config", path]) == 0
        finally:
            monkeypatch.undo()
            os.umask(old)
        for name in ("traj.csv", "summary.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644

    def test_periodic_subcommand_extinction(self, tmp_path):
        # P2 on a habitat of length 1, below its critical length of about 4.29
        path = make_config(tmp_path, f"""
preset = P2
domain.l1 = -0.5
domain.l2 = 0.5
grid.n = 64
time.dt_good = 0.002
ic.type = cosine
ic.l = 0.5
out.summary = {tmp_path}/s.txt
out.periodic = {tmp_path}/per.csv
""")
        assert main(["periodic", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert summary["classification"] == "extinction"
        assert summary["evidence"] == "below_threshold"
        assert float(summary["lambda1"]) > 0
        assert float(summary["final_supnorm"]) < 1e-10
        assert int(summary["periods"]) >= 1
        assert not os.path.exists(tmp_path / "per.csv")

    def test_ode_reference_subcommand(self, tmp_path):
        path = make_config(tmp_path, BASE_P1 + f"out.summary = {tmp_path}/s.txt\n")
        assert main(["ode-reference", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert float(summary["ode_z0"]) == pytest.approx(1.586099, abs=1e-5)

    def test_ode_reference_without_overflow(self, tmp_path):
        # a (1 - rho) omega = 800 is past exp's overflow at 709.78
        path = make_config(tmp_path, BASE_P1 + "a = 800\nrho = 0.5\nomega = 2\n"
                           + f"out.summary = {tmp_path}/s.txt\n")
        assert main(["ode-reference", "--config", path]) == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert float(summary["ode_z0"]) == pytest.approx(800 / 0.6, rel=1e-12)

    def test_profile_study_subcommand(self, tmp_path):
        path = make_config(tmp_path, """
delta = 0.2
a = 1.2
b = 0.6
d = 0.6
rho = 0.6
omega = 1
kernel.type = laplace
kernel.scale = 1
domain.l1 = -1
domain.l2 = 1
ic.type = constant
ic.c = 1
""" + f"profile.lengths = 4, 6\nout.summary = {tmp_path}/s.txt\n"
            f"out.profile = {tmp_path}/prof.csv\n")
        assert main(["profile-study", "--config", path]) == 0
        lines = (tmp_path / "prof.csv").read_text().splitlines()
        assert lines[0] == "L,deviation"
        assert len(lines) == 3

    def test_profile_study_validation_error_exit_code(self, tmp_path, capsys):
        # P3 has growth margin 0, which the profile study itself rejects
        path = make_config(tmp_path, BASE_P1.replace("P1", "P3")
                           + f"profile.lengths = 4, 6\nout.summary = {tmp_path}/s.txt\n"
                           f"out.profile = {tmp_path}/prof.csv\n")
        assert main(["profile-study", "--config", path]) == 2
        assert "growth_margin > 0" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "prof.csv")
        assert not os.path.exists(tmp_path / "s.txt")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_profile_length_exits_2(self, tmp_path, capsys, bad):
        # refused while the config is read, by the profile study's own rule
        # for its lengths, before any habitat is solved
        path = make_config(tmp_path, BASE_P1.replace("0.2", "1") + "kernel.scale = 1\n"
                           f"profile.lengths = 4, {bad}\nout.summary = {tmp_path}/s.txt\n"
                           f"out.profile = {tmp_path}/prof.csv\n")
        assert main(["profile-study", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "finite" in err
        assert os.listdir(tmp_path) == ["scenario.cfg"]

    def test_config_error_exit_code(self, tmp_path):
        path = make_config(tmp_path, BASE_P1 + "rho = 2\n")
        assert main(["classify", "--config", path]) == 2

    def test_missing_required_output_is_config_error(self, tmp_path):
        path = make_config(tmp_path, BASE_P1 + "run.n_periods = 1\n")
        assert main(["simulate", "--config", path]) == 2

    @pytest.mark.parametrize("command, key", [("ode-reference", "out.summary"),
                                              ("periodic", "out.periodic")])
    def test_output_path_naming_a_directory_exits_2(self, tmp_path, capsys,
                                                     command, key):
        # rejected while the config is read, before any solve: the write at
        # the end would raise IsADirectoryError
        (tmp_path / "taken").mkdir()
        outs = {"out.summary": f"{tmp_path}/s.txt", key: f"{tmp_path}/taken"}
        path = make_config(tmp_path, BASE_P1 + "".join(
            f"{k} = {v}\n" for k, v in outs.items()))
        assert main([command, "--config", path]) == 2
        assert f"key {key!r}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["scenario.cfg", "taken"]
        assert os.listdir(tmp_path / "taken") == []

    def test_missing_config_file(self):
        assert main(["classify", "--config", "/nonexistent/path.cfg"]) == 2

    def test_solver_error_exit_code_and_no_partial_files(self, tmp_path):
        # a single giant RK step from a large constant state goes negative
        path = make_config(tmp_path, BASE_P1.replace("ic.type = cosine\nic.l = 0.2\n",
                                                     "ic.type = constant\nic.c = 40\n")
                           + f"""
time.dt_good = 0.4
run.n_periods = 1
out.trajectory = {tmp_path}/traj.csv
out.summary = {tmp_path}/s.txt
""")
        assert main(["simulate", "--config", path]) == 3
        assert not os.path.exists(tmp_path / "traj.csv")
        assert list(tmp_path.glob("*.tmp")) == []
        summary = (tmp_path / "s.txt").read_text()
        assert "status = failed" in summary
        assert "error = " in summary

    @pytest.mark.parametrize("failure", ["positivity", "bound"])
    def test_failure_mid_stream_leaves_the_old_csv(self, tmp_path, monkeypatch, failure):
        # simulate writes each sample as it is stepped: the stream's third
        # good season fails after rows have gone into the temp file, and the
        # CSV of an earlier run stays as it was. fit_step's candidate runs step
        # before the stream is opened, so only spans stepped after cli.samples
        # is called count
        from seasonal_dispersal import cli, evolution
        path = self._sim_config(tmp_path)
        old = b"t,x,u\nearlier run\n"
        (tmp_path / "traj.csv").write_bytes(old)
        step, stream = evolution._rk4_span, cli.samples
        streaming, seasons, tmp_at_failure = [], [], []

        def opened(*args):
            streaming.append(True)
            return stream(*args)

        def failing(*args, **kwargs):
            u, recorded = step(*args, **kwargs)
            if streaming:  # a good season of the stream, not of fit_step
                seasons.append(None)
                if len(seasons) == 3:
                    tmp_at_failure.extend(tmp_path.glob("*.tmp"))
                    if failure == "positivity":
                        raise PositivityError("injected", node=0, value=-1.0,
                                              suggested_dt=1e-3)
                    u = 1e3 * u  # above the a-priori bound at the season's end
            return u, recorded

        monkeypatch.setattr(evolution, "_rk4_span", failing)
        monkeypatch.setattr(cli, "samples", opened)
        assert main(["simulate", "--config", path, "--override", "run.n_periods=4"]) == 3
        assert len(tmp_at_failure) == 1
        assert (tmp_path / "traj.csv").read_bytes() == old
        assert list(tmp_path.glob("*.tmp")) == []
        summary = (tmp_path / "summary.txt").read_text()
        assert "status = failed" in summary
        assert {"positivity": "error = injected",
                "bound": "error = a-priori bound violated"}[failure] in summary
        assert_no_child_process()

    def test_formatting_process_failure_keeps_the_old_csv(self, tmp_path, monkeypatch):
        # a formatting process that stops after a few bytes fails the run with
        # its exit status; the CSV of an earlier run stays as it was
        path = self._sim_config(tmp_path)
        old = b"t,x,u\nearlier run\n"
        (tmp_path / "traj.csv").write_bytes(old)
        monkeypatch.setattr(cli, "CSV_FILTER", (
            sys.executable, "-c", "import sys; sys.stdin.buffer.read(64); sys.exit(1)"))
        assert main(["simulate", "--config", path]) == 3
        assert (tmp_path / "traj.csv").read_bytes() == old
        assert list(tmp_path.glob("*.tmp")) == []
        summary = (tmp_path / "summary.txt").read_text()
        assert "status = failed" in summary
        assert "process exited with status 1" in summary
        assert_no_child_process()

    def test_failure_after_the_filter_started_keeps_the_old_csv(self, tmp_path, monkeypatch):
        # simulate starts its formatting process before it fits its step: a
        # step choice that fails cuts the process's input, and the run fails
        # with the temp file removed, the process reaped and the CSV of an
        # earlier run as it was
        path = self._sim_config(tmp_path)
        old = b"t,x,u\nearlier run\n"
        (tmp_path / "traj.csv").write_bytes(old)
        popen, started = subprocess.Popen, []

        def recorded(*args, **kwargs):
            started.append(popen(*args, **kwargs))
            return started[-1]

        def failing(*args):
            assert len(started) == 1 and started[0].poll() is None
            assert len(list(tmp_path.glob("*.tmp"))) == 1
            raise SolverError("injected step failure")

        monkeypatch.setattr(cli.subprocess, "Popen", recorded)
        monkeypatch.setattr(cli, "fit_step", failing)
        assert main(["simulate", "--config", path]) == 3
        assert started[0].returncode == 1
        assert (tmp_path / "traj.csv").read_bytes() == old
        assert list(tmp_path.glob("*.tmp")) == []
        summary = (tmp_path / "summary.txt").read_text()
        assert "status = failed" in summary
        assert "error = injected step failure" in summary
        assert_no_child_process()

    def test_failed_write_is_a_failed_run(self, tmp_path, monkeypatch, capsys):
        # a disk that fills up mid-CSV fails the run, and the summary of an
        # earlier run gives way to one naming the output
        def full_disk(*args):
            yield b"t,x,ustar\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(_csvtext, "lines", full_disk)
        (tmp_path / "s.txt").write_text("status = ok\n")
        path = make_config(tmp_path, BASE_P1 + f"out.summary = {tmp_path}/s.txt\n"
                           f"out.periodic = {tmp_path}/per.csv\n")
        assert main(["periodic", "--config", path]) == 3
        summary = (tmp_path / "s.txt").read_text()
        assert "status = failed" in summary
        assert f"error = cannot write '{tmp_path}/per.csv': " in summary
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["s.txt", "scenario.cfg"]

    def test_classify_failure_writes_no_csv(self, tmp_path, monkeypatch):
        from seasonal_dispersal import periodic

        def failing(op, a):
            raise EigenConvergenceError("injected", last_residual=1.0, iterations=0)

        monkeypatch.setattr(periodic, "principal_eigenpair", failing)
        path = self._sim_config(tmp_path)
        assert main(["simulate", "--config", path]) == 3
        assert sorted(os.listdir(tmp_path)) == ["scenario.cfg", "summary.txt"]
        assert "status = failed" in (tmp_path / "summary.txt").read_text()

    def test_memory_does_not_grow_with_the_run(self, tmp_path):
        # simulate streams its samples into the CSV: the traced peak of a
        # 50-period run is that of a 5-period one, and far below the T x n
        # doubles of the 50-period trajectory
        argv = ["simulate", "--config", self._sim_config(tmp_path),
                "--override", "grid.n=128"]
        assert main(argv) == 0  # first-call caches

        def peak(periods):
            tracemalloc.start()
            try:
                assert main(argv + ["--override", f"run.n_periods={periods}"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(5), peak(50)
        with open(tmp_path / "traj.csv") as fh:
            values = sum(1 for _ in fh) - 1  # T x n
        assert long <= short + 32 * 1024
        assert max(short, long) < 8 * values / 10

    def test_override_flag(self, tmp_path):
        path = self._sim_config(tmp_path)
        rc = main(["simulate", "--config", path, "--override", "run.n_periods=1"])
        assert rc == 0

    def test_empty_override_value_is_a_config_error(self, tmp_path, capsys):
        # an empty out.summary once passed the directory check and died
        # writing to ''
        path = self._sim_config(tmp_path)
        with pytest.raises(ConfigError, match="'out.summary' has an empty value"):
            parse_config(Path(path).read_text(), overrides={"out.summary": ""})
        assert main(["simulate", "--config", path, "--override", "out.summary="]) == 2
        assert "has an empty value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["nope", "--config", "x.cfg"],  # not a command
        ["simulate"],  # no --config
        ["--config", "x.cfg"],  # no command
    ], ids=["unknown_command", "no_config", "no_command"])
    def test_bad_invocation_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_simulate_with_kernel_table(self, tmp_path):
        w = 1.0
        table = tent_kernel_table(w, m=41)
        xs = np.linspace(-w, w, 41)
        kpath = tmp_path / "kern.csv"
        kpath.write_text("x,J\n" + "\n".join(
            f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, table)))
        path = make_config(tmp_path, f"""
preset = P1
kernel.type = table
kernel.table_path = {kpath}
domain.l1 = -0.2
domain.l2 = 0.2
grid.n = 16
ic.type = constant
ic.c = 0.5
run.n_periods = 1
out.trajectory = {tmp_path}/traj.csv
out.summary = {tmp_path}/s.txt
""")
        assert main(["simulate", "--config", path]) == 0
        assert "status = ok" in (tmp_path / "s.txt").read_text()


def test_cli_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency (scipy serves the tests only):
    # one CLI call in a fresh interpreter must load no scipy module
    path = make_config(tmp_path, BASE_P1)
    code = ("import sys\n"
            "from seasonal_dispersal.cli import main\n"
            f"assert main(['spectrum', '--config', {path!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "lambda1 = " in run.stdout
