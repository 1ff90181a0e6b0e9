"""End-to-end tests of the command line layer.

The commands run in process through ``cli.main`` so assertions can reach
stderr and artifacts cheaply; one subprocess test covers the module
entry point.  Reference values in ``modes.csv`` are pinned against the
big-float relaxation oracle, independent of the package's own special
functions.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fracstep import cli
from fracstep.errors import ConfigError, NumericError

from oracles import relaxation_oracle


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def reference_config(**run):
    return {
        "problem": {
            "schedule": {"breakpoints": [0.0, 1.0], "orders": [0.5]},
            "operator": {"diffusion": 1.0, "reaction": 0.0, "length": 1.0},
            "initial": {"kind": "modes", "coefficients": [1.0]},
            "source": {"kind": "zero"},
        },
        "run": {"cells": 64, "quad": 16, **run},
    }


def two_segment_config(**run):
    return {
        "problem": {
            "schedule": {"breakpoints": [0.0, 0.5, 1.0],
                         "orders": [0.3, 0.8]},
            "operator": {"diffusion": 1.0, "reaction": 0.0, "length": 1.0},
            "initial": {"kind": "modes", "coefficients": [1.0, 0.5]},
            "source": {"kind": "zero"},
        },
        "run": {"cells": 48, "quad": 16, **run},
    }


def config_pointer(payload):
    from fracstep.config import build_run_config
    with pytest.raises(ConfigError) as info:
        build_run_config(payload)
    return info.value.pointer


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return header, np.array([[float(c) for c in row] for row in body])


class TestSolve:
    def test_reference_mode_matches_oracle(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           reference_config(time_points=9))
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        header, body = read_csv(tmp_path / "out" / "modes.csv")
        assert header == ["t", "n", "u_n"]
        lam = np.pi ** 2
        for t, n, u in body:
            assert n == 1.0
            expected = float(relaxation_oracle(0.5, lam, t))
            assert abs(u - expected) <= 1e-8

    def test_zero_data_writes_zero_field(self, tmp_path):
        payload = reference_config(space_points=5, time_points=5)
        payload["problem"]["initial"] = {"kind": "zero", "num_modes": 3}
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        _, sol = read_csv(tmp_path / "out" / "solution.csv")
        assert sol.shape == (25, 3)
        assert np.all(sol[:, 2] == 0.0)
        _, modes = read_csv(tmp_path / "out" / "modes.csv")
        assert np.all(modes[:, 2] == 0.0)

    def test_solution_grid_layout(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           reference_config(space_points=4, time_points=3))
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        _, sol = read_csv(tmp_path / "out" / "solution.csv")
        # x varies fastest inside each time block
        assert sol.shape == (12, 3)
        assert np.allclose(sol[:4, 1], 0.0)
        assert np.allclose(sol[:4, 0], np.linspace(0.0, 1.0, 4))
        assert np.allclose(sol[-4:, 1], 1.0)
        # the Dirichlet boundary rows read exactly 0, at x = 1 as at 0
        assert not sol[(sol[:, 0] == 0.0) | (sol[:, 0] == 1.0), 2].any()

    def test_csv_17_digits_lf_endings(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           reference_config(time_points=3))
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        blob = (tmp_path / "out" / "modes.csv").read_bytes()
        assert b"\r" not in blob
        text = blob.decode()
        cell = text.splitlines()[2].split(",")[2]
        assert float(cell) != 0.0
        # round-trips exactly through the printed representation
        assert format(float(cell), ".17g") == cell

    def test_meta_records_versions_and_echo(self, tmp_path):
        payload = reference_config(time_points=3)
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["solve", "--config", cfg, "--out",
                         str(tmp_path / "out")]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["config"] == payload
        for key in ("python", "numpy", "fracstep"):
            assert meta["versions"][key]
        assert meta["timings"]["total_seconds"] > 0.0

    def test_round_trip_from_meta_echo_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           two_segment_config(time_points=7))
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "a")]) == 0
        meta = json.loads((tmp_path / "a" / "meta.json").read_text())
        echo = write_config(tmp_path / "echo.json", meta["config"])
        assert cli.main(["solve", "--config", echo,
                         "--out", str(tmp_path / "b")]) == 0
        for name in ("solution.csv", "modes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestConfigErrors:
    def test_malformed_json_exits_2_no_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem": ', encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(bad),
                         "--out", str(out)]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "config"
        assert "JSON" in diag["message"]
        assert not out.exists()

    def test_unknown_key_rejected_with_pointer(self, tmp_path, capsys):
        payload = reference_config()
        payload["problem"]["surprise"] = 1
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["pointer"] == "/problem"
        assert "surprise" in diag["message"]

    def test_order_out_of_range_pointer(self, tmp_path, capsys):
        payload = reference_config()
        payload["problem"]["schedule"]["orders"] = [1.5]
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["pointer"].startswith("/problem/schedule/orders")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["solve", "--config",
                         str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_misaligned_oracle_grid_exits_2(self, tmp_path, capsys):
        payload = reference_config()
        payload["problem"]["schedule"] = {
            "breakpoints": [0.0, 1.0 / 3.0, 1.0], "orders": [0.3, 0.8]}
        payload["problem"]["initial"]["coefficients"] = [1.0]
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["oracle", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["pointer"] == "/run/oracle_step_exponent"

    def test_ml_window_order_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", reference_config(
            ml_z_min=-1.0, ml_z_max=-2.0))
        assert cli.main(["ml-eval", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["pointer"] == "/run/ml_z_min"

    @pytest.mark.parametrize("key,value", [("ml_alpha", 1.0),
                                           ("ml_beta", 0.0)])
    def test_ml_parameter_out_of_range_pointer(self, tmp_path, capsys,
                                               key, value):
        cfg = write_config(tmp_path / "c.json",
                           reference_config(**{key: value}))
        assert cli.main(["ml-eval", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["pointer"] == f"/run/{key}"

    def test_bool_is_not_an_integer(self, tmp_path):
        assert config_pointer(reference_config(cells=True)) == "/run/cells"
        cfg = write_config(tmp_path / "c.json",
                           reference_config(cells=16.0, time_points=3))
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0

    def test_initial_matching_no_branch_points_at_initial(self):
        payload = reference_config()
        payload["problem"]["initial"] = {"kind": "zero",
                                         "coefficients": [1.0]}
        assert config_pointer(payload) == "/problem/initial"

    def test_shallower_error_reported_first(self):
        payload = reference_config()
        payload["problem"]["schedule"]["orders"] = [1.5]
        payload["problem"]["surprise"] = 1
        assert config_pointer(payload) == "/problem"

    @pytest.mark.parametrize("points,accepted", [
        (0, True), (1, False), (15, False), (16, True), (16.0, True),
        (False, False), (-1, False)])
    def test_oracle_spatial_points_zero_or_at_least_16(self, points,
                                                       accepted):
        payload = reference_config(oracle_spatial_points=points)
        if accepted:
            from fracstep.config import build_run_config
            build_run_config(payload)
        else:
            assert config_pointer(payload) == "/run/oracle_spatial_points"

    def test_too_few_spatial_points_exit_2_before_solving(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the L1 march ran")

        monkeypatch.setattr(cli, "solve_mode_l1", refuse)
        cfg = write_config(tmp_path / "c.json", reference_config(
            oracle_step_exponent=5, oracle_spatial_points=15))
        out = tmp_path / "out"
        assert cli.main(["oracle", "--config", cfg, "--out", str(out)]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["pointer"] == "/run/oracle_spatial_points"
        assert not out.exists()

    def test_unknown_log_level_exits_2_no_outputs(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("FRACSTEP_LOG", "verbose")
        cfg = write_config(tmp_path / "c.json", reference_config())
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "config"
        assert "FRACSTEP_LOG" in diag["message"]
        assert not out.exists()


    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_in_profile_exits_2(self, tmp_path, capsys,
                                                   literal):
        payload = reference_config()
        payload["problem"]["source"] = {
            "kind": "separable", "coefficients": [0.7],
            "time_profile": {"kind": "polynomial",
                             "coefficients": ["@", 0.5]}}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload).replace('"@"', literal),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg),
                         "--out", str(out)]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "config"
        assert literal.lstrip("-") in diag["message"]
        assert not out.exists()

    def test_nan_ml_window_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(reference_config(ml_z_min="@"))
                       .replace('"@"', "NaN"), encoding="utf-8")
        assert cli.main(["ml-eval", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_load_config_raises_config_error_on_nan(self, tmp_path):
        from fracstep.config import load_config
        cfg = tmp_path / "c.json"
        cfg.write_text('{"run": {"cells": NaN}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="NaN"):
            load_config(str(cfg))


class TestConfigSources:
    def test_polynomial_profile_and_derivative(self):
        from fracstep.config import build_run_config
        payload = reference_config()
        payload["problem"]["source"] = {
            "kind": "separable", "coefficients": [2.0],
            "time_profile": {"kind": "polynomial",
                             "coefficients": [1.0, -0.5, 0.25]}}
        src = build_run_config(payload).problem.source
        ts = np.array([0.0, 0.3, 1.0])
        assert np.allclose(src.values(ts)[0],
                           2.0 * (1.0 - 0.5 * ts + 0.25 * ts ** 2),
                           rtol=1e-15)
        assert np.allclose(src.derivatives(ts)[0],
                           2.0 * (-0.5 + 0.5 * ts), rtol=1e-15)

    def test_power_profile_and_derivative(self):
        from fracstep.config import build_run_config
        payload = reference_config()
        payload["problem"]["source"] = {
            "kind": "separable", "coefficients": [3.0],
            "time_profile": {"kind": "power", "scale": 1.5,
                             "exponent": 0.2}}
        src = build_run_config(payload).problem.source
        ts = np.array([0.25, 1.0])
        assert np.allclose(src.values(ts)[0], 4.5 * ts ** 0.2,
                           rtol=1e-15)
        assert np.allclose(src.derivatives(ts)[0],
                           0.9 * ts ** -0.8, rtol=1e-15)
        # unbounded but integrable at the left endpoint: sampled as inf
        assert np.isposinf(src.derivatives(np.array([0.0]))[0, 0])

    def test_zero_source_builds_none(self):
        from fracstep.config import build_run_config
        from fracstep.solver import SeparableSource
        source = build_run_config(reference_config()).problem.source
        # the config builds no source; the problem fills in zero forcing
        assert isinstance(source, SeparableSource)
        assert not source.forced.any()

    def test_coefficient_count_mismatch_pointer(self, tmp_path, capsys):
        payload = reference_config()
        payload["problem"]["source"] = {
            "kind": "separable", "coefficients": [1.0, 2.0],
            "time_profile": {"kind": "polynomial", "coefficients": [1.0]}}
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["pointer"] == "/problem/source/coefficients"

    def test_sourced_solve_matches_library(self, tmp_path):
        payload = reference_config(time_points=6)
        payload["problem"]["source"] = {
            "kind": "separable", "coefficients": [0.7],
            "time_profile": {"kind": "polynomial",
                             "coefficients": [1.0, 0.5]}}
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        _, modes = read_csv(tmp_path / "out" / "modes.csv")

        from fracstep.operator import OperatorSpec
        from fracstep.schedule import OrderSchedule
        from fracstep.solver import ProblemSpec, SeparableSource, solve
        spec = ProblemSpec(
            schedule=OrderSchedule((0.0, 1.0), (0.5,)),
            operator=OperatorSpec(),
            initial_coefficients=(1.0,),
            source=SeparableSource(
                (0.7,),
                lambda t: 1.0 + 0.5 * np.asarray(t, dtype=float),
                lambda t: np.full_like(np.asarray(t, dtype=float), 0.5)))
        field = solve(spec, n_cells=64, n_quad=16)
        ts = np.linspace(0.0, 1.0, 6)
        assert np.array_equal(modes[:, 2], field.mode_trajectory(1, ts))

    def test_integer_valued_float_mode_count(self, tmp_path):
        payload = reference_config(time_points=3)
        payload["problem"]["initial"] = {"kind": "zero", "num_modes": 2.0}
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        _, modes = read_csv(tmp_path / "out" / "modes.csv")
        assert modes[:, 1].tolist() == [1.0, 2.0] * 3
        assert np.all(modes[:, 2] == 0.0)

    def test_integer_valued_float_run_values(self, tmp_path):
        # the schema takes 7.0 as an integer, and the run holds it as the
        # int 7, so every reader of the run values can hand them to numpy
        from fracstep.config import build_run_config
        ints = {"cells": 48, "quad": 16, "space_points": 5,
                "time_points": 7, "verify_quad": 12,
                "oracle_step_exponent": 6, "oracle_spatial_points": 16,
                "ml_count": 10, "compare_step_exponents": [6, 8]}
        floats = {key: [float(e) for e in value]
                  if isinstance(value, list) else float(value)
                  for key, value in ints.items()}
        run = build_run_config(two_segment_config(**floats,
                                                  ml_alpha=0.5)).run
        assert run == {**ints, "ml_alpha": 0.5}
        assert all(type(run[key]) is int for key in ints
                   if key != "compare_step_exponents")
        assert all(type(e) is int for e in run["compare_step_exponents"])
        assert type(run["ml_alpha"]) is float

        for name, values in (("ints", ints), ("floats", floats)):
            payload = two_segment_config(**values)
            cfg = write_config(tmp_path / f"{name}.json", payload)
            assert cli.main(["solve", "--config", cfg,
                             "--out", str(tmp_path / name)]) == 0
            meta = json.loads((tmp_path / name / "meta.json").read_text())
            # the echo keeps the floats: 7.0, not 7
            assert json.dumps(meta["config"], sort_keys=True) == \
                json.dumps(payload, sort_keys=True)
        for name in ("solution.csv", "modes.csv"):
            assert (tmp_path / "ints" / name).read_bytes() == \
                (tmp_path / "floats" / name).read_bytes()


class TestNumericExit:
    def test_runtime_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def explode(cfg):
            raise NumericError("synthetic failure", mode=1, segment=0)

        monkeypatch.setattr(cli, "_solve_field", explode)
        cfg = write_config(tmp_path / "c.json", reference_config())
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(out)]) == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "numeric"
        assert "synthetic failure" in diag["message"]
        assert not (out / "meta.json").exists()
        assert not (out / "solution.csv").exists()


class TestOracle:
    def test_oracle_matches_direct_l1(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           reference_config(oracle_step_exponent=6))
        assert cli.main(["oracle", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        header, body = read_csv(tmp_path / "out" / "oracle.csv")
        assert header == ["t", "n", "u_n"]
        assert body.shape == (65, 3)
        assert body[0, 2] == 1.0
        # direct march through the library must agree exactly
        from fracstep.l1 import L1Grid, solve_mode_l1
        from fracstep.schedule import OrderSchedule
        sched = OrderSchedule((0.0, 1.0), (0.5,))
        grid = L1Grid.for_schedule(sched, 2.0 ** -6)
        u = solve_mode_l1(np.pi ** 2, lambda t: np.zeros_like(t),
                          sched, 1.0, grid)
        assert np.array_equal(body[:, 2], u)

    def test_oracle_field_written_on_request(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", reference_config(
            oracle_step_exponent=5, oracle_spatial_points=31))
        assert cli.main(["oracle", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        header, body = read_csv(tmp_path / "out" / "oracle_field.csv")
        assert header == ["x", "t", "u"]
        assert body.shape == (33 * 33, 3)
        boundary = body[(body[:, 0] == 0.0) | (body[:, 0] == 1.0)]
        assert np.all(boundary[:, 2] == 0.0)

    def test_no_field_file_by_default(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           reference_config(oracle_step_exponent=5))
        assert cli.main(["oracle", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        assert not (tmp_path / "out" / "oracle_field.csv").exists()


class TestCompare:
    def test_zero_data_zero_discrepancy(self, tmp_path):
        payload = reference_config(compare_step_exponents=[4, 5])
        payload["problem"]["initial"] = {"kind": "zero", "num_modes": 2}
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["compare", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        _, body = read_csv(tmp_path / "out" / "compare.csv")
        assert np.all(body[:, 1:] == 0.0)

    def test_discrepancy_decreases_with_step(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", two_segment_config(
            compare_step_exponents=[5, 7, 9]))
        assert cli.main(["compare", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        header, body = read_csv(tmp_path / "out" / "compare.csv")
        assert header == ["step", "max_discrepancy", "rms_discrepancy"]
        assert body.shape == (3, 3)
        assert np.all(np.diff(body[:, 0]) < 0.0)
        assert np.all(np.diff(body[:, 1]) < 0.0)
        assert np.all(np.diff(body[:, 2]) < 0.0)
        assert np.all(body[:, 2] <= body[:, 1])

    def test_independent_of_blas_threads(self, tmp_path):
        # the README problem down to step 2^-14 in fresh processes: the
        # L1 ladder and the synthesized solution grid must not depend on
        # how BLAS splits its sums
        cfg = write_config(tmp_path / "c.json", two_segment_config(
            cells=32, quad=32, compare_step_exponents=[8, 10, 12, 14],
            space_points=65))
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            for command in ("compare", "solve"):
                proc = subprocess.run(
                    [sys.executable, "-m", "fracstep.cli", command,
                     "--config", cfg, "--out", str(out)],
                    env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                    capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
            tables.append([(out / name).read_bytes()
                           for name in ("compare.csv", "solution.csv")])
        assert tables[0] == tables[1]


class TestVerify:
    def test_report_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           two_segment_config(verify_quad=16))
        assert cli.main(["verify", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "verify.json").read_text())
        report = payload["report"]
        assert report["junction_gaps"] == [0.0]
        assert report["residual_max"] <= 1e-3
        assert report["source_rates"][0] is None
        assert -0.15 > report["derivative_rates"][1] > -0.3
        limit = payload["initial_limit"]
        assert limit["deviations"] == sorted(limit["deviations"],
                                             reverse=True)
        assert limit["initial_norm"] == pytest.approx(np.sqrt(1.25))

        with open(tmp_path / "out" / "rate_samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "segment", "offset", "norm"]
        kinds = {row[0] for row in rows[1:]}
        assert kinds == {"derivative", "source_rate"}
        norms = [float(row[3]) for row in rows[1:] if row[0] == "derivative"]
        assert all(v > 0.0 for v in norms)

    def test_fit_samples_are_taken_once(self, tmp_path, monkeypatch):
        # rate_samples.csv holds the samples the report fitted, so each
        # segment's samples are taken once, not again for the CSV
        from fracstep import verify
        calls = {}
        for name, where in (("blowup_fit_samples", 1),
                            ("source_fit_samples", 2)):
            def counting(*args, real=getattr(verify, name), name=name,
                         where=where, **kwargs):
                calls.setdefault(name, []).append(args[where])
                return real(*args, **kwargs)
            monkeypatch.setattr(verify, name, counting)
        payload = two_segment_config(verify_quad=12, cells=16)
        payload["problem"]["source"] = {
            "kind": "separable", "coefficients": [1.0, 0.5],
            "time_profile": {"kind": "polynomial",
                             "coefficients": [1.0, 0.5]}}
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["verify", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == {"blowup_fit_samples": [0, 1],
                         "source_fit_samples": [0, 1]}


class TestMlEval:
    def test_table_matches_library(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", reference_config(
            ml_alpha=0.3, ml_beta=0.3, ml_z_min=-50.0, ml_z_max=0.0,
            ml_count=11))
        assert cli.main(["ml-eval", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        header, body = read_csv(tmp_path / "out" / "ml.csv")
        assert header == ["alpha", "beta", "z", "value"]
        assert body.shape == (11, 4)
        from fracstep.special import ml_values
        expected = ml_values(0.3, 0.3, np.linspace(-50.0, 0.0, 11))
        assert np.array_equal(body[:, 3], expected)


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(reference_config(time_points=3)))
    proc = subprocess.run(
        [sys.executable, "-m", "fracstep.cli", "solve",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "solution.csv").exists()


class TestWriteCsv:
    def test_matches_per_cell_format(self, tmp_path):
        # the block template must print exactly what one
        # format(float(x), ".17g") per cell printed, text cells verbatim
        rng = np.random.default_rng(7)
        specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                    2.2250738585072014e-308, 1e16, 1e17, 0.1, 1.0 / 3.0,
                    np.float64(-2.5), 7]
        values = specials + list(rng.standard_normal(40) * 10.0
                                 ** rng.integers(-300, 300, 40))
        kinds = ("derivative", "source_rate")
        rows = [(kinds[i % 2], float(i), values[i], values[-1 - i])
                for i in range(len(values))]
        path = tmp_path / "mixed.csv"
        cli._write_csv(str(path), ["kind", "segment", "offset", "norm"],
                       iter(rows))
        expected = "kind,segment,offset,norm\n" + "".join(
            ",".join(c if isinstance(c, str) else format(float(c), ".17g")
                     for c in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_blocks_and_empty_table(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        rows = [(float(i), -i / 7.0) for i in range(10)]
        cli._write_csv(str(tmp_path / "a.csv"), ["i", "v"], rows)
        assert (tmp_path / "a.csv").read_text().splitlines() == ["i,v"] + [
            f"{format(a, '.17g')},{format(b, '.17g')}" for a, b in rows]
        cli._write_csv(str(tmp_path / "b.csv"), ["i", "v"], [])
        assert (tmp_path / "b.csv").read_bytes() == b"i,v\n"


def test_commands_do_not_import_scipy(tmp_path):
    # scipy and jsonschema are test dependencies only: every command,
    # the finite-difference oracle field included, must run in a fresh
    # interpreter without loading any module of either
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(two_segment_config(
        cells=16, compare_step_exponents=[6, 7, 8], verify_quad=12,
        ml_count=5, oracle_step_exponent=6, oracle_spatial_points=16)))
    script = "\n".join([
        "import sys",
        "import fracstep.cli as cli",
        "for command in ('solve', 'oracle', 'compare', 'verify', 'ml-eval'):",
        f"    assert cli.main([command, '--config', {str(cfg)!r},",
        f"                     '--out', {str(tmp_path / 'out')!r}]) == 0",
        "print(sorted(m for m in sys.modules",
        "             if m.partition('.')[0] in ('scipy', 'jsonschema')))",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "out" / "oracle_field.csv").exists()
