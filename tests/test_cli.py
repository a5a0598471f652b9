import csv

import numpy as np
import pytest
import yaml

from cho.cli import main
from cho.config import RunConfig, load_config, preset_config, save_config
from cho.errors import ConfigError

MINIMAL = {
    "run_name": "t",
    "domain": {"dim": 1, "cells": 8, "length": 1.0},
    "time": {"T": 0.1, "steps": 4},
    "physics": {"tau": 1.0, "gamma": 1.0},
    "potential": {"kind": "regular"},
    "initial": {"preset": "constant", "value": 0.2},
    "control": {"u": 0.1, "uG": 0.1},
    "output": {"directory": "out", "snapshot_stride": 2},
}


def write_yaml(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


class TestConfig:
    def test_round_trip_semantically_identical(self, tmp_path):
        cfg = preset_config("default")
        path = tmp_path / "rt.yaml"
        save_config(cfg, path)
        again = load_config(path)
        assert again.to_dict() == cfg.to_dict()

    def test_defaults_filled(self):
        cfg = RunConfig.from_dict(MINIMAL)
        assert cfg.data["solver"]["scheme"] == "fully-implicit"
        assert cfg.data["potential"]["eps_yosida"] == 0.0

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d["physics"].update(tau=0.0), "tau"),
        (lambda d: d["physics"].update(gamma=-1.0), "gamma"),
        (lambda d: d["time"].update(steps=0), "steps"),
        (lambda d: d["domain"].update(cells=0), "cells"),
        (lambda d: d.update(potential={"kind": "mystery"}), "kind"),
    ])
    def test_assumption_violations_are_config_errors(self, mutate, fragment):
        import copy

        data = copy.deepcopy(MINIMAL)
        mutate(data)
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)

    def test_negative_alpha_rejected(self):
        import copy

        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {"alphas": [1, 1, 1, 1, 1, -2]}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)

    def test_csv_initial_condition(self, tmp_path):
        import copy

        field = np.linspace(-0.3, 0.3, 9)
        csv_path = tmp_path / "ic.csv"
        np.savetxt(csv_path, field[None, :], delimiter=",")
        data = copy.deepcopy(MINIMAL)
        data["initial"] = {"preset": "csv", "path": str(csv_path)}
        cfg = RunConfig.from_dict(data)
        mesh = cfg.build_mesh()
        assert np.allclose(cfg.build_initial(mesh).bulk, field)


class TestSimulate:
    def test_writes_expected_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_yaml(tmp_path, MINIMAL)
        assert main(["simulate", "-c", path]) == 0
        outdir = tmp_path / "out" / "t"
        assert (outdir / "config.yaml").exists()
        header, rows = read_csv(outdir / "series_0.csv")
        assert header[0].startswith("t")
        assert len(rows) == 5
        assert (outdir / "state_0.csv").exists()

    def test_series_mean_satisfies_discrete_dynamics(self, tmp_path, monkeypatch):
        # (m_{n+1} - m_n)/dt + gamma m_{n+1} = gamma omega to solver accuracy.
        monkeypatch.chdir(tmp_path)
        path = write_yaml(tmp_path, MINIMAL)
        main(["simulate", "-c", path])
        _, rows = read_csv(tmp_path / "out" / "t" / "series_0.csv")
        t, m = rows[:, 0], rows[:, 1]
        dt = t[1] - t[0]
        residual = np.diff(m) / dt + 1.0 * m[1:] - 1.0 * 0.1
        assert np.abs(residual).max() <= 1e-9

    def test_tau_zero_exits_1(self, tmp_path):
        import copy

        data = copy.deepcopy(MINIMAL)
        data["physics"]["tau"] = 0.0
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 1

    def test_mean_value_violation_exits_2(self, tmp_path, monkeypatch):
        import copy

        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic"}
        data["initial"] = {"preset": "constant", "value": 0.6}
        data["control"] = {"u": 0.5, "uG": 0.5}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 2

    def test_potential_domain_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # The Yosida-regularized run leaves (-1, 1); evaluating the
        # logarithmic energy of its states is a failure during the run.
        import copy

        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic", "eps_yosida": 0.1}
        data["initial"] = {"preset": "constant", "value": 0.9}
        data["control"] = {"u": 5.0, "uG": 5.0}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 3
        assert "outside the open domain" in capsys.readouterr().err

    def test_malformed_yaml_exits_1(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("{{{nope")
        assert main(["simulate", "-c", str(path)]) == 1

    def test_missing_file_exits_1(self):
        assert main(["simulate", "-c", "/nonexistent/x.yaml"]) == 1

    def test_2d_writes_vtk(self, tmp_path, monkeypatch):
        import copy

        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["domain"] = {"dim": 2, "nx": 3, "ny": 3, "lx": 1.0, "ly": 1.0}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 0
        vtk = tmp_path / "out" / "t" / "state_0.vtk"
        text = vtk.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "POINT_DATA 16" in text
        assert "SCALARS phi" in text and "SCALARS mu" in text


class TestOptimize:
    def test_zero_weight_cost_returns_immediately(self, tmp_path, monkeypatch):
        import copy

        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {
            "alphas": [0, 0, 0, 0, 0, 0],
            "targets": {},
            "box": {"u_min": -1, "u_max": 1, "uG_min": -1, "uG_max": 1},
            "optimizer": {"max_iter": 50, "tol": 1e-6},
        }
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 0
        _, rows = read_csv(tmp_path / "out" / "t" / "history_0.csv")
        assert rows.shape[0] == 1       # zero iterations
        assert rows[0, 1] == 0.0        # J = 0

    def test_tracking_history_monotone(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = preset_config("coarse")
        path = tmp_path / "coarse.yaml"
        save_config(cfg, path)
        assert main(["optimize", "-c", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "coarse" / "history_0.csv")
        J = rows[:, 1]
        assert np.all(np.diff(J) <= 1e-15)
        assert (tmp_path / "out" / "coarse" / "control_u_0.csv").exists()

    def test_infeasible_box_exits_2(self, tmp_path, monkeypatch):
        import copy

        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {
            "alphas": [1, 0, 0, 0, 1, 1],
            "targets": {"phiQ": 0.1},
            "box": {"u_min": 1.0, "u_max": -1.0, "uG_min": -1, "uG_max": 1},
            "optimizer": {"max_iter": 5, "tol": 1e-6},
        }
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 2


class TestVerify:
    def test_verify_coarse_preset_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--preset", "coarse"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 11
        assert "[FAIL]" not in out


def test_csv_headers_carry_units(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["simulate", "-c", write_yaml(tmp_path, MINIMAL)])
    for name in ("series_0.csv", "state_0.csv"):
        with open(tmp_path / "out" / "t" / name) as fh:
            header = fh.readline()
        assert "(" in header and ")" in header
