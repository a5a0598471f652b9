import contextlib
import copy
import csv
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cho import cli
from cho.cli import main
from cho.config import PRESETS, RunConfig, load_config, preset_config
from cho.errors import ConfigError
from cho.verify import CheckResult

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
    def test_defaults_filled(self):
        cfg = RunConfig.from_dict(MINIMAL)
        assert cfg.solver.scheme == "fully-implicit"
        assert cfg.solver.eps_yosida == 0.0

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d["physics"].update(tau=0.0), "tau"),
        (lambda d: d["physics"].update(gamma=-1.0), "gamma"),
        (lambda d: d["physics"].update(gamma=0.0), "gamma-zero"),
        (lambda d: d["time"].update(steps=0), "steps"),
        (lambda d: d["domain"].update(cells=0), "cells"),
        (lambda d: d.update(potential={"kind": "mystery"}), "kind"),
    ])
    def test_assumption_violations_are_config_errors(self, mutate, fragment):
        data = copy.deepcopy(MINIMAL)
        mutate(data)
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)

    def test_negative_alpha_rejected(self):
        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {"alphas": [1, 1, 1, 1, 1, -2]}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)

    def test_csv_initial_condition(self, tmp_path):
        field = np.linspace(-0.3, 0.3, 9)
        csv_path = tmp_path / "ic.csv"
        np.savetxt(csv_path, field[None, :], delimiter=",")
        data = copy.deepcopy(MINIMAL)
        data["initial"] = {"preset": "csv", "path": str(csv_path)}
        cfg = RunConfig.from_dict(data)
        mesh = cfg.build_mesh()
        assert np.allclose(cfg.build_initial(mesh).bulk, field)


    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_run_writes_its_preset(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--preset", name]) == 0
        assert load_config(tmp_path / "out" / name / "config.yaml") == preset_config(name)

    def test_exponent_without_dot_loads_as_float(self, tmp_path):
        # PyYAML reads 1e-6 (no dot) as the string '1e-6'.
        text = yaml.safe_dump(MINIMAL) + "solver: {newton_tol: 1e-6}\n"
        assert yaml.safe_load(text)["solver"]["newton_tol"] == "1e-6"
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        assert load_config(path).solver.newton_tol == 1e-6

    def test_libyaml_and_python_loaders_agree(self, tmp_path):
        # load_config parses with libyaml's CSafeLoader where PyYAML has it;
        # every preset's dump and the README's minimal example read the same
        # with the pure-Python SafeLoader.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"A minimal configuration:\s*```yaml\n(.*?)```", readme, re.S)
        texts = [yaml.safe_dump(data, sort_keys=False) for data in PRESETS.values()]
        for k, text in enumerate([*texts, block.group(1)]):
            path = tmp_path / f"{k}.yaml"
            path.write_text(text)
            assert load_config(path) == RunConfig.from_dict(yaml.load(text, yaml.SafeLoader))

    def test_eps_yosida_inside_unit_interval_loads(self):
        data = copy.deepcopy(MINIMAL)
        data["potential"]["eps_yosida"] = 0.5
        assert RunConfig.from_dict(data).solver.eps_yosida == 0.5

    def test_readme_minimal_config_builds(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"A minimal configuration:\s*```yaml\n(.*?)```", readme, re.S)
        cfg = RunConfig.from_dict(yaml.safe_load(block.group(1)))
        cp, u0, opts = cfg.build_control_problem()
        controls = cfg.build_controls(cp.problem.mesh, cp.problem.grid)
        assert u0.u.shape == controls.u.shape == (50, 65)
        assert cp.problem.pair.bulk.kind == "logarithmic"
        assert opts.max_iter == 400


def _write_csv_table(path, rows):
    np.savetxt(path, np.atleast_2d(rows), delimiter=",")
    return str(path)


MALFORMED = {
    "csv initial without path": (
        lambda d, tmp: d.update(initial={"preset": "csv"}), "initial.path"),
    "box bound not a number": (
        lambda d, tmp: d.update(optimization={"box": {"u_min": "a"}}),
        "optimization.box.u_min"),
    "alphas not a list": (
        lambda d, tmp: d.update(optimization={"alphas": 5}), "optimization.alphas"),
    "custom coefficients not a list": (
        lambda d, tmp: d.update(potential={"kind": "custom", "beta_hat": 5, "pi_hat": [0]}),
        "potential.beta_hat"),
    "control given as a mapping": (
        lambda d, tmp: d["control"].update(u={"csv": "x.csv"}), "control.u"),
    "missing control CSV": (
        lambda d, tmp: d["control"].update(u=str(tmp / "x.csv")), "x.csv"),
    "null section": (lambda d, tmp: d.update(optimization=None), "optimization"),
    "tolerance not a number": (
        lambda d, tmp: d.update(solver={"newton_tol": "abc"}), "solver.newton_tol"),
    "removed newton_max_iter key": (
        lambda d, tmp: d.update(solver={"newton_max_iter": -1}),
        "unknown key solver.newton_max_iter"),
    "nonpositive tolerance": (
        lambda d, tmp: d.update(solver={"newton_tol": 0.0}), "tolerances"),
    "removed initial_step key": (
        lambda d, tmp: d.update(optimization={"optimizer": {"initial_step": -1}}),
        "unknown key optimization.optimizer.initial_step"),
    "removed armijo_c1 key": (
        lambda d, tmp: d.update(optimization={"optimizer": {"armijo_c1": 1e-4}}),
        "unknown key optimization.optimizer.armijo_c1"),
    "removed backtrack key": (
        lambda d, tmp: d.update(optimization={"optimizer": {"backtrack": 0.5}}),
        "unknown key optimization.optimizer.backtrack"),
    "unknown solver key": (
        lambda d, tmp: d.update(solver={"newton_tl": 1e-3}), "solver.newton_tl"),
    "unknown initial key": (
        lambda d, tmp: d.update(initial={"preset": "constant", "vlaue": 0.7}),
        "initial.vlaue"),
    "unknown section": (lambda d, tmp: d.update(optimisation={}), "optimisation"),
    "non-finite initial CSV": (
        lambda d, tmp: d.update(initial={"preset": "csv", "path": _write_csv_table(
            tmp / "ic.csv", [0.1] * 8 + [np.nan])}),
        "ic.csv has non-finite values"),
    "NaN final time": (lambda d, tmp: d["time"].update(T=float("nan")), "time: final time T"),
    "NaN tau": (lambda d, tmp: d["physics"].update(tau=float("nan")), "physics: tau"),
    "NaN Newton tolerance": (
        lambda d, tmp: d.update(solver={"newton_tol": float("nan")}), "newton_tol = nan"),
    "eps_yosida above 1": (
        lambda d, tmp: d["potential"].update(eps_yosida=2), "potential: eps_yosida"),
    "eps_yosida equal to 1": (
        lambda d, tmp: d["potential"].update(eps_yosida=1.0), "potential: eps_yosida"),
    "negative eps_yosida": (
        lambda d, tmp: d["potential"].update(eps_yosida=-0.1), "potential: eps_yosida"),
    "non-finite control CSV": (
        lambda d, tmp: d["control"].update(u=_write_csv_table(
            tmp / "u.csv", [[0.1] * 9] * 3 + [[np.inf] * 9])),
        "u.csv has non-finite values"),
    "infinite random amplitude": (
        lambda d, tmp: d.update(initial={"preset": "random-seeded", "amplitude": np.inf}),
        "initial: amplitude"),
    "NaN random amplitude": (
        lambda d, tmp: d.update(initial={"preset": "random-seeded", "amplitude": np.nan}),
        "initial: amplitude"),
    "NaN constant initial value": (
        lambda d, tmp: d.update(initial={"preset": "constant", "value": np.nan}),
        "initial: value"),
    "zero tanh width": (
        lambda d, tmp: d.update(initial={"preset": "tanh-profile", "width": 0.0}),
        "initial: width must be positive"),
    "NaN tanh width": (
        lambda d, tmp: d.update(initial={"preset": "tanh-profile", "width": np.nan}),
        "initial: width"),
    "infinite tanh amplitude": (
        lambda d, tmp: d.update(initial={"preset": "tanh-profile", "amplitude": np.inf}),
        "initial: amplitude"),
    "NaN control value": (lambda d, tmp: d["control"].update(u=np.nan), "control: u"),
    "NaN initial control u0": (
        lambda d, tmp: d.update(optimization={"u0": np.nan}), "optimization: u0"),
    "NaN target": (
        lambda d, tmp: d.update(optimization={"targets": {"phiQ": np.nan}}),
        "optimization.targets: phiQ"),
    "negative random seed": (
        lambda d, tmp: d.update(initial={"preset": "random-seeded", "seed": -1}),
        "initial: seed must be nonnegative"),
    "negative snapshot stride": (
        lambda d, tmp: d["output"].update(snapshot_stride=-2),
        "output: snapshot_stride must be nonnegative"),
    "removed interior_safeguard key": (
        lambda d, tmp: d.update(solver={"interior_safeguard": 1.5}),
        "unknown key solver.interior_safeguard"),
    "removed interior_safeguard key at its old default": (
        lambda d, tmp: d.update(solver={"interior_safeguard": 1e-8}),
        "unknown key solver.interior_safeguard"),
    "infinite final time": (
        lambda d, tmp: d["time"].update(T=np.inf), "time: final time T"),
    "infinite tau": (lambda d, tmp: d["physics"].update(tau=np.inf), "physics: tau"),
    "infinite gamma": (lambda d, tmp: d["physics"].update(gamma=np.inf), "physics: gamma"),
    "infinite interval length": (
        lambda d, tmp: d["domain"].update(length=np.inf), "domain: length"),
    "infinite rectangle side": (
        lambda d, tmp: d.update(domain={"dim": 2, "nx": 3, "ny": 3, "lx": 1.0, "ly": np.inf}),
        "domain: side lengths"),
    "infinite Newton tolerance": (
        lambda d, tmp: d.update(solver={"newton_tol": np.inf}), "newton_tol = inf"),
    "infinite optimizer tolerance": (
        lambda d, tmp: d.update(optimization={"optimizer": {"tol": np.inf}}),
        "optimization.optimizer: tol"),
    "infinite cost weight": (
        lambda d, tmp: d.update(optimization={"alphas": [np.inf, 0, 1, 0, 0.5, 0.5]}),
        "optimization: cost weights"),
    "NaN cost weight": (
        lambda d, tmp: d.update(optimization={"alphas": [1, 0, 1, 0, np.nan, 0.5]}),
        "optimization: cost weights"),
    "control table with a row too many": (
        lambda d, tmp: d["control"].update(u=_write_csv_table(
            tmp / "bad.csv", [[0.1] * 9] * 6)),
        "bad.csv has shape (6, 9), expected (4, 9)"),
    "removed bb_warm_start key": (
        lambda d, tmp: d.update(optimization={"optimizer": {"bb_warm_start": True}}),
        "optimization.optimizer.bb_warm_start"),
}


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_1_naming_the_key(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        mutate, fragment = MALFORMED[case]
        data = copy.deepcopy(MINIMAL)
        mutate(data, tmp_path)
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert fragment in err

    def test_empty_csv_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # numpy warns on an empty file; the run reports it as its shape alone.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.csv").write_text("")
        data = copy.deepcopy(MINIMAL)
        data["control"]["u"] = "empty.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: control.u: CSV empty.csv has shape (0, 1), "
            "expected (4, 9)\n")

    def test_non_finite_target_csv_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {
            "targets": {"phiO": _write_csv_table(tmp_path / "phiO.csv", [np.nan] * 9)},
        }
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 1
        assert "phiO.csv has non-finite values" in capsys.readouterr().err


class TestCsvTables:
    def test_per_slab_and_per_level_tables(self, tmp_path, monkeypatch):
        # Controls with one row per slab, running targets with one row per
        # time level (phiQ in its {csv: path} form) and a one-row terminal
        # target, on 8 cells and 4 steps.
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(5)
        shapes = {"u": (4, 9), "uG": (4, 2), "phiQ": (5, 9), "phiS": (5, 2), "phiO": (1, 9)}
        tables = {name: rng.uniform(0.0, 0.2, shape) for name, shape in shapes.items()}
        paths = {name: _write_csv_table(tmp_path / f"{name}.csv", table)
                 for name, table in tables.items()}
        data = copy.deepcopy(MINIMAL)
        data["control"] = {"u": paths["u"], "uG": paths["uG"]}
        data["optimization"] = {"targets": {
            "phiQ": {"csv": paths["phiQ"]}, "phiS": paths["phiS"], "phiO": paths["phiO"]}}
        cfg = RunConfig.from_dict(data)
        cp, _, _ = cfg.build_control_problem()
        controls = cfg.build_controls(cp.problem.mesh, cp.problem.grid)
        assert np.array_equal(controls.u, tables["u"])
        assert np.array_equal(controls.uG, tables["uG"])
        assert np.array_equal(cp.cost.phiQ, tables["phiQ"])
        assert np.array_equal(cp.cost.phiS, tables["phiS"])
        assert np.array_equal(cp.cost.phiO, tables["phiO"][0])
        path = write_yaml(tmp_path, data)
        assert main(["simulate", "-c", path]) == 0
        assert main(["optimize", "-c", path]) == 0

    def test_snapshot_reads_back_as_initial(self, tmp_path, monkeypatch, capsys):
        # A state_{k}.csv snapshot is read as its phi column; .17g round-trips
        # exactly, so the new run starts from the snapshot's very digits.
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--preset", "default"]) == 0
        data = copy.deepcopy(PRESETS["default"])
        data["run_name"] = "readback"
        data["initial"] = {"preset": "csv", "path": "out/default/state_1.csv"}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 0
        snapshot, start = ([line.split(",")[1] for line in path.read_text().splitlines()]
                           for path in (tmp_path / "out" / "default" / "state_1.csv",
                                        tmp_path / "out" / "readback" / "state_0.csv"))
        assert start == snapshot and len(start) == 34
        # A snapshot of another mesh has the wrong shape.
        data["domain"]["cells"] = 16
        capsys.readouterr()
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: initial.path: CSV out/default/state_1.csv has shape "
            "(1, 33), expected (1, 17)\n")

    def test_optimized_control_replays(self, tmp_path, monkeypatch):
        # The control tables of ``cho optimize`` carry a header and two time
        # columns; ``cho simulate`` reads them back and retraces the run.
        monkeypatch.chdir(tmp_path)
        assert main(["optimize", "--preset", "coarse"]) == 0
        data = copy.deepcopy(PRESETS["coarse"])
        data["control"] = {"u": "out/coarse/control_u_0.csv",
                           "uG": "out/coarse/control_ug_0.csv"}
        data["output"]["directory"] = "replay"
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 0
        header, optimized = read_csv(tmp_path / "out" / "coarse" / "series_0.csv")
        _, replayed = read_csv(tmp_path / "replay" / "coarse" / "series_0.csv")
        column = {name.split(" ")[0]: k for k, name in enumerate(header)}
        assert np.allclose(replayed[:, column["mean"]], optimized[:, column["mean"]],
                           rtol=0.0, atol=1e-12)
        for name in ("phi_min", "phi_max"):
            assert np.allclose(replayed[:, column[name]], optimized[:, column[name]],
                               rtol=0.0, atol=1e-10)


class TestSimulate:
    def test_writes_expected_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_yaml(tmp_path, MINIMAL)
        assert main(["simulate", "-c", path]) == 0
        outdir = tmp_path / "out" / "t"
        assert (outdir / "config.yaml").read_bytes() == Path(path).read_bytes()
        header, rows = read_csv(outdir / "series_0.csv")
        assert header[0].startswith("t")
        assert len(rows) == 5
        assert (outdir / "state_0.csv").exists()

    def test_rerun_from_its_own_config(self, tmp_path, monkeypatch):
        # The copy of config.yaml is skipped when -c names that very file.
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--preset", "coarse"]) == 0
        outdir = tmp_path / "out" / "coarse"
        config = (outdir / "config.yaml").read_bytes()
        series = (outdir / "series_0.csv").read_bytes()
        (outdir / "series_0.csv").unlink()
        assert main(["simulate", "-c", "out/coarse/config.yaml"]) == 0
        assert (outdir / "config.yaml").read_bytes() == config
        assert (outdir / "series_0.csv").read_bytes() == series

    @pytest.mark.parametrize("command", ["simulate", "optimize", "verify"])
    def test_output_directory_that_is_a_file_exits_1(self, tmp_path, monkeypatch, capsys,
                                                     command):
        # Reported before the work: the solver, the optimizer and the suite
        # are never called.

        def never(*args, **kwargs):
            raise AssertionError("the run started before its output directory was checked")

        for name in ("solve", "projected_gradient", "run_suite"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        data = copy.deepcopy(MINIMAL)
        data["output"]["directory"] = "taken"
        assert main([command, "-c", write_yaml(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output.directory: cannot create ")
        assert "Traceback" not in err

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
        data = copy.deepcopy(MINIMAL)
        data["physics"]["tau"] = 0.0
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 1

    def test_mean_value_violation_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic"}
        data["initial"] = {"preset": "constant", "value": 0.6}
        data["control"] = {"u": 0.5, "uG": 0.5}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith(
            "validation error: mean-value condition fails: ")

    def test_mean_value_violation_for_the_box_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic"}
        data["initial"] = {"preset": "constant", "value": 0.6}
        data["optimization"] = {
            "alphas": [1, 0, 0, 0, 1, 1],
            "box": {"u_min": -0.5, "u_max": 0.5, "uG_min": -0.5, "uG_max": 0.5},
        }
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith(
            "validation error: mean-value condition fails for the box: ")

    @pytest.mark.parametrize("touch", [1.0, -1.0])
    def test_initial_datum_touching_the_domain_boundary_exits_2(
            self, tmp_path, monkeypatch, capsys, touch):

        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic"}
        data["initial"] = {"preset": "csv", "path": _write_csv_table(
            tmp_path / "ic.csv", [0.1] * 4 + [touch] + [0.1] * 4)}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 2
        assert "initial datum must be strictly interior" in capsys.readouterr().err

    @pytest.mark.parametrize("c1", [float("nan"), float("inf")])
    def test_non_finite_c1_exits_2_like_c1_below_1(self, tmp_path, monkeypatch, capsys, c1):
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic", "c1": c1}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 2
        assert "needs c1 > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("beta_hat,pi_hat", [
        ([0, 0, 0, 0, float("inf")], [0.25, 0, -0.5]),
        ([0, 0, 0, 0, 0.25], [float("nan"), 0, -0.5]),
    ])
    def test_non_finite_custom_coefficients_exit_2(self, tmp_path, monkeypatch, capsys,
                                                   beta_hat, pi_hat):

        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "custom", "beta_hat": beta_hat, "pi_hat": pi_hat}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 2
        assert "coefficients must be finite" in capsys.readouterr().err

    def test_yosida_run_outside_the_domain_writes_its_energy(self, tmp_path, monkeypatch):
        # The Yosida-regularized logarithmic run leaves (-1, 1); its energy
        # column is that of the regularized potential, finite there.

        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic", "eps_yosida": 0.1}
        data["initial"] = {"preset": "constant", "value": 0.9}
        data["control"] = {"u": 3.0, "uG": 3.0}
        data["physics"]["gamma"] = 5.0
        data["time"]["steps"] = 20
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 0
        header, rows = read_csv(tmp_path / "out" / "t" / "series_0.csv")
        assert rows[:, header.index("phi_max (1)")].max() > 1.0
        assert np.all(np.isfinite(rows[:, header.index("energy (energy)")]))

    def test_potential_domain_error_exits_3(self, tmp_path, monkeypatch, capsys):
        from cho.errors import PotentialDomainError

        def outside(*args, **kwargs):
            raise PotentialDomainError("argument 1.5 outside the open domain (-1, 1)")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("cho.output.energy", outside)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic"}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 3
        assert "outside the open domain" in capsys.readouterr().err

    def test_resolvent_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        from cho import potentials

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(potentials, "RESOLVENT_MAXITER", 1)
        data = copy.deepcopy(MINIMAL)
        data["potential"] = {"kind": "logarithmic", "eps_yosida": 0.1}
        assert main(["simulate", "-c", write_yaml(tmp_path, data)]) == 3
        assert "Yosida resolvent did not converge" in capsys.readouterr().err

    def test_malformed_yaml_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("{{{nope")
        assert main(["simulate", "-c", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: cannot parse config {path}")

    def test_missing_file_exits_1(self):
        assert main(["simulate", "-c", "/nonexistent/x.yaml"]) == 1

    def test_2d_writes_vtk(self, tmp_path, monkeypatch):
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
        path = write_yaml(tmp_path, PRESETS["coarse"], "coarse.yaml")
        assert main(["optimize", "-c", path]) == 0
        _, rows = read_csv(tmp_path / "out" / "coarse" / "history_0.csv")
        J = rows[:, 1]
        assert np.all(np.diff(J) <= 1e-15)
        assert (tmp_path / "out" / "coarse" / "control_u_0.csv").exists()

    def test_stall_names_its_reason(self, tmp_path, monkeypatch, capsys):
        # The default preset in a box of +-0.1 stalls at the noise of J
        # (see test_control) and says so instead of running out of budget.
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(PRESETS["default"])
        data["optimization"]["box"] = {"u_min": -0.1, "u_max": 0.1,
                                       "uG_min": -0.1, "uG_max": 0.1}
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 0
        out = capsys.readouterr().out
        assert "(stalled: the Armijo decrease is below the noise in J)" in out
        assert "budget" not in out
        _, rows = read_csv(tmp_path / "out" / "default" / "history_0.csv")
        assert rows.shape[0] <= 7

    def test_infinite_box_and_budget_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {
            "box": {"u_min": -np.inf, "u_max": np.inf,
                    "uG_min": -np.inf, "uG_max": np.inf},
            "m_prime": np.inf,
            "optimizer": {"max_iter": 3},
        }
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 0

    def test_infeasible_box_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {
            "alphas": [1, 0, 0, 0, 1, 1],
            "targets": {"phiQ": 0.1},
            "box": {"u_min": 1.0, "u_max": -1.0, "uG_min": -1, "uG_max": 1},
            "optimizer": {"max_iter": 5, "tol": 1e-6},
        }
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 2

    def test_line_search_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from cho import control

        # A cost that rises on every call fails every Armijo test.
        calls = iter(range(1000))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(control, "cost", lambda *args: float(next(calls)))
        monkeypatch.setattr(control, "MAX_BACKTRACKS", 3)
        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {"alphas": [1, 0, 0, 0, 1, 1], "targets": {"phiQ": 0.1}}
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 3
        assert "line search failed at optimizer iteration 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "t" / "history_0.csv").exists()


class TestVerify:
    def test_verify_coarse_preset_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--preset", "coarse"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 11
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("side", [1.0, 0.5])
    def test_rectangle_at_the_check_mesh_cap_passes(self, tmp_path, monkeypatch, capsys, side):
        # On a 16 x 16 rectangle mu at t = 0 peaks at 26.3 on the unit square
        # and 104.9 on [0, 0.5]^2; the separation check takes its mu bound
        # over the steps only, so r0 reads 0.9696 and 0.9687.
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(PRESETS["rectangle"])
        data["domain"].update(nx=16, ny=16, lx=side, ly=side)
        assert main(["verify", "-c", write_yaml(tmp_path, data)]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 11 and "11/11 checks passed" in out

    @pytest.mark.parametrize("bound,value", [("u_max", np.inf), ("uG_min", -np.inf)])
    def test_infinite_box_bound_passes(self, tmp_path, monkeypatch, capsys, bound, value):
        # The optimality check draws its comparison controls from the box,
        # an infinite end replaced by the final control -+ 1.
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(PRESETS["coarse"])
        data["optimization"]["box"][bound] = value
        assert main(["verify", "-c", write_yaml(tmp_path, data)]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 11

    def test_malformed_configuration_exits_1(self, tmp_path, monkeypatch, capsys):
        # An unreadable CSV is a configuration error, not a failed check,
        # and it is reported before any check solves anything.
        solves = []

        def spy(*args, **kwargs):
            solves.append(args)
            raise AssertionError("a check ran")

        monkeypatch.setattr("cho.forward.solve_many", spy)
        monkeypatch.setattr("cho.verify.solve_many", spy)
        monkeypatch.chdir(tmp_path)
        for preset in ("coarse", "rectangle"):
            data = copy.deepcopy(PRESETS[preset])
            data["initial"] = {"preset": "csv", "path": "missing.csv"}
            assert main(["verify", "-c", write_yaml(tmp_path, data)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("configuration error: initial.path: cannot read CSV")
            assert len(captured.err.splitlines()) == 1
            assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out
        assert solves == []
        assert not (tmp_path / "out").exists()

    def test_infeasible_box_exits_2_before_any_check(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(PRESETS["coarse"])
        data["optimization"]["box"]["u_min"] = 2.0
        assert main(["verify", "-c", write_yaml(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: infeasible box")
        assert "[PASS]" not in captured.out and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("failing", [None, "rectangle"])
    def test_all_presets_summary(self, tmp_path, monkeypatch, capsys, failing):
        # Canned suites: each preset runs once, and one failing check fails
        # its preset's row and the whole run.
        runs = []

        def canned_suite(cfg):
            runs.append(cfg.run_name)
            return [CheckResult("mean-ode", True, "canned"),
                    CheckResult("taylor", cfg.run_name != failing, "canned")]

        monkeypatch.setattr(cli, "run_suite", canned_suite)
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--all-presets"]) == (0 if failing is None else 2)
        assert sorted(runs) == sorted(PRESETS)
        summary = capsys.readouterr().out.split("\nsummary\n")[1].splitlines()
        assert summary == [f"  {name:<14} {'FAILED' if name == failing else 'ok'}"
                           for name in PRESETS]


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--bogus"],
        ["frobnicate"],
        ["simulate", "--preset", "nosuch"],
        ["simulate", "-c", "cfg.yaml", "--preset", "coarse"],
        ["optimize", "--preset", "coarse", "-c", "cfg.yaml"],
        ["verify", "-c", "cfg.yaml", "--preset", "coarse"],
        ["verify", "--all-presets", "-c", "cfg.yaml"],
        ["verify", "--preset", "coarse", "--all-presets"],
    ])
    def test_usage_errors_exit_1(self, argv, monkeypatch, capsys):
        # Exit 1 like a malformed configuration, not argparse's 2, which
        # is the code of a data validation failure.  No configuration is
        # ever loaded.
        monkeypatch.setattr(cli, "load_config", None)
        monkeypatch.setattr(cli, "preset_config", None)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cho")
        assert "error: " in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--all-presets" in capsys.readouterr().out


def test_csv_headers_carry_units(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["simulate", "-c", write_yaml(tmp_path, MINIMAL)])
    for name in ("series_0.csv", "state_0.csv"):
        with open(tmp_path / "out" / "t" / name) as fh:
            header = fh.readline()
        assert "(" in header and ")" in header


def _leaves(node, path=()):
    """Paths of the leaves of a nested mapping, through lists too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


# The replacement values of the configuration fuzz.  10**12 goes to size
# keys alone: numpy refuses such an allocation at once, where a size it
# could allocate would really be allocated.
FUZZ_VALUES = (0, 1, -1, 2, 3, 0.5, -0.5, 1e-12, 1e-300, 0.999, -0.999, float("nan"),
               float("inf"), True, None, "x", [], {}, [1, 2])
SIZE_KEYS = (("domain", "cells"), ("time", "steps"))
COARSE_LEAVES = list(_leaves(PRESETS["coarse"]))
MUTATIONS = st.sampled_from(COARSE_LEAVES).flatmap(lambda path: st.tuples(
    st.just(path),
    st.sampled_from(FUZZ_VALUES + ((10**12,) if path in SIZE_KEYS else ()))))


def _run_captured(argv):
    """(exit code, stderr) of ``main(argv)``; an escaping exception fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestNoTraceback:
    @pytest.mark.parametrize("command,preset,key", [
        ("optimize", "rectangle", ("domain", "ny")),
        ("simulate", "coarse", ("time", "steps")),
    ])
    def test_a_size_that_does_not_fit_exits_1(self, tmp_path, monkeypatch, command,
                                              preset, key):
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(PRESETS[preset])
        data[key[0]][key[1]] = 10**12
        code, err = _run_captured([command, "-c", write_yaml(tmp_path, data)])
        assert code == 1
        assert err.startswith("configuration error: ") and "does not fit in memory" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["simulate", "optimize"]),
           mutations=st.lists(MUTATIONS, min_size=1, max_size=2, unique_by=lambda m: m[0]))
    @example(command="simulate", mutations=[(("time", "T"), 1e-300)])
    @example(command="optimize", mutations=[(("time", "T"), 1e-300)])
    @example(command="verify", mutations=[(("optimization", "box", "u_max"), float("inf"))])
    @example(command="verify",
             mutations=[(("initial",), {"preset": "csv", "path": "missing.csv"})])
    def test_mutated_configurations_end_with_an_exit_code(self, command, mutations):
        data = copy.deepcopy(PRESETS["coarse"])
        for path, value in mutations:
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp)
            code, err = _run_captured([command, "-c", write_yaml(Path(tmp), data)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
