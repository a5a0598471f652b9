"""Workload inputs, passes and correctness gates.

Every input is generated from the workload seed: configuration files,
initial data, control levels and directions.  ``cho`` only ever sees
those generated inputs.  This module imports ``cho`` lazily, inside the
functions, so that a tracer can patch ``scipy.sparse`` before the first
``cho`` import.

A workload is a ``Workload`` object bound to a seed and a work directory,
with three steps:

    write_inputs()      configuration files; no ``cho`` import
    build()             the objects set-up time measures
    run_pass(objects, op)
                        one timed operation ``op`` (one of ``ops``) over
                        ``build()``'s objects; returns a ``PassResult``

``run_pass`` times only the calls into ``cho``; reading outputs back and
checking them happens afterwards and is not timed.
"""

import contextlib
import copy
import io
import os
import shutil
import time

import numpy as np
import yaml
from reference import HostSpeed

DUALITY_GAP_MAX = 1e-10
MEAN_ODE_MAX = 1e-9
VI_RESIDUAL_MAX = 1e-6
VERIFY_CHECKS = 11     # checks in the cho verify suite


class PassResult:
    """Outcome of one pass: its timed seconds, operations and checked facts."""

    def __init__(self, op, timing):
        self.op = op
        self.wall_s, self.cpu_s, self.kernel_s = timing
        self.attempted = 0
        self.failures = []      # one message per failed operation
        self.facts = {}         # counts and measured gate values

    def operation(self, name, problems):
        """Book one operation; ``problems`` lists every gate it missed."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _cli(argv):
    """Run ``cho`` in-process; returns (exit code, captured output)."""
    from cho.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue()


def _timed(fn, host_speed):
    """(value or None, error or None, (wall s, CPU s, kernel s)) of ``fn()``.

    With ``host_speed`` the reference kernel is sampled while ``fn`` runs;
    the time the samples took is left out of the wall and CPU seconds.
    """
    with HostSpeed(host_speed) as hs:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            value, error = fn(), None
        except Exception as err:  # a raise is a failed operation, not a failed benchmark
            value, error = None, f"raised {type(err).__name__}: {err}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return value, error, (wall - hs.spent, cpu - hs.spent, hs.kernel_s)


def _exit_problems(out, error):
    """Gate on how a CLI operation ended: no raise and exit code 0."""
    if error:
        return [error]
    code, log = out
    return [] if code == 0 else [f"exit {code}: {log.strip()[-200:]}"]


def _dir_usage(path):
    files = size = 0
    for root, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


def _read_csv(path):
    """Numeric body of a cho CSV (header skipped)."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = [line.split(",") for line in fh.read().splitlines() if line]
    return np.array(rows, dtype=float)


def _write_yaml(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


# Copies of the shipped presets the generated configs start from, kept here
# so that a change to the presets does not silently change the workloads.
BASE_CONFIGS = {
    "default": {
        "domain": {"dim": 1, "cells": 32, "length": 1.0},
        "time": {"T": 0.5, "steps": 25},
        "physics": {"tau": 1.0, "gamma": 1.0},
        "potential": {"kind": "regular"},
        "initial": {"preset": "tanh-profile", "amplitude": 0.4, "center": 0.5,
                    "width": 0.15},
        "optimization": {
            "alphas": [1.0, 0.5, 1.0, 0.5, 0.5, 0.5],
            "targets": {"phiQ": 0.2, "phiS": 0.2, "phiO": 0.2, "phiG": 0.2},
            "box": {"u_min": -1.0, "u_max": 1.0, "uG_min": -1.0, "uG_max": 1.0},
            "optimizer": {"max_iter": 400, "tol": 1.0e-6},
        },
    },
    "logarithmic": {
        "domain": {"dim": 1, "cells": 48, "length": 1.0},
        "time": {"T": 0.4, "steps": 20},
        "physics": {"tau": 1.0, "gamma": 1.0},
        "potential": {"kind": "logarithmic", "c1": 2.0},
        "initial": {"preset": "tanh-profile", "amplitude": 0.3, "center": 0.5,
                    "width": 0.2},
        "optimization": {
            "alphas": [1.0, 0.0, 1.0, 0.0, 0.5, 0.5],
            "targets": {"phiQ": 0.1, "phiS": 0.0, "phiO": 0.1, "phiG": 0.0},
            "box": {"u_min": -0.4, "u_max": 0.4, "uG_min": -0.4, "uG_max": 0.4},
            "optimizer": {"max_iter": 400, "tol": 1.0e-6},
        },
    },
    "rectangle": {
        "domain": {"dim": 2, "nx": 8, "ny": 8, "lx": 1.0, "ly": 1.0},
        "time": {"T": 0.25, "steps": 10},
        "physics": {"tau": 1.0, "gamma": 1.0},
        "potential": {"kind": "regular"},
        "initial": {"preset": "random-seeded", "seed": 3, "amplitude": 0.3},
        "control": {"u": 0.1, "uG": 0.05},
        "optimization": {
            "alphas": [1.0, 0.5, 1.0, 0.5, 0.5, 0.5],
            "targets": {"phiQ": 0.1, "phiS": 0.1, "phiO": 0.1, "phiG": 0.1},
            "box": {"u_min": -1.0, "u_max": 1.0, "uG_min": -1.0, "uG_max": 1.0},
            "optimizer": {"max_iter": 200, "tol": 1.0e-6},
        },
    },
}


def _preset(name):
    return copy.deepcopy(BASE_CONFIGS[name])


class Workload:
    name = ""
    why = ""
    ops = ("pass",)     # a pass runs one of these; a round runs each once
    host_speed = True   # sample the reference kernel during timed calls

    def __init__(self, seed, workdir, smoke=False):
        self.seed = int(seed)
        self.workdir = workdir
        self.smoke = smoke
        self.out_root = os.path.join(workdir, "out")

    def write_inputs(self):
        os.makedirs(self.out_root, exist_ok=True)

    def build(self):
        raise NotImplementedError

    def run_pass(self, objects, op):
        raise NotImplementedError

    def _clear_outputs(self, result):
        files, size = _dir_usage(self.out_root)
        result.facts["output.files"] = files
        result.facts["output.bytes"] = size
        shutil.rmtree(self.out_root)
        os.makedirs(self.out_root)


class Optimize1D(Workload):
    name = "optimize-1d"
    why = ("cho optimize on seeded default and logarithmic 1D configs; "
           "desk scale, where scipy.sparse construction costs the most")

    ops = ("default", "logarithmic")

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.paths = [os.path.join(workdir, f"opt-{op}.yaml") for op in self.ops]

    def write_inputs(self):
        super().write_inputs()
        for stream, path in enumerate(self.paths, start=1):
            rng = _rng(self.seed, stream)
            run_name = os.path.splitext(os.path.basename(path))[0]
            cfg = _preset(run_name.removeprefix("opt-"))
            cfg["run_name"] = run_name
            ini = cfg["initial"]
            ini["amplitude"] = round(ini["amplitude"] + rng.uniform(-0.02, 0.02), 6)
            ini["center"] = round(0.5 + rng.uniform(-0.02, 0.02), 6)
            cfg["optimization"]["u0"] = round(rng.uniform(-0.05, 0.05), 6)
            cfg["output"] = {"directory": self.out_root, "snapshot_stride": 5}
            if self.smoke:
                cfg["domain"]["cells"] = 8
                cfg["time"]["steps"] = 5
            _write_yaml(path, cfg)

    def build(self):
        from cho.config import load_config

        return [load_config(path).build_control_problem() for path in self.paths]

    def run_pass(self, objects, op):
        path = self.paths[self.ops.index(op)]
        run_name = os.path.splitext(os.path.basename(path))[0]
        out, error, timing = _timed(lambda: _cli(["optimize", "-c", path]), self.host_speed)
        result = PassResult(op, timing)
        problems = _exit_problems(out, error)
        history = os.path.join(self.out_root, run_name, "history_0.csv")
        if os.path.isfile(history):
            rows = _read_csv(history)
            J, vi = rows[:, 1], rows[:, 2]
            if not vi[-1] <= VI_RESIDUAL_MAX:
                problems.append(f"last vi residual {vi[-1]:.3e} > {VI_RESIDUAL_MAX}")
            if np.any(np.diff(J) > 0):
                problems.append("J increases between iterates")
            result.facts.update({
                "control.final_J": float(J[-1]),
                "gate.iterations": len(rows) - 1,
                "gate.newton_total": int(rows[:, 4].sum()),
            })
        else:
            problems.append("no history_0.csv")
        result.operation(run_name, problems)
        self._clear_outputs(result)
        return result


class Gradient2D(Workload):
    name = "gradient-2d"
    why = ("one reduced gradient plus a linearized solve on a 64x64 rectangle; "
           "the sparse LU factorization regime")

    def build(self):
        from cho import (
            ControlPair, CostSpec, PairField, Physics, PotentialPair, Problem,
            SolverOptions, TimeGrid, build_rectangle, regular_potential,
        )
        from cho.control import random_direction

        n, N = (6, 4) if self.smoke else (64, 20)
        mesh = build_rectangle(n, n, 1.0, 1.0)
        grid = TimeGrid(T=0.4, N=N)
        problem = Problem.create(mesh, PotentialPair.same(regular_potential()),
                                 SolverOptions(), Physics(1.0, 1.0), grid)
        rng = _rng(self.seed, 3)
        phi0 = PairField.from_bulk(mesh, rng.uniform(-0.3, 0.3, mesh.n_bulk))
        u = ControlPair.constant(mesh, grid, round(0.05 + rng.uniform(-0.01, 0.01), 6))
        h = random_direction(mesh, grid, rng)
        h = h.scaled(0.1 / h.sup_norm())
        cost_spec = CostSpec(alphas=(1.0, 0.5, 1.0, 0.5, 0.2, 0.2),
                             phiQ=0.2, phiS=0.1, phiO=0.2, phiG=0.1)
        return problem, phi0, u, h, cost_spec

    @staticmethod
    def derivatives(objects):
        """The timed operation: forward, adjoint, gradient, linearized solve
        and the two directional derivatives the duality gate compares."""
        from cho.adjoint import adjoint_solve, reduced_gradient
        from cho.control import control_inner, cost_directional
        from cho.forward import solve
        from cho.sensitivity import linearized_solve

        problem, phi0, u, h, cost_spec = objects
        traj = solve(problem, phi0, u)
        adj = adjoint_solve(problem, traj, cost_spec)
        g = reduced_gradient(problem, u, adj, cost_spec)
        lin = linearized_solve(problem, traj, h)
        dJ_lin = cost_directional(cost_spec, problem, traj, lin.psi, u, h)
        dJ_adj = control_inner(g, h, problem.ops, problem.grid.dt)
        return traj, g, dJ_lin, dJ_adj

    @staticmethod
    def duality_gap(dJ_adj, dJ_lin):
        return abs(dJ_adj - dJ_lin) / max(1.0, abs(dJ_lin))

    def run_pass(self, objects, op):
        from cho.forward import mean_ode_residual

        out, error, timing = _timed(lambda: self.derivatives(objects), self.host_speed)
        result = PassResult(op, timing)
        if error:
            result.operation("gradient", [error])
            return result
        traj, _, dJ_lin, dJ_adj = out
        problem, _, u, _, _ = objects
        gap = self.duality_gap(dJ_adj, dJ_lin)
        resid = float(np.abs(
            mean_ode_residual(traj, u, problem.ops, problem.physics.gamma)).max())
        problems = []
        if not gap <= DUALITY_GAP_MAX:
            problems.append(f"duality gap {gap:.3e} > {DUALITY_GAP_MAX}")
        if not resid <= MEAN_ODE_MAX:
            problems.append(f"mean-ODE residual {resid:.3e} > {MEAN_ODE_MAX}")
        result.operation("gradient", problems)
        result.facts.update({
            "gate.duality_gap": gap,
            "gate.mean_ode_residual": resid,
            "gate.newton_total": int(traj.newton_iters.sum()),
        })
        self._clear_outputs(result)
        return result


class VerifyRectangle(Workload):
    name = "verify-rectangle"
    why = ("cho verify on the rectangle preset: thousands of small 2D solves, "
           "re-assemblies and the Yosida resolvent")

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.path = os.path.join(workdir, "verify.yaml")

    def write_inputs(self):
        super().write_inputs()
        cfg = _preset("rectangle")
        cfg["run_name"] = "verify-rectangle"
        cfg["initial"]["seed"] = int(_rng(self.seed, 4).integers(0, 2**31 - 1))
        # verify writes taylor_*.csv under the configured output directory.
        cfg["output"] = {"directory": self.out_root, "snapshot_stride": 5}
        if self.smoke:
            cfg["domain"].update(nx=2, ny=2)
            cfg["time"]["steps"] = 4
        _write_yaml(self.path, cfg)

    def build(self):
        from cho.config import load_config

        cfg = load_config(self.path)
        cp, u0, _ = cfg.build_control_problem()
        return cp, u0, cfg.build_controls(cp.problem.mesh, cp.problem.grid)

    def run_pass(self, objects, op):
        out, error, timing = _timed(lambda: _cli(["verify", "-c", self.path]), self.host_speed)
        result = PassResult(op, timing)
        log = out[1] if out else ""
        total = VERIFY_CHECKS
        passed = log.count("[PASS]")
        problems = _exit_problems(out, error)
        if f"{total}/{total} checks passed" not in log:
            problems.append(f"{passed}/{total} checks passed: " + " | ".join(
                line for line in log.splitlines() if "[FAIL]" in line))
        result.operation("verify", problems)
        result.facts["verify.checks_passed"] = passed
        self._clear_outputs(result)
        return result


WORKLOADS = {
    cls.name: cls
    for cls in (Optimize1D, Gradient2D, VerifyRectangle)
}
