"""The verification harness: one CheckContext per suite run, one name per check."""

import functools
import re

import pytest

from cho import verify
from cho.config import PRESETS, RunConfig, preset_config
from cho.control import ControlPair
from cho.errors import SolverError
from cho.spaces import CoupledOperators

# The names ``cho verify`` prints, in suite order.
NAMES = ("mean-ode", "constant-data", "energy-decay", "mean-bound", "separation",
         "yosida", "continuous-dependence", "taylor", "adjoint-duality", "optimality",
         "homogeneous-zero")


@pytest.mark.parametrize("check, name", zip(verify.ALL_CHECKS, NAMES), ids=NAMES)
def test_aborted_check_is_reported_under_its_name(monkeypatch, check, name):
    # Wrapped the way a tracer wraps it, the check keeps its name.
    @functools.wraps(check)
    def aborting(ctx):
        raise SolverError("injected")

    monkeypatch.setattr(verify, "ALL_CHECKS", (aborting,))
    result, = verify.run_suite(preset_config("coarse"))
    assert (result.name, result.passed) == (name, False)
    assert result.line().startswith(f"[FAIL] {name}: aborted: injected")


def test_suite_assembles_its_operators_once(monkeypatch):
    # The optimality check's control problem shares the check operators:
    # the coarse preset's mesh is under the cap.
    meshes = []
    init = CoupledOperators.__init__

    def counting(self, mesh):
        meshes.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(CoupledOperators, "__init__", counting)
    results = verify.run_suite(preset_config("coarse"))
    assert [r.name for r in results] == list(NAMES)
    assert all(r.passed for r in results), [r.line() for r in results]
    assert len(meshes) == 1


@pytest.mark.parametrize("domain, n_bulk", [
    ({"dim": 1, "cells": 200, "length": 2.0}, 129),
    ({"dim": 2, "nx": 20, "ny": 6, "lx": 1.0, "ly": 0.5}, 17 * 7),
])
def test_context_caps_the_check_mesh_and_builds_problems_on_it(domain, n_bulk):
    ctx = verify.CheckContext.build(RunConfig.from_dict({**PRESETS["default"], "domain": domain}))
    assert ctx.mesh is ctx.ops.mesh and ctx.mesh.n_bulk == n_bulk
    # A capped mesh is not the configured one: the context assembles the
    # control problem's operators on the configured mesh.
    assert verify._check_domain(ctx.cfg.domain) != ctx.cfg.domain
    assert ctx.control[0].problem.mesh.n_bulk > n_bulk
    problem = ctx.problem(0.4, 10, newton_tol=1e-12)
    assert problem.mesh is ctx.mesh and problem.ops is ctx.ops
    assert (problem.grid.T, problem.grid.N, problem.opts.newton_tol) == (0.4, 10, 1e-12)
    assert (problem.physics.tau, problem.physics.gamma) == (1.0, 1.0)


@pytest.mark.parametrize("name", ["rectangle", "default"])
def test_suite_results_equal_each_check_run_alone(name):
    # Each check starts without a live factor, so the checks before it in
    # the suite do not move its numbers.
    cfg = preset_config(name)
    suite = verify.run_suite(cfg)
    alone = [check(verify.CheckContext.build(cfg)) for check in verify.ALL_CHECKS]
    for one, result in zip(alone, suite):
        assert (one.passed, one.detail) == (result.passed, result.detail), one.name
    taylor = NAMES.index("taylor")
    assert ([remainders for _, remainders, _ in alone[taylor].extra]
            == [remainders for _, remainders, _ in suite[taylor].extra])


def test_separation_bounds_phi_away_from_one_on_the_rectangle():
    # The mu bound comes from the steps, not from mu at t = 0, which peaks
    # at the rectangle's corners and would push r0 to 1.
    result = verify.check_separation(verify.CheckContext.build(preset_config("rectangle")))
    r0 = float(re.search(r"r0 = ([0-9.]+)", result.detail).group(1))
    assert result.passed and r0 < 0.99, result.line()


class TestTaylor:
    def test_quadratic_orders_for_smooth_potential(self):
        result = verify.check_taylor(verify.CheckContext.build(preset_config("default")))
        assert result.passed, result.line()
        assert len(result.extra) == 3
        for scales, remainders, orders in result.extra:
            assert len(orders) == len(scales) - 1 == len(remainders) - 1
            assert min(orders) >= 1.9

    def test_zero_direction_zero_remainder(self, monkeypatch):
        monkeypatch.setattr(verify, "_direction",
                            lambda problem, seed, size: ControlPair.zeros(problem.mesh,
                                                                          problem.grid))
        result = verify.check_taylor(verify.CheckContext.build(preset_config("default")))
        for _, remainders, orders in result.extra:
            assert all(r == 0.0 for r in remainders)
            assert orders == []

    def test_directions_share_one_stacked_solve(self, monkeypatch):
        # The base control and every u + s h of the three directions and
        # four scales march in one stack, the base as its first column.
        calls = []
        solve_many = verify.solve_many

        def counted(problem, phi0, controls):
            calls.append(len(controls))
            return solve_many(problem, phi0, controls)

        monkeypatch.setattr(verify, "solve_many", counted)
        result = verify.check_taylor(verify.CheckContext.build(preset_config("default")))
        assert calls == [1 + 3 * 4]
        assert [len(remainders) for _, remainders, _ in result.extra] == [4, 4, 4]

    def test_affine_state_map_reported_exact(self):
        # F'' constant (quadratic potential): the state map is affine in the
        # control, so the first-order expansion has no remainder.
        potential = {"kind": "custom", "beta_hat": [0, 0, 0.5], "pi_hat": [0]}
        cfg = RunConfig.from_dict({**PRESETS["default"], "potential": potential})
        result = verify.check_taylor(verify.CheckContext.build(cfg))
        assert all(orders == [] for _, _, orders in result.extra)
        assert result.detail.startswith("min orders inf/inf/inf")
