"""The verification harness: one CheckContext per suite run, one name per check."""

import functools
import re

import numpy as np
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


# A literal copy of the bounds the suite certifies: loosening
# one is a change of what ``cho verify`` certifies and must show here.
PINNED_BOUNDS = {
    "mean-ode": {"residual": "<= 1e-9", "order": "1.0 +- 0.3"},
    "constant-data": {"ratio": "in [1.7, 2.3]"},
    "energy-decay": {"increment": "<= 1e-12"},
    "mean-bound": {"slack": 1e-9},
    "separation": {"slack": 1e-12},
    "yosida": {"last": "<= 1e-3"},
    "continuous-dependence": {"variation": "< 20%"},
    "taylor": {"order": ">= 1.9", "round_off": 1e-12},
    "adjoint-duality": {"gap": "<= 1e-10", "fd": "<= 1e-6"},
    "optimality": {"vi": "<= 1e-6", "form": ">= -1e-5", "monotone": 1e-15},
    "homogeneous-zero": {"state": "<= 1e-12"},
}


def test_bounds_are_pinned():
    assert verify.BOUNDS == PINNED_BOUNDS
    assert tuple(verify.BOUNDS) == NAMES == tuple(check.name for check in verify.ALL_CHECKS)


# Each form of printed bound, with the literal comparison it must equal.
LITERALS = {
    "<= 1e-9": lambda v: v <= 1e-9,
    "1.0 +- 0.3": lambda v: 0.7 <= v <= 1.3,
    "in [1.7, 2.3]": lambda v: 1.7 <= v <= 2.3,
    "< 20%": lambda v: v < 0.2,
    ">= 1.9": lambda v: v >= 1.9,
    ">= -1e-5": lambda v: v >= -1e-5,
}


@pytest.mark.parametrize("bound", LITERALS)
def test_a_printed_bound_reads_as_its_literal(bound):
    # Each end of each bound and the doubles on either side of it.
    ends = [1e-9, 0.7, 1.3, 1.7, 2.3, 0.2, 1.9, -1e-5]
    values = [np.nextafter(e, d) for e in ends for d in (-np.inf, np.inf)] + ends + [np.nan]
    assert [verify._meets(v, bound) for v in values] == [LITERALS[bound](v) for v in values]


@pytest.fixture(scope="module")
def coarse_ctx():
    return verify.CheckContext.build(preset_config("coarse"))


# One tightened entry per printed bound, each beyond what the coarse
# preset measures.
TIGHTENED = [
    (verify.check_mean_ode, "residual", "<= 1e-20"),
    (verify.check_mean_ode, "order", "1.0 +- 0.01"),
    (verify.check_constant_data, "ratio", "in [1.99, 2.01]"),
    (verify.check_energy_decay, "increment", "<= -1e-3"),
    (verify.check_yosida, "last", "<= 1e-9"),
    (verify.check_contdep, "variation", "< 0%"),
    (verify.check_taylor, "order", ">= 2.5"),
    (verify.check_adjoint, "gap", "<= 1e-30"),
    (verify.check_adjoint, "fd", "<= 1e-15"),
    (verify.check_optimality, "vi", "<= 1e-20"),
    (verify.check_optimality, "form", ">= 0"),
    (verify.check_homogeneous, "state", "< 0"),
]


@pytest.mark.parametrize("check, key, tightened", TIGHTENED,
                         ids=[f"{check.name}-{key}" for check, key, _ in TIGHTENED])
def test_a_tightened_bound_fails_its_check_and_is_printed(monkeypatch, coarse_ctx, check,
                                                         key, tightened):
    assert check(coarse_ctx).passed
    monkeypatch.setitem(verify.BOUNDS[check.name], key, tightened)
    result = check(coarse_ctx)
    assert not result.passed and tightened in result.detail, result.line()


def test_a_tightened_vi_bound_drives_the_optimizer_to_it(monkeypatch, coarse_ctx):
    # The optimizer's stop tolerance is the bound itself, so a tighter
    # bound that the optimizer can reach still passes.
    monkeypatch.setitem(verify.BOUNDS["optimality"], "vi", "<= 1e-9")
    result = verify.check_optimality(coarse_ctx)
    assert result.passed, result.line()
    vi = float(result.detail.split()[2])
    assert vi <= 1e-9 and "(<= 1e-9)" in result.detail


@pytest.mark.parametrize("check, key, slack", [
    (verify.check_mean_bound, "slack", -0.35),
    (verify.check_separation, "slack", -1.0),
    (verify.check_optimality, "monotone", -1.0),
], ids=["mean-bound", "separation", "optimality-monotone"])
def test_a_tightened_slack_fails_its_check(monkeypatch, coarse_ctx, check, key, slack):
    monkeypatch.setitem(verify.BOUNDS[check.name], key, slack)
    assert not check(coarse_ctx).passed


@pytest.mark.parametrize("key, tightened", [("gap", "<= 1e-30"), ("fd", "<= 1e-15")])
def test_optimality_prints_the_gradient_bounds_it_missed(monkeypatch, coarse_ctx, key,
                                                         tightened):
    monkeypatch.setitem(verify.BOUNDS["adjoint-duality"], key, tightened)
    result = verify.check_optimality(coarse_ctx)
    assert not result.passed
    assert result.detail.startswith("gradient check failed on the bundle: max duality gap")
    assert f"({tightened})" in result.detail, result.line()


def test_separation_passes_on_the_logarithmic_preset():
    result = verify.check_separation(verify.CheckContext.build(preset_config("logarithmic")))
    assert result.passed, result.line()


def test_separation_fails_where_phi_nears_one(monkeypatch, coarse_ctx):
    solve = verify.solve

    def violating(problem, phi0, controls):
        traj = solve(problem, phi0, controls)
        traj.phi[2, 3] = -0.9999
        return traj

    monkeypatch.setattr(verify, "solve", violating)
    result = verify.check_separation(coarse_ctx)
    assert not result.passed
    assert result.detail.startswith("max |phi| = 0.9999 <= r0 = "), result.line()


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
