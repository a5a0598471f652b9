"""Acceptance gate: one test per verification criterion, at desk scale.

Every criterion runs at its stated tolerance through the shared
verification suite (cho.verify), which pins the tolerances, and prints
one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.  As in ``run_suite``, the checks share
one ``CheckContext``: the check mesh and operators of the default preset,
assembled once for the module.

Criteria:
 1. mean-ode               residual <= 1e-9; closed-form order 1.0 +- 0.3
 2. constant-data          dt-halving error ratio in [1.7, 2.3]
 3. energy-decay           increments <= 1e-12 over >= 200 steps
 4. mean-bound             10 random admissible runs inside the interval
 5. separation             max |phi| <= r0 at every node and step
 6. yosida                 strictly decreasing errors, <= 1e-3 at eps 1e-3
 7. continuous-dependence  state/control ratio varies < 20%
 8. taylor                 remainder orders >= 1.9 on 3 directions
 9. adjoint-duality        duality gap <= 1e-10; FD gradient error <= 1e-6
10. optimality             vi <= 1e-6, monotone J, bilinear form >= -1e-5
11. homogeneous-zero       zero-data solves identically zero (<= 1e-12)
"""

import pytest

from cho.config import preset_config
from cho import verify


@pytest.fixture(scope="module")
def default_ctx():
    return verify.CheckContext.build(preset_config("default"))


def run_and_report(check, ctx):
    result = check(ctx)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_mean_value_ode(default_ctx):
    run_and_report(verify.check_mean_ode, default_ctx)


def test_criterion_02_constant_data_exact_solution(default_ctx):
    run_and_report(verify.check_constant_data, default_ctx)


def test_criterion_03_energy_decay(default_ctx):
    result = run_and_report(verify.check_energy_decay, default_ctx)
    assert "200 steps" in result.detail


def test_criterion_04_mean_bound(default_ctx):
    run_and_report(verify.check_mean_bound, default_ctx)


def test_criterion_05_separation(default_ctx):
    run_and_report(verify.check_separation, default_ctx)


def test_criterion_06_yosida_consistency(default_ctx):
    run_and_report(verify.check_yosida, default_ctx)


def test_criterion_07_continuous_dependence(default_ctx):
    run_and_report(verify.check_contdep, default_ctx)


def test_criterion_08_frechet_taylor(default_ctx):
    run_and_report(verify.check_taylor, default_ctx)


def test_criterion_09_adjoint_duality_and_fd_gradient(default_ctx):
    run_and_report(verify.check_adjoint, default_ctx)


def test_criterion_10_optimality(default_ctx):
    run_and_report(verify.check_optimality, default_ctx)


def test_criterion_11_homogeneous_uniqueness_surrogates(default_ctx):
    run_and_report(verify.check_homogeneous, default_ctx)
