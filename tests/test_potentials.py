import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cho import potentials
from cho.errors import PotentialDomainError, SolverError, ValidationError
from cho.forward import require_mean_value
from cho.potentials import (
    RESOLVENT_RTOL,
    PotentialPair,
    custom_potential,
    logarithmic_potential,
    regular_potential,
    resolvent,
    separation_r0,
    yosida_beta,
    yosida_dbeta,
    yosida_derivatives,
    yosida_hat,
)
from cho.spaces import PairField
from conftest import make_problem, unchecked_custom

REG = regular_potential()
LOG = logarithmic_potential(2.0)
IDENTITY_BETA = custom_potential(beta_hat_coeffs=[0, 0, 0.5], pi_hat_coeffs=[0])


class TestEvaluation:
    def test_regular_well_values(self):
        assert REG.F(0.0) == 0.25
        assert REG.F(1.0) == 0.0
        assert REG.F(-1.0) == 0.0

    def test_regular_first_derivative(self):
        # d/dr (r^2-1)^2/4 = r^3 - r, so F'(2) = 6.
        assert REG.F(2.0, order=1) == 6.0

    def test_logarithmic_vanishes_at_origin(self):
        assert LOG.F(0.0) == 0.0

    @pytest.mark.parametrize("spec", [REG, LOG, IDENTITY_BETA])
    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_match_central_differences(self, spec, order):
        rs = np.linspace(-0.85, 0.85, 9)
        d = 1e-6
        fd = (spec.F(rs + d, order - 1) - spec.F(rs - d, order - 1)) / (2 * d)
        exact = spec.F(rs, order)
        assert np.max(np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))) < 1e-6

    def test_split_reassembles_potential(self):
        rs = np.linspace(-0.9, 0.9, 21)
        for spec in (REG, LOG):
            beta_hat = spec.convex[0](rs)
            total = beta_hat + (spec.F(rs) - beta_hat)
            assert np.allclose(total, spec.F(rs), atol=1e-14)
            assert np.allclose(spec.beta(rs) + spec.pi(rs), spec.F(rs, 1), atol=1e-12)

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5, -2.0])
    def test_logarithmic_domain_guard(self, r):
        with pytest.raises(PotentialDomainError):
            LOG.F(r)

    def test_logarithmic_domain_guard_on_stacks(self):
        # A (K, n) stack is checked whole; the message names the first
        # offending value in C order, and a NaN beside one does not hide it.
        stack = np.array([[0.0] * 5, [0.0, 0.0, 1.0, 0.0, 0.0], [-1.5] + [0.0] * 4])
        with pytest.raises(PotentialDomainError, match=r"argument 1 outside"):
            LOG.F(stack)
        with pytest.raises(PotentialDomainError, match=r"argument 1\.5 outside"):
            LOG.F(np.array([[0.5, np.nan, 1.5]]))
        LOG.check_domain(np.full((2, 3), np.nan))  # left to the finiteness checks

    def test_regular_defined_everywhere(self):
        assert np.isfinite(REG.F(100.0))

    @pytest.mark.parametrize("order", [3, 4])
    def test_bad_order_rejected(self, order):
        with pytest.raises(ValueError, match="order must be 0..2"):
            REG.F(0.0, order=order)


def test_import_leaves_scipy_special_out():
    # The logarithmic potential is evaluated strictly inside (-1, 1), where
    # (1 +- r) log1p(+-r) needs no special function; importing the package
    # must not pay for loading scipy.special.
    src = str(Path(potentials.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, cho; assert 'scipy.special' not in sys.modules, 'loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("c1", [1.0, 0.5, float("nan")])
def test_logarithmic_rejects_c1_not_above_1(c1):
    with pytest.raises(ValidationError, match="c1 > 1"):
        logarithmic_potential(c1)


class TestCustomValidation:
    def test_beta_hat_must_vanish_at_zero(self):
        with pytest.raises(ValidationError):
            custom_potential([1.0, 0, 0.5], [0])

    def test_beta_must_be_monotone(self):
        with pytest.raises(ValidationError, match="nondecreasing"):
            custom_potential([0, 0, -1.0], [0])

    @pytest.mark.parametrize("beta_hat", [
        [0, 0, 550.0, -20.0, 0.25],     # beta'(20) = -100, outside [-10, 10]
        [0, 0, 15.0, 0.1],              # beta' = 30 + 0.6 r changes sign at -50
        [0, 0, 1.0, 0.0, -1e-9],        # beta' = 2 - 1.2e-8 r^2 < 0 for |r| > 12910
    ], ids=["cubic-far-dip", "quadratic", "negative-leading"])
    def test_beta_must_be_monotone_on_all_of_the_line(self, beta_hat):
        with pytest.raises(ValidationError, match="nondecreasing"):
            custom_potential(beta_hat, [0])

    @pytest.mark.parametrize("beta_hat", [
        [0, 0, 0.5, 1 / 6, 0.5],            # CUBIC: b2^2 = 0.25 <= 3 b1 b3 = 6
        [0, 0, 0.5],                        # IDENTITY_BETA and the quadratic beta_hat
        [0, 0, 0, 0, 0, 0, 1 / 6],          # the quintic: beta' = 5 r^4
        [0, 0, 0, 0, 0.25],                 # beta = r^3: b2^2 = 3 b1 b3 = 0
        [0, 0, 1.5, 1.0, 0.25],             # beta' = 3 (1 + r)^2, zero at -1
    ], ids=["cubic", "identity", "quintic", "regular", "touching"])
    def test_monotone_beta_is_accepted(self, beta_hat):
        assert custom_potential(beta_hat, [0]).kind == "custom"


class TestYosida:
    def test_fixed_point_at_zero(self):
        for eps in (0.9, 0.5, 1e-3):
            assert yosida_beta(REG, eps, 0.0) == 0.0
            assert yosida_hat(REG, eps, 0.0) == 0.0

    def test_identity_beta_closed_form(self):
        # beta = id: resolvent J = r/(1+eps), beta_eps = r/(1+eps).
        assert np.isclose(yosida_beta(IDENTITY_BETA, 0.5, 3.0), 2.0, atol=1e-11)
        rs = np.linspace(-4, 4, 11)
        assert np.allclose(
            yosida_beta(IDENTITY_BETA, 0.25, rs), rs / 1.25, atol=1e-11
        )
        assert np.allclose(
            yosida_hat(IDENTITY_BETA, 0.25, rs), rs**2 / (2 * 1.25), atol=1e-11
        )

    def test_dominated_by_beta_on_domain(self):
        rs = np.linspace(-0.95, 0.95, 41)
        for eps in (0.1, 0.01):
            assert np.all(np.abs(yosida_beta(LOG, eps, rs)) <= np.abs(LOG.beta(rs)) + 1e-12)

    def test_hat_sandwich(self):
        rs = np.linspace(-0.95, 0.95, 41)
        for eps in (0.3, 0.05):
            he = yosida_hat(LOG, eps, rs)
            assert np.all(he >= -1e-14)
            assert np.all(he <= LOG.convex[0](rs) + 1e-12)

    def test_defined_outside_singular_domain(self):
        # The regularization extends beyond (-1, 1).
        vals = yosida_beta(LOG, 0.1, np.array([-3.0, 1.5, 10.0]))
        assert np.all(np.isfinite(vals))

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.sampled_from([0.5, 0.1, 0.01]),
    )
    def test_monotone_and_lipschitz(self, a, b, eps):
        for spec in (REG, LOG):
            fa, fb = yosida_beta(spec, eps, a), yosida_beta(spec, eps, b)
            assert (fa - fb) * (a - b) >= -1e-12
            assert abs(fa - fb) <= abs(a - b) / eps + 1e-9

    def test_pointwise_convergence(self):
        rs = np.linspace(-0.8, 0.8, 17)
        for spec in (REG, LOG):
            errs = [
                np.abs(yosida_beta(spec, eps, rs) - spec.beta(rs)).max()
                for eps in (1e-1, 1e-2, 1e-3)
            ]
            assert errs[0] > errs[1] > errs[2]

    def test_derivative_consistency(self):
        rs = np.linspace(-2, 2, 9)
        d = 1e-6
        for spec, eps in ((REG, 0.2), (LOG, 0.05)):
            fd = (yosida_beta(spec, eps, rs + d) - yosida_beta(spec, eps, rs - d)) / (2 * d)
            assert np.allclose(yosida_dbeta(spec, eps, rs), fd, rtol=1e-5, atol=1e-7)

    def test_resolvent_identity(self):
        # For the singular potential keep r moderate: the resolvent of a
        # huge r sits closer to 1 than float64 can represent.
        for spec, eps, rs in (
            (REG, 0.3, np.linspace(-6, 6, 25)),
            (LOG, 0.07, np.linspace(-2.5, 2.5, 25)),
        ):
            J = resolvent(spec, eps, rs)
            assert np.allclose(J + eps * spec.beta(J), rs, rtol=1e-10, atol=1e-10)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            resolvent(REG, 1.5, 0.0)

    def test_resolvent_stops_on_a_bracket_end(self):
        # Here a Newton correction below the tolerance lands exactly on an
        # end of its bracket at several nodes; they stop there instead of
        # bisecting on to the iteration cap.
        spec = logarithmic_potential(2.0)
        calls = []
        dbeta = spec._dbeta
        spec._dbeta = lambda J: calls.append(J.size) or dbeta(J)
        rs = np.random.default_rng(0).uniform(-3.0, 3.0, 81)
        J = resolvent(spec, 0.1, rs)
        assert len(calls) <= 60
        # Bisection down to adjacent doubles; near +-1 the residual
        # J + eps beta(J) - r cannot be small, so compare values.
        lo = np.maximum(np.minimum(rs, 0.0), np.nextafter(-1.0, 0.0))
        hi = np.minimum(np.maximum(rs, 0.0), np.nextafter(1.0, 0.0))
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            g = mid + 0.1 * LOG.beta(mid) - rs
            lo, hi = np.where(g < 0.0, mid, lo), np.where(g > 0.0, mid, hi)
        assert np.all(np.abs(J) < 1.0)
        assert np.allclose(J, 0.5 * (lo + hi), rtol=potentials.RESOLVENT_RTOL, atol=0.0)

    def test_resolvent_cap_raises(self, monkeypatch):
        monkeypatch.setattr(potentials, "RESOLVENT_MAXITER", 2)
        with pytest.raises(SolverError, match="did not converge in 2 iterations"):
            resolvent(LOG, 0.1, np.linspace(-2.5, 2.5, 25))

    @pytest.mark.parametrize("subset", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (2, 1)])
    @pytest.mark.parametrize("spec", [REG, LOG])
    def test_derivative_subsets_are_the_full_triple(self, spec, subset):
        rs = np.random.default_rng(4).uniform(-2.0, 2.0, (3, 17))
        full = yosida_derivatives(spec, 0.05, rs)
        got = yosida_derivatives(spec, 0.05, rs, subset)
        assert len(got) == len(subset)
        assert all(np.array_equal(z, full[k]) for k, z in zip(subset, got))


# A custom potential with beta = J + 0.5 J^2 + 2 J^3, a cubic with b2 != 0.
CUBIC = custom_potential([0, 0, 0.5, 1 / 6, 0.5], [0])


class TestClosedFormResolvent:
    """A cubic beta starts the resolvent from its closed-form root; a node
    whose one Newton correction fails the loop's stopping rule, and every
    node of any other potential, takes the safeguarded loop."""

    @staticmethod
    def loop_sizes(monkeypatch):
        """The sizes of the node sets that take the safeguarded loop."""
        sizes = []
        loop = potentials._safeguarded
        monkeypatch.setattr(potentials, "_safeguarded",
                            lambda spec, eps, r: sizes.append(r.size) or loop(spec, eps, r))
        return sizes

    def test_coefficients(self):
        assert REG.cubic == (0.0, 0.0, 1.0)
        assert CUBIC.cubic == (1.0, 0.5, 2.0)
        assert IDENTITY_BETA.cubic == (1.0, 0.0, 0.0)
        assert LOG.cubic is None
        assert custom_potential([0, 0, 0, 0, 0, 0, 1 / 6], [0]).cubic is None
        # beta = 30 J + 0.3 J^2 and a cubic with p <= 0 have no closed form.
        assert potentials._cubic_root((30.0, 0.3, 0.0), 0.1, np.ones(3)) is None
        assert potentials._cubic_root((1100.0, -60.0, 1.0), 0.5, np.ones(3)) is None

    @pytest.mark.parametrize("spec", [REG, CUBIC, IDENTITY_BETA], ids=["regular", "cubic", "linear"])
    @pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-3, 1e-6])
    def test_every_node_passes_the_check(self, monkeypatch, spec, eps):
        # Magnitudes from 1e-12 to 1e3, both signs.
        rng = np.random.default_rng(6)
        rs = rng.uniform(-1e3, 1e3, 400) * 10.0 ** rng.uniform(-12.0, 0.0, 400)
        sizes = self.loop_sizes(monkeypatch)
        J = resolvent(spec, eps, rs)
        assert sizes == []
        loop = potentials._safeguarded(spec, eps, rs)
        assert np.all(np.abs(J - loop) <= RESOLVENT_RTOL * np.maximum(1.0, np.abs(loop)))

    @pytest.mark.parametrize("spec", [REG, CUBIC], ids=["regular", "cubic"])
    def test_a_perturbed_seed_takes_the_loop(self, monkeypatch, spec):
        # A root off by a relative 1e-9 passes the check on no node, and the
        # loop gives every value.
        rng = np.random.default_rng(7)
        rs = rng.choice([-1.0, 1.0], 81) * rng.uniform(0.01, 3.0, 81)
        root = potentials._cubic_root
        monkeypatch.setattr(potentials, "_cubic_root",
                            lambda *args: root(*args) * (1.0 + 1e-9))
        sizes = self.loop_sizes(monkeypatch)
        J = resolvent(spec, 0.1, rs)
        assert sizes == [rs.size]
        assert np.array_equal(J, potentials._safeguarded(spec, 0.1, rs))

    def test_a_correction_off_its_bracket_takes_the_loop(self, monkeypatch):
        # At r = 0 a root off by an absolute 1e-13 passes the step test,
        # but its correction lands an ulp off 0, outside the bracket [0, 0],
        # on some nodes; the loop gives them exactly 0.
        root = potentials._cubic_root
        offsets = np.random.default_rng(8).uniform(-1e-13, 1e-13, 81)
        monkeypatch.setattr(potentials, "_cubic_root", lambda *args: root(*args) + offsets)
        sizes = self.loop_sizes(monkeypatch)
        J = resolvent(CUBIC, 0.1, np.zeros(81))
        assert sizes and 0 < sizes[0] < 81
        assert np.array_equal(J, np.zeros(81))

    @pytest.mark.parametrize("spec", [
        LOG,
        unchecked_custom([0, 0, 550.0, -20.0, 0.25]),   # p <= 0 at eps = 0.5
        custom_potential([0, 0, 0, 0, 0, 0, 1 / 6], [0]),
    ], ids=["logarithmic", "cubic-p<=0", "quintic"])
    def test_outside_the_closed_form_is_the_loop(self, monkeypatch, spec):
        rs = np.random.default_rng(9).uniform(-3.0, 3.0, 81)
        sizes = self.loop_sizes(monkeypatch)
        J = resolvent(spec, 0.5, rs)
        assert sizes == [rs.size]
        assert np.array_equal(J, potentials._safeguarded(spec, 0.5, rs))


class TestMeanValueCondition:
    """``require_mean_value`` on an 8-cell interval problem, logarithmic
    unless stated; constant data of value m0 have mean m0."""

    @staticmethod
    def check(m0, M, gamma=1.0, kind="logarithmic"):
        problem = make_problem(n_cells=8, gamma=gamma, kind=kind)
        require_mean_value(problem, PairField.constant(problem.mesh, m0), M)

    def test_logarithmic_pass(self):
        self.check(m0=0.0, M=0.5)

    @pytest.mark.parametrize("m0,endpoint", [(0.6, "upper endpoint 1.1"),
                                             (-0.6, "lower endpoint -1.1")])
    def test_logarithmic_fail_reports_endpoint(self, m0, endpoint):
        with pytest.raises(ValidationError, match=f"mean-value condition fails: {endpoint} "
                           r"not inside int D = \(-1, 1\)"):
            self.check(m0=m0, M=0.5)

    def test_zero_gamma(self):
        # rho = 0 without sources, rho = inf with any.
        self.check(m0=0.5, M=0.0, gamma=0.0)
        with pytest.raises(ValidationError, match="lower endpoint -inf "):
            self.check(m0=0.0, M=0.1, gamma=0.0)

    def test_unbounded_always_passes(self):
        self.check(m0=100.0, M=50.0, gamma=0.1, kind="regular")


class TestSeparationThreshold:
    def test_matches_independent_bisection(self):
        # Oracle: with c1 = 2 and N = 0 the threshold is the positive root
        # of log((1+r)/(1-r)) = 4r, located by plain bisection.
        lo, hi = 0.5, 0.999999
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.log((1 + mid) / (1 - mid)) - 4 * mid >= 0:
                hi = mid
            else:
                lo = mid
        oracle = hi
        pair = PotentialPair.same(LOG)
        r0 = separation_r0(pair, N=0.0, phi0_sup=0.1)
        assert abs(r0 - oracle) < 1e-6

    def test_exists_near_one(self):
        pair = PotentialPair.same(LOG)
        r0 = separation_r0(pair, N=0.0, phi0_sup=0.999)
        assert 0.999 <= r0 < 1.0

    def test_regular_not_applicable(self):
        assert separation_r0(PotentialPair.same(REG), N=1.0, phi0_sup=0.5) is None

    def test_rejects_phi0_sup_at_one(self):
        with pytest.raises(ValidationError):
            separation_r0(PotentialPair.same(LOG), N=0.0, phi0_sup=1.0)

    def test_threshold_grows_with_mu_bound(self):
        pair = PotentialPair.same(LOG)
        r_small = separation_r0(pair, N=0.5, phi0_sup=0.2)
        r_large = separation_r0(pair, N=5.0, phi0_sup=0.2)
        assert 0.2 <= r_small < r_large < 1.0

    def test_scan_reaches_the_last_double_below_one(self):
        # F' of the c1 = 2 potential is 24.3 at 1 - 1e-12 and 33.4 at the
        # largest double below 1: a bound of 26.4 has its threshold between.
        N = 26.4
        r0 = separation_r0(PotentialPair.same(LOG), N=N, phi0_sup=0.3)
        assert 1.0 - 1e-12 < r0 < 1.0
        assert LOG.F(r0, 1) >= N and LOG.F(-r0, 1) <= -N

    def test_threshold_above_every_double_reads_one(self):
        # Both derivatives diverge at +-1, so a bound beyond F' at the last
        # double below 1 puts the threshold above every double below 1.
        assert LOG.F(np.nextafter(1.0, 0.0), 1) < 40.0
        assert separation_r0(PotentialPair.same(LOG), N=40.0, phi0_sup=0.3) == 1.0

    def test_regular_bulk_with_logarithmic_boundary_raises(self):
        # F' of the regular bulk stays near 0 up to 1, so no threshold exists.
        with pytest.raises(ValidationError, match="no separation threshold"):
            separation_r0(PotentialPair(bulk=REG, boundary=LOG), N=1.0, phi0_sup=0.3)


class TestPotentialPair:
    def test_mixed_kind_allowed_when_domains_nest(self):
        assert PotentialPair(bulk=REG, boundary=LOG).bounded

    def test_domain_inclusion_enforced(self):
        with pytest.raises(ValidationError, match="contained"):
            PotentialPair(bulk=LOG, boundary=REG)
