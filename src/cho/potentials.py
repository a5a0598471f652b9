"""Double-well potential library.

Every potential is stored as its split F = beta_hat + pi_hat alone: a
convex part (beta_hat, with monotone derivative beta) and a smooth
concave perturbation (pi_hat, derivative pi), each through order 2; F
and its derivatives are their sums.  Shipped kinds:

* ``regular``      F(r) = (r^2 - 1)^2 / 4 on all of R,
* ``logarithmic``  F(r) = (1+r)ln(1+r) + (1-r)ln(1-r) - c1 r^2 on (-1, 1),
* ``custom``       polynomial coefficients for beta_hat and pi_hat.

Out-of-domain arguments raise; the caller, not this module, is
responsible for keeping iterates interior.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PotentialDomainError, SolverError, ValidationError


class PotentialSpec:
    """One double-well potential F = beta_hat + pi_hat.

    Parameters
    ----------
    kind : str
        'regular', 'logarithmic' or 'custom'.
    bounded : bool
        Whether F is finite on D = (-1, 1) only, not on all of R.
    convex : 3 callables
        Vectorized evaluators of beta_hat, beta and beta'.
    perturbation : 3 callables
        Vectorized evaluators of pi_hat, pi and pi', smooth on all of R;
        a constant derivative may return a scalar.
    cubic : (b1, b2, b3) or None
        The coefficients of beta(r) = b1 r + b2 r^2 + b3 r^3 when beta is
        a polynomial of degree <= 3; the Yosida resolvent then starts
        from the closed-form root of the cubic (see ``resolvent``).
    """

    def __init__(self, kind, bounded, convex, perturbation, cubic=None):
        self.kind = kind
        self.bounded = bounded
        self.convex = tuple(convex)
        self.perturbation = tuple(perturbation)
        self.cubic = cubic
        self._beta, self._dbeta = self.convex[1:]

    def check_domain(self, r):
        """Raise unless every value is strictly inside D; a NaN passes,
        for the caller's finiteness check to name."""
        if not self.bounded:
            return
        outside = np.abs(r) >= 1.0
        if outside.any():
            raise PotentialDomainError(
                f"argument {float(np.asarray(r)[outside][0]):.6g} outside the open "
                f"domain (-1, 1) of the {self.kind} potential"
            )

    def F(self, r, order: int = 0):
        """Value of the order-th derivative of F, domain-checked."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0..2, got {order}")
        self.check_domain(r)
        r = np.asarray(r, dtype=float)
        return self.convex[order](r) + self.perturbation[order](r)

    def beta(self, r):
        self.check_domain(r)
        return self.convex[1](np.asarray(r, dtype=float))

    def dbeta(self, r):
        self.check_domain(r)
        return self.convex[2](np.asarray(r, dtype=float))

    def pi(self, r):
        return self.perturbation[1](np.asarray(r, dtype=float))

    def dpi(self, r):
        return np.broadcast_to(self.perturbation[2](np.asarray(r, dtype=float)), np.shape(r))


def regular_potential() -> PotentialSpec:
    """Classical quartic double well, beta_hat = r^4/4, pi_hat = 1/4 - r^2/2."""
    # Products, not np.power, which calls libm pow per element: about 50
    # times slower on a large array.
    convex = (lambda r: 0.25 * (r * r) ** 2, lambda r: r * r * r, lambda r: 3.0 * r * r)
    perturbation = (lambda r: 0.25 - 0.5 * (r * r), lambda r: -r, lambda r: -1.0)
    return PotentialSpec("regular", False, convex, perturbation, cubic=(0.0, 0.0, 1.0))


def logarithmic_potential(c1: float = 2.0) -> PotentialSpec:
    """Logarithmic double well on (-1, 1); nonconvex for c1 > 1.  Evaluated
    strictly inside (-1, 1), where (1 +- r) log1p(+-r) is exact to round-off."""
    if not 1.0 < c1 < math.inf:
        raise ValidationError(f"logarithmic potential needs c1 > 1 and finite, got {c1}")
    convex = (lambda r: (1.0 + r) * np.log1p(r) + (1.0 - r) * np.log1p(-r),
              lambda r: np.log1p(r) - np.log1p(-r), lambda r: 2.0 / (1.0 - r * r))
    perturbation = (lambda r: -c1 * (r * r), lambda r: -2.0 * c1 * r, lambda r: -2.0 * c1)
    return PotentialSpec("logarithmic", True, convex, perturbation)


def custom_potential(beta_hat_coeffs, pi_hat_coeffs) -> PotentialSpec:
    """Polynomial potential from coefficient lists (ascending powers).

    beta_hat must vanish at 0 and have a derivative beta nondecreasing on
    all of R; both are validated at construction.  The monotonicity test
    is exact on the polynomial beta': it must be a nonnegative constant,
    or of even degree with a positive leading coefficient and at least
    -1e-12 sum_k |c_k| |r|^k, the size of its terms c_k r^k, at every
    critical point r.  For deg beta <= 3, beta = b1 r + b2 r^2 + b3 r^3,
    this reads b3 > 0 and b2^2 <= 3 b1 b3 (to that tolerance), or b3 = b2
    = 0 <= b1; a beta_hat of odd degree >= 3 is never accepted.
    """
    bh = np.polynomial.Polynomial(np.asarray(beta_hat_coeffs, dtype=float))
    ph = np.polynomial.Polynomial(np.asarray(pi_hat_coeffs, dtype=float))
    if not (np.all(np.isfinite(bh.coef)) and np.all(np.isfinite(ph.coef))):
        raise ValidationError("custom potential coefficients must be finite")
    if abs(bh(0.0)) > 1e-14:
        raise ValidationError("beta_hat must satisfy beta_hat(0) = 0")
    beta = bh.deriv()
    if abs(beta(0.0)) > 1e-14:
        raise ValidationError("beta must satisfy beta(0) = 0")
    slope = beta.deriv().trim()
    c = slope.coef
    if slope.degree() == 0:
        monotone = c[0] >= 0.0
    else:
        # The real parts of every critical point: the minimum of beta' is
        # at one of them, and each is a real point where beta' >= 0.
        r = slope.deriv().roots().real
        size = np.polynomial.Polynomial(np.abs(c))(np.abs(r))
        monotone = (slope.degree() % 2 == 0 and c[-1] > 0.0
                    and np.all(slope(r) >= -1e-12 * size))
    if not monotone:
        raise ValidationError("beta = beta_hat' must be nondecreasing")
    b = beta.coef
    cubic = tuple(np.pad(b, (0, 4 - b.size))[1:].tolist()) if b.size <= 4 else None
    return PotentialSpec("custom", False, [bh.deriv(k) for k in range(3)],
                         [ph.deriv(k) for k in range(3)], cubic)


# ---------------------------------------------------------------------------
# Yosida regularization
# ---------------------------------------------------------------------------

RESOLVENT_RTOL = 1e-12
RESOLVENT_MAXITER = 200


def resolvent(spec: PotentialSpec, eps: float, r):
    """Solve J + eps * beta(J) = r for J, vectorized.

    Defined for every real r, also outside D: the solution J always lies
    strictly inside D.  Safeguarded Newton with a bisection fallback from
    the bracket [min(r, 0), max(r, 0)] on the nodes not yet converged.  A
    node stops when a Newton correction below the relative tolerance 1e-12
    lands inside its bracket or on one of its ends; a node still moving
    after ``RESOLVENT_MAXITER`` iterations raises ``SolverError``.  A cubic
    beta with r + eps beta(r) increasing on all of R (``PotentialSpec.cubic``)
    first takes one Newton correction from its closed-form root; the
    nodes whose correction meets that stopping rule are done.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    r = np.asarray(r, dtype=float)
    shape = r.shape
    r = r.ravel()
    # A root that overflows near the largest doubles fails the check
    # silently; the bracket is finite where r is, so a J inside it is too.
    with np.errstate(all="ignore"):
        x = _cubic_root(spec.cubic, eps, r) if spec.cubic else None
        if x is not None:
            step = (x + eps * spec._beta(x) - r) / (1.0 + eps * spec._dbeta(x))
            J = x - step
            done = ((np.abs(step) <= RESOLVENT_RTOL * np.maximum(1.0, np.abs(x)))
                    & (J >= np.minimum(r, 0.0)) & (J <= np.maximum(r, 0.0)))
    if x is None:
        J = _safeguarded(spec, eps, r)
    elif not done.all():
        idx = np.flatnonzero(~done)
        J[idx] = _safeguarded(spec, eps, r[idx])
    return J.reshape(shape) if shape else float(J[0])


def _cubic_root(cubic, eps, r):
    """The one real root of J + eps (b1 J + b2 J^2 + b3 J^3) = r, or None
    unless the left side increases on all of R and is linear or cubic.

    Divided by eps b3 and shifted by J = t - b2/(3 b3), the cubic reads
    t^3 + p t + q = 0; with p > 0 its root is Cardano's in Viete's
    hyperbolic form, t = 2 sqrt(p/3) sinh(arsinh(-(q/2)(3/p)^(3/2))/3)."""
    b1, b2, b3 = cubic
    if b3 == 0.0:
        return r / (1.0 + eps * b1) if b2 == 0.0 else None
    a, c = b2 / b3, (1.0 + eps * b1) / (eps * b3)
    p = c - a * a / 3.0
    if not (b3 > 0.0 and p > 0.0):
        return None
    # -(q/2)(3/p)^(3/2) = k r - k0 with q = a (2a^2/9 - c)/3 - r/(eps b3).
    scale = 0.5 * (3.0 / p) ** 1.5
    k, k0 = scale / (eps * b3), scale * a * (2.0 * a * a / 9.0 - c) / 3.0
    return 2.0 * math.sqrt(p / 3.0) * np.sinh(np.arcsinh(k * r - k0) / 3.0) - a / 3.0


def _safeguarded(spec, eps, r):
    """The safeguarded Newton loop of ``resolvent`` on a flat array r."""
    lo = np.minimum(r, 0.0)
    hi = np.maximum(r, 0.0)
    if spec.bounded:
        lo = np.maximum(lo, np.nextafter(-1.0, 0.0))
        hi = np.minimum(hi, np.nextafter(1.0, 0.0))

    glo = lo + eps * spec._beta(lo) - r
    ghi = hi + eps * spec._beta(hi) - r
    J = np.where(glo >= 0.0, lo, np.where(ghi <= 0.0, hi, 0.5 * (lo + hi)))
    # Newton runs on the compacted active nodes only; ``idx`` maps them
    # back into J.
    idx = np.flatnonzero((glo < 0.0) & (ghi > 0.0))
    x, r, lo, hi = J[idx], r[idx], lo[idx], hi[idx]
    for _ in range(RESOLVENT_MAXITER):
        if not idx.size:
            break
        gx = x + eps * spec._beta(x) - r
        lo = np.where(gx < 0.0, x, lo)
        hi = np.where(gx > 0.0, x, hi)
        step = -gx / (1.0 + eps * spec._dbeta(x))
        x_newton = x + step
        inside = (x_newton > lo) & (x_newton < hi)
        # The correction size measures the error in J; a small correction
        # that lands on an end of the bracket has converged as well.
        small = np.abs(step) <= RESOLVENT_RTOL * np.maximum(1.0, np.abs(x))
        converged = small & (x_newton >= lo) & (x_newton <= hi)
        x = np.where(inside | converged, x_newton, 0.5 * (lo + hi))
        if converged.any():
            J[idx[converged]] = x[converged]
            keep = ~converged
            idx, x, r, lo, hi = idx[keep], x[keep], r[keep], lo[keep], hi[keep]
    if idx.size:
        raise SolverError(
            f"Yosida resolvent did not converge in {RESOLVENT_MAXITER} iterations "
            f"at {idx.size} nodes (first r = {float(r[0]):.6g})"
        )
    return J


def yosida_derivatives(spec: PotentialSpec, eps: float, r, orders=(0, 1, 2)):
    """The given orders (0 to 2) of the Moreau envelope of beta_hat from
    one resolvent J = J_eps(r): the envelope |r - J|^2/(2 eps) +
    beta_hat(J), its derivative beta_eps(r) = (r - J)/eps and beta_eps'(r)
    = beta'(J)/(1 + eps beta'(J)) <= 1/eps.  Only the orders asked for are
    evaluated."""
    r = np.asarray(r, dtype=float)
    J = resolvent(spec, eps, r)
    d = r - J

    def part(k):
        if k == 0:
            return d * d / (2.0 * eps) + spec.convex[0](J)
        if k == 1:
            return d / eps
        dB = spec._dbeta(J)
        return dB / (1.0 + eps * dB)

    return tuple(part(k) for k in orders)


def yosida_beta(spec: PotentialSpec, eps: float, r):
    """Yosida approximation beta_eps(r) = (r - J_eps(r)) / eps."""
    return yosida_derivatives(spec, eps, r, (1,))[0]


def yosida_dbeta(spec: PotentialSpec, eps: float, r):
    """Derivative of beta_eps; see ``yosida_derivatives``."""
    return yosida_derivatives(spec, eps, r, (2,))[0]


def yosida_hat(spec: PotentialSpec, eps: float, r):
    """Moreau envelope of beta_hat: |r - J|^2/(2 eps) + beta_hat(J)."""
    return yosida_derivatives(spec, eps, r, (0,))[0]


# ---------------------------------------------------------------------------
# Structural validators
# ---------------------------------------------------------------------------

@dataclass
class PotentialPair:
    """Bulk and boundary potentials; construction verifies that
    D(beta_boundary) is contained in D(beta_bulk): a bounded bulk
    potential needs a bounded boundary one."""

    bulk: PotentialSpec
    boundary: PotentialSpec

    def __post_init__(self):
        if self.bulk.bounded and not self.boundary.bounded:
            raise ValidationError(
                "boundary potential domain must be contained in the bulk one: "
                "(-inf, inf) vs (-1, 1)"
            )

    @property
    def bounded(self) -> bool:
        return self.boundary.bounded

    @classmethod
    def same(cls, spec: PotentialSpec) -> "PotentialPair":
        """Use one potential for both bulk and boundary."""
        return cls(spec, spec)


SEPARATION_GRID = 8193


def separation_r0(pair: PotentialPair, N: float, phi0_sup: float):
    """Smallest threshold r0 in [phi0_sup, 1] beyond which both derivatives
    dominate +-N, or None when the domain is all of R (separation is then
    automatic from boundedness).

    Requires F'(r) >= N and F_Gamma'(r) >= N on [r0, 1) together with
    F'(r) <= -N and F_Gamma'(r) <= -N on (-1, -r0].  When no double below
    1 qualifies, r0 is 1.0 if both potentials are bounded, since both
    derivatives then diverge at +-1; otherwise ``ValidationError`` is raised.
    """
    if not pair.bounded:
        return None
    if phi0_sup >= 1.0:
        raise ValidationError(f"phi0_sup must be < 1, got {phi0_sup}")
    if N < 0.0:
        raise ValueError(f"N must be nonnegative, got {N}")

    start = max(phi0_sup, 0.0)
    grid = np.linspace(start, np.nextafter(1.0, 0.0), SEPARATION_GRID)

    def margins(r):
        """The smaller derivative at r and the larger at -r."""
        return (np.minimum(pair.bulk.F(r, 1), pair.boundary.F(r, 1)),
                np.maximum(pair.bulk.F(-r, 1), pair.boundary.F(-r, 1)))

    right, left = margins(grid)
    # Suffix conditions: every grid point at or beyond index k qualifies.
    right_ok = np.minimum.accumulate(right[::-1])[::-1] >= N
    left_ok = np.maximum.accumulate(left[::-1])[::-1] <= -N
    both = right_ok & left_ok
    if not both.any():
        if pair.bulk.bounded:
            return 1.0
        raise ValidationError(
            f"no separation threshold below 1 found for N = {N:g}"
        )
    k = int(np.argmax(both))
    if k == 0:
        return float(grid[0])
    # Refine the crossing between the last failing and first passing node.
    a, b = float(grid[k - 1]), float(grid[k])
    for _ in range(60):
        mid = 0.5 * (a + b)
        right, left = margins(mid)
        if right >= N and left <= -N:
            b = mid
        else:
            a = mid
    return b
