"""Differential-operator realization of the planar Euclidean algebra on
cylindrical functions, with a self-contained Bessel evaluator.

The mixed basis functions are J_n(r) e^{i n phi}; finite spans of them are
closed under the ladder operators, which makes every identity in the catalog
a statement the ascending series can check numerically.

The evaluator sums the ascending series in exact rational arithmetic (the
real and imaginary parts of a float argument are dyadic rationals) and
rounds once at the end.  Naive float accumulation would lose ~10 digits to
cancellation near |z| = MAX_ABS_Z; here the emitted value carries only the
final rounding, at any integer order, so identity residuals sit at machine
level up to |z| = MAX_ABS_Z.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import BranchAmbiguityError, EnvelopeError
from .numeric import ensure_finite

_FRAC_ZERO = Fraction(0)
_FRAC_ONE = Fraction(1)

#: the series stops once every new term is below this fraction of its sum
REL_TOL = 1e-16
#: largest |z| the evaluator accepts
MAX_ABS_Z = 30.0

#: the (n, r) envelope of verify_bessel_identity
IDENTITY_MAX_ORDER = 10
IDENTITY_MIN_R = 0.1
IDENTITY_MAX_R = 20.0


# ---------------------------------------------------------------------------
# exact complex-rational helpers (internal)
# ---------------------------------------------------------------------------

def _c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_scale(a, s):
    return (a[0] * s, a[1] * s)


def _c_abs2(a) -> float:
    return float(a[0] * a[0] + a[1] * a[1])


def _c_to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


# ---------------------------------------------------------------------------
# Bessel evaluator
# ---------------------------------------------------------------------------

class BesselEval:
    """Ascending-series evaluator for integer-order Bessel functions.

    Terms are accumulated as exact complex rationals; the stopping rule is
    the relative tolerance :data:`REL_TOL` with at least ``n`` terms taken,
    and at most ``max_terms`` more.  Every integer order is accepted: exact
    summation rounds once, whatever the order.  Negative orders are
    defined by the reflection J_{-n} = (-1)^n J_n.
    First and second derivatives come from differentiating the series term
    by term, independent of the ladder identities they are used to check.
    """

    def __init__(self, max_terms: int = 200):
        if max_terms < 1:
            raise ValueError("max_terms must be positive")
        self.max_terms = max_terms
        self._cache: dict = {}

    # -- public surface ----------------------------------------------------

    def j(self, n: int, z: complex) -> complex:
        """J_n(z)."""
        return self.derivatives(n, z)[0]

    def derivatives(self, n: int, z: complex) -> tuple[complex, complex, complex]:
        """(J_n, J_n', J_n'') at z."""
        z = complex(z)
        if abs(z) > MAX_ABS_Z:
            raise EnvelopeError(f"|z| = {abs(z):.3g} above {MAX_ABS_Z}")
        sign = 1
        if n < 0:
            n, sign = -n, (-1) ** n
        key = (n, z)
        if key not in self._cache:
            self._cache[key] = self._series(n, z)
        j0, j1, j2 = self._cache[key]
        return (sign * j0, sign * j1, sign * j2)

    # -- series core ---------------------------------------------------------

    def _series(self, n: int, z: complex) -> tuple[complex, complex, complex]:
        w = (Fraction(z.real) / 2, Fraction(z.imag) / 2)

        # powers of z/2, built incrementally and shared by the three sums
        pows = [(_FRAC_ONE, _FRAC_ZERO)]

        def power(e: int):
            while len(pows) <= e:
                pows.append(_c_mul(pows[-1], w))
            return pows[e]

        tol2 = REL_TOL * REL_TOL

        def small(term, total) -> bool:
            if term is None:
                return True
            t_mag = _c_abs2(term)
            return t_mag == 0.0 or t_mag < tol2 * _c_abs2(total)

        s0 = s1 = s2 = (_FRAC_ZERO, _FRAC_ZERO)
        # rational prefactor (-1)^k / (k! (n+k)!)
        coeff = Fraction(1, math.factorial(n))
        k = 0
        while True:
            m = n + 2 * k
            t0 = _c_scale(power(m), coeff)
            s0 = _c_add(s0, t0)
            t1 = t2 = None
            if m >= 1:
                t1 = _c_scale(power(m - 1), coeff * Fraction(m, 2))
                s1 = _c_add(s1, t1)
            if m >= 2:
                t2 = _c_scale(power(m - 2), coeff * Fraction(m * (m - 1), 4))
                s2 = _c_add(s2, t2)
            if k + 1 >= max(n, 2) and small(t0, s0) and small(t1, s1) and small(t2, s2):
                break
            k += 1
            if k >= n + self.max_terms:
                raise EnvelopeError(
                    f"series for J_{n}({z}) did not converge in {k} terms")
            coeff = -coeff / (k * (n + k))

        return (ensure_finite(_c_to_complex(s0)),
                ensure_finite(_c_to_complex(s1)),
                ensure_finite(_c_to_complex(s2)))


def find_j0_root(evaluator: BesselEval, lo: float = 2.0, hi: float = 3.0,
                 tol: float = 1e-13) -> float:
    """Bisection root of J_0 on [lo, hi] using the same series it tests."""
    f_lo = evaluator.j(0, lo).real
    f_hi = evaluator.j(0, hi).real
    if f_lo * f_hi > 0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = evaluator.j(0, mid).real
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# cylindrical functions and ladder action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylTerm:
    """coeff * e^{i n phi} * J_n(r)."""

    order: int
    coeff: complex


class CylFunc:
    """Finite span of mixed basis functions, closed under the polar operators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[CylTerm]):
        merged: dict[int, complex] = {}
        for term in terms:
            merged[term.order] = merged.get(term.order, 0j) + complex(term.coeff)
        cleaned = tuple(CylTerm(n, c) for n, c in sorted(merged.items())
                        if c != 0)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("CylFunc is immutable")

    @classmethod
    def basis(cls, order: int, coeff: complex = 1.0) -> "CylFunc":
        return cls([CylTerm(order, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, r: float, phi: float, evaluator: BesselEval) -> complex:
        total = 0j
        for term in self.terms:
            total += (term.coeff * evaluator.j(term.order, r)
                      * cmath.exp(1j * term.order * phi))
        return total

    def __eq__(self, other):
        if not isinstance(other, CylFunc):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"CylFunc({list(self.terms)!r})"


def apply_polar_op(op: str, f: CylFunc) -> CylFunc:
    """Algebraic action on the span: the rotation generator scales a term by
    its order; raising/lowering shift the order by one and flip the sign."""
    if op == "lz":
        return CylFunc(CylTerm(t.order, t.order * t.coeff) for t in f.terms)
    if op == "raise":
        return CylFunc(CylTerm(t.order + 1, -t.coeff) for t in f.terms)
    if op == "lower":
        return CylFunc(CylTerm(t.order - 1, -t.coeff) for t in f.terms)
    raise ValueError(f"unknown polar operator {op!r}")


def polar_numeric_crosscheck(op: str, n: int, r: float, phi: float,
                             evaluator: BesselEval | None = None,
                             step: float = 1e-5) -> float:
    """Difference between the ladder action computed algebraically and the
    same operator e^{+-i phi}(+-d/dr + (i/r) d/dphi) applied by central
    finite differences to J_n(r) e^{i n phi}."""
    if op not in ("raise", "lower"):
        raise ValueError("crosscheck applies to the raising/lowering operators")
    if r < 0.2:
        raise EnvelopeError("r below the coordinate-singularity cutoff 0.2")
    ev = evaluator or BesselEval()
    sign = 1 if op == "raise" else -1

    def f(rr: float, pp: float) -> complex:
        return ev.j(n, rr) * cmath.exp(1j * n * pp)

    df_dr = (f(r + step, phi) - f(r - step, phi)) / (2 * step)
    df_dphi = (f(r, phi + step) - f(r, phi - step)) / (2 * step)
    numeric = cmath.exp(sign * 1j * phi) * (sign * df_dr + 1j / r * df_dphi)
    algebraic = apply_polar_op(op, CylFunc.basis(n)).evaluate(r, phi, ev)
    return abs(numeric - algebraic)


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

BESSEL_IDENTITIES = ("ode_A6", "recursion_A7", "diffrel_A8",
                     "diffrel_A9", "diffrel_A10")


def verify_bessel_identity(which: str, n: int, r: float,
                           evaluator: BesselEval | None = None) -> float:
    """Absolute residual of one cataloged Bessel identity at (n, r)."""
    if not IDENTITY_MIN_R <= r <= IDENTITY_MAX_R:
        raise EnvelopeError(
            f"r outside [{IDENTITY_MIN_R}, {IDENTITY_MAX_R}]")
    if abs(n) > IDENTITY_MAX_ORDER:
        raise EnvelopeError(f"|n| above {IDENTITY_MAX_ORDER}")
    ev = evaluator or BesselEval()
    j, jp, jpp = ev.derivatives(n, r)
    j, jp, jpp = j.real, jp.real, jpp.real
    j_down = ev.j(n - 1, r).real
    j_up = ev.j(n + 1, r).real
    if which == "ode_A6":
        return abs(jpp + jp / r + (1 - n * n / (r * r)) * j)
    if which == "recursion_A7":
        return abs(2 * n / r * j - j_down - j_up)
    if which == "diffrel_A8":
        return abs(jp - n / r * j + j_up)
    if which == "diffrel_A9":
        return abs(-jp - n / r * j + j_down)
    if which == "diffrel_A10":
        return abs(2 * jp - j_down + j_up)
    raise ValueError(f"unknown identity {which!r}")


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def _series_side(n: int, r: float, phi: float, t: complex, terms: int,
                 evaluator: BesselEval) -> complex:
    """sum_{m<terms} (-1)^m t^m / m! e^{i(n+m)phi} J_{n+m}(r)."""
    total = 0j
    factor = 1.0 + 0j
    for m in range(terms):
        if m:
            factor *= -t / m
        total += factor * cmath.exp(1j * (n + m) * phi) * evaluator.j(n + m, r)
    return total


def _genfunc_guards(r: float, t: complex, terms: int):
    if abs(t) > 0.5:
        raise EnvelopeError("|t| above 0.5")
    if not 0.5 <= r <= 10:
        raise EnvelopeError("r outside [0.5, 10]")
    if terms < 30:
        raise EnvelopeError("truncation must keep at least 30 terms")


def genfunc_a11_check(n: int, r: float, phi: float, t: complex,
                      terms: int = 30,
                      evaluator: BesselEval | None = None) -> float:
    """Residual of the raising-exponential generating identity (catalog A.11).

    The right side expands exp(t * raising) across the discrete basis, in
    the normalization where raising acts as -1 on a basis function.  The
    same group element realized as a shift of the plane sends the argument
    to u = sqrt(r^2 + 2 t r e^{i phi}) (principal root) and scales the
    radial part by (r/u)^n, because the angular factor (x + iy)^n is
    invariant under that shift:

        e^{i n phi} (r/u)^n J_n(u)
            = sum_m (-1)^m t^m / m! e^{i(n+m) phi} J_{n+m}(r).

    A widespread looser rendering of this identity drops the radial
    prefactor and carries the shift parameter in the other ladder
    normalization (t -> it, radicand r^2 + 2t(ix - y)); that variant does
    not hold as an identity and is only recorded, by
    :func:`genfunc_a11_literal_diagnostic`.
    """
    t = complex(t)
    _genfunc_guards(r, t, terms)
    ev = evaluator or BesselEval()
    radicand = r * r + 2 * t * r * cmath.exp(1j * phi)
    if radicand.real <= 0:
        raise BranchAmbiguityError(
            f"radicand {radicand} leaves the right half-plane")
    u = cmath.sqrt(radicand)
    lhs = cmath.exp(1j * n * phi) * (r / u) ** n * ev.j(n, u)
    rhs = _series_side(n, r, phi, t, terms, ev)
    return abs(lhs - rhs)


def genfunc_a11_literal_diagnostic(n: int, r: float, phi: float, t: complex,
                                   terms: int = 30,
                                   evaluator: BesselEval | None = None) -> dict:
    """Recorded-only residuals for the loose rendering of catalog entry A.11,
    e^{i n phi} J_n(sqrt(r^2 + 2t(ix - y))) with x = r cos phi,
    y = r sin phi, against the same ladder expansion; the consistent form's
    residual is reported next to it for contrast.  Never gated.
    """
    t = complex(t)
    _genfunc_guards(r, t, terms)
    ev = evaluator or BesselEval()
    x = r * math.cos(phi)
    y = r * math.sin(phi)
    radicand = r * r + 2 * t * (1j * x - y)
    if radicand.real <= 0:
        raise BranchAmbiguityError(
            f"radicand {radicand} leaves the right half-plane")
    u = cmath.sqrt(radicand)
    lhs = cmath.exp(1j * n * phi) * ev.j(n, u)
    rhs = _series_side(n, r, phi, t, terms, ev)
    return {
        "residual_literal_form": abs(lhs - rhs),
        "residual_consistent_form": genfunc_a11_check(n, r, phi, t, terms, ev),
    }


def genfunc_a12_diagnostic(n: int, r: float, phi: float, t: float,
                           terms: int = 30,
                           evaluator: BesselEval | None = None) -> dict:
    """Diagnostic for the scaled-shift identity (catalog entry A.12), which
    is reported but never gated.

    Two candidate left sides are evaluated against the common ladder
    expansion: the identity exactly as cataloged,
    exp(r phi / sqrt(2 r phi t + r^2)) * J_n(sqrt(2 r phi t + r^2)), and the
    flow-substitution reading e^{i n phi(t)} J_n(r(t)) with (r(t), phi(t))
    the closed forms reported by :func:`flow_solve`.  Both residuals are
    returned; no threshold is asserted.
    """
    t = float(t)
    _genfunc_guards(r, t, terms)
    ev = evaluator or BesselEval()
    radicand = 2 * r * phi * t + r * r
    if radicand <= 0:
        raise BranchAmbiguityError(f"radicand {radicand} not positive")
    scaled_r = math.sqrt(radicand)
    scaled_phi = r * phi / scaled_r
    rhs = _series_side(n, r, phi, t, terms, ev)
    catalog = math.exp(scaled_phi) * ev.j(n, scaled_r)
    substituted = cmath.exp(1j * n * scaled_phi) * ev.j(n, scaled_r)
    res_catalog = abs(catalog - rhs)
    res_substituted = abs(substituted - rhs)
    return {
        "residual_catalog_form": res_catalog,
        "residual_substituted_form": res_substituted,
        "smaller_form": ("substituted" if res_substituted < res_catalog
                         else "catalog"),
    }


# ---------------------------------------------------------------------------
# flow of the raising group element
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowState:
    t: float
    r: complex
    phi: complex
    q: complex


@dataclass(frozen=True)
class FlowResult:
    endpoint: FlowState
    closed_form_r: float
    closed_form_phi: float
    r_discrepancy: float
    phi_discrepancy: float
    q_drift: float
    integrator_error: float


def flow_solve(r0: float, phi0: float, t_end: float,
               steps: int = 10_000) -> FlowResult:
    """Integrate dr/dt = e^{i phi}, dphi/dt = i e^{i phi} / r, dq/dt = 0 with
    the classical fourth-order scheme at fixed step, and report the endpoint
    against the closed forms r(t) = sqrt(2 r0 phi0 t + r0^2),
    phi(t) = r0 phi0 / r(t).

    The discrepancy between the two is recorded, never asserted: the closed
    forms are real while the flow itself is genuinely complex.  As a check
    on the integrator itself, ``integrator_error`` compares the endpoint
    with the solution that really does satisfy the system,
    r(t) = sqrt(r0^2 + 2 t r0 e^{i phi0}),  phi(t) = phi0 + i log(r(t)/r0),
    which is exact to the integrator's own order.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    if phi0 == 0:
        raise ValueError("phi0 must be nonzero")
    if steps < 1:
        raise ValueError("steps must be positive")

    def rhs(state):
        r, phi = state
        if abs(r) < 1e-6:
            raise ArithmeticError("flow reached the coordinate singularity r = 0")
        e = cmath.exp(1j * phi)
        return (e, 1j * e / r)

    h = t_end / steps
    r, phi = complex(r0), complex(phi0)
    q = complex(1.0)
    for _ in range(steps):
        k1 = rhs((r, phi))
        k2 = rhs((r + h / 2 * k1[0], phi + h / 2 * k1[1]))
        k3 = rhs((r + h / 2 * k2[0], phi + h / 2 * k2[1]))
        k4 = rhs((r + h * k3[0], phi + h * k3[1]))
        r += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        phi += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        # dq/dt = 0: the increment is identically zero

    radicand = 2 * r0 * phi0 * t_end + r0 * r0
    if radicand <= 0:
        raise ArithmeticError("closed forms undefined: radicand not positive")
    cf_r = math.sqrt(radicand)
    cf_phi = r0 * phi0 / cf_r
    true_r = cmath.sqrt(r0 * r0 + 2 * t_end * r0 * cmath.exp(1j * phi0))
    true_phi = phi0 + 1j * cmath.log(true_r / r0)
    endpoint = FlowState(t=t_end, r=r, phi=phi, q=q)
    return FlowResult(
        endpoint=endpoint,
        closed_form_r=cf_r,
        closed_form_phi=cf_phi,
        r_discrepancy=abs(r - cf_r),
        phi_discrepancy=abs(phi - cf_phi),
        q_drift=abs(q - 1.0),
        integrator_error=max(abs(r - true_r), abs(phi - true_phi)),
    )
