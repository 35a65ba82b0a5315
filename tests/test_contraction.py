"""so(3) vector fields, scaled-basis contraction, Legendre-to-Bessel limit."""

import math
import random
from fractions import Fraction

import pytest

from liegen.contraction import (
    DEFAULT_SAMPLE_POINTS,
    ScaledBasis,
    angular_momentum_x,
    angular_momentum_y,
    angular_momentum_z,
    assoc_legendre,
    bessel_operator_residual,
    contracted_relations_check,
    contraction_residual,
    legendre_ode_residual,
    mehler_heine_check,
    polar_ladder_limit,
    scaled_commutator_check,
    translation_x,
    translation_y,
    vf_commutator,
    VectorFieldOp,
)
from liegen.errors import EnvelopeError
from liegen.euclidean import BesselEval
from liegen.numeric import Polynomial, X, Y, Z

F = Fraction

R_SCHEDULE = [8, 16, 32, 64, 128, 256, 512, 1024]
L_SCHEDULE = [64, 128, 256, 512, 1024]


@pytest.fixture(scope="module")
def ev():
    return BesselEval()


# -- commutator algebra -----------------------------------------------------------

def test_rotation_commutators():
    lx, ly, lz = angular_momentum_x(), angular_momentum_y(), angular_momentum_z()
    assert (vf_commutator(lx, ly) + lz).is_zero
    assert (vf_commutator(ly, lz) + lx).is_zero
    assert (vf_commutator(lz, lx) + ly).is_zero


def test_commutator_antisymmetry():
    lx = angular_momentum_x()
    assert vf_commutator(lx, lx).is_zero


def test_commutator_matches_action_on_monomials():
    lx, ly = angular_momentum_x(), angular_momentum_y()
    comm = vf_commutator(lx, ly)
    for ex in range(3):
        for ey in range(3):
            for ez in range(3):
                if ex + ey + ez > 6:
                    continue
                mono = X ** ex * Y ** ey * Z ** ez
                direct = lx.apply(ly.apply(mono)) - ly.apply(lx.apply(mono))
                assert comm.apply(mono) == direct


def _random_op(rng):
    def coeff():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            key = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
            terms[key] = F(rng.randint(-4, 4))
        return Polynomial(("x", "y", "z"), terms)
    return VectorFieldOp(coeff(), coeff(), coeff())


def test_jacobi_identity():
    rng = random.Random(99)
    ops = [angular_momentum_x(), angular_momentum_y(), angular_momentum_z()]
    ops += [_random_op(rng) for _ in range(4)]
    for a in ops[:3]:
        for b in ops:
            for c in ops[:4]:
                total = (vf_commutator(a, vf_commutator(b, c))
                         + vf_commutator(b, vf_commutator(c, a))
                         + vf_commutator(c, vf_commutator(a, b)))
                assert total.is_zero


@pytest.mark.parametrize("R", [1, 10, 1000, F(7, 3)])
def test_scaled_commutators_exact(R):
    report = scaled_commutator_check(R)
    assert set(report) == {"xy", "yz", "zx"}
    for residual in report.values():
        assert residual.is_zero


def test_scaled_basis_rejects_nonpositive():
    with pytest.raises(ValueError):
        ScaledBasis(0)


def test_unscaled_case_reduces_to_rotation_relations():
    basis = ScaledBasis(1)
    assert basis.lx() == angular_momentum_x()
    assert (vf_commutator(basis.lx(), basis.ly()) + basis.lz()).is_zero


def test_contracted_relations_exact():
    for residual in contracted_relations_check().values():
        assert residual.is_zero


def test_contracted_relations_on_plane_monomials():
    # action-level check of the limiting bracket table on degree <= 6 monomials
    neg_py, px, lz = -translation_y(), translation_x(), angular_momentum_z()
    for ex in range(4):
        for ey in range(4):
            mono = X ** ex * Y ** ey
            comm = (neg_py.apply(px.apply(mono)) - px.apply(neg_py.apply(mono)))
            assert comm.is_zero
            got = px.apply(lz.apply(mono)) - lz.apply(px.apply(mono))
            assert got == translation_y().apply(mono)


# -- contraction residuals ---------------------------------------------------------

def test_contraction_residual_constant_is_zero():
    res = contraction_residual(Polynomial.constant(3), [8, 64])
    assert all(v == 0 for v in res.values())


def test_contraction_residual_z_free_exactly_zero():
    res = contraction_residual(X ** 2 * Y, R_SCHEDULE)
    assert all(v == 0 for v in res.values())


def test_contraction_residual_first_degree_in_z_halves():
    res = contraction_residual(X ** 2 * Y ** 3 * Z, R_SCHEDULE)
    values = [res[F(R)] for R in R_SCHEDULE]
    assert all(v > 0 for v in values)
    for a, b in zip(values, values[1:]):
        ratio = b / a
        assert F(2, 5) <= ratio <= F(3, 5)


def test_contraction_residual_linear_probe():
    # hand application: (Lx/R + Py) y = -z/R + 1, zero at z=R;
    # (Ly/R - Px) y = 0
    res = contraction_residual(Y, [8])
    assert res[F(8)] == 0


def test_contraction_residual_rejects_high_degree():
    with pytest.raises(ValueError):
        contraction_residual(X ** 7, [8])


def test_sample_points_in_patch():
    assert all(abs(x) <= 1 and abs(y) <= 1 for x, y in DEFAULT_SAMPLE_POINTS)


# -- tangent-plane ladder limit -------------------------------------------------------

def test_polar_ladder_limit_large_r(ev):
    res = polar_ladder_limit(0, 1.0, 0.0, [1e4], ev)
    assert res[1e4] < 1e-3


def test_polar_ladder_limit_rate(ev):
    res = polar_ladder_limit(0, 1.0, 0.0, R_SCHEDULE, ev)
    values = [res[float(R)] for R in R_SCHEDULE]
    for a, b in zip(values, values[1:]):
        assert b / a <= 0.3


def test_polar_ladder_limit_monotone_other_orders(ev):
    for n in (1, 2):
        res = polar_ladder_limit(n, 2.0, 0.7, R_SCHEDULE, ev)
        values = [res[float(R)] for R in R_SCHEDULE]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_polar_ladder_limit_envelope(ev):
    with pytest.raises(EnvelopeError):
        polar_ladder_limit(0, 0.1, 0.0, [8], ev)


# -- associated Legendre ----------------------------------------------------------------

def test_legendre_seeds():
    assert assoc_legendre(0, 0, 0.3) == 1.0
    assert assoc_legendre(1, 0, 0.5) == 0.5
    assert abs(assoc_legendre(1, 1, 0.6) - 0.8) < 1e-15


def test_legendre_low_order_closed_forms():
    # unrolled recurrence by hand: P_2^0 = (3x^2-1)/2, P_2^1 = 3x sqrt(1-x^2)
    for x in (-0.9, -0.3, 0.0, 0.4, 0.99):
        assert abs(assoc_legendre(2, 0, x) - (3 * x * x - 1) / 2) < 1e-12
        assert abs(assoc_legendre(2, 1, x) - 3 * x * math.sqrt(1 - x * x)) < 1e-12


def test_legendre_input_validation():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(2, 0, 1.5)
    with pytest.raises(EnvelopeError):
        assoc_legendre(5000, 0, 0.5)


def test_legendre_high_degree_stable():
    # forward recurrence should stay finite and sane up to the degree cap
    value = assoc_legendre(4096, 0, 0.5)
    assert math.isfinite(value)
    assert abs(value) < 1.0


def test_legendre_matches_mpmath_legenp():
    # mpmath's Ferrers function carries the Condon-Shortley phase (-1)^m,
    # which assoc_legendre leaves out; legenp sums a hypergeometric series
    # that is slowest at negative x, so there the reference is taken at |x|
    # through the parity P_l^m(-x) = (-1)^{l+m} P_l^m(x)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for l in (8, 64, 256, 1024):
            for m in range(6):
                for x in (-0.9, 0.4, 0.99):
                    parity = (-1) ** (l + m) if x < 0 else 1
                    ref = (-1) ** m * parity * float(mpmath.legenp(l, m, abs(x)))
                    got = assoc_legendre(l, m, x)
                    assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), \
                        (l, m, x, got, ref)


# -- Mehler-Heine limit ---------------------------------------------------------------

def test_mehler_heine_near_zero_argument(ev):
    errs = mehler_heine_check(0, 0.5, [64, 1024], ev)
    assert errs[1024] < errs[64]
    assert errs[1024] < 5e-4


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_mehler_heine_acceptance_gate(m, r, ev):
    errs = mehler_heine_check(m, r, [256, 512, 1024], ev)
    values = [errs[l] for l in (256, 512, 1024)]
    assert values[0] > values[1] > values[2]
    target = abs(ev.j(m, r).real)
    assert values[-1] <= 0.02 * target + 0.005


def test_mehler_heine_envelope(ev):
    with pytest.raises(EnvelopeError):
        mehler_heine_check(6, 1.0, [64], ev)
    with pytest.raises(EnvelopeError):
        mehler_heine_check(0, 10.0, [64], ev)


# -- Legendre equation collapsing onto the Bessel equation ------------------------------

def test_legendre_ode_rate_m0(ev):
    for r in (1.0, 2.0, 4.0):
        values = [legendre_ode_residual(l, 0, r, ev) for l in L_SCHEDULE]
        for a, b in zip(values, values[1:]):
            assert b / a <= 0.5


def test_legendre_ode_small_at_l128(ev):
    assert legendre_ode_residual(128, 0, 2.0, ev) < 0.05


def test_legendre_ode_monotone_higher_m(ev):
    for m in (1, 2, 3):
        values = [legendre_ode_residual(l, m, 2.0, ev) for l in L_SCHEDULE]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_legendre_ode_envelope(ev):
    with pytest.raises(EnvelopeError):
        legendre_ode_residual(4, 0, 2.0, ev)
    with pytest.raises(EnvelopeError):
        legendre_ode_residual(64, 0, 60.0, ev)


def test_bessel_operator_exact_form(ev):
    for m in range(4):
        for r in (0.5, 1.0, 2.0, 5.0, 8.0):
            assert bessel_operator_residual(m, r, ev) < 1e-9
