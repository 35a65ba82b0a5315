"""so(3) vector fields, scaled-generator contraction, Legendre-to-Bessel limit."""

import math
import random
from fractions import Fraction

import pytest

from liegen.contraction import (
    _LX_ZPY,
    _LY_ZPX,
    DEFAULT_SAMPLE_POINTS,
    LX,
    LY,
    LZ,
    MAX_LEGENDRE_DEGREE,
    PX,
    PY,
    assoc_legendre,
    bessel_operator_residual,
    contracted_relations_check,
    contraction_residual,
    legendre_ode_residual,
    mehler_heine_check,
    polar_ladder_limit,
    scaled_commutator_check,
    vf_commutator,
    VectorFieldOp,
)
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
    assert (vf_commutator(LX, LY) + LZ).is_zero
    assert (vf_commutator(LY, LZ) + LX).is_zero
    assert (vf_commutator(LZ, LX) + LY).is_zero


def test_coefficients_are_a_triple_in_canonical_order():
    zero, one = Polynomial.zero(), Polynomial.constant(1)
    assert LX.coeffs == (zero, -Z, Y)
    assert PX.coeffs == (one, zero, zero)
    assert PY.coeffs == (zero, one, zero)
    assert VectorFieldOp().coeffs == (zero, zero, zero)
    assert PY.apply(X * Y ** 2 * Z) == 2 * X * Y * Z


def test_commutator_antisymmetry():
    assert vf_commutator(LX, LX).is_zero


def test_commutator_matches_action_on_monomials():
    comm = vf_commutator(LX, LY)
    for ex in range(3):
        for ey in range(3):
            for ez in range(3):
                if ex + ey + ez > 6:
                    continue
                mono = X ** ex * Y ** ey * Z ** ez
                direct = LX.apply(LY.apply(mono)) - LY.apply(LX.apply(mono))
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
    ops = [LX, LY, LZ]
    ops += [_random_op(rng) for _ in range(4)]
    for a in ops[:3]:
        for b in ops:
            for c in ops[:4]:
                total = (vf_commutator(a, vf_commutator(b, c))
                         + vf_commutator(b, vf_commutator(c, a))
                         + vf_commutator(c, vf_commutator(a, b)))
                assert total.is_zero


def test_brackets_and_residuals_normalize_once_per_result(monkeypatch):
    # a bracket is one field normalization and builds no polynomial; a
    # residual is one Polynomial._make per numerator
    made = {Polynomial: [], VectorFieldOp: []}
    for cls in made:
        def counting(cls, nums, den, make=cls.__dict__["_make"].__func__):
            made[cls].append(den)
            return make(cls, nums, den)
        monkeypatch.setattr(cls, "_make", classmethod(counting))

    a = VectorFieldOp(X * Y / 3, Z ** 2 - 1, F(2, 7) * X)
    b = VectorFieldOp(Y, X * Z / 5, Y * Z - X ** 2)
    f = X ** 2 * Z + Y * Z ** 3 / 4
    expected = VectorFieldOp(*(a.apply(b_v) - b.apply(a_v)
                               for a_v, b_v in zip(a.coeffs, b.coeffs)))
    residual = contraction_residual(f, R_SCHEDULE)
    made[Polynomial].clear()
    made[VectorFieldOp].clear()
    assert vf_commutator(a, b) == expected
    assert (len(made[VectorFieldOp]), len(made[Polynomial])) == (1, 0)
    made[VectorFieldOp].clear()
    assert contraction_residual(f, R_SCHEDULE) == residual
    assert (len(made[VectorFieldOp]), len(made[Polynomial])) == (0, 2)


def test_residual_numerator_fields_cancel_to_d_dz():
    assert _LX_ZPY == VectorFieldOp(c_z=Y)
    assert _LY_ZPX == VectorFieldOp(c_z=-X)


@pytest.mark.parametrize("R", [1, 10, 1000, F(7, 3)])
def test_scaled_commutators_exact(R):
    report = scaled_commutator_check(R)
    assert set(report) == {"xy", "yz", "zx"}
    for residual in report.values():
        assert residual.is_zero


def test_scaled_commutators_reject_nonpositive_R():
    with pytest.raises(ValueError, match="positive"):
        scaled_commutator_check(0)
    with pytest.raises(ValueError, match="positive"):
        contraction_residual(X * Z, [8, 0])


def test_unscaled_case_reduces_to_rotation_relations():
    # at R = 1 the scaled relations are the so(3) relations themselves
    so3 = {"xy": vf_commutator(LX, LY) + LZ, "yz": vf_commutator(LY, LZ) + LX,
           "zx": vf_commutator(LZ, LX) + LY}
    assert scaled_commutator_check(1) == so3
    assert LX * 1 == LX


def test_contracted_relations_exact():
    for residual in contracted_relations_check().values():
        assert residual.is_zero


def test_contracted_relations_on_plane_monomials():
    # action-level check of the limiting bracket table on degree <= 6 monomials
    neg_py = -PY
    for ex in range(4):
        for ey in range(4):
            mono = X ** ex * Y ** ey
            comm = (neg_py.apply(PX.apply(mono)) - PX.apply(neg_py.apply(mono)))
            assert comm.is_zero
            got = PX.apply(LZ.apply(mono)) - LZ.apply(PX.apply(mono))
            assert got == PY.apply(mono)


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


def _apply_term_by_term(op, f):
    """sum_v c_v * df/dv through differentiate, * and +, not through
    ``VectorFieldOp.apply``."""
    out = Polynomial.zero()
    for var, c in zip(("x", "y", "z"), op.coeffs):
        out = out + c * f.differentiate(var)
    return out


def _eval_term_by_term(p, point):
    """One Fraction per term, not through ``Polynomial.z_line``."""
    total = F(0)
    for exps, coeff in p.terms.items():
        for var, e in zip(p.variables, exps):
            coeff *= F(point[var]) ** e
        total += coeff
    return total


def _direct_contraction_residual(f, R_list):
    """The residual with both operators rebuilt at each R, applied to f and
    evaluated at each point, independently of the kernels under test."""
    out = {}
    for R in map(F, R_list):
        first = _apply_term_by_term(LX * (1 / R) + PY, f)
        second = _apply_term_by_term(LY * (1 / R) - PX, f)
        out[R] = max(
            abs(_eval_term_by_term(image, {"x": x0, "y": y0, "z": R}))
            for x0, y0 in DEFAULT_SAMPLE_POINTS for image in (first, second))
    return out


def test_contraction_residual_matches_direct_form():
    # the two numerators restricted to each sample line and evaluated on
    # the R grid give the same Fractions as the operators rebuilt at each R
    rng = random.Random(9)
    R_list = [F(7, 3), F(1, 2), 1, 8, F(1000, 7), 1024, F(10 ** 30 + 1, 3)]
    polys = [X ** 2 * Y ** 3 * Z, Z ** 6, Polynomial.constant(3), X - Y]
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            c = rng.randint(0, 6)
            a = rng.randint(0, 6 - c)
            b = rng.randint(0, 6 - a - c)
            terms[(a, b, c)] = F(rng.randint(-9, 9), rng.randint(1, 9))
        polys.append(Polynomial(("x", "y", "z"), terms))
    for f in polys:
        res = contraction_residual(f, R_list)
        assert res == _direct_contraction_residual(f, R_list)
        assert list(res) == [F(R) for R in R_list]
        assert all(type(v) is Fraction for v in res.values())


@pytest.mark.parametrize("bad", [0, -1, F(-1, 3)])
def test_contraction_residual_rejects_nonpositive_R(bad):
    with pytest.raises(ValueError, match="positive"):
        contraction_residual(X * Z, [8, bad, 16])


def test_sample_points_in_patch():
    assert all(abs(x) <= 1 and abs(y) <= 1 for x, y in DEFAULT_SAMPLE_POINTS)


# -- tangent-plane ladder limit -------------------------------------------------------

def test_polar_ladder_limit_large_r():
    res = polar_ladder_limit(0, 1.0, 0.0, [1e4])
    assert res[1e4] < 1e-3


def test_polar_ladder_limit_rate():
    res = polar_ladder_limit(0, 1.0, 0.0, R_SCHEDULE)
    values = [res[float(R)] for R in R_SCHEDULE]
    for a, b in zip(values, values[1:]):
        assert b / a <= 0.3


def test_polar_ladder_limit_monotone_other_orders():
    for n in (1, 2):
        res = polar_ladder_limit(n, 2.0, 0.7, R_SCHEDULE)
        values = [res[float(R)] for R in R_SCHEDULE]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_polar_ladder_limit_envelope():
    with pytest.raises(ValueError, match=r"r outside \[0.5, 5\]"):
        polar_ladder_limit(0, 0.1, 0.0, [8])


@pytest.mark.parametrize("bad", [0, -8.0, math.nan, math.inf, -math.inf,
                                 True, "8", None])
def test_polar_ladder_limit_rejects_a_scale_outside_0_inf(monkeypatch, bad):
    # every scale is checked before any Bessel value is read, so a bad one
    # late in the list also raises before any work
    def unread(*args):
        raise AssertionError("a Bessel value was read")

    monkeypatch.setattr(BesselEval, "j", unread)
    with pytest.raises(ValueError, match="0 < R < inf"):
        polar_ladder_limit(0, 1.0, 0.0, [8.0, bad])


def test_polar_ladder_limit_keeps_its_bits_at_a_valid_scale():
    # the check leaves the residual of a valid scale as it was, bit for bit
    assert polar_ladder_limit(0, 1.0, 0.0, [8.0]) == {8.0: 0.006875789910753882}


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
    with pytest.raises(ValueError, match="l must be >= 3"):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(ValueError, match="m must be >= 0"):
        assoc_legendre(2, -1, 0.5)
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        assoc_legendre(2, 0, 1.5)
    with pytest.raises(ValueError, match="degree above 4096"):
        assoc_legendre(5000, 0, 0.5)
    # abs(nan) > 1 is false: a NaN argument returned nan
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        assoc_legendre(3, 1, math.nan)


def int_counter_legendre(m, x):
    """P_m^m(x), P_{m+1}^m(x), ... with the counters 2ll + 1, ll + m and
    ll - m + 1 as ints: the recurrence assoc_legendre ran before it carried
    them as floats, kept here as the reference."""
    s = math.sqrt((1.0 - x) * (1.0 + x))
    pmm = 1.0
    for k in range(1, m + 1):
        pmm *= (2 * k - 1) * s
    yield pmm
    p_prev, p = pmm, (2 * m + 1) * x * pmm
    yield p
    for ll in range(m + 1, MAX_LEGENDRE_DEGREE):
        p_prev, p = p, ((2 * ll + 1) * x * p - (ll + m) * p_prev) / (ll - m + 1)
        yield p


def test_float_counters_give_the_int_counter_floats():
    rng = random.Random(20261021)
    xs = [rng.uniform(-1, 1) for _ in range(6)] + [1.0, -1.0, 0.0, -0.0,
                                                    5e-324]
    for m in range(6):
        degrees = sorted({m, m + 1, m + 2, m + 3, MAX_LEGENDRE_DEGREE,
                          *(rng.randint(m, MAX_LEGENDRE_DEGREE)
                            for _ in range(5))})
        for x in xs:
            reference = list(int_counter_legendre(m, x))
            for l in degrees:
                assert assoc_legendre(l, m, x).hex() == reference[l - m].hex(), \
                    (l, m, x)


@pytest.mark.parametrize("l, m", [(True, 0), (2, True), (64, False),
                                  (2.0, 0), (64, 1.0)],
                         ids=["true-degree", "true-order", "false-order",
                              "float-degree", "float-order"])
def test_legendre_rejects_a_non_int_degree_or_order(l, m):
    # a bool is an int to isinstance: assoc_legendre(True, 0, 0.5) was
    # P_1(0.5) = 0.5, and legendre_ode_residual(64, True, 2.0) used m = 1
    bad = "m" if type(l) is int else "l"
    with pytest.raises(TypeError, match=f"^{bad} must be an int, not a"):
        assoc_legendre(l, m, 0.5)
    with pytest.raises(TypeError, match=f"^{bad} must be an int, not a"):
        legendre_ode_residual(l, m, 2.0)


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

def test_mehler_heine_near_zero_argument():
    errs = mehler_heine_check(0, 0.5, [64, 1024])
    assert errs[1024] < errs[64]
    assert errs[1024] < 5e-4


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_mehler_heine_acceptance_gate(m, r, ev):
    errs = mehler_heine_check(m, r, [256, 512, 1024])
    values = [errs[l] for l in (256, 512, 1024)]
    assert values[0] > values[1] > values[2]
    target = abs(ev.j(m, r).real)
    assert values[-1] <= 0.02 * target + 0.005


def test_mehler_heine_envelope():
    with pytest.raises(ValueError, match="order above 5"):
        mehler_heine_check(6, 1.0, [64])
    with pytest.raises(ValueError, match=r"r outside \[0.5, 8\]"):
        mehler_heine_check(0, 10.0, [64])
    # l = 0 divided r / l before any check of l: ZeroDivisionError
    with pytest.raises(ValueError, match="l must be >= 2"):
        mehler_heine_check(2, 2.0, [64, 0])
    with pytest.raises(ValueError, match="l must be >= 1"):
        mehler_heine_check(0, 2.0, [0])
    with pytest.raises(ValueError, match="l must be >= 2"):
        mehler_heine_check(2, 2.0, [-3])


# -- Legendre equation collapsing onto the Bessel equation ------------------------------

def test_legendre_ode_rate_m0():
    for r in (1.0, 2.0, 4.0):
        values = [legendre_ode_residual(l, 0, r) for l in L_SCHEDULE]
        for a, b in zip(values, values[1:]):
            assert b / a <= 0.5


def test_legendre_ode_small_at_l128():
    assert legendre_ode_residual(128, 0, 2.0) < 0.05


def test_legendre_ode_monotone_higher_m():
    for m in (1, 2, 3):
        values = [legendre_ode_residual(l, m, 2.0) for l in L_SCHEDULE]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_legendre_ode_envelope():
    with pytest.raises(ValueError, match="l must be >= 8"):
        legendre_ode_residual(4, 0, 2.0)
    with pytest.raises(ValueError, match=r"r outside \[0.5, 8\]"):
        legendre_ode_residual(64, 0, 60.0)


def test_bessel_operator_exact_form():
    # the limiting equation holds coefficient by coefficient, for negative
    # orders too, and at degrees that cut the series at an odd power
    for m in range(-3, 8):
        for degree in (0, 1, 2, 17, 30):
            assert bessel_operator_residual(m, degree).is_zero
