"""Bessel evaluator, polar ladder algebra, identity residuals, flow."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from liegen.errors import BranchAmbiguityError, EnvelopeError
from liegen.euclidean import (
    BESSEL_IDENTITIES,
    REL_TOL,
    _negligible,
    BesselEval,
    CylFunc,
    CylTerm,
    apply_polar_op,
    find_j0_root,
    flow_solve,
    genfunc_a11_check,
    genfunc_a11_literal_diagnostic,
    genfunc_a12_diagnostic,
    polar_numeric_crosscheck,
    verify_bessel_identity,
)

R_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


@pytest.fixture(scope="module")
def ev():
    return BesselEval()


# -- series evaluator -----------------------------------------------------------

def test_j0_at_zero(ev):
    assert ev.j(0, 0.0) == 1.0


def test_j3_at_zero(ev):
    assert ev.j(3, 0.0) == 0.0


def test_j1_derivative_at_zero(ev):
    _, jp, _ = ev.derivatives(1, 0.0)
    assert jp == 0.5


def test_j0_derivative_at_zero_even_function(ev):
    _, jp, _ = ev.derivatives(0, 0.0)
    assert jp == 0.0


def test_negative_order_reflection(ev):
    for n in (1, 2, 5):
        for r in (0.7, 3.0):
            assert ev.j(-n, r) == (-1) ** n * ev.j(n, r)


def test_j0_root_by_bisection(ev):
    root = find_j0_root(ev)
    assert 2.0 < root < 3.0
    assert abs(ev.j(0, root)) < 1e-10


def test_derivative_series_satisfies_ode_independently(ev):
    # catalog A.6 with termwise-differentiated series: not circular
    j, jp, jpp = ev.derivatives(2, 1.7)
    assert abs(jpp + jp / 1.7 + (1 - 4 / 1.7 ** 2) * j) < 1e-12


def test_envelope_guards(ev):
    # every order is accepted, max_terms and above too; A.7 holds there
    for n, r in ((30, 1.0), (200, 30.0)):
        j_down, j, j_up = (ev.j(k, r).real for k in (n - 1, n, n + 1))
        assert j_down != 0
        assert abs(2 * n / r * j - j_down - j_up) <= 1e-13 * abs(j_down)
    with pytest.raises(EnvelopeError):
        ev.j(0, 31.0)


def test_doubling_max_terms_changes_nothing():
    base = BesselEval(max_terms=200)
    double = BesselEval(max_terms=400)
    for n in (0, 3, 10, 20):
        for r in (0.1, 1.0, 5.0, 15.0, 30.0):
            a, b = base.j(n, r), double.j(n, r)
            scale = max(abs(a), 1e-300)
            assert abs(a - b) / scale < 1e-13


def test_complex_argument(ev):
    z = 1.5 + 0.5j
    j, jp, jpp = ev.derivatives(0, z)
    # series derivative vs the defining equation at a complex point
    assert abs(jpp + jp / z + j) < 1e-14


# -- bit identity with the Fraction summation -------------------------------------

def _fraction_series(n, z):
    """The evaluator's former core, kept as an oracle: the same ascending
    series summed in exact Fractions (one gcd per operation), with every
    stopping decision and output taken from Fraction.__float__."""
    w = (Fraction(z.real) / 2, Fraction(z.imag) / 2)

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    pows = [(Fraction(1), Fraction(0))]

    def power(e):
        while len(pows) <= e:
            pows.append(mul(pows[-1], w))
        return pows[e]

    tol2 = REL_TOL * REL_TOL

    def abs2(a):
        return float(a[0] * a[0] + a[1] * a[1])

    def small(term, total):
        if term is None:
            return True
        t_mag = abs2(term)
        return t_mag == 0.0 or t_mag < tol2 * abs2(total)

    zero = (Fraction(0), Fraction(0))
    s0 = s1 = s2 = zero
    coeff = Fraction(1, math.factorial(n))
    k = 0
    while True:
        m = n + 2 * k
        t0 = (power(m)[0] * coeff, power(m)[1] * coeff)
        s0 = (s0[0] + t0[0], s0[1] + t0[1])
        t1 = t2 = None
        if m >= 1:
            c = coeff * Fraction(m, 2)
            t1 = (power(m - 1)[0] * c, power(m - 1)[1] * c)
            s1 = (s1[0] + t1[0], s1[1] + t1[1])
        if m >= 2:
            c = coeff * Fraction(m * (m - 1), 4)
            t2 = (power(m - 2)[0] * c, power(m - 2)[1] * c)
            s2 = (s2[0] + t2[0], s2[1] + t2[1])
        if k + 1 >= max(n, 2) and small(t0, s0) and small(t1, s1) and small(t2, s2):
            break
        k += 1
        coeff = -coeff / (k * (n + k))
    return tuple(complex(float(s[0]), float(s[1])) for s in (s0, s1, s2))


def _bits(values):
    """The six floats of (J, J', J''), as hex so that -0.0 != 0.0."""
    return [x.hex() for v in values for x in (v.real, v.imag)]


def _seeded_points():
    """Full-mantissa points, n 0..20: real |z| < 30 and complex |z| < 10."""
    rng = random.Random(4)
    points = []
    for _ in range(60):
        points.append((rng.randint(0, 20), complex(rng.uniform(-30.0, 30.0))))
        points.append((rng.randint(0, 20),
                       cmath.rect(rng.uniform(0.0, 10.0),
                                  rng.uniform(-math.pi, math.pi))))
    return points


#: |J|^2 underflows to 0.0 at these points while J does not
SQUARE_UNDERFLOW_POINTS = [(100, 1.0), (150, 3.0), (120, -2.0)]

EDGE_POINTS = (
    [(n, 0j) for n in (0, 1, 2)]
    + [(0, complex(-0.0, -0.0))]
    + [(n, z) for n in (0, 20) for z in (5e-324, 1e-300, 1e-20j)]
    + [(n, z) for n in (0, 20) for z in (30.0, -30.0)]
    + [(0, 21 + 21j), (10, 21 + 21j), (60, 1.0), (200, 1.0)]
    + SQUARE_UNDERFLOW_POINTS
)

#: the Fraction sum takes seconds here (large n at tiny z), so only the
#: evaluator's own output is checked
SLOW_ORACLE_POINTS = [(60, 5e-324), (199, 1e-300), (200, 5e-324)]


# the core is compared, not derivatives(): its sign factor turns the
# imaginary part -0.0 into 0.0, which would hide a wrong signed zero

def test_series_bit_identical_to_fraction_sum_seeded(ev):
    for n, z in _seeded_points():
        assert _bits(ev._series(n, z)) == _bits(_fraction_series(n, z)), (n, z)


@pytest.mark.parametrize("n, z", EDGE_POINTS)
def test_series_bit_identical_to_fraction_sum_edges(n, z, ev):
    z = complex(z)
    assert _bits(ev._series(n, z)) == _bits(_fraction_series(n, z))


def test_square_underflow_points_are_nonzero(ev):
    for n, z in SQUARE_UNDERFLOW_POINTS:
        for value in ev.derivatives(n, z):
            assert value != 0 and abs(value) ** 2 == 0.0, (n, z)


@pytest.mark.parametrize("n, z", SLOW_ORACLE_POINTS)
def test_large_order_at_tiny_argument_is_finite(n, z):
    for value in BesselEval().derivatives(n, z):
        assert math.isfinite(value.real) and math.isfinite(value.imag)


def _float_rule(tr, ti, sr, si, d):
    t_mag = (tr * tr + ti * ti) / (d * d)
    tol2 = REL_TOL * REL_TOL
    return t_mag == 0.0 or t_mag < tol2 * ((sr * sr + si * si) / (d * d))


def _gaussian(rng, bits):
    """A Gaussian integer whose larger part has exactly ``bits`` bits, with
    the smallest or the largest modulus that allows, or at random."""
    if bits == 0:
        return 0, 0
    low, high = 1 << (bits - 1), (1 << bits) - 1
    shape = rng.randrange(3)
    if shape == 0:
        parts = (low, 0)
    elif shape == 1:
        parts = (high, high)
    else:
        parts = (rng.randrange(low, high + 1), rng.randrange(high + 1))
    parts = tuple(p * rng.choice((1, -1)) for p in parts)
    return parts if rng.random() < 0.5 else parts[::-1]


def test_negligible_matches_float_rule_near_its_edges():
    # the bit-length shortcut decides only where the bounds settle the rule:
    # at the relative threshold (bt - bs near -53) and near underflow
    # (bt - bd near -495, bs - bd near -425) it must agree with, or defer to,
    # the float rule on every case
    rng = random.Random(11)
    for _ in range(20_000):
        bd = rng.randint(1, 1200)
        d = rng.randrange(1 << (bd - 1), 1 << bd)
        bs = max(0, bd + rng.choice((rng.randint(-570, -400),
                                     rng.randint(-20, 20))))
        bt = max(0, bs + rng.choice((rng.randint(-60, -46),
                                     rng.randint(-10, 10))))
        if rng.random() < 0.2:
            bt = max(0, bd + rng.randint(-570, -470))
        tr, ti = _gaussian(rng, bt)
        sr, si = _gaussian(rng, bs)
        assert _negligible(tr, ti, sr, si, d) == _float_rule(tr, ti, sr, si, d), \
            (tr, ti, sr, si, d)


def test_negligible_matches_float_rule_at_extreme_shapes():
    # where the rule itself underflows, the largest |t| over the smallest
    # |S| that their bit lengths allow (or the reverse) is where a shortcut
    # too bold would show; d's mantissa shifts the two squares across the
    # subnormal grid
    def gaussian(bits, largest):
        # the smallest or the largest modulus with parts of ``bits`` bits
        if largest:
            return (1 << bits) - 1, -((1 << bits) - 1)
        return 1 << (bits - 1), 0

    for g in range(0, 256, 32):
        d = (1 << 1000) + (g << 992)
        pairs = ([(bs, bs + gap) for bs in range(-500, -409)
                  for gap in range(-58, -53)]
                 + [(bt - gap, bt) for bt in range(-550, -469)
                    for gap in range(-52, -47)])
        for bs_off, bt_off in pairs:
            for t_largest in (False, True):
                for s_largest in (False, True):
                    tr, ti = gaussian(1001 + bt_off, t_largest)
                    sr, si = gaussian(1001 + bs_off, s_largest)
                    assert (_negligible(tr, ti, sr, si, d)
                            == _float_rule(tr, ti, sr, si, d)), (g, bs_off, bt_off)


# -- independent oracles (test-only dependencies) -------------------------------------

ORACLE_TOL = 1e-13

#: every (n, r) the default report evaluates in the identity checks
REPORT_POINTS = [(n, r) for n in range(-1, 12) for r in R_GRID]


def _a11_arguments():
    """The complex arguments u = sqrt(r^2 + 2 t r e^{i phi}) of the A.11 gate."""
    return [(n, cmath.sqrt(r * r + 2 * t * r * cmath.exp(1j * phi)))
            for n in (0, 1, 2) for r in (1.0, 2.0, 5.0)
            for phi in (0.0, 0.7, math.pi / 3)
            for t in (0.5, -0.25, 0.5j, -0.5j)]


def _assert_close(got, ref, where):
    assert abs(got - ref) <= ORACLE_TOL * max(1.0, abs(ref)), (where, got, ref)


def test_matches_mpmath_besselj(ev):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for n, z in REPORT_POINTS + _a11_arguments():
            arg = mpmath.mpc(z.real, z.imag) if isinstance(z, complex) else z
            for order, got in enumerate(ev.derivatives(n, z)):
                ref = complex(mpmath.besselj(n, arg, derivative=order))
                _assert_close(got, ref, (n, z, order))


def test_matches_scipy_jv_on_real_points(ev):
    special = pytest.importorskip("scipy.special")
    real_points = [(n, z.real) for n, z in _seeded_points() if z.imag == 0]
    for n, x in REPORT_POINTS + real_points:
        j, jp, jpp = ev.derivatives(n, x)
        _assert_close(j, special.jv(n, x), (n, x, 0))
        _assert_close(jp, special.jvp(n, x, 1), (n, x, 1))
        _assert_close(jpp, special.jvp(n, x, 2), (n, x, 2))


# -- identity grid ----------------------------------------------------------------

@pytest.mark.parametrize("which", BESSEL_IDENTITIES)
def test_identity_grid(which, ev):
    for n in range(11):
        for r in R_GRID:
            residual = verify_bessel_identity(which, n, r, ev)
            gate = 1e-9 if (which == "ode_A6" and r == 0.1) else 1e-10
            assert residual < gate, (which, n, r, residual)


def test_identity_examples(ev):
    assert verify_bessel_identity("recursion_A7", 1, 2.0, ev) < 1e-10
    # 2 J0' - (J_{-1} - J_1) with J_{-1} = -J_1
    assert verify_bessel_identity("diffrel_A10", 0, 3.0, ev) < 1e-10
    assert verify_bessel_identity("ode_A6", 0, 0.1, ev) < 1e-9


def test_identity_envelope(ev):
    with pytest.raises(EnvelopeError):
        verify_bessel_identity("ode_A6", 11, 1.0, ev)
    with pytest.raises(EnvelopeError):
        verify_bessel_identity("ode_A6", 0, 25.0, ev)


# -- polar ladder algebra -----------------------------------------------------------

def test_lz_eigenvalue():
    assert apply_polar_op("lz", CylFunc.basis(0)).is_zero
    f = apply_polar_op("lz", CylFunc.basis(3, 2.0))
    assert f == CylFunc([CylTerm(3, 6.0)])


def test_raise_action():
    assert apply_polar_op("raise", CylFunc.basis(2)) == CylFunc([CylTerm(3, -1.0)])


def test_raise_lower_eigenvalue_one():
    f = CylFunc([CylTerm(0, 1.5), CylTerm(4, -2j)])
    assert apply_polar_op("raise", apply_polar_op("lower", f)) == f
    assert apply_polar_op("lower", apply_polar_op("raise", f)) == f


def test_ladder_order_independence():
    f = CylFunc([CylTerm(-2, 1.0), CylTerm(1, 0.5j)])
    one_way = apply_polar_op("raise", apply_polar_op("lower", f))
    other_way = apply_polar_op("lower", apply_polar_op("raise", f))
    assert one_way == other_way == f


@pytest.mark.parametrize("op,n,r,phi", [
    ("raise", 0, 1.0, 0.0),
    ("raise", 3, 5.0, 1.1),
    ("lower", 1, 2.0, math.pi / 3),
])
def test_polar_crosscheck_examples(op, n, r, phi, ev):
    assert polar_numeric_crosscheck(op, n, r, phi, ev) < 1e-6


def test_polar_crosscheck_grid(ev):
    for op in ("raise", "lower"):
        for n in range(0, 6):
            for r in (0.2, 1.0, 4.0, 10.0):
                assert polar_numeric_crosscheck(op, n, r, 0.4, ev) < 1e-6


def test_polar_crosscheck_quadratic_step_scaling(ev):
    # truncation is O(h^2): quartering expected when h halves, on steps
    # large enough that rounding noise stays far below truncation
    coarse = polar_numeric_crosscheck("raise", 2, 3.0, 0.9, ev, step=2e-4)
    fine = polar_numeric_crosscheck("raise", 2, 3.0, 0.9, ev, step=1e-4)
    ratio = fine / coarse
    assert 0.15 < ratio < 0.35


def test_polar_crosscheck_singularity_cutoff(ev):
    with pytest.raises(EnvelopeError):
        polar_numeric_crosscheck("raise", 0, 0.1, 0.0, ev)


# -- generating functions --------------------------------------------------------------

def test_a11_zero_shift_is_exact(ev):
    assert genfunc_a11_check(1, 2.0, 0.5, 0.0, 30, ev) < 1e-15


def test_a11_examples(ev):
    assert genfunc_a11_check(0, 2.0, 0.7, 0.3, 30, ev) < 1e-8
    assert genfunc_a11_check(2, 1.0, 0.0, 0.1j, 30, ev) < 1e-8


def test_a11_acceptance_grid(ev):
    for n in (0, 1, 2):
        for r in (1.0, 2.0, 5.0):
            for phi in (0.0, 0.7, math.pi / 3):
                for t in (0.5, -0.25, 0.5j, -0.5j):
                    assert genfunc_a11_check(n, r, phi, t, 30, ev) < 1e-8


def test_a11_branch_guard(ev):
    with pytest.raises(BranchAmbiguityError):
        genfunc_a11_check(0, 1.0, 0.0, -0.5, 30, ev)


def test_a11_envelope(ev):
    with pytest.raises(EnvelopeError):
        genfunc_a11_check(0, 2.0, 0.0, 0.6, 30, ev)
    with pytest.raises(EnvelopeError):
        genfunc_a11_check(0, 0.3, 0.0, 0.1, 30, ev)
    with pytest.raises(EnvelopeError):
        genfunc_a11_check(0, 2.0, 0.0, 0.1, 20, ev)


def test_a11_literal_form_recorded_not_small(ev):
    report = genfunc_a11_literal_diagnostic(0, 2.0, 0.7, 0.3, 30, ev)
    # the loose rendering really is not an identity ...
    assert report["residual_literal_form"] > 1e-3
    # ... while the consistent one is
    assert report["residual_consistent_form"] < 1e-10


def test_a12_diagnostic_reports_both_forms(ev):
    report = genfunc_a12_diagnostic(0, 2.0, 0.5, 0.2, 30, ev)
    assert set(report) == {"residual_catalog_form",
                           "residual_substituted_form", "smaller_form"}
    assert report["residual_catalog_form"] >= 0
    assert report["residual_substituted_form"] >= 0
    assert report["smaller_form"] in ("catalog", "substituted")


def test_a12_substituted_form_reduces_at_t_zero(ev):
    report = genfunc_a12_diagnostic(1, 3.0, 1.0, 0.0, 30, ev)
    assert report["residual_substituted_form"] < 1e-12


# -- flow -------------------------------------------------------------------------

def test_flow_zero_time():
    result = flow_solve(2.0, 0.5, 0.0, steps=1)
    assert result.endpoint.r == 2.0
    assert result.endpoint.phi == 0.5
    assert result.endpoint.q == 1.0


def test_flow_q_constant_exactly():
    result = flow_solve(2.0, 0.5, 0.3, steps=100)
    assert result.q_drift == 0.0


def test_flow_integrator_validates_against_true_solution():
    result = flow_solve(2.0, 0.5, 0.3, steps=10_000)
    assert result.integrator_error < 1e-12


def test_flow_discrepancy_recorded_without_gate():
    result = flow_solve(2.0, 0.5, 0.3, steps=10_000)
    # the recorded comparison values exist and are finite; no assertion on size
    assert math.isfinite(result.r_discrepancy)
    assert math.isfinite(result.phi_discrepancy)
    assert result.closed_form_r == math.sqrt(2 * 2.0 * 0.5 * 0.3 + 4.0)


def test_flow_rejects_bad_inputs():
    with pytest.raises(ValueError):
        flow_solve(0.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        flow_solve(1.0, 0.0, 0.1)
