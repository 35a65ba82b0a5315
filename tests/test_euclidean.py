"""Bessel evaluator, polar ladder algebra, identity residuals, flow."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from liegen import euclidean
from liegen.contraction import (
    legendre_ode_residual,
    mehler_heine_check,
    polar_ladder_limit,
)
from liegen.euclidean import (
    BESSEL,
    BESSEL_IDENTITIES,
    POLAR_OPS,
    BesselEval,
    _a11_closed_form,
    bessel_series,
    find_j0_root,
    flow_solve,
    genfunc_a11_literal_diagnostic,
    genfunc_a11_residual,
    genfunc_a12_diagnostic,
    ladder_series_residuals,
    verify_bessel_identity,
)
from liegen.numeric import BandedOp, X
from liegen.suites import SuiteConfig, _Recorder, run_suite

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
    root = find_j0_root()
    assert 2.0 < root < 3.0
    assert abs(ev.j(0, root)) < 1e-10


def test_derivative_series_satisfies_ode_independently(ev):
    # catalog A.6 with termwise-differentiated series: not circular
    j, jp, jpp = ev.derivatives(2, 1.7)
    assert abs(jpp + jp / 1.7 + (1 - 4 / 1.7 ** 2) * j) < 1e-12


def test_envelope_guards(ev):
    # every order is accepted; A.7 holds at large orders too
    for n, r in ((30, 1.0), (200, 30.0)):
        j_down, j, j_up = (ev.j(k, r).real for k in (n - 1, n, n + 1))
        assert j_down != 0
        assert abs(2 * n / r * j - j_down - j_up) <= 1e-13 * abs(j_down)
    with pytest.raises(ValueError, match="is not at most"):
        ev.j(0, 31.0)


def test_complex_argument(ev):
    z = 1.5 + 0.5j
    j, jp, jpp = ev.derivatives(0, z)
    # series derivative vs the defining equation at a complex point
    assert abs(jpp + jp / z + j) < 1e-14


# -- correct rounding against the Fraction sum --------------------------------------

def _fraction_series(n, z):
    """(J_n, J_n', J_n'') at z, each part correctly rounded, from the
    ascending series summed in exact Fractions.

    Past the term k (m = n + 2k >= 2) with 2 |w|^2 (m+2)(m+1) <= (k+1)
    (n+k+1) m(m-1), w = z/2, each weighted term is at most half the one
    before, so the tail of each series is at most |Re t| + |Im t| of its
    term t at k.  When w^2 is real, the nonzero terms of a series differ by
    real factors, so a part that is zero in term k is zero in the whole sum
    and has no tail.  Terms are added until both ends of every part's interval
    round to the same float (the sign of a zero included), which is then
    the correctly rounded value."""
    sign = -1 if n < 0 and n % 2 else 1
    n = abs(n)
    w = (Fraction(z.real) / 2, Fraction(z.imag) / 2)
    norm = w[0] * w[0] + w[1] * w[1]
    real_square = w[0] * w[1] == 0

    pows = [(Fraction(1), Fraction(0))]

    def power(e):
        while len(pows) <= e:
            a, b = pows[-1]
            pows.append((a * w[0] - b * w[1], a * w[1] + b * w[0]))
        return pows[e]

    sums = [[Fraction(0), Fraction(0)] for _ in range(3)]
    coeff = Fraction(sign, math.factorial(n))
    k = 0
    while True:
        m = n + 2 * k
        last = []
        for j, weight in enumerate((1, Fraction(m, 2), Fraction(m * (m - 1), 4))):
            term = (0, 0)
            if weight:
                term = tuple(coeff * weight * p for p in power(m - j))
                sums[j] = [s + t for s, t in zip(sums[j], term)]
            last.append(term)
        if m >= 2 and (2 * norm * (m + 2) * (m + 1)
                       <= (k + 1) * (n + k + 1) * m * (m - 1)):
            values = []
            for (sr, si), (tr, ti) in zip(sums, last):
                tail = abs(tr) + abs(ti)
                parts = []
                for s, t in ((sr, tr), (si, ti)):
                    err = 0 if real_square and not t else tail
                    lo, hi = float(s - err), float(s + err)
                    parts.append(lo if lo.hex() == hi.hex() else None)
                values.append(parts)
            if None not in values[0] + values[1] + values[2]:
                return tuple(complex(*parts) for parts in values)
        k += 1
        coeff = -coeff / (k * (n + k))


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
#: evaluator's own output is checked, and mpmath where installed
SLOW_ORACLE_POINTS = [(60, 5e-324), (199, 1e-300), (200, 5e-324)]

#: one part of z is 1e-100 or less of the other, so the small parts of J
#: take passes of over 1,000 bits
SKEWED_POINTS = [(1, 20 + 1e-300j), (2, 30 + 5e-324j), (0, 5e-324 + 30j),
                 (3, -29.9 + 1e-200j), (5, 12 + 1e-100j)]

#: the rounded partial sum at the former float stop index is one ulp away
#: from the rounded J_11''(z) here
PARTIAL_SUM_OFF_POINT = (11, -10.905433937068992)

#: J_0 ~ 5e-12 here, so a pass that left the tail out of its error bounds
#: would round it wrongly
NEAR_ROOT_POINTS = [(0, 2.404825557705773), (0, 2.404825557685773)]


#: find_j0_root(), where J_0 ~ 1e-17 and the first pass cannot round it
J0_ROOT = (0, 2.404825557695773)


def _small_points():
    """Seeded points with |z| from 1e-8 to 1e-3, real and complex, n 0..8:
    the derivative sums of n <= 1 and the imaginary part of J'' start far
    below the leading term."""
    rng = random.Random(17)
    points = []
    for _ in range(20):
        r = 10 ** rng.uniform(-8, -3)
        points.append((rng.randint(0, 8), complex(rng.choice((r, -r)))))
        points.append((rng.randint(0, 8),
                       cmath.rect(r, rng.uniform(-math.pi, math.pi))))
    return points


def test_series_bit_identical_to_fraction_sum_seeded(ev):
    for n, z in _seeded_points() + [PARTIAL_SUM_OFF_POINT] + NEAR_ROOT_POINTS:
        expected = _fraction_series(n, complex(z))
        assert _bits(ev.derivatives(n, z)) == _bits(expected), (n, z)


@pytest.mark.parametrize("n, z", EDGE_POINTS)
def test_series_bit_identical_to_fraction_sum_edges(n, z, ev):
    z = complex(z)
    assert _bits(ev.derivatives(n, z)) == _bits(_fraction_series(n, z))


def test_derivatives_keep_the_series_signed_zeros():
    # an exact zero is +0.0 and an underflowed value keeps its sign, for
    # negative orders as for positive ones
    ev = BesselEval()
    for n in (20, 21, -20, -21):
        values = ev.derivatives(n, 1e-20j)
        assert _bits(values) == _bits(_fraction_series(n, 1e-20j)), n
        assert "-0x0.0p+0" in _bits(values) and "0x0.0p+0" in _bits(values)
    for n, r in ((-1, 0.5), (-3, 2.0), (-21, 5e-324)):
        expected = _fraction_series(n, complex(r))
        assert _bits(ev.derivatives(n, r)) == _bits(expected), (n, r)


def test_square_underflow_points_are_nonzero(ev):
    for n, z in SQUARE_UNDERFLOW_POINTS:
        for value in ev.derivatives(n, z):
            assert value != 0 and abs(value) ** 2 == 0.0, (n, z)


@pytest.mark.parametrize("n, z", SLOW_ORACLE_POINTS)
def test_large_order_at_tiny_argument_is_finite(n, z):
    for value in BesselEval().derivatives(n, z):
        assert math.isfinite(value.real) and math.isfinite(value.imag)


@pytest.mark.parametrize("z", [math.nan, complex(1.0, math.nan)])
def test_nan_argument_is_outside_the_envelope(z):
    with pytest.raises(ValueError, match="is not at most"):
        BesselEval().derivatives(0, z)


def test_fixed_point_sum_defers_at_the_j0_root(monkeypatch):
    # J_0 is ~1e-17 there: the first pass cannot round it, one with twice
    # the bits can
    root = complex(find_j0_root())
    assert (0, root) == J0_ROOT
    real, passes = euclidean._pass, []

    def recorded(n, z, frac):
        passes.append((frac, real(n, z, frac)))
        return passes[-1][1]

    monkeypatch.setattr(euclidean, "_pass", recorded)
    values = BesselEval().derivatives(0, root)
    monkeypatch.undo()
    (first, none), (second, last) = passes
    assert none is None and second == 2 * first and last == values
    assert _bits(values) == _bits(_fraction_series(0, root))
    mpmath = pytest.importorskip("mpmath")
    assert _bits(values) == _bits(_mpmath_values(mpmath, 0, root))


# -- the real pass and the Gaussian pass ---------------------------------------------

def _real_line_points():
    """Seeded real points: both signs of z, n in -21..21 with odd negative
    orders, |z| at 5e-324, from 1e-8 to 1e-3 and up to 30, and the points
    where a rounding is close."""
    rng = random.Random(33)
    points = [(n, s * 5e-324) for n in (0, 1, -1, 20, -21) for s in (1, -1)]
    for _ in range(30):
        for r in (rng.uniform(0.0, 30.0), 10 ** rng.uniform(-8, -3)):
            points.append((rng.randint(-21, 21), rng.choice((r, -r))))
    points += [(-3, -7.25), (-21, 29.5), (-11, -0.001)]
    return points + [PARTIAL_SUM_OFF_POINT] + NEAR_ROOT_POINTS + [J0_ROOT]


def test_real_pass_is_the_gaussian_pass_on_the_real_line():
    # at b = 0 the Gaussian pass's imaginary parts are 0 from the first
    # term on, so both passes round the same numerators: the same bits,
    # or None from both
    deferred = 0
    for n, r in _real_line_points():
        a, b, q = euclidean._dyadic(complex(r))
        assert b == 0
        first = (53 + euclidean._GUARD_BITS
                 + math.ceil(abs(r) * math.log2(math.e)))
        for frac in (first, 2 * first):
            real = euclidean._real_pass(n, a, q, frac)
            gaussian = euclidean._gaussian_pass(n, a, 0, q, frac)
            if real is None or gaussian is None:
                assert real is gaussian, (n, r, frac)
                deferred += 1
            else:
                assert _bits(real) == _bits(gaussian), (n, r, frac)
    assert deferred      # the J_0 root defers its first pass


def test_only_the_a11_closed_form_takes_the_gaussian_pass(monkeypatch):
    # every report point but the four complex u of _a11_closed_form is real
    seen, gaussian = set(), euclidean._gaussian_pass

    def recorded(n, a, b, q, frac):
        seen.add((n, complex(a, b) / 2 ** (q - 1)))
        return gaussian(n, a, b, q, frac)

    monkeypatch.setattr(BESSEL, "_cache", {})
    monkeypatch.setattr(euclidean, "_gaussian_pass", recorded)
    run_suite("all", SuiteConfig())
    assert len(seen) == 4 and all(z.imag for _, z in seen), seen


@pytest.mark.parametrize("n, r", [(0, 2.5), (3, -7.25), (-3, 1e-5),
                                  (-21, -29.5)])
def test_a_negative_zero_imaginary_part_reads_as_real(n, r):
    # complex(r, -0.0) and r are one cache key, so each has its own evaluator
    values = BesselEval().derivatives(n, complex(r, -0.0))
    assert _bits(values) == _bits(BesselEval().derivatives(n, r))


@pytest.mark.parametrize("read", [
    lambda: find_j0_root(),
    # the blocks' own reads: the j0 root gate, the exact widened-pass
    # record and the Mehler-Heine margin's J_m(r)
    lambda: run_suite("bessel", SuiteConfig(bessel_orders=(0,),
                                            bessel_r_grid=(1.0,))),
    lambda: run_suite("contraction", SuiteConfig(contraction_R=(8, 16),
                                                 legendre_l=(64, 128))),
    lambda: verify_bessel_identity("recursion_A7", 3, 1.25),
    lambda: _a11_closed_form(1, 2.0, 0.5, 0.25),
    lambda: genfunc_a11_literal_diagnostic(0, 2.0, 0.7, 0.3),
    lambda: genfunc_a12_diagnostic(0, 2.0, 0.5, 0.2),
    lambda: polar_ladder_limit(0, 1.0, 0.0, [8]),
    lambda: mehler_heine_check(1, 2.0, [64]),
    lambda: legendre_ode_residual(64, 1, 2.0),
    # the diagnostics block, through both generating-function diagnostics
    lambda: run_suite("diagnostics", SuiteConfig(flow_steps=1)),
])
def test_every_reader_calls_the_shared_evaluator(monkeypatch, read):
    # through the class's method, looked up at each call, so a patch of
    # BesselEval.derivatives (as a tracer makes) sees every read
    readers, real = [], BesselEval.derivatives

    def spy(self, n, z):
        readers.append(self)
        return real(self, n, z)

    monkeypatch.setattr(BesselEval, "derivatives", spy)
    read()
    assert readers and all(r is BESSEL for r in readers)


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


def _mpmath_values(mpmath, n, z):
    """(J_n, J_n', J_n'') by mpmath, each part rounded once to a float.
    mpmath's error is relative to the modulus, so the working precision is
    60 digits plus the decades between |z| and the smaller part of z."""
    z = complex(z)
    parts = [abs(p) for p in (z.real, z.imag) if p]
    skew = 0
    if len(parts) == 2:
        skew = math.ceil(math.log10(abs(z)) - math.log10(min(parts)))
    with mpmath.workdps(60 + skew):
        arg = mpmath.mpc(z.real, z.imag)
        return [complex(mpmath.besselj(n, arg, derivative=order))
                for order in range(3)]


def _assert_close(got, ref, where):
    assert abs(got - ref) <= ORACLE_TOL * max(1.0, abs(ref)), (where, got, ref)


def test_matches_mpmath_besselj(ev):
    mpmath = pytest.importorskip("mpmath")
    for n, z in REPORT_POINTS + _a11_arguments():
        expected = _mpmath_values(mpmath, n, z)
        assert _bits(ev.derivatives(n, z)) == _bits(expected), (n, z)


@pytest.mark.parametrize("points", [
    _seeded_points(), EDGE_POINTS, SLOW_ORACLE_POINTS, SKEWED_POINTS,
    _small_points(), [PARTIAL_SUM_OFF_POINT], NEAR_ROOT_POINTS],
    ids=["seeded", "edges", "slow", "skewed", "small", "partial-sum-off",
         "near-root"])
def test_rounds_like_mpmath_besselj(points):
    mpmath = pytest.importorskip("mpmath")
    ev = BesselEval()
    for n, z in points:
        expected = _mpmath_values(mpmath, n, z)
        assert _bits(ev.derivatives(n, z)) == _bits(expected), (n, z)


def test_matches_scipy_jv_on_real_points(ev):
    special = pytest.importorskip("scipy.special")
    real_points = [(n, z.real) for n, z in _seeded_points() if z.imag == 0]
    for n, x in REPORT_POINTS + real_points:
        j, jp, jpp = ev.derivatives(n, x)
        _assert_close(j, special.jv(n, x), (n, x, 0))
        _assert_close(jp, special.jvp(n, x, 1), (n, x, 1))
        _assert_close(jpp, special.jvp(n, x, 2), (n, x, 2))


@pytest.mark.parametrize("n", range(-3, 7))
def test_bessel_series_matches_mpmath_besselj(n):
    # the exact series through r^60, summed in Q at each float r, leaves a
    # tail below 1e-40 on r <= 5; J_{-n} = (-1)^n J_n shows at odd n < 0
    mpmath = pytest.importorskip("mpmath")
    terms = bessel_series(n, 60).terms
    for r in (0.1, 0.7, 1.5, 2.5, 5.0):
        value = sum(c * Fraction(r) ** e for (e,), c in terms.items())
        expected = float(mpmath.besselj(n, r))
        assert abs(float(value) - expected) <= 1e-15, (n, r)


def test_bessel_series_degree_cuts_the_sum():
    assert bessel_series(5, 4).is_zero
    assert bessel_series(2, 2) == Fraction(1, 8) * X ** 2
    assert bessel_series(-3, 5) == (X ** 3 / -48 + X ** 5 / 768)


@pytest.mark.parametrize("n", [True, False, 1.0], ids=["true", "false",
                                                       "float"])
def test_evaluator_rejects_a_non_int_order(n):
    # a bool is an int to isinstance, and (True, z) is the cache key (1, z):
    # BESSEL.j(True, 1.0) was J_1(1)
    ev = BesselEval()
    for read in (ev.j, ev.derivatives):
        with pytest.raises(TypeError, match="must be an int"):
            read(n, 1.0)
    assert ev._cache == {}
    with pytest.raises(TypeError, match="must be an int"):
        BESSEL.j(n, 1.0)


@pytest.mark.parametrize("z", ["2.5", "1+2j", b"2.5", True, False],
                         ids=["str", "complex-str", "bytes", "true", "false"])
def test_evaluator_rejects_a_string_or_bool_argument(z):
    # complex() parses a str and reads a bool as 0 or 1: derivatives(0,
    # "2.5") was J_0(2.5), and derivatives(0, True) J_0(1)
    ev = BesselEval()
    for read in (ev.j, ev.derivatives):
        with pytest.raises(TypeError, match="expected a number"):
            read(0, z)
    assert ev._cache == {}


def test_evaluator_rejects_a_numpy_bool():
    numpy = pytest.importorskip("numpy")
    with pytest.raises(TypeError, match="expected a number"):
        BesselEval().derivatives(0, numpy.bool_(True))


def test_evaluator_takes_every_number_type():
    ev = BesselEval()
    expected = _bits(ev.derivatives(1, 2.5))
    for z in (Fraction(5, 2), 2.5 + 0j):
        assert _bits(ev.derivatives(1, z)) == expected
    assert _bits(ev.derivatives(1, 2)) == _bits(ev.derivatives(1, 2.0))


@pytest.mark.parametrize("n, degree", [(True, 3), (1, True), (False, 4),
                                       (1.0, 3), (1, 3.0)],
                         ids=["true-order", "true-degree", "false-order",
                              "float-order", "float-degree"])
def test_bessel_series_rejects_a_non_int_argument(n, degree):
    # a bool is an int to isinstance: bessel_series(True, 3) was J_1's series
    bad = "degree" if type(n) is int else "n"
    with pytest.raises(TypeError, match=f"^{bad} must be an int, not a"):
        bessel_series(n, degree)


# -- identity grid ----------------------------------------------------------------

@pytest.mark.parametrize("which", BESSEL_IDENTITIES)
def test_identity_grid(which):
    for n in range(11):
        for r in R_GRID:
            residual = verify_bessel_identity(which, n, r)
            gate = 1e-9 if (which == "ode_A6" and r == 0.1) else 1e-10
            assert residual < gate, (which, n, r, residual)


def test_identity_examples():
    assert verify_bessel_identity("recursion_A7", 1, 2.0) < 1e-10
    # 2 J0' - (J_{-1} - J_1) with J_{-1} = -J_1
    assert verify_bessel_identity("diffrel_A10", 0, 3.0) < 1e-10
    assert verify_bessel_identity("ode_A6", 0, 0.1) < 1e-9


def test_identity_envelope():
    with pytest.raises(ValueError, match=r"\|n\| above 10"):
        verify_bessel_identity("ode_A6", 11, 1.0)
    with pytest.raises(ValueError, match="r outside"):
        verify_bessel_identity("ode_A6", 0, 25.0)


# -- polar ladder algebra -----------------------------------------------------------

def test_lz_eigenvalue():
    assert POLAR_OPS["lz"].column(0) == {}
    assert (POLAR_OPS["lz"] * 2).column(3) == {3: 6}


def test_raise_action():
    assert POLAR_OPS["raise"].column(2) == {3: -1}
    assert POLAR_OPS["lower"].column(2) == {1: -1}


def test_raise_lower_eigenvalue_one():
    up, down = POLAR_OPS["raise"], POLAR_OPS["lower"]
    for n in range(-5, 6):
        assert (up * down).column(n) == (down * up).column(n) == {n: 1}


def test_ladder_order_independence():
    # raise and lower commute, and L_z counts the step each one takes
    up, down, lz = POLAR_OPS["raise"], POLAR_OPS["lower"], POLAR_OPS["lz"]
    for n in range(-5, 6):
        assert up.bracket(down).column(n) == {}
        assert (lz.bracket(up) - up).column(n) == {}
        assert (lz.bracket(down) + down).column(n) == {}


def test_span_difference_is_exact_and_drops_zeros():
    # a column is a span of basis functions: the difference of two is exact
    # in Fractions, and a coefficient that cancels leaves the column
    f = BandedOp({0: lambda n: Fraction(3, 2), 4: lambda n: -2})
    g = BandedOp({0: lambda n: Fraction(1, 2), 4: lambda n: -2,
                  7: lambda n: 1})
    assert (f - g).column(0) == {0: Fraction(1), 7: -1}
    assert (f - f).column(0) == {}


def test_span_coefficients_are_read_only():
    with pytest.raises(TypeError):
        POLAR_OPS["raise"] = POLAR_OPS["raise"] * 2
    with pytest.raises(TypeError):
        POLAR_OPS["raise"].bands[1] = lambda n: -2
    # each column is a new dict: writing to one changes no later column
    POLAR_OPS["raise"].column(0)[1] = -2
    assert POLAR_OPS["raise"].column(0) == {1: -1}


@pytest.mark.parametrize("order", [1.5, True, False],
                         ids=["float", "true", "false"])
def test_span_rejects_a_non_int_order(order):
    # a column at order 1.5 would be a span with no basis function of that
    # order, and a bool is an int to isinstance: True would be order 1
    for op in POLAR_OPS.values():
        with pytest.raises(TypeError, match="must be an int"):
            op.column(order)


@pytest.mark.parametrize("coeff", [1.5, -2.0j, math.inf, math.nan, 1j],
                         ids=["float", "float-imaginary", "inf", "nan",
                              "complex"])
def test_span_rejects_an_inexact_coefficient(coeff):
    # a column keeps an inexact coefficient, and the exact record that
    # reads it fails
    column = (POLAR_OPS["raise"] * coeff).column(3)
    assert list(column) == [4]
    rec = _Recorder()
    rec.exact("span", [column])
    assert rec.records[0].status == "fail"


@pytest.mark.parametrize("op,n,r,phi", [
    ("raise", 0, 1.0, 0.0),
    ("raise", 3, 5.0, 1.1),
    ("lower", 1, 2.0, math.pi / 3),
])
def test_polar_crosscheck_examples(ev, op, n, r, phi):
    # e^{i s phi}(s d/dr + (i/r) d/dphi) on J_n(r) e^{i n phi} at a point,
    # with J_n' from the evaluator's termwise derivative, against the
    # column's span at the same point
    s = 1 if op == "raise" else -1
    j, jp, _ = ev.derivatives(n, r)
    applied = cmath.exp(1j * (n + s) * phi) * (s * jp - n / r * j)
    value = sum(c * ev.j(m, r) * cmath.exp(1j * m * phi)
                for m, c in POLAR_OPS[op].column(n).items())
    assert abs(value - applied) <= 1e-15


def test_polar_crosscheck_grid():
    # the same operator on the ascending series, exactly in Q[r]: times r,
    # s r J_n' - n J_n is r times the column's one coefficient and order
    for op, s in (("raise", 1), ("lower", -1)):
        for n in range(-3, 6):
            j = bessel_series(n, 30)
            ((m, c),) = POLAR_OPS[op].column(n).items()
            assert m == n + s
            assert (s * X * j.differentiate("x") - n * j
                    == c * X * bessel_series(m, 29))
            assert all(r.is_zero for r in ladder_series_residuals(op, n, 30))
    with pytest.raises(ValueError):
        ladder_series_residuals("lz", 1, 30)


# -- generating functions --------------------------------------------------------------

def ladder_sum(n, r, phi, t, terms=30):
    """The right side of A.11 summed term by term in floats, an oracle for
    the closed form: the first ``terms`` terms of
    sum_m (-t)^m / m! e^{i(n+m) phi} J_{n+m}(r)."""
    total, factor = 0j, 1.0 + 0j
    for m in range(terms):
        if m:
            factor *= -t / m
        total += factor * cmath.exp(1j * (n + m) * phi) * BESSEL.j(n + m, r)
    return total


def test_a11_zero_shift_is_exact():
    # t^0: (r w/2)^n sum_j (-r^2/4)^j / (j! (n+j)!) is w^n J_n(r) itself
    for n in range(6):
        assert genfunc_a11_residual(n, 0).is_zero
    # and at t = 0 the closed form is e^{i n phi} J_n(r), bit for bit
    assert (_a11_closed_form(1, 2.0, 0.5, 0.0)
            == cmath.exp(0.5j) * BESSEL.j(1, 2.0))


@pytest.mark.parametrize("n, t_degree, error", [
    (1, True, TypeError), (True, 2, TypeError), (1, 2.0, TypeError),
    (0, -1, ValueError), (-1, 2, ValueError)],
    ids=["true-degree", "true-order", "float-degree", "negative-degree",
         "negative-order"])
def test_a11_rejects_a_bad_order_or_degree(n, t_degree, error):
    # a bool is an int to isinstance: genfunc_a11_residual(1, True) was 0,
    # and so was (0, -1), a check that read no coefficient
    with pytest.raises(error, match="must be"):
        genfunc_a11_residual(n, t_degree)


def test_a11_examples():
    # orders and degrees beyond the report's
    for n, t_degree in ((0, 1), (0, 5), (3, 4), (5, 10)):
        assert genfunc_a11_residual(n, t_degree).is_zero


def test_a11_acceptance_grid():
    # the report's record: every coefficient through t^16 agrees exactly
    for n in (0, 1, 2):
        assert genfunc_a11_residual(n, 16).is_zero
    # the closed form the diagnostics compare against is the ladder sum,
    # on a grid of orders, radii, angles and real and imaginary shifts
    for n in (0, 1, 2):
        for r in (1.0, 2.0, 5.0):
            for phi in (0.0, 0.7, math.pi / 3):
                for t in (0.5, -0.25, 0.5j, -0.5j):
                    assert abs(_a11_closed_form(n, r, phi, t)
                               - ladder_sum(n, r, phi, t)) < 1e-13


def test_a11_branch_guard():
    with pytest.raises(ValueError, match="leaves the right half-plane"):
        _a11_closed_form(0, 1.0, 0.0, -0.5)
    with pytest.raises(ValueError, match="leaves the right half-plane"):
        genfunc_a11_literal_diagnostic(0, 1.0, 0.0, -0.5)


def test_a11_envelope():
    # the diagnostics read the closed form only where |t| <= 0.5 and
    # 0.5 <= r <= 10
    for read in (_a11_closed_form, genfunc_a11_literal_diagnostic,
                 genfunc_a12_diagnostic):
        with pytest.raises(ValueError, match=r"\|t\| above 0.5 or r outside"):
            read(0, 2.0, 0.0, 0.6)
        with pytest.raises(ValueError, match=r"\|t\| above 0.5 or r outside"):
            read(0, 0.3, 0.0, 0.1)


def test_a11_literal_form_recorded_not_small():
    # the loose rendering really is not an identity ...
    assert genfunc_a11_literal_diagnostic(0, 2.0, 0.7, 0.3) > 1e-3
    # ... while the consistent one is
    assert abs(_a11_closed_form(0, 2.0, 0.7, 0.3)
               - ladder_sum(0, 2.0, 0.7, 0.3)) < 1e-13


def test_a12_diagnostic_reports_both_forms():
    report = genfunc_a12_diagnostic(0, 2.0, 0.5, 0.2)
    assert set(report) == {"residual_catalog_form",
                           "residual_substituted_form"}
    assert report["residual_catalog_form"] >= 0
    assert report["residual_substituted_form"] >= 0


def test_a12_substituted_form_reduces_at_t_zero():
    report = genfunc_a12_diagnostic(1, 3.0, 1.0, 0.0)
    assert report["residual_substituted_form"] < 1e-12


# -- flow -------------------------------------------------------------------------

def test_flow_zero_time():
    # at t = 0 the endpoint is the start, where every form agrees
    result = flow_solve(2.0, 0.5, 0.0, steps=1)
    assert result.r_discrepancy == result.phi_discrepancy == 0.0
    assert result.q_drift == result.integrator_error == 0.0


def test_flow_q_constant_exactly():
    result = flow_solve(2.0, 0.5, 0.3, steps=100)
    assert result.q_drift == 0.0


def test_flow_integrator_validates_against_true_solution():
    result = flow_solve(2.0, 0.5, 0.3, SuiteConfig().flow_steps)
    assert result.integrator_error <= 1e-14


def test_default_flow_steps_are_past_the_truncation_edge():
    # halving the steps multiplies the h^4 truncation by 16: a default at
    # the truncation edge fails at its half (100 steps read 4.0e-14), one
    # at the rounding floor reads rounding at both
    steps = SuiteConfig().flow_steps
    for n in (steps, steps // 2):
        assert flow_solve(2.0, 0.5, 0.3, n).integrator_error <= 1e-14


def test_flow_nan_exact_value_reaches_the_integrator_error(monkeypatch):
    # a NaN true phi after a finite gap in r: a plain max kept the number
    monkeypatch.setattr(cmath, "log", lambda z: complex(math.nan, math.nan))
    result = flow_solve(2.0, 0.5, 0.3, 100)
    assert math.isnan(result.integrator_error)


def test_flow_discrepancy_recorded_without_gate():
    result = flow_solve(2.0, 0.5, 0.3, SuiteConfig().flow_steps)
    # the recorded comparison values exist and are finite; no assertion on size
    assert math.isfinite(result.r_discrepancy)
    assert math.isfinite(result.phi_discrepancy)


def test_flow_rejects_bad_inputs():
    with pytest.raises(ValueError):
        flow_solve(0.0, 0.5, 0.1, 10)
    with pytest.raises(ValueError):
        flow_solve(1.0, 0.0, 0.1, 10)


def test_flow_rejects_a_bool_step_count():
    # a bool is an int to isinstance: True ran one step
    with pytest.raises(TypeError, match="bool"):
        flow_solve(2.0, 0.5, 0.3, True)
    with pytest.raises(TypeError, match="bool"):
        flow_solve(2.0, 0.5, 0.3, steps=False)


def nested_rk4_flow(r0, phi0, t_end, steps):
    """The four-stage loop through a nested right-hand side, as flow_solve
    once wrote it: the reference that its inline stages must match bit for
    bit."""
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
    cf_r = math.sqrt(2 * r0 * phi0 * t_end + r0 * r0)
    cf_phi = r0 * phi0 / cf_r
    true_r = cmath.sqrt(r0 * r0 + 2 * t_end * r0 * cmath.exp(1j * phi0))
    true_phi = phi0 + 1j * cmath.log(true_r / r0)
    return (abs(r - cf_r), abs(phi - cf_phi), abs(q - 1.0),
            max(abs(r - true_r), abs(phi - true_phi)))


def flow_cases():
    rng = random.Random(20261019)
    # the report's own flow, at its default 1,000 steps and at 10,000
    cases = [(2.0, 0.5, 0.3, 1_000), (2.0, 0.5, 0.3, 10_000),
             (2.0, 0.5, 0.3, 1), (2.0, 0.5, 0.3, 200),
             (1.5, -0.75, 0.4, 200), (2.0, 0.5, 0.0, 7)]
    for steps in (1, 200, 10_000):
        r0 = rng.uniform(0.5, 4.0)
        phi0 = rng.choice((-1, 1)) * rng.uniform(0.1, 2.0)
        # keep 2 r0 phi0 t + r0^2 positive, so the closed forms exist
        cases.append((r0, phi0, rng.uniform(0.0, r0 / (4 * abs(phi0))), steps))
    return cases


@pytest.mark.parametrize("r0,phi0,t_end,steps", flow_cases())
def test_flow_matches_the_nested_stage_loop_bit_for_bit(r0, phi0, t_end, steps):
    result = flow_solve(r0, phi0, t_end, steps)
    fields = (result.r_discrepancy, result.phi_discrepancy, result.q_drift,
              result.integrator_error)
    assert [v.hex() for v in fields] == \
        [v.hex() for v in nested_rk4_flow(r0, phi0, t_end, steps)]


def test_flow_stops_at_the_coordinate_singularity():
    # the start itself is inside the radius
    with pytest.raises(ArithmeticError, match="singularity"):
        flow_solve(5e-7, 0.5, 0.1, 10)
    # a midpoint stage is: r0 - h/2 = 5e-7 with e^{i phi0} = -1
    with pytest.raises(ArithmeticError, match="singularity"):
        flow_solve(2e-6, math.pi, 3e-6, steps=1)
