"""Exact-arithmetic core: polynomials, matrices and banded operators,
series in t = y, the Gaussian pairing."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegen.contraction import (
    _LX_ZPY,
    _LY_ZPX,
    LX,
    LY,
    PX,
    PY,
    VectorFieldOp,
    vf_commutator,
)
from liegen.numeric import (
    CANONICAL_VARS,
    BandedOp,
    Matrix,
    Polynomial,
    X,
    Y,
    Z,
    _as_complex,
    _series_product,
    _sum_of_products,
    series_exp,
    weighted_overlaps,
)

F = Fraction


def hermite_by_recurrence(n):
    """Independent three-term-recurrence oracle: H0=1, H1=2x,
    H_{k+1} = 2x*H_k - 2k*H_{k-1}."""
    h_prev, h = Polynomial.constant(1), 2 * X
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, 2 * X * h - 2 * k * h_prev
    return h


# -- polynomials -------------------------------------------------------------

def test_mul_of_variables():
    assert X * X == Polynomial(("x",), {(2,): 1})


def test_power_rule():
    assert (X ** 2).differentiate("x") == 2 * X


@pytest.mark.parametrize("var", ["t", "X", ""])
def test_differentiate_rejects_an_unknown_variable(var):
    # as the constructor does: d/dt of x^2 read as 0 before
    with pytest.raises(ValueError, match="unknown variable"):
        (X ** 2).differentiate(var)


def value_at(p, point):
    """p at the point, through its restriction to the line (x, y, z); the
    coordinate z is read only where p uses it."""
    nums, den = p.z_line(point.get("x"), point.get("y"))
    return F(nums[0], den) + sum(F(n, den) * F(point["z"]) ** c
                                 for c, n in enumerate(nums) if c)


def test_eval_of_recurrence_h2():
    h2 = hermite_by_recurrence(2)  # 4x^2 - 2, unrolled: 2x*2x - 2*1
    assert h2 == 4 * X ** 2 - 2
    assert value_at(h2, {"x": 1}) == 2


def test_multivariate_arithmetic():
    y = Polynomial.variable("y")
    p = (X + y) ** 2
    assert p == X ** 2 + 2 * X * y + y ** 2
    assert value_at(p, {"x": 2, "y": F(1, 2)}) == F(25, 4)
    assert p.differentiate("y") == 2 * X + 2 * y


def test_substitute_parity():
    h3 = hermite_by_recurrence(3)
    flipped = h3.substitute({"x": -X})
    assert flipped == -1 * h3


@pytest.mark.parametrize("mapping", [{"t": Y}, {"X": Y}, {"x": -X, "": Y}])
def test_substitute_rejects_an_unknown_variable(mapping):
    # as differentiate does: an unknown key left x^2 as it was before
    with pytest.raises(ValueError, match="unknown variable"):
        (X ** 2).substitute(mapping)


@pytest.mark.parametrize("exps", [("1",), (None,), (1.0,), (-1,)])
def test_constructor_rejects_an_exponent_not_a_non_negative_int(exps):
    # the type is checked before the sign: "1" < 0 raised a TypeError
    if type(exps[0]) is int:
        with pytest.raises(ValueError, match="an exponent must be >= 0"):
            Polynomial(("x",), {exps: 1})
    else:
        with pytest.raises(TypeError,
                           match="an exponent must be an int, not a"):
            Polynomial(("x",), {exps: 1})


@pytest.mark.parametrize("exps", [(True,), (False,), (1, True)])
def test_constructor_rejects_a_bool_exponent(exps):
    # a bool is an int to isinstance: (True,) was read as x^1
    variables = ("x", "y")[:len(exps)]
    with pytest.raises(TypeError,
                       match="an exponent must be an int, not a bool"):
        Polynomial(variables, {exps: 1})


@pytest.mark.parametrize("coeff", [True, False, 0.5, 1.0],
                         ids=["true", "false", "half", "float-one"])
def test_coefficients_must_be_exact_scalars(coeff):
    # a bool is an int to isinstance: True was read as the coefficient 1
    with pytest.raises(TypeError, match="exact scalar"):
        Polynomial(("x",), {(1,): coeff})
    with pytest.raises(TypeError, match="exact scalar"):
        Polynomial.constant(coeff)


@pytest.mark.parametrize("scalar", [True, False, 0.5],
                         ids=["true", "false", "float"])
def test_product_with_a_bool_or_float_scalar_is_refused(scalar):
    # a bool is an int to isinstance: X * True was x
    for product in (lambda: X * scalar, lambda: scalar * X,
                    lambda: VectorFieldOp(X) * scalar):
        with pytest.raises(TypeError):
            product()


@pytest.mark.parametrize("p", [X, Polynomial.constant(1), Polynomial.zero()],
                         ids=["x", "one", "zero"])
def test_a_polynomial_is_never_equal_to_a_bool(p):
    # a bool is no exact scalar, so a comparison with one answers False
    # rather than raising: X == True raised TypeError
    for flag in (True, False):
        assert not p == flag and not flag == p
        assert p != flag and flag != p


coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def polynomials(draw, max_deg=6, variables=("x", "y")):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n_terms):
        ex = draw(st.integers(min_value=0, max_value=max_deg))
        ey = draw(st.integers(min_value=0, max_value=max_deg - ex))
        terms[(ex, ey)] = F(draw(coeffs), draw(st.integers(min_value=1, max_value=5)))
    return Polynomial(variables, terms)


@given(p=polynomials(), q=polynomials())
@settings(max_examples=60)
def test_product_rule(p, q):
    for var in ("x", "y"):
        lhs = (p * q).differentiate(var)
        rhs = p.differentiate(var) * q + p * q.differentiate(var)
        assert lhs == rhs


# -- arithmetic results are in validated form ----------------------------------

@st.composite
def polynomials_in(draw, max_deg=4):
    """Polynomials over a random subset of x, y, z, some terms cancelling."""
    names = draw(st.lists(st.sampled_from(("x", "y", "z")), unique=True))
    variables = tuple(v for v in ("x", "y", "z") if v in names)
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        exps = tuple(draw(st.integers(min_value=0, max_value=max_deg))
                     for _ in variables)
        terms[exps] = F(draw(coeffs), draw(st.integers(min_value=1, max_value=4)))
    return Polynomial(variables, terms)


def assert_validated(p):
    again = Polynomial(p.variables, p.terms)
    assert p.variables == again.variables
    assert p.terms == again.terms
    assert all(type(c) is Fraction for c in p.terms.values())


@given(p=polynomials_in(), q=polynomials_in(),
       k=st.sampled_from([0, 1, -3, F(2, 5)]))
@settings(max_examples=80)
def test_arithmetic_results_equal_their_validated_form(p, q, k):
    for result in (p + q, p - q, q - p, -p, p * q, p * k, k * p, p + k,
                   k - p, p - p, p * q - q * p):
        assert_validated(result)
    for var in ("x", "y", "z"):
        assert_validated(p.differentiate(var))


# -- powers --------------------------------------------------------------------

@pytest.mark.parametrize("n", [True, False, 2.0, F(2)])
def test_power_rejects_an_exponent_not_an_int(n):
    with pytest.raises(TypeError, match="the exponent must be an int, not a"):
        X ** n


def test_power_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="the exponent must be >= 0"):
        X ** -1
    with pytest.raises(ValueError, match="the exponent must be >= 0"):
        Polynomial.zero() ** -3


def repeated_product(p, n):
    out = Polynomial.constant(1)
    for _ in range(n):
        out = out * p
    return out


@given(p=polynomials_in(max_deg=2), n=st.integers(min_value=0, max_value=12))
@settings(max_examples=60)
def test_power_matches_repeated_products(p, n):
    assert p ** n == repeated_product(p, n)
    assert_validated(p ** n)


@pytest.mark.parametrize("p", [Polynomial.zero(), Polynomial.constant(1),
                               Polynomial.constant(F(-2, 3)), (X + 2) - X],
                         ids=["zero", "one", "-2/3", "cancelled-to-2"])
def test_power_of_zero_and_constants(p):
    for n in range(13):
        assert p ** n == repeated_product(p, n)
    assert p ** 0 == 1


def test_power_squares(monkeypatch):
    # p^12 = (p^4)(p^8): three squarings and one product, not eleven
    expected = repeated_product(X + 1, 12)
    products = []
    real = Polynomial.__mul__

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    assert (X + 1) ** 12 == expected
    assert len(products) == 4


# -- integer numerators over one denominator, against Fraction dicts ----------
# The former Polynomial arithmetic, one Fraction per term, kept as an oracle:
# a polynomial is (variables, {exponent tuple: nonzero Fraction}).

def _fraction_settled(variables, terms):
    terms = {e: c for e, c in terms.items() if c}
    used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
    if len(used) != len(variables):
        variables = tuple(variables[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
    return variables, terms


def _fraction_embedded(form, variables):
    own, terms = form
    positions = [variables.index(v) for v in own]
    out = {}
    for exps, coeff in terms.items():
        key = [0] * len(variables)
        for pos, e in zip(positions, exps):
            key[pos] = e
        out[tuple(key)] = coeff
    return out


def _fraction_merged(a, b):
    return tuple(v for v in CANONICAL_VARS if v in a[0] or v in b[0])


def _fraction_add(a, b, sign=1):
    variables = _fraction_merged(a, b)
    terms = _fraction_embedded(a, variables)
    for exps, coeff in _fraction_embedded(b, variables).items():
        terms[exps] = terms.get(exps, F(0)) + sign * coeff
    return _fraction_settled(variables, terms)


def _fraction_mul(a, b):
    variables = _fraction_merged(a, b)
    terms = {}
    for ea, ca in _fraction_embedded(a, variables).items():
        for eb, cb in _fraction_embedded(b, variables).items():
            key = tuple(i + j for i, j in zip(ea, eb))
            terms[key] = terms.get(key, F(0)) + ca * cb
    return _fraction_settled(variables, terms)


def _fraction_scale(a, k):
    return _fraction_settled(a[0], {e: c * k for e, c in a[1].items()})


def _fraction_differentiate(a, var):
    variables, terms = a
    if var not in variables:
        return (), {}
    i = variables.index(var)
    out = {}
    for exps, coeff in terms.items():
        if exps[i]:
            key = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out[key] = out.get(key, F(0)) + coeff * exps[i]
    return _fraction_settled(variables, out)


def _fraction_eval(a, point):
    variables, terms = a
    total = F(0)
    for exps, coeff in terms.items():
        term = coeff
        for v, e in zip(variables, exps):
            term *= F(point[v]) ** e
        total += term
    return total


def fraction_form(p):
    return p.variables, dict(p.terms)


def assert_canonical(p):
    """The stored form: ints over a positive denominator with no common
    factor and no zero numerator, keyed by exponent triples; ``variables``
    lists exactly the used variables, in canonical order."""
    nums, den = p._nums, p._den
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert all(len(e) == len(CANONICAL_VARS) for e in nums)
    assert p.variables == tuple(v for v in CANONICAL_VARS if v in p.variables)
    terms = p.terms
    assert len(terms) == len(nums)
    assert all(len(e) == len(p.variables) for e in terms)
    assert all(any(e[i] for e in terms) for i in range(len(p.variables)))
    # the projection onto .variables drops only zero exponents
    assert sum(map(sum, terms)) == sum(map(sum, nums))
    assert all(type(c) is Fraction for c in terms.values())


def assert_matches(result, oracle):
    assert_canonical(result)
    assert fraction_form(result) == oracle


big_denominators = st.integers(min_value=1, max_value=10 ** 6)
rationals = st.builds(F, st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                      big_denominators)


@st.composite
def polynomial_pairs(draw, max_deg=4):
    """Two polynomials over random subsets of x, y, z; q may repeat some of
    p's monomials with opposite or equal coefficients, so that p + q and
    p - q cancel terms (and sometimes whole variables)."""
    def draw_poly():
        names = draw(st.lists(st.sampled_from(CANONICAL_VARS), unique=True))
        variables = tuple(v for v in CANONICAL_VARS if v in names)
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            exps = tuple(draw(st.integers(min_value=0, max_value=max_deg))
                         for _ in variables)
            terms[exps] = draw(rationals)
        return Polynomial(variables, terms)

    p, q = draw_poly(), draw_poly()
    if draw(st.booleans()):
        shared = {e: c * draw(st.sampled_from([-1, 1])) for e, c in p.terms.items()
                  if draw(st.booleans())}
        q = q + Polynomial(p.variables, shared)
    return p, q


@given(pair=polynomial_pairs(), k=st.one_of(st.integers(-9, 9), rationals))
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_the_fraction_dict_oracle(pair, k):
    p, q = pair
    a, b = fraction_form(p), fraction_form(q)
    assert_canonical(p)
    assert_canonical(q)
    assert_matches(p + q, _fraction_add(a, b))
    assert_matches(p - q, _fraction_add(a, b, -1))
    assert_matches(-p, _fraction_scale(a, -1))
    assert_matches(p * q, _fraction_mul(a, b))
    assert_matches(p * k, _fraction_scale(a, F(k)))
    assert_matches(k * p, _fraction_scale(a, F(k)))
    assert_matches(p + k, _fraction_add(a, ((), {(): F(k)})))
    assert_matches(k - p, _fraction_add(((), {(): F(k)}), a, -1))
    for var in CANONICAL_VARS:
        assert_matches(p.differentiate(var), _fraction_differentiate(a, var))
    assert_matches(p - p, ((), {}))


def test_equal_storage_subtracts_to_the_shared_zero(monkeypatch):
    # distinct objects with equal storage: lhs - rhs of a passing check
    # takes no pass; a sum, or a difference of unequal operands, still does
    p = (X + F(1, 3) * Y) ** 3
    q = (F(1, 3) * Y + X) ** 3
    w = p + X ** 3  # the same denominator and exponents, one numerator apart
    assert p is not q and (p._den, p._nums) == (q._den, q._nums)
    assert w._den == p._den and w._nums.keys() == p._nums.keys()
    double, cube = 2 * p, X ** 3
    passes = []
    real = Polynomial._make.__func__

    def counted(cls, nums, den):
        passes.append(1)
        return real(cls, nums, den)

    monkeypatch.setattr(Polynomial, "_make", classmethod(counted))
    assert p - q is Polynomial.zero() and p - p is Polynomial.zero()
    assert not passes
    assert p + p == double and w - p == cube
    assert len(passes) == 2


coordinates = st.one_of(st.just(0), st.integers(min_value=-7, max_value=7),
                        rationals)


def _fraction_z_line(a, x0, y0):
    """Coefficients of z^0..z^D, D the degree in z, on the line (x0, y0, z)."""
    variables, terms = a
    line = {}
    for exps, coeff in terms.items():
        e = dict(zip(variables, exps))
        c = e.get("z", 0)
        value = coeff * F(x0) ** e.get("x", 0) * F(y0) ** e.get("y", 0)
        line[c] = line.get(c, F(0)) + value
    return [line.get(c, F(0)) for c in range(max(line, default=0) + 1)]


@given(pair=polynomial_pairs(max_deg=6), x=coordinates, y=coordinates,
       z=coordinates, k=rationals)
@settings(max_examples=150, deadline=None)
def test_eval_matches_the_fraction_dict_oracle(pair, x, y, z, k):
    point = {"x": x, "y": y, "z": z}
    for p in (pair[0], pair[0] * pair[1], Polynomial.zero(),
              Polynomial.constant(k)):
        assert value_at(p, point) == _fraction_eval(fraction_form(p), point)
        nums, den = p.z_line(x, y)
        assert all(type(n) is int for n in nums)
        assert type(den) is int and den > 0
        assert [F(n, den) for n in nums] == _fraction_z_line(
            fraction_form(p), x, y)


@given(p=polynomials_in(max_deg=5), x=coordinates, y=coordinates,
       z=coordinates)
@settings(max_examples=100, deadline=None)
def test_coordinates_of_unused_variables_are_not_read(p, x, y, z):
    # object() supports no arithmetic, so reading it would raise
    given_point = {"x": x, "y": y, "z": z}
    point = {v: c if v in p.variables else object()
             for v, c in given_point.items()}
    assert value_at(p, point) == _fraction_eval(fraction_form(p), given_point)
    nums, den = p.z_line(point["x"], point["y"])
    assert [F(n, den) for n in nums] == _fraction_z_line(
        fraction_form(p), x, y)


@st.composite
def vector_fields(draw):
    """(f, (c_x, c_y, c_z)): coefficients that may be zero, carry distinct
    denominators and, half the time, make c_x f_x + c_y f_y cancel term by
    term (c_x = g f_y, c_y = -g f_x)."""
    f = draw(polynomials_in())
    coeffs = [draw(st.one_of(st.just(Polynomial.zero()),
                             polynomials_in(max_deg=2)))
              for _ in CANONICAL_VARS]
    dens = draw(st.permutations([1, 6, 10 ** 6 + 3]))
    coeffs = [c * F(1, d) for c, d in zip(coeffs, dens)]
    if draw(st.booleans()):
        g = coeffs[0]
        coeffs[0] = g * f.differentiate("y")
        coeffs[1] = -g * f.differentiate("x")
    return f, coeffs


@given(data=vector_fields())
@settings(max_examples=100, deadline=None)
def test_lie_derivative_matches_the_sum_of_partial_derivatives(data):
    f, coeffs = data
    result = VectorFieldOp(*coeffs).apply(f)
    form = fraction_form(f)
    oracle = ((), {})
    for c, var in zip(coeffs, CANONICAL_VARS):
        partial = _fraction_differentiate(form, var)
        oracle = _fraction_add(oracle, _fraction_mul(fraction_form(c), partial))
    assert_matches(result, oracle)
    assert result == sum((c * f.differentiate(var)
                          for c, var in zip(coeffs, CANONICAL_VARS)),
                         Polynomial.zero())


def _fraction_lie(field, f):
    """sum_v c_v df/dv on Fraction dicts."""
    out = ((), {})
    for c, var in zip(field, CANONICAL_VARS):
        partial = _fraction_differentiate(fraction_form(f), var)
        out = _fraction_add(out, _fraction_mul(fraction_form(c), partial))
    return out


@given(first=vector_fields(), second=vector_fields(), k=rationals)
@settings(max_examples=100, deadline=None)
def test_vf_commutator_matches_both_oracles_per_component(first, second, k):
    a, b = VectorFieldOp(*first[1]), VectorFieldOp(*second[1])
    bracket = vf_commutator(a, b)
    for a_v, b_v, got in zip(a.coeffs, b.coeffs, bracket.coeffs):
        # the former definition, and the same sum on Fraction dicts
        assert got == a.apply(b_v) - b.apply(a_v)
        assert_matches(got, _fraction_add(_fraction_lie(a.coeffs, b_v),
                                          _fraction_lie(b.coeffs, a_v), -1))
    # brackets that cancel to zero term by term are canonical zeros too
    for zero in (vf_commutator(a, a), vf_commutator(a, a * k)):
        for c in zero.coeffs:
            assert_matches(c, ((), {}))


def assert_field_canonical(op):
    """The joint stored form of a field: three numerator dicts keyed by
    exponent triples over one positive denominator, no numerator zero and
    no factor common to the denominator and all numerators; each
    coefficient it gives back is a canonical polynomial, and the three
    rebuild the field."""
    cols, den = op._cols, op._den
    assert len(cols) == len(CANONICAL_VARS)
    assert type(den) is int and den > 0
    nums = [n for c in cols for n in c.values()]
    assert all(type(n) is int and n != 0 for n in nums)
    assert all(len(e) == len(CANONICAL_VARS) for c in cols for e in c)
    assert math.gcd(den, *nums) == 1
    for c in op.coeffs:
        assert_canonical(c)
    assert VectorFieldOp(*op.coeffs) == op


@given(first=vector_fields(), second=vector_fields(), k=rationals,
       g=polynomials_in(max_deg=2))
@settings(max_examples=100, deadline=None)
def test_every_field_is_stored_jointly_canonical(first, second, k, g):
    # the constructor takes canonical polynomials over their lcm with no
    # gcd: its results here check that no prime divides all numerators
    a, b = VectorFieldOp(*first[1]), VectorFieldOp(*second[1])
    for op in (a, b, a + b, a - b, a - a, a * k, a * 0, -a, a * g,
               vf_commutator(a, b), vf_commutator(a, a * k)):
        assert_field_canonical(op)


def test_constructor_needs_no_gcd_over_the_lcm():
    # over the lcm 30 the numerators are 15, 20 and 6: each prime of 30
    # divides two of them, none all three
    op = VectorFieldOp(F(1, 2), F(2, 3), F(1, 5) * X)
    assert (op._cols, op._den) == ([{(0, 0, 0): 15}, {(0, 0, 0): 20},
                                    {(1, 0, 0): 6}], 30)
    for field in (op, VectorFieldOp(), VectorFieldOp(c_y=F(-3, 4)), LX, PY,
                  PY * Z, PX * Z, _LX_ZPY, _LY_ZPX):
        assert_field_canonical(field)


def test_paths_to_one_field_give_equal_storage():
    a = VectorFieldOp(X * Y / 3, Z ** 2 - 1, F(2, 7) * X)
    b = VectorFieldOp(Y, X * Z / 5, Y * Z - X ** 2)
    for p, q in [((LX * 2) * F(1, 2), LX),
                 (vf_commutator(a, b), -vf_commutator(b, a)),
                 (a + b - b, a), ((a * 6) * F(1, 6), a), (-(-a), a),
                 (a - a, VectorFieldOp()), (a * 0, VectorFieldOp()),
                 (PY * Z, VectorFieldOp(c_y=Z)), (_LY_ZPX, LY - PX * Z),
                 (VectorFieldOp(*a.coeffs), a)]:
        assert (p._cols, p._den) == (q._cols, q._den)
        assert p == q


@pytest.mark.parametrize("point", [{}, {"x": 0}, {"x": F(-7, 10 ** 6)},
                                   {"x": F(10 ** 6 + 1, 10 ** 6), "w": 5}])
def test_eval_of_zero_and_constant_polynomials(point):
    x, y = point.get("x"), point.get("y")
    assert Polynomial.zero().z_line(x, y) == ([0], 1)
    assert Polynomial.constant(F(-1, 2)).z_line(x, y) == ([-1], 2)
    assert (X - X + 3).z_line(x, y) == ([3], 1)


def test_eval_at_large_denominators_and_zero():
    p = (X + F(1, 3)) ** 5 * Polynomial.variable("y") - F(7, 10 ** 6)
    x, y = F(-999_983, 10 ** 6), F(10 ** 6 - 1, 10 ** 6 + 3)
    assert value_at(p, {"x": x, "y": y}) == (x + F(1, 3)) ** 5 * y - F(7, 10 ** 6)
    assert value_at(p, {"x": 0, "y": 0}) == F(-7, 10 ** 6)
    assert value_at(p, {"x": F(-1, 3), "y": 5}) == F(-7, 10 ** 6)


def test_equal_polynomials_hash_alike_across_construction_paths():
    y = Polynomial.variable("y")
    cases = [
        ((X + 1) * (X - 1), X ** 2 - 1),
        (Polynomial.constant(F(2, 4)), F(1, 2)),
        (Polynomial.constant(F(2, 4)), Polynomial((), {(): F(1, 2)})),
        (Polynomial(("x", "y"), {(0, 0): F(1, 2)}), F(1, 2)),
        ((X + y) * F(2, 6) - y / 3, X / 3),
        ((X / 2) * 2, X),
        (X / 6 + X / 3, X / 2),
        (X * 0, 0),
        (Polynomial.zero(), X - X),
        (Polynomial(("x",), {(1,): 2, (0,): 0}), 2 * X),
        # results that stop using a variable
        (X * y - X * y + X, X),
        ((X * y).differentiate("y"), X),
        (Polynomial(("x", "y", "z"), {(0, 0, 0): F(1, 2)}), F(1, 2)),
    ]
    for p, q in cases:
        assert p == q and q == p
        assert hash(p) == hash(q)
        q = q if isinstance(q, Polynomial) else Polynomial.constant(q)
        assert p.variables == q.variables
        assert p.terms == q.terms
    assert len({Polynomial.constant(F(1, 2)), F(1, 2), X ** 2 - 1,
                (X - 1) * (X + 1)}) == 2


@given(pair=polynomial_pairs())
@settings(max_examples=60, deadline=None)
def test_equal_forms_from_different_paths(pair):
    p, q = pair
    rebuilt = Polynomial(p.variables, p.terms)
    for other in (rebuilt, (p + q) - q, p * 1, (p * 6) / 6, -(-p)):
        assert_canonical(other)
        assert other == p and hash(other) == hash(p)
    assert (p == q) == (fraction_form(p) == fraction_form(q))


def _random_poly(rng, variables, max_deg=4):
    terms = {tuple(rng.randint(0, max_deg) for _ in variables):
             F(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(rng.randint(0, 5))}
    return Polynomial(variables, terms)


def _validated_product(p, q):
    """p * q from the Fraction terms, on all of x, y, z, through the
    validating constructor."""
    def on_xyz(poly):
        return {tuple(dict(zip(poly.variables, e)).get(v, 0)
                      for v in CANONICAL_VARS): c
                for e, c in poly.terms.items()}
    terms = {}
    for ea, ca in on_xyz(p).items():
        for eb, cb in on_xyz(q).items():
            key = tuple(a + b for a, b in zip(ea, eb))
            terms[key] = terms.get(key, 0) + ca * cb
    return Polynomial(CANONICAL_VARS, terms)


def test_products_are_canonical_on_seeded_pairs():
    # products add exponent triples termwise and list only the variables
    # their terms use; constants and cancelling coefficients included
    rng = random.Random(20261018)
    subsets = [(), ("x",), ("y",), ("z",), ("x", "y"), ("x", "z"),
               ("y", "z"), CANONICAL_VARS]
    pairs = [(X + 1, X - 1), (Polynomial.constant(F(2, 3)), X - X + 3),
             (X * Polynomial.variable("y") - 1, X * Polynomial.variable("y") + 1)]
    pairs += [(_random_poly(rng, rng.choice(subsets)),
               _random_poly(rng, rng.choice(subsets))) for _ in range(400)]
    for p, q in pairs:
        for product in (p * q, q * p):
            assert_canonical(product)
            expected = _validated_product(p, q)
            assert product == expected
            assert product.variables == expected.variables
            assert product.terms == expected.terms
    assert (X + 1) * (X - 1) == Polynomial(("x",), {(2,): 1, (0,): -1})


SUBSETS = [(), ("x",), ("y",), ("z",), ("x", "y"), ("x", "z"), ("y", "z"),
           CANONICAL_VARS]


def test_one_term_product_is_the_sum_of_products():
    # the one-term path shifts exponents; the general pass over the pair
    # list is the oracle, down to the storage and its order
    rng = random.Random(20261021)
    monomials = [Polynomial.constant(F(-3, 4)), Polynomial.constant(2),
                 X, Y / 6, F(-5, 9) * Z ** 2, F(7, 2) * X * Y ** 2 * Z ** 3]
    monomials += [Polynomial._make({tuple(rng.randint(0, 3) for _ in range(3)):
                                    rng.choice((-1, 1)) * rng.randint(1, 12)},
                                   rng.randint(1, 12)) for _ in range(30)]
    others = [_random_poly(rng, rng.choice(SUBSETS)) for _ in range(60)]
    others += monomials + [Polynomial.zero(), 6 * X + 4, (X + Y + Z) ** 2 / 10]
    for m in monomials:
        for p in others:
            for product, (a, b) in ((m * p, (m, p)), (p * m, (p, m))):
                expected = _sum_of_products([(a, b)])
                assert_canonical(product)
                assert product._den == expected._den
                assert list(product._nums.items()) == list(expected._nums.items())
    # the gcd of d_p d_q and the numerators is still divided out
    assert (X / 2) * Polynomial.constant(2) == X
    assert (4 * X * Y) * (Z / 8) == X * Y * Z / 2


def test_differentiate_matches_the_fraction_oracle_on_every_axis():
    rng = random.Random(20261022)
    polys = [_random_poly(rng, rng.choice(SUBSETS), max_deg=6)
             for _ in range(200)]
    polys += [Polynomial.zero(), Polynomial.constant(F(5, 3)),
              (X / 2 + Y / 3 + Z / 5) ** 4, X ** 2 / 2]
    for p in polys:
        for var in CANONICAL_VARS:
            assert_matches(p.differentiate(var),
                           _fraction_differentiate(fraction_form(p), var))
    assert (X ** 2 / 2).differentiate("x") == X      # the gcd divided out
    with pytest.raises(ValueError, match="unknown variable"):
        X.differentiate("t")


@pytest.mark.parametrize("p", [X, Polynomial.constant(F(-5, 7)),
                               (X + Polynomial.variable("z")) ** 3,
                               Polynomial.zero()])
def test_product_with_zero_is_the_zero_polynomial(p):
    zero = Polynomial.zero()
    for product in (p * zero, zero * p, p * 0, 0 * p, p * F(0)):
        assert product == zero
        assert product.variables == () and product.is_zero
        assert_canonical(product)


# -- matrices and banded operators ---------------------------------------------

int_entries = st.one_of(st.just(0), st.just(0),
                        st.integers(min_value=-5, max_value=5))


@given(data=st.data(), dim=st.integers(min_value=1, max_value=6))
@settings(max_examples=40)
def test_matrix_product_matches_dense_product(data, dim):
    # the product skips zero entries; it must equal the plain triple sum.
    # Results skip the constructor, so each must also store what it builds
    square = st.lists(st.lists(int_entries, min_size=dim, max_size=dim),
                      min_size=dim, max_size=dim)
    a, b = Matrix(data.draw(square)), Matrix(data.draw(square))
    dense = [[sum(a[i, k] * b[k, j] for k in range(dim))
              for j in range(dim)] for i in range(dim)]
    k = data.draw(st.integers(-5, 5))
    for result, oracle in (
            (a * b, dense),
            (a + b, [[a[i, j] + b[i, j] for j in range(dim)]
                     for i in range(dim)]),
            (a - b, [[a[i, j] - b[i, j] for j in range(dim)]
                     for i in range(dim)]),
            (a * k, [[a[i, j] * k for j in range(dim)] for i in range(dim)])):
        built = Matrix(oracle)
        assert result == built and built == result
        assert result.rows == built.rows and type(result.rows) is tuple
        assert all(type(row) is tuple for row in result.rows)


def banded_ops():
    """Bands with shifts in -2..2 and coefficients a + b n, small ints."""
    affine = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return st.dictionaries(st.integers(-2, 2), affine, max_size=5).map(
        lambda bands: BandedOp({s: lambda n, a=a, b=b: a + b * n
                                for s, (a, b) in bands.items()}))


@given(a=banded_ops(), b=banded_ops(), k=st.integers(-3, 3),
       first=st.integers(-3, 3), width=st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_banded_op_matches_dense_products_on_a_window(a, b, k, first, width):
    # columns first .. first+width-1, in matrices padded by 4 on each side:
    # a product moves an index by at most 2 + 2, so no term leaves the window
    window = range(first - 4, first + width + 4)

    def dense(op):
        return Matrix([[op.column(j).get(i, 0) for j in window]
                       for i in window])

    A, B = dense(a), dense(b)
    cases = [(a * b, A * B), (a + b, A + B), (a - b, A - B),
             (a.bracket(b), A * B - B * A), (a * k, A * k)]
    for j, n in enumerate(window):
        if first <= n < first + width:
            for op, matrix in cases:
                expected = {m: matrix[i, j] for i, m in enumerate(window)
                            if matrix[i, j]}
                assert op.column(n) == expected


def test_banded_op_column_drops_only_exact_zeros():
    op = BandedOp({-1: lambda n: n, 0: lambda n: Fraction(0), 1: lambda n: 0.0})
    assert op.column(0) == {1: 0.0}
    assert op.column(2) == {1: 2, 3: 0.0}


# -- series in t = y -----------------------------------------------------------
# A series is a polynomial in y = t whose coefficients are polynomials in x
# and z; the oracles below work on coefficient lists.

def convolve(a, b, zero):
    """Cauchy product of two coefficient lists of equal length."""
    return [sum((a[i] * b[n - i] for i in range(n + 1)), zero)
            for n in range(len(a))]


def naive_exp(coeffs, one, zero):
    """sum_j s^j / j! over coefficient lists, by repeated convolution."""
    total = [one] + [zero] * (len(coeffs) - 1)
    power = list(total)
    for j in range(1, len(coeffs)):
        power = convolve(power, coeffs, zero)
        total = [t + F(1, math.factorial(j)) * p for t, p in zip(total, power)]
    return total


def series(coeffs):
    """sum_k coeffs[k] t^k, with t = y."""
    return sum((c * Y ** k for k, c in enumerate(coeffs)), Polynomial.zero())


def coefficients(s, order):
    """The coefficients of t^0 .. t^order of ``s``, polynomials in x and z;
    an IndexError if ``s`` has a term above t^order."""
    out = [{} for _ in range(order + 1)]
    for exps, c in s.terms.items():
        powers = dict(zip(s.variables, exps))
        out[powers.get("y", 0)][(powers.get("x", 0), powers.get("z", 0))] = c
    return [Polynomial(("x", "z"), terms) for terms in out]


sparse_fractions = st.one_of(
    st.just(F(0)),
    st.builds(F, coeffs, st.integers(min_value=1, max_value=6)))
# series coefficients are polynomials: a rational series has constant ones
sparse_constants = sparse_fractions.map(Polynomial.constant)
ONE, ZERO = Polynomial.constant(1), Polynomial.zero()
sparse_polys = st.one_of(st.just(Polynomial.zero()),
                         polynomials(max_deg=2, variables=("x", "z")))


@given(data=st.data(), order=st.integers(min_value=0, max_value=12))
@settings(max_examples=40, deadline=None)
def test_series_exp_matches_naive_sum_fraction(data, order):
    coeffs = [ZERO] + data.draw(
        st.lists(sparse_constants, min_size=order, max_size=order))
    e = series_exp(series(coeffs), order)
    assert coefficients(e, order) == naive_exp(coeffs, ONE, ZERO)
    assert_canonical(e)


@given(data=st.data(), order=st.integers(min_value=0, max_value=12))
@settings(max_examples=15, deadline=None)
def test_series_exp_matches_naive_sum_polynomial(data, order):
    # at most three nonzero coefficients keep the naive powers small
    nonzero = data.draw(st.lists(st.integers(min_value=1, max_value=max(order, 1)),
                                 max_size=3, unique=True))
    coeffs = [ZERO] * (order + 1)
    for j in nonzero:
        if j <= order:
            coeffs[j] = data.draw(sparse_polys)
    expected = naive_exp(coeffs, ONE, ZERO)
    assert coefficients(series_exp(series(coeffs), order), order) == expected


def test_series_exp_truncates_to_requested_order():
    # terms of s above t^order take no part
    expected = series([F(1, math.factorial(k)) for k in range(5)])
    assert series_exp(Y, 4) == expected
    assert series_exp(Y + Y ** 7, 4) == expected


@pytest.mark.parametrize("order, error", [(True, TypeError),
                                          (2.0, TypeError),
                                          (-1, ValueError)],
                         ids=["bool", "float", "negative"])
def test_series_exp_rejects_a_bad_order(order, error):
    # a bool is an int to isinstance: series_exp(s, True) would be order 1
    with pytest.raises(error, match="order must be"):
        series_exp(Y, order)


@given(data=st.data(), order=st.integers(min_value=0, max_value=8))
@settings(max_examples=40)
def test_series_product_matches_convolution(data, order):
    a = data.draw(st.lists(sparse_constants, min_size=order + 1,
                           max_size=order + 1))
    b = data.draw(st.lists(sparse_constants, min_size=order + 1,
                           max_size=order + 1))
    product = _series_product(series(a), series(b), order)
    assert coefficients(product, order) == convolve(a, b, ZERO)


@given(data=st.data(), order_a=st.integers(min_value=0, max_value=6),
       order_b=st.integers(min_value=0, max_value=6),
       order=st.integers(min_value=0, max_value=8))
@settings(max_examples=40, deadline=None)
def test_series_product_matches_naive_cauchy_sum(data, order_a, order_b,
                                                 order):
    # polynomial coefficients, many of them zero, and factors shorter or
    # longer than the product's order: the product equals the Cauchy sum
    # through Polynomial * and + of the factors cut or padded to that order
    a, b = [data.draw(st.lists(sparse_polys, min_size=n + 1, max_size=n + 1))
            for n in (order_a, order_b)]
    product = _series_product(series(a), series(b), order)
    pad = [ZERO] * (order + 1)
    assert coefficients(product, order) == convolve(
        (a + pad)[:order + 1], (b + pad)[:order + 1], ZERO)
    assert_canonical(product)


@given(p=polynomials_in(), q=polynomials_in(),
       order=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_series_product_is_the_truncated_product(p, q, order):
    # the oracle: the whole product, less every term above t^order
    full = p * q
    kept = {exps: c for exps, c in full.terms.items()
            if dict(zip(full.variables, exps)).get("y", 0) <= order}
    product = _series_product(p, q, order)
    assert product == Polynomial(full.variables, kept)
    assert_canonical(product)


def test_series_product_coefficient_with_no_nonzero_pair():
    # t^2 * t^2 through t^3: no pair of terms is formed
    t2 = X * Y ** 2
    assert _series_product(t2, t2, 3).is_zero
    assert _series_product(t2, t2, 4) == t2 * t2
    for div in (1, 6):
        empty = _sum_of_products([], div)
        assert empty == 0
        assert_canonical(empty)


def test_sum_of_products_brings_each_product_to_the_lcm():
    # products over 6 and 20, summed over their lcm 60, then divided by 7
    pairs = [(X / 2, X / 3), (Polynomial.constant(F(1, 5)), Y / 4)]
    expected = (X / 2) * (X / 3) + F(1, 5) * (Y / 4)
    assert _sum_of_products(pairs) == expected
    assert _sum_of_products(pairs, 7) == expected / 7
    assert_canonical(_sum_of_products(pairs, 7))


def test_series_exp_of_zero_is_one():
    # every coefficient past t^0 sums an empty pair list
    assert series_exp(ZERO, 8) == ONE
    assert series_exp(ZERO, 0) == ONE


def test_series_exp_rejects_constant_term():
    # the t^0 term is every term free of y, constant in x and z or not;
    # s is read before any order is built, so order 0 raises too
    for s in (ONE + Y, X, X * Z + Y ** 2):
        for order in (0, 4):
            with pytest.raises(ValueError, match="constant term"):
                series_exp(s, order)


def test_series_exp_hermite_generating_coefficients():
    # exp(2xt - t^2): t and t^2 coefficients equal H_1/1! and H_2/2!
    # computed from the independent recurrence oracle.
    e = coefficients(series_exp(2 * X * Y - Y ** 2, 8), 8)
    assert e[1] == hermite_by_recurrence(1)
    assert e[2] == hermite_by_recurrence(2) * F(1, 2)


@given(a1=coeffs, a2=coeffs, b1=coeffs, b2=coeffs)
@settings(max_examples=40)
def test_series_exp_is_multiplicative(a1, a2, b1, b2):
    order = 7
    a = a1 * Y + a2 * Y ** 2
    b = b1 * Y + b2 * Y ** 2
    assert (_series_product(series_exp(a, order), series_exp(b, order), order)
            == series_exp(a + b, order))


def series_exp_by_orders(s, order):
    """exp(s) through t^order with every a_n normalized on its own: a_n =
    (1/n) sum_j j s_j a_{n-j} as one ``_sum_of_products`` per order, over
    the lcm of its products, and the a_n t^n summed at the end."""
    parts = {}
    for (a0, j, a2), n in s._nums.items():
        if not j:
            raise ValueError("series_exp requires a zero constant term")
        parts.setdefault(j, {})[(a0, j, a2)] = j * n
    weighted = [(j, Polynomial._make(nums, s._den))
                for j, nums in sorted(parts.items())]
    a = [ONE]
    for n in range(1, order + 1):
        a.append(_sum_of_products(
            [(js_j, a[n - j]) for j, js_j in weighted if j <= n], n))
    return sum(a, ZERO)


@given(parts=st.lists(st.tuples(st.integers(min_value=1, max_value=5),
                                 polynomials(max_deg=2, variables=("x", "z"))),
                       max_size=4),
       den=st.integers(min_value=1, max_value=12),
       order=st.integers(min_value=0, max_value=10))
@settings(max_examples=80, deadline=None)
def test_series_exp_matches_the_order_by_order_recurrence(parts, den, order):
    # several powers of y, x and z terms, a denominator d != 1 shared by s:
    # the running denominator n! d^n gives the same canonical storage
    s = sum((p * Y ** j for j, p in parts), ZERO) / den
    e = series_exp(s, order)
    expected = series_exp_by_orders(s, order)
    assert (e._den, e._nums) == (expected._den, expected._nums)
    assert_canonical(e)


def test_series_exp_matches_the_order_by_order_recurrence_at_report_sizes():
    for s, order in ((2 * X * Y - Y * Y, 64), (X * Y, 32),
                     (Y * Y * F(-1, 2), 32), (F(3, 4) * Y - X * Z * Y ** 3, 20)):
        e, expected = series_exp(s, order), series_exp_by_orders(s, order)
        assert (e._den, e._nums) == (expected._den, expected._nums)


@pytest.mark.parametrize("value", [2.5, -0.0, float("nan"), 1 + 2j, 7, F(1, 3)],
                         ids=["float", "neg-zero", "nan", "complex", "int",
                              "fraction"])
def test_as_complex_takes_a_number(value):
    # a float or a complex by exact type skips the checks; the others (and
    # the str, bool and numpy bool that tests/test_euclidean.py sends the
    # evaluator) take them
    z = _as_complex(value)
    assert type(z) is complex
    assert repr(z) == repr(complex(value))


def test_as_complex_checks_a_float_subclass():
    numpy = pytest.importorskip("numpy")
    assert _as_complex(numpy.float64(2.5)) == 2.5 + 0j
    with pytest.raises(TypeError, match="expected a number"):
        _as_complex(numpy.bool_(True))


# -- the Gaussian pairing ------------------------------------------------------
# weighted_overlaps(x^k, [1])[0] is the k-th moment of exp(-x^2) in units of
# sqrt(pi)

def moment(k):
    return weighted_overlaps(X ** k, [ONE])[0]


def test_moment_odd_vanishes():
    assert moment(1) == 0
    assert moment(7) == 0


def test_moment_normalization():
    assert moment(0) == 1


def test_moment_two_by_parts():
    # integration by parts: integral x^2 e^{-x^2} = (1/2) integral e^{-x^2}
    assert moment(2) == F(1, 2) * moment(0)


@pytest.mark.parametrize("k", range(2, 40, 2))
def test_moment_recurrence(k):
    assert moment(k) == F(k - 1, 2) * moment(k - 2)


def test_moments_match_gamma_oracle():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for k in range(0, 41, 2):
            oracle = mpmath.gamma(mpmath.mpf(k + 1) / 2) / mpmath.sqrt(mpmath.pi)
            value = moment(k)
            assert mpmath.almosteq(
                mpmath.mpf(value.numerator) / value.denominator, oracle,
                rel_eps=mpmath.mpf(10) ** -50)


@given(p=polynomials(max_deg=8).map(lambda p: p.substitute({"y": ONE})),
       q=polynomials(max_deg=8).map(lambda p: p.substitute({"y": ONE})))
@settings(max_examples=60)
def test_overlap_is_the_moment_sum_of_the_product(p, q):
    # the bilinear pass equals integrating the built product p*q term by term
    expected = sum((c * moment(e[0] if e else 0)
                    for e, c in (p * q).terms.items()), F(0))
    assert (weighted_overlaps(p, [q])[0] == expected
            == weighted_overlaps(q, [p])[0])


def moment_by_double_factorial(k):
    """integral x^k exp(-x^2) dx / sqrt(pi): (2j-1)!!/2^j at k = 2j, 0 at odd
    k."""
    if k % 2:
        return F(0)
    j = k // 2
    return F(math.prod(range(1, 2 * j, 2)), 2 ** j)


def direct_overlap(p, q):
    """The pairing as the moment sum over the terms of the expanded p*q."""
    return sum((c * moment_by_double_factorial(e[0] if e else 0)
                for e, c in (p * q).terms.items()), F(0))


x_polys = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    max_size=6).map(lambda d: Polynomial(("x",), {(k,): c
                                                  for k, c in d.items()}))


@given(p=x_polys, q=x_polys)
@settings(max_examples=80)
def test_overlap_matches_the_direct_moment_sum(p, q):
    # mixed parities and the zero polynomial: the parity buckets pair only
    # terms whose moment can be nonzero, and lose none that is
    assert weighted_overlaps(p, [q])[0] == direct_overlap(p, q)


@pytest.mark.parametrize("p, q", [
    (Polynomial.zero(), X ** 2 + 1), (X ** 3 - 2 * X, X ** 2 + 1),
    (X ** 3 + X ** 2, X + 1), (1 + X + X ** 2, 1 - X + X ** 3),
    (Polynomial.zero(), Polynomial.zero())])
def test_overlap_on_mixed_parity_and_zero(p, q):
    assert weighted_overlaps(p, [q])[0] == direct_overlap(p, q)
    assert weighted_overlaps(q, [p])[0] == direct_overlap(p, q)


@pytest.mark.parametrize("p, q", [(Y, Y), (X * Y, X * Y), (Z, ONE),
                                  (ONE, X + Z), (X ** 2, X - Y + 1)])
def test_overlap_rejects_a_term_in_y_or_z(p, q):
    with pytest.raises(ValueError, match="x only"):
        weighted_overlaps(p, [q])[0]


def _random_x_poly(rng, max_deg=12):
    """A polynomial in x with a denominator other than 1 most of the time,
    both parities and, now and then, no term at all."""
    terms = {(rng.randint(0, max_deg),): F(rng.randint(-20, 20),
                                           rng.randint(1, 30))
             for _ in range(rng.randint(0, 7))}
    return Polynomial(("x",), terms)


def test_overlaps_are_the_moment_sums_on_seeded_polynomials():
    # one moment row of p against many q at once: each entry is the moment
    # sum of the expanded product, whatever the other qs are
    rng = random.Random(20261023)
    for _ in range(150):
        p = _random_x_poly(rng)
        qs = [_random_x_poly(rng) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.2:
            qs.append(Polynomial.zero())
        overlaps = weighted_overlaps(p, qs)
        assert overlaps == [direct_overlap(p, q) for q in qs]
        assert all(type(v) is Fraction for v in overlaps)
        assert overlaps == [weighted_overlaps(p, [q])[0] for q in qs]


def test_overlaps_edge_cases():
    assert weighted_overlaps(X ** 3 - X / 2, []) == []
    assert weighted_overlaps(Polynomial.zero(), [X, ONE, ZERO]) == [0, 0, 0]
    assert weighted_overlaps(ONE, [ZERO]) == [0]
    # a q of lower degree than the others reads only the start of the row
    assert weighted_overlaps(X ** 4 / 3, [ONE, X ** 6, X ** 2 / 7]) == [
        direct_overlap(X ** 4 / 3, q) for q in (ONE, X ** 6, X ** 2 / 7)]
    # a generator of qs is read once
    assert weighted_overlaps(X, (X ** k for k in range(4))) == [
        0, F(1, 2), 0, F(3, 4)]


@pytest.mark.parametrize("p, qs", [
    (X, [ONE, Y]), (X, [X, X - Z, ONE]), (ONE, [X ** 2, X * Y ** 2]),
    (Y, []), (X + Z, [ONE])])
def test_overlaps_reject_a_term_in_y_or_z_in_any_polynomial(p, qs):
    with pytest.raises(ValueError, match="x only"):
        weighted_overlaps(p, qs)
