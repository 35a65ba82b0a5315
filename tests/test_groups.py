"""Matrix realizations of H3 and E2: composition, exp, generators, axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegen import groups
from liegen.groups import (
    E2_BASIS_ROT,
    E2_BASIS_X,
    E2_BASIS_Y,
    E2Element,
    H3_BASIS_A,
    H3_BASIS_B,
    H3_BASIS_C,
    H3Element,
    IDENTITY,
    _gap,
    _random_e2,
    _random_h3,
    axiom_suite,
    commutator,
    e2_apply,
    e2_compose,
    e2_exp_translation,
    e2_inverse,
    h3_compose,
    h3_exp,
    h3_inverse,
    h3_log,
    tangent_residuals,
)
from liegen.numeric import Matrix

F = Fraction
ZERO = Matrix([[0] * 3] * 3)


# -- H3 ----------------------------------------------------------------------

def test_h3_compose_matches_matrix_product_oracle():
    g, h = H3Element(1, 2, 3), H3Element(4, 5, 6)
    composed = h3_compose(g, h)
    # independent oracle: multiply the 3x3 matrices
    assert composed.to_matrix() == g.to_matrix() * h.to_matrix()
    assert composed == H3Element(5, 13, 9)


def test_h3_identity_element():
    g = H3Element(F(7, 3), -2, F(1, 5))
    assert h3_compose(H3Element.identity(), g) == g
    assert h3_compose(g, H3Element.identity()) == g


def test_h3_inverse_formula_and_matrix_oracle():
    g = H3Element(1, 2, 3)
    inv = h3_inverse(g)
    assert inv == H3Element(-1, 1, -3)
    assert g.to_matrix() * inv.to_matrix() == IDENTITY
    assert h3_inverse(H3Element.identity()) == H3Element.identity()
    assert h3_inverse(inv) == g


def test_h3_compose_with_inverse_is_identity():
    g = H3Element(F(2, 7), F(-5, 3), 11)
    assert h3_compose(g, h3_inverse(g)) == H3Element.identity()


def test_h3_equal_elements_over_different_denominators_have_equal_storage():
    # stored in lowest terms over one denominator, as E2Element is
    g = H3Element(F(2, 4), F(-3, 6), F(4, 8))
    assert (g.num, g.den) == ((1, -1, 1), 2)
    assert g == H3Element(F(1, 2), F(-1, 2), F(1, 2))
    assert hash(g) == hash(H3Element(F(1, 2), F(-1, 2), F(1, 2)))
    mixed = H3Element(F(1, 6), F(1, 4), 2)
    assert (mixed.num, mixed.den) == ((2, 3, 24), 12)
    assert (H3Element.identity().num, H3Element.identity().den) == ((0, 0, 0), 1)
    # products run over d1*d2 and the inverse over d^2; one gcd reduces them
    h = H3Element(F(2, 3), F(1, 6), F(-1, 3))
    back = h3_compose(h3_compose(g, h), h3_inverse(h))
    assert (back.num, back.den) == (g.num, g.den)
    assert h3_compose(h, h3_inverse(h)).den == 1


def params(g):
    """An element's parameters as Fractions, read off its numerators."""
    return tuple(F(n, g.den) for n in g.num)


def test_h3_parameters_read_back_as_fractions():
    g = H3Element(F(7, 3), -2, F(1, 5))
    assert params(g) == (F(7, 3), -2, F(1, 5))
    m = g.to_matrix()
    assert (m[0, 1], m[0, 2], m[1, 2]) == params(g)
    assert all(type(v) is Fraction for row in m.rows for v in row)


@pytest.mark.parametrize("args", [
    (0.5, 0, 0), (0, 1.0, 0), (0, 0, 0.0), (True, 0, 0), (0, 0, False)],
    ids=["float-x1", "float-x2", "float-zero", "bool-x1", "bool-x3"])
def test_h3_rejects_inexact_parameters(args):
    with pytest.raises(TypeError, match="exact scalar"):
        H3Element(*args)


def random_h3_pairs(count):
    rng = random.Random(20261019)

    def q():
        return F(rng.randint(-60, 60), rng.randint(1, 12))
    return [(H3Element(q(), q(), q()), H3Element(q(), q(), q()))
            for _ in range(count)]


@pytest.mark.parametrize("g,h", random_h3_pairs(25))
def test_h3_integer_kernels_match_the_fraction_formulas(g, h):
    (x1, x2, x3), (y1, y2, y3) = params(g), params(h)
    assert h3_compose(g, h) == H3Element(x1 + y1, y2 + x1 * y3 + x2, x3 + y3)
    assert h3_inverse(g) == H3Element(-x1, x1 * x3 - x2, -x3)


def h3_algebra(a, b, c):
    """The algebra element aA + bB + cC as its matrix."""
    return H3_BASIS_A * F(a) + H3_BASIS_B * F(b) + H3_BASIS_C * F(c)


def test_h3_exp_closed_form():
    assert h3_exp(ZERO) == H3Element.identity()
    assert h3_exp(H3_BASIS_A + H3_BASIS_C) == H3Element(1, F(1, 2), 1)


def test_h3_algebra_cube_is_zero():
    m = h3_algebra(F(3, 2), -4, F(7, 5))
    assert m * m * m == ZERO


def test_h3_exp_matches_truncated_series():
    m = h3_algebra(F(1, 3), F(2, 5), -2)
    series = IDENTITY + m + (m * m) * F(1, 2)
    assert h3_exp(m).to_matrix() == series


def test_h3_log_roundtrip():
    m = h3_algebra(F(5, 4), F(-1, 7), 3)
    assert h3_log(h3_exp(m)) == m
    assert h3_exp(h3_log(H3Element(F(2, 9), -7, F(5, 3)))) == H3Element(
        F(2, 9), -7, F(5, 3))


@pytest.mark.parametrize("position", [(0, 0), (1, 1), (2, 2), (1, 0), (2, 0),
                                      (2, 1), None])
def test_h3_exp_rejects_a_diagonal_or_lower_entry(position):
    # None: a 2x2 matrix, which has no H3 algebra element either
    rows = [list(row) for row in h3_algebra(1, 2, 3).rows]
    if position is None:
        rows = [[0, 1], [0, 0]]
    else:
        rows[position[0]][position[1]] = F(1, 5)
    with pytest.raises(ValueError, match="strictly upper triangular"):
        h3_exp(Matrix(rows))


@pytest.mark.parametrize("position", [(0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("value", [0.5, 0.0, True],
                         ids=["float", "float-zero", "bool"])
def test_h3_exp_rejects_an_inexact_entry(position, value):
    rows = [list(row) for row in h3_algebra(1, 2, 3).rows]
    rows[position[0]][position[1]] = value
    with pytest.raises(TypeError, match="exact scalar"):
        h3_exp(Matrix(rows))


def test_h3_basis_commutators():
    assert commutator(H3_BASIS_A, H3_BASIS_B) == ZERO
    assert commutator(H3_BASIS_B, H3_BASIS_C) == ZERO
    assert commutator(H3_BASIS_A, H3_BASIS_C) == H3_BASIS_B


# -- E2 ----------------------------------------------------------------------

def cayley(x, y, t):
    """The element (x, y, u), u = ((1 - t^2) + 2t i)/(1 + t^2), over the
    least common denominator of its parameters."""
    t = F(t)
    params = (F(x), F(y), (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
    den = math.lcm(*(v.denominator for v in params))
    return E2Element(*(int(v * den) for v in params), den)


QUARTER_TURN = cayley(0, 0, 1)


def test_e2_apply_pure_translation():
    g = E2Element(3, -2, 3, 0, 3)
    assert e2_apply(g, (0, 0)) == (1, F(-2, 3))


def test_e2_apply_quarter_turn_rotation_oracle():
    # t = 1 is u = i: the rotation by pi/2 sends (1, 0) to (0, 1)
    assert QUARTER_TURN == E2Element(0, 0, 0, 1)
    assert e2_apply(QUARTER_TURN, (1, 0)) == (0, 1)
    assert e2_apply(QUARTER_TURN, (F(2, 5), 3)) == (-3, F(2, 5))
    half_turn = e2_compose(QUARTER_TURN, QUARTER_TURN)
    assert half_turn == E2Element(0, 0, -1, 0)
    assert e2_compose(half_turn, half_turn) == E2Element.identity()


def test_e2_apply_matches_homogeneous_matrix_product():
    g = cayley(F(3, 10), F(-6, 5), F(2, 7))
    a, b = F(7, 10), F(-2, 5)
    matrix_result = g.to_matrix().apply((a, b, 1))
    assert matrix_result == (*e2_apply(g, (a, b)), 1)
    assert all(isinstance(v, (int, F)) for v in matrix_result)


def test_e2_apply_rejects_a_float_point():
    with pytest.raises(TypeError):
        e2_apply(QUARTER_TURN, (1.0, 0))


@pytest.mark.parametrize("args", [
    (0.5, 0, 1, 0), (0, 0, 0.6, 0.8), (0, 0, 1.0, 0), (0, 0, 1, 0.0),
    (0, 0, 1, 0, 1.0), (0, 0, F(1), 0), (0, 0, True, 0),
], ids=["float-x", "float-c-s", "float-one", "float-zero", "float-den",
        "fraction", "bool"])
def test_e2_rejects_non_integer_numerators(args):
    with pytest.raises(TypeError,
                       match="an E2Element argument must be an int"):
        E2Element(*args)


@pytest.mark.parametrize("args", [
    (0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 3, 4, 6), (0, 0, 1, 0, 0),
    (0, 0, -1, 0, -1),
], ids=["off-circle", "zero", "inside", "zero-den", "negative-den"])
def test_e2_rejects_a_rotation_off_the_unit_circle(args):
    with pytest.raises(ValueError, match="den > 0"):
        E2Element(*args)


def test_e2_equal_elements_over_different_denominators_have_equal_storage():
    # stored in lowest terms whatever denominator they were built over
    assert E2Element(6, 4, 6, -8, 10) == E2Element(3, 2, 3, -4, 5)
    assert E2Element(6, 4, 6, -8, 10).num == (3, 2, 3, -4)
    assert E2Element(6, 4, 6, -8, 10).den == 5
    assert hash(E2Element(2, 0, 2, 0, 2)) == hash(E2Element(1, 0, 1, 0))
    # products run over d1*d2 and the inverse over d^2; one gcd reduces them
    g = cayley(F(1, 2), F(-7, 3), F(1, 2))
    h = cayley(F(5, 4), 2, F(-3, 8))
    assert e2_compose(g, e2_inverse(g)) == E2Element.identity()
    assert e2_compose(e2_inverse(g), g).den == 1
    back = e2_compose(e2_compose(g, h), e2_inverse(h))
    assert (back.num, back.den) == (g.num, g.den)
    shift = E2Element(1, 0, 2, 0, 2)
    assert e2_compose(shift, shift) == E2Element(1, 0, 1, 0)


def test_e2_inverse_matches_matrix_oracle():
    g = cayley(F(-3, 2), F(5, 9), F(7, 4))
    assert g.to_matrix() * e2_inverse(g).to_matrix() == IDENTITY
    assert e2_inverse(e2_inverse(g)) == g


@pytest.mark.parametrize("g", [
    H3Element(F(7, 3), -2, F(1, 5)), H3Element(0, 0, 0),
    H3Element(F(-5, 12), F(9, 4), F(1, 6)), cayley(F(3, 10), F(-6, 5), F(2, 7)),
    E2Element.identity(), cayley(F(-7, 2), F(1, 9), F(-4, 3))],
    ids=["h3", "h3-identity", "h3-mixed-den", "e2", "e2-identity", "e2-turn"])
def test_numerator_matrix_over_den_is_the_matrix(g):
    # the layout written out here, from the parameters as Fractions, is the
    # oracle for num_matrix, the one place the package writes it
    if isinstance(g, H3Element):
        x1, x2, x3 = params(g)
        oracle = Matrix([[1, x1, x2], [0, 1, x3], [0, 0, 1]])
    else:
        x, y, c, s = params(g)
        oracle = Matrix([[c, -s, x], [s, c, y], [0, 0, 1]])
    n = g.num_matrix()
    assert all(type(n[i, j]) is int for i in range(3) for j in range(3))
    assert n * F(1, g.den) == oracle
    assert g.to_matrix() == oracle
    assert all(type(v) is Fraction for row in g.to_matrix().rows for v in row)


def test_e2_translation_exponential():
    assert e2_exp_translation(0, "x") == IDENTITY
    t = F(4, 5)
    m = e2_exp_translation(t, "x")
    assert m.apply((2, 3, 1)) == (2 + t, 3, 1)
    m = e2_exp_translation(t, "y")
    assert m.apply((2, 3, 1)) == (2, 3 + t, 1)
    # exact end to end: a float step has no exact matrix
    with pytest.raises(TypeError, match="exact scalar"):
        e2_exp_translation(0.8, "x")
    # nor is a bool an exact step: True was read as the step 1
    with pytest.raises(TypeError, match="exact scalar"):
        e2_exp_translation(True, "x")


def test_e2_translation_generator_nilpotent():
    t = F(5, 3)
    n = e2_exp_translation(t, "x") - IDENTITY
    assert n * n == ZERO
    assert E2_BASIS_X * E2_BASIS_X == ZERO
    assert E2_BASIS_Y * E2_BASIS_Y == ZERO


def test_e2_translations_commute():
    a = e2_exp_translation(F(3, 7), "x")
    b = e2_exp_translation(F(-2, 5), "y")
    assert a * b == b * a


def test_e2_matrix_basis_commutators():
    # relations [Z,X]=Y, [Y,Z]=X, [X,Y]=0 under X->E2_BASIS_X,
    # Y->E2_BASIS_Y, Z->E2_BASIS_ROT
    assert commutator(E2_BASIS_X, E2_BASIS_Y) == ZERO
    assert commutator(E2_BASIS_ROT, E2_BASIS_X) == E2_BASIS_Y
    assert commutator(E2_BASIS_Y, E2_BASIS_ROT) == E2_BASIS_X


# -- generators ----------------------------------------------------------------

STEPS = (F(1), F(1, 2), F(-3, 7), F(5, 3), F(-40, 3))


def quotient(curve, h):
    """The central difference (M(h) - M(-h)) / 2h of a curve's matrices."""
    return (curve(h).to_matrix() - curve(-h).to_matrix()) * (1 / (2 * h))


@pytest.mark.parametrize("index,exact", [
    (1, H3_BASIS_A), (2, H3_BASIS_B), (3, H3_BASIS_C)])
def test_h3_generators_by_finite_difference(index, exact):
    # H3 is affine in each parameter: every step's quotient is the generator
    def curve(h):
        params = [0, 0, 0]
        params[index - 1] = h
        return H3Element(*params)
    for h in STEPS:
        assert quotient(curve, h) == exact
        assert tangent_residuals("h3", h)[index - 1] == ZERO


def e2_curve(index, h):
    """E(2) translated by h along x (index 1) or y (2), or rotated by
    Cayley's ((1 - h^2) + 2h*i) / (1 + h^2), with tan(theta/2) = h (3)."""
    p, q = h.numerator, h.denominator
    if index == 3:
        return E2Element(0, 0, q * q - p * p, 2 * p * q, q * q + p * p)
    shift = [0, 0]
    shift[index - 1] = p
    return E2Element(*shift, q, 0, q)


@pytest.mark.parametrize("index,exact", [
    (1, E2_BASIS_X), (2, E2_BASIS_Y), (3, E2_BASIS_ROT)])
def test_e2_generators_by_finite_difference(index, exact):
    # translations are affine in h; the rotation's quotient is 2/(1 + h^2)
    # times its generator at every step (dtheta/dt = 2/(1 + t^2))
    for h in STEPS:
        weight = 2 / (1 + h * h) if index == 3 else 1
        assert quotient(lambda t: e2_curve(index, t), h) == exact * weight
        assert tangent_residuals("e2", h)[index - 1] == ZERO


def test_e2_rotation_generator_entries():
    # so at h -> 0 the quotient in t tends to 2 * E2_BASIS_ROT, and
    # d/dtheta = (1/2) d/dt there is the generator itself
    for h in STEPS:
        rot = quotient(lambda t: e2_curve(3, t), h)
        assert rot[0, 1] == -2 / (1 + h * h) and rot[1, 0] == 2 / (1 + h * h)
        assert all(rot[i, j] == 0 for i in range(3) for j in range(3)
                   if (i, j) not in ((0, 1), (1, 0)))


def tangents_by_quotients(group, h):
    """(M(h) - M(-h)) / 2h - w generator for each curve, every quotient and
    difference built, with the generators ``groups`` binds at the call."""
    if group == "h3":
        gens = (groups.H3_BASIS_A, groups.H3_BASIS_B, groups.H3_BASIS_C)
        return [quotient(lambda t, i=i: H3Element(
                    *(t if j == i else 0 for j in range(3))), h) - gen
                for i, gen in enumerate(gens)]
    gens = (groups.E2_BASIS_X, groups.E2_BASIS_Y, groups.E2_BASIS_ROT)
    return [quotient(lambda t, i=i: e2_curve(i, t), h)
            - gen * (2 / (1 + h * h) if i == 3 else 1)
            for i, gen in enumerate(gens, 1)]


@pytest.mark.parametrize("group, names", [
    ("h3", ("H3_BASIS_A", "H3_BASIS_B", "H3_BASIS_C")),
    ("e2", ("E2_BASIS_X", "E2_BASIS_Y", "E2_BASIS_ROT"))])
@pytest.mark.parametrize("change", [
    lambda gen: gen * F(3, 2), lambda gen: gen + IDENTITY * F(-1, 5),
    lambda gen: gen * 0], ids=["scaled", "shifted", "zero"])
def test_tangents_on_wrong_generators_are_the_quotient_residuals(
        monkeypatch, group, names, change):
    # a mismatch pays for the quotient: the residual is the quotient's, in
    # Fractions, and only the changed curve has one
    for index, name in enumerate(names):
        monkeypatch.setattr(groups, name, change(getattr(groups, name)))
        for h in STEPS:
            residuals = tangent_residuals(group, h)
            assert residuals == tangents_by_quotients(group, h)
            assert residuals[index] != ZERO
            assert all(type(e) is F for row in residuals[index].rows
                       for e in row)
            assert [r == ZERO for r in residuals] == [
                i != index for i in range(3)]
        monkeypatch.undo()


def test_tangent_residuals_reject_bad_input():
    with pytest.raises(ValueError):
        tangent_residuals("su2", F(1))
    # M(0) - M(-0) = 0 would match 0 * generator: the step is divided first
    for group in ("h3", "e2"):
        with pytest.raises(ZeroDivisionError):
            tangent_residuals(group, F(0))
    with pytest.raises(TypeError, match="exact scalar"):
        tangent_residuals("e2", 0.5)
    # an int step stays exact: 1 / (2 h) is not a float
    assert tangent_residuals("e2", -2) == [ZERO] * 3


# -- axiom suites ----------------------------------------------------------------

def random_h3_by_fractions(rng):
    """The draw as a Fraction per parameter, through the public constructor:
    the reference for the integer draw of ``_random_h3``."""
    def q():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    return H3Element(q(), q(), q())


def test_random_h3_matches_the_fraction_draw():
    ints, fractions = random.Random(20), random.Random(20)
    for _ in range(5_000):
        g, h = _random_h3(ints), random_h3_by_fractions(fractions)
        assert (g.num, g.den) == (h.num, h.den)
    # both consumed the same stream
    assert ints.random() == fractions.random()


def randint_h3(rng):
    """``_random_h3``'s draw written with ``randint``, the reference for its
    ``randrange`` calls."""
    p1, q1 = rng.randint(-60, 60), rng.randint(1, 12)
    p2, q2 = rng.randint(-60, 60), rng.randint(1, 12)
    p3, q3 = rng.randint(-60, 60), rng.randint(1, 12)
    return H3Element(F(p1, q1), F(p2, q2), F(p3, q3))


def randint_e2(rng):
    """``_random_e2``'s draw written with ``randint``."""
    p, q, m = rng.randint(-60, 60), rng.randint(1, 12), rng.randint(1, 12)
    den = m * (q * q + p * p)
    return E2Element(rng.randint(-5 * den, 5 * den),
                     rng.randint(-5 * den, 5 * den),
                     m * (q * q - p * p), 2 * m * p * q, den)


@pytest.mark.parametrize("draw, reference", [(_random_h3, randint_h3),
                                             (_random_e2, randint_e2)],
                         ids=["h3", "e2"])
def test_draws_are_the_randint_stream(draw, reference):
    # randint(a, b) is randrange(a, b + 1): the same elements from the same
    # stream, and the stream left at the same place
    for seed in range(50):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(20):
            g, h = draw(fast), reference(slow)
            assert (g.num, g.den) == (h.num, h.den)
        assert fast.random() == slow.random()


@pytest.mark.parametrize("cls, num, den", [
    (H3Element, (3, -5, 7), 4),              # gcd 1
    (H3Element, (6, -10, 14), 8),            # gcd 2
    (H3Element, (0, 0, 0), 36),              # the identity over 36
    (E2Element, (1, 2, 3, 4), 5),            # gcd 1
    (E2Element, (3, 6, 9, 12), 15),          # gcd 3
])
def test_reduced_stores_lowest_terms_at_any_gcd(cls, num, den):
    g = cls._reduced(num, den)
    common = math.gcd(den, *num)
    assert g.num == tuple(n // common for n in num)
    assert g.den == den // common
    assert type(g.num) is tuple and all(type(n) is int for n in g.num)
    # at gcd 1 the fields are the arguments as given
    if common == 1:
        assert g.num is num


def test_h3_axioms_exact():
    residuals = axiom_suite("h3", samples=100, seed=20260809)
    assert sorted(residuals) == ["associativity", "closure", "identity",
                                 "inverse"]
    for value in residuals.values():
        # the largest of exact zeros may be the int 0 or Fraction(0)
        assert isinstance(value, (int, Fraction)) and value == 0


def test_e2_axioms_exact():
    residuals = axiom_suite("e2", samples=100, seed=20260809)
    assert sorted(residuals) == ["associativity", "closure", "identity",
                                 "inverse"]
    for value in residuals.values():
        assert isinstance(value, (int, Fraction)) and value == 0


def test_composed_and_inverted_elements_are_what_the_constructor_builds():
    # compose and inverse skip the public constructor's checks; each result
    # must still be the valid element in lowest terms that it would build
    rng = random.Random(20261020)
    for draw, compose, inverse, rebuild in (
            (_random_e2, e2_compose, e2_inverse,
             lambda g: E2Element(*g.num, g.den)),
            (_random_h3, h3_compose, h3_inverse,
             lambda g: H3Element(*(F(a, g.den) for a in g.num)))):
        for _ in range(50):
            g, h = draw(rng), draw(rng)
            for result in (compose(g, h), inverse(g), compose(g, inverse(g))):
                built = rebuild(result)
                assert (result.num, result.den) == (built.num, built.den)
                assert result == built and type(result) is type(built)


def test_closure_gap_of_a_flipped_rotation_term(monkeypatch):
    # the sign of s1*y2 flipped: closure compares the integer matrices first
    # and still records the exact gap between the two sides' matrices
    def flipped(g, h):
        (x1, y1, c1, s1), d1 = g.num, g.den
        (x2, y2, c2, s2), d2 = h.num, h.den
        return E2Element(x1 * d2 + c1 * x2 + s1 * y2,
                         y1 * d2 + s1 * x2 + c1 * y2,
                         c1 * c2 - s1 * s2, s1 * c2 + c1 * s2, d1 * d2)

    monkeypatch.setattr(groups, "e2_compose", flipped)
    residuals = axiom_suite("e2", samples=3, seed=20260809)
    assert residuals["closure"] == Fraction(37202, 32625)
    assert axiom_suite("e2", samples=100, seed=20260809)["closure"] == \
        Fraction(159109, 17425)


@pytest.mark.parametrize("group, name", [("h3", "h3_compose"),
                                         ("e2", "e2_compose")])
def test_closure_of_an_equal_unreduced_element_is_zero(monkeypatch, group,
                                                       name):
    # closure scales the composed side only, by d_g d_h / d_gh, which is an
    # integer for an element in lowest terms; an equal element over a
    # multiple of its denominator falls through to the exact gap, still 0
    real = getattr(groups, name)

    def unreduced(g, h):
        gh = real(g, h)
        out = object.__new__(type(gh))
        object.__setattr__(out, "num", tuple(7 * n for n in gh.num))
        object.__setattr__(out, "den", 7 * gh.den)
        return out

    monkeypatch.setattr(groups, name, unreduced)
    residuals = axiom_suite(group, samples=20, seed=20260809)
    assert residuals["closure"] == 0
    assert isinstance(residuals["closure"], (int, Fraction))


def fraction_gap(M, m, N, n):
    """max |M/m - N/n| entry by entry in Fractions: the oracle for _gap."""
    return max(abs(F(a, m) - F(b, n))
               for ra, rb in zip(M.rows, N.rows) for a, b in zip(ra, rb))


def test_gap_is_the_fraction_gap():
    rng = random.Random(20261019)
    pairs = [(_random_h3(rng), _random_h3(rng)) for _ in range(40)]
    pairs += [(cayley(*(F(rng.randint(-60, 60), rng.randint(1, 12))
                        for _ in range(3))), E2Element.identity())
              for _ in range(40)]
    # the closure mutant's 1/10^400, which underflows a float
    g = H3Element(F(3, 7), F(-2, 5), 4)
    pairs.append((g, H3Element(F(3, 7), F(-2, 5) + F(1, 10 ** 400), 4)))
    for g, h in pairs:
        assert g != h
        gap = _gap(g.num_matrix(), g.den, h.num_matrix(), h.den)
        assert type(gap) is Fraction and gap > 0
        assert gap == fraction_gap(g.num_matrix(), g.den, h.num_matrix(), h.den)
    assert gap == F(1, 10 ** 400)
    # one element's matrix over two denominators has no gap
    assert _gap(g.num_matrix() * 3, g.den * 3, g.num_matrix(), g.den) == 0


def test_axiom_suite_rejects_bad_input():
    with pytest.raises(ValueError):
        axiom_suite("h3", samples=0, seed=1)
    with pytest.raises(ValueError):
        axiom_suite("su2", samples=5, seed=1)


@pytest.mark.parametrize("samples,seed", [(True, 1), (2.0, 1), (2, 1.5),
                                          (2, False)],
                         ids=["bool-samples", "float-samples", "float-seed",
                              "bool-seed"])
def test_axiom_suite_rejects_a_non_int_count_or_seed(samples, seed):
    # True ran as one sample, and a float or bool seed seeded a stream
    bad = "seed" if type(samples) is int else "samples"
    with pytest.raises(TypeError, match=f"^{bad} must be an int, not a"):
        axiom_suite("h3", samples=samples, seed=seed)


# -- Matrix ----------------------------------------------------------------------

@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
    lambda a, b: a.apply(b.rows[0])],
    ids=["add", "sub", "mul", "apply"])
def test_matrix_sizes_must_match(op):
    # the rows were zipped, which cut the larger operand down to the
    # smaller: a 2x2 identity minus the 3x3 one was the 2x2 zero matrix, an
    # exact zero, and a matrix applied to a vector of another length
    # dropped the extra entries
    two = Matrix([[1, 0], [0, 1]])
    for a, b in ((two, IDENTITY), (IDENTITY, two)):
        with pytest.raises(ValueError):
            op(a, b)


def test_matrix_rejects_non_square_rows():
    with pytest.raises(ValueError, match="square"):
        Matrix([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="square"):
        Matrix([[1, 0], [0, 1, 0]])


def test_matrix_keeps_entries_as_given():
    m = Matrix([[1, F(1, 2)], [0.25, 0]])
    assert type(m[0, 0]) is int and type(m[0, 1]) is Fraction
    assert type(m[1, 0]) is float
    # a Fraction difference is never rounded to a float
    tiny = Matrix([[1, F(1, 10 ** 400)], [0, 1]]) - Matrix([[1, 0], [0, 1]])
    assert tiny[0, 1] == F(1, 10 ** 400) and type(tiny[0, 1]) is Fraction


def rationals():
    return st.fractions(min_value=-5, max_value=5, max_denominator=12)


def e2_elements():
    return st.builds(cayley, rationals(), rationals(), rationals())


@given(g=e2_elements(), h=e2_elements(), k=e2_elements())
@settings(max_examples=60)
def test_e2_composition_matches_matrix_product_exactly(g, h, k):
    assert e2_compose(g, h).to_matrix() == g.to_matrix() * h.to_matrix()
    assert (e2_compose(e2_compose(g, h), k)
            == e2_compose(g, e2_compose(h, k)))
    assert e2_compose(g, e2_inverse(g)) == E2Element.identity()


def float_params():
    finite = st.floats(min_value=-5.0, max_value=5.0)
    return st.tuples(finite, finite, st.floats(min_value=0.0, max_value=7.0))


def float_e2_matrix(x, y, theta):
    c, s = math.cos(theta), math.sin(theta)
    return Matrix([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])


@given(p=float_params(), q=float_params())
@settings(max_examples=60)
def test_sparse_product_matches_dense_on_e2_matrices(p, q):
    a, b = float_e2_matrix(*p), float_e2_matrix(*q)
    dense = [[sum(a[i, k] * b[k, j] for k in range(3)) for j in range(3)]
             for i in range(3)]
    product = a * b
    # a skipped zero product may flip the sign of a zero entry, nothing more
    for i in range(3):
        for j in range(3):
            assert abs(product[i, j]) == abs(dense[i][j])
