"""Matrix realizations of H3 and E2: composition, exp, generators, axioms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegen.groups import (
    E2_BASIS_ROT,
    E2_BASIS_X,
    E2_BASIS_Y,
    E2Element,
    H3_BASIS_A,
    H3_BASIS_B,
    H3_BASIS_C,
    H3AlgebraElement,
    H3Element,
    IDENTITY,
    axiom_suite,
    commutator,
    e2_apply,
    e2_compose,
    e2_exp_translation,
    e2_inverse,
    generators_at_identity,
    h3_compose,
    h3_exp,
    h3_inverse,
    h3_log,
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


def test_h3_exp_closed_form():
    assert h3_exp(H3AlgebraElement(0, 0, 0)) == H3Element.identity()
    assert h3_exp(H3AlgebraElement(1, 0, 1)) == H3Element(1, F(1, 2), 1)


def test_h3_algebra_cube_is_zero():
    m = H3AlgebraElement(F(3, 2), -4, F(7, 5)).to_matrix()
    assert m * m * m == ZERO


def test_h3_exp_matches_truncated_series():
    m = H3AlgebraElement(F(1, 3), F(2, 5), -2)
    mat = m.to_matrix()
    series = IDENTITY + mat + (mat * mat) * F(1, 2)
    assert h3_exp(m).to_matrix() == series


def test_h3_log_roundtrip():
    m = H3AlgebraElement(F(5, 4), F(-1, 7), 3)
    assert h3_log(h3_exp(m)) == m


def test_h3_basis_commutators():
    assert commutator(H3_BASIS_A, H3_BASIS_B) == ZERO
    assert commutator(H3_BASIS_B, H3_BASIS_C) == ZERO
    assert commutator(H3_BASIS_A, H3_BASIS_C) == H3_BASIS_B


# -- E2 ----------------------------------------------------------------------

def test_e2_apply_pure_translation():
    g = E2Element(1.0, 2.0, 0.0)
    assert e2_apply(g, (0.0, 0.0)) == (1.0, 2.0)


def test_e2_apply_quarter_turn_rotation_oracle():
    g = E2Element(0.0, 0.0, math.pi / 2)
    # oracle: multiply the rotation matrix into the vector directly
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    expected = (1.0 * c - 0.0 * s, 1.0 * s + 0.0 * c)
    got = e2_apply(g, (1.0, 0.0))
    assert abs(got[0] - expected[0]) < 1e-15
    assert abs(got[0] - 0.0) < 1e-12 and abs(got[1] - 1.0) < 1e-12


def test_e2_apply_matches_homogeneous_matrix_product():
    g = E2Element(0.3, -1.2, 2.1)
    a, b = 0.7, -0.4
    matrix_result = g.to_matrix().apply((a, b, 1.0))
    direct = e2_apply(g, (a, b))
    assert abs(matrix_result[0] - direct[0]) < 1e-15
    assert abs(matrix_result[1] - direct[1]) < 1e-15
    assert matrix_result[2] == 1.0


def test_e2_theta_normalization_and_wrap():
    g = E2Element(0.0, 0.0, -math.pi / 2)
    assert 0.0 <= g.theta < 2 * math.pi
    h = e2_compose(E2Element(0, 0, 5.0), E2Element(0, 0, 2.0))
    assert 0.0 <= h.theta < 2 * math.pi
    assert abs(h.theta - (7.0 - 2 * math.pi)) < 1e-12


def test_e2_translation_exponential():
    identity = e2_exp_translation(0.0, "x")
    assert identity == IDENTITY
    assert all(isinstance(e, float) for row in identity.rows for e in row)
    t = 0.8
    m = e2_exp_translation(t, "x")
    assert m.apply((2.0, 3.0, 1.0)) == (2.0 + t, 3.0, 1.0)
    m = e2_exp_translation(t, "y")
    assert m.apply((2.0, 3.0, 1.0)) == (2.0, 3.0 + t, 1.0)


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

@pytest.mark.parametrize("index,exact", [
    (1, H3_BASIS_A), (2, H3_BASIS_B), (3, H3_BASIS_C)])
def test_h3_generators_by_finite_difference(index, exact):
    fd = generators_at_identity("h3", index)
    assert fd.max_abs_diff(exact) < 1e-8


@pytest.mark.parametrize("index,exact", [
    (1, E2_BASIS_X), (2, E2_BASIS_Y), (3, E2_BASIS_ROT)])
def test_e2_generators_by_finite_difference(index, exact):
    fd = generators_at_identity("e2", index)
    assert fd.max_abs_diff(exact) < 1e-8


def test_e2_rotation_generator_entries():
    fd = generators_at_identity("e2", 3)
    assert abs(fd[0, 1] - (-1.0)) < 1e-8
    assert abs(fd[1, 0] - 1.0) < 1e-8


# -- axiom suites ----------------------------------------------------------------

def test_h3_axioms_exact():
    residuals = axiom_suite("h3", samples=100, seed=20260809)
    assert sorted(residuals) == ["associativity", "closure", "identity",
                                 "inverse"]
    for value in residuals.values():
        # the largest of exact zeros may be the int 0 or Fraction(0)
        assert isinstance(value, (int, Fraction)) and value == 0


def test_e2_axioms_within_tolerance():
    residuals = axiom_suite("e2", samples=100, seed=20260809)
    for axiom in ("closure", "associativity", "identity", "inverse"):
        assert isinstance(residuals[axiom], float)
        assert residuals[axiom] < 1e-12


def test_axiom_suite_rejects_bad_input():
    with pytest.raises(ValueError):
        axiom_suite("h3", samples=0, seed=1)
    with pytest.raises(ValueError):
        axiom_suite("su2", samples=5, seed=1)


# -- Matrix ----------------------------------------------------------------------

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
    tiny = Matrix([[1, F(1, 10 ** 400)], [0, 1]]).max_abs_diff(
        Matrix([[1, 0], [0, 1]]))
    assert tiny == F(1, 10 ** 400)


@pytest.mark.parametrize("position", [(0, 0), (1, 2), (2, 2)])
def test_max_abs_diff_propagates_nan_anywhere(position):
    rows = [[0.0] * 3 for _ in range(3)]
    rows[1][1] = 5.0
    rows[position[0]][position[1]] = math.nan
    assert math.isnan(Matrix(rows).max_abs_diff(IDENTITY))


def e2_elements():
    finite = st.floats(min_value=-5.0, max_value=5.0)
    return st.builds(E2Element, finite, finite,
                     st.floats(min_value=0.0, max_value=2 * math.pi))


@given(g=e2_elements(), h=e2_elements())
@settings(max_examples=60)
def test_sparse_product_matches_dense_on_e2_matrices(g, h):
    a, b = g.to_matrix(), h.to_matrix()
    dense = [[sum(a[i, k] * b[k, j] for k in range(3)) for j in range(3)]
             for i in range(3)]
    product = a * b
    # a skipped zero product may flip the sign of a zero entry, nothing more
    for i in range(3):
        for j in range(3):
            assert abs(product[i, j]) == abs(dense[i][j])
