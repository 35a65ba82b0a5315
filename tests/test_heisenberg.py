"""Ladder algebra on Gaussian-weighted polynomials and the Hermite identities.

A function p(x) exp(-x^2/2) is passed to every operator as its polynomial
part p, so the bare Gaussian is ``Polynomial.constant(1)``."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegen import heisenberg as hb
from liegen.heisenberg import (
    LOWER,
    RAISE,
    anticommutator_operator_residual,
    apply_ladder,
    discrete_anticommutator,
    discrete_commutator,
    disentangle_check,
    hermite_genfunc_check,
    hermite_recurrence,
    hermite_recurrence_sequence,
    hermite_rodrigues,
    ladder_commutator_residual,
    mixed_basis,
    raising_consistency_residual,
    shift_series,
    verify_hermite_identity,
    weighted_overlaps,
)
from liegen.numeric import Polynomial, X, Y, Z, _sum_of_products


@st.composite
def polynomials(draw, variables=("x", "y", "z")):
    """Up to six terms of degree <= 3 per variable, each coefficient over a
    denominator up to 6."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        exps = tuple(draw(st.integers(min_value=0, max_value=3))
                     for _ in variables)
        terms[exps] = Fraction(draw(st.integers(min_value=-9, max_value=9)),
                               draw(st.integers(min_value=1, max_value=6)))
    return Polynomial(variables, terms)


def assert_same_storage(p, q):
    """Equal values in one canonical form: equal numerators and
    denominator, no zero numerator, no common factor."""
    assert (p._den, p._nums) == (q._den, q._nums)
    assert p._den > 0 and 0 not in p._nums.values()
    assert math.gcd(p._den, *p._nums.values()) == 1


# -- ladder action -------------------------------------------------------------

def test_lower_annihilates_ground_state():
    assert apply_ladder("lower", Polynomial.constant(1)).is_zero


def test_raise_on_ground_state_symbolic_oracle():
    # oracle: (x - d/dx) e^{-x^2/2} = x e^{-x^2/2} + x e^{-x^2/2} = 2x w
    assert apply_ladder("raise", Polynomial.constant(1)) == 2 * X


def lower_raise(p):
    return apply_ladder("lower", apply_ladder("raise", p))


def raise_lower(p):
    return apply_ladder("raise", apply_ladder("lower", p))


@pytest.mark.parametrize("k", range(7))
def test_ladder_commutator_on_monomials(k):
    # raise lower - lower raise = -2 on p*w, i.e. [lower_norm, raise_norm] = 1
    # once each operator gives back its 1/sqrt(2)
    f = X ** k
    assert raise_lower(f) - lower_raise(f) == (-2) * f


@pytest.mark.parametrize("k", range(13))
def test_representation_relations_on_monomials(k):
    # [lower, raise] = 2 * identity in scaled form on x^k w
    f = X ** k
    assert lower_raise(f) - raise_lower(f) == 2 * f


@pytest.mark.parametrize("max_degree", [0, 1, 12, 40])
def test_tagged_operator_identities_vanish(max_degree):
    assert ladder_commutator_residual(max_degree).is_zero
    assert anticommutator_operator_residual(max_degree).is_zero


@pytest.mark.parametrize("kind", ["lower", "raise", "position", "derivative"])
def test_ladder_operators_keep_the_y_tag(kind):
    # each operator acts on x only, so on sum_k y^k x^k it is the sum of
    # its images of x^k, each still tagged by its own y^k
    family = sum((Y ** k * X ** k for k in range(9)), Polynomial.zero())
    assert apply_ladder(kind, family) == sum(
        (Y ** k * apply_ladder(kind, X ** k) for k in range(9)),
        Polynomial.zero())


def test_position_and_derivative_combinations():
    # lower = position + derivative-with-weight relation:
    # (x + D)(p w) = p' w must equal position+derivative applied jointly
    f = X ** 3 - 2 * X
    combo = apply_ladder("position", f) + apply_ladder("derivative", f)
    assert combo == apply_ladder("lower", f)
    combo = apply_ladder("position", f) - apply_ladder("derivative", f)
    assert combo == apply_ladder("raise", f)


# -- Hermite construction --------------------------------------------------------

def test_hermite_low_orders():
    assert hermite_rodrigues(0) == Polynomial.constant(1)
    assert hermite_rodrigues(1) == hermite_recurrence(1) == 2 * X
    assert hermite_rodrigues(2) == hermite_recurrence(2) == 4 * X ** 2 - 2
    assert hermite_recurrence(3) == 8 * X ** 3 - 12 * X


@pytest.mark.parametrize("n", list(range(0, 65, 8)) + [64])
def test_rodrigues_matches_recurrence(n):
    assert hermite_rodrigues(n) == hermite_recurrence(n)


def test_hermite_above_max_raises():
    # there is no maximum: H_65 is built like every other H_n
    assert hermite_rodrigues(65) == hermite_recurrence(65)


def test_recurrence_sequence_is_one_pass_of_the_recurrence():
    seq = list(hermite_recurrence_sequence(12))
    assert len(seq) == 13
    assert seq[0] == 1 and seq[1] == 2 * X
    for k in range(1, 12):
        assert seq[k + 1] == 2 * X * seq[k] - 2 * k * seq[k - 1]
    assert list(hermite_recurrence_sequence(0)) == [Polynomial.constant(1)]
    with pytest.raises(ValueError):
        next(hermite_recurrence_sequence(-1))
    with pytest.raises(ValueError):
        hermite_recurrence(-1)


@given(h=polynomials(), h_prev=polynomials(),
       k=st.integers(min_value=0, max_value=12))
@settings(max_examples=60)
def test_recurrence_step_is_the_two_products(h, h_prev, k):
    # one pass over the lcm of the denominators, against the products
    assert_same_storage(hb._recurrence_step(h, h_prev, k),
                        2 * X * h - 2 * k * h_prev)


@given(p=polynomials())
@settings(max_examples=60)
def test_derivative_ladder_is_p_prime_minus_x_p(p):
    # in x, y and z: p' and xp meet where the powers of x differ by two
    assert_same_storage(apply_ladder("derivative", p),
                        p.differentiate("x") - X * p)


def test_derivative_ladder_where_the_two_parts_cancel():
    # p = x^2/2 + 1: p' = x and xp = x^3/2 + x, whose x parts cancel
    assert_same_storage(apply_ladder("derivative", X ** 2 / 2 + 1),
                        -X ** 3 / 2)
    assert apply_ladder("derivative", Polynomial.zero()).is_zero


@given(coeffs=st.lists(polynomials(("x", "z")), max_size=7))
@settings(max_examples=60)
def test_tagged_sum_is_the_sum_of_tag_products(coeffs):
    # sum_k p_k y^k / k! built as products with one-term tags y^k / k!
    tags = [Polynomial._make({(0, k, 0): 1}, math.factorial(k))
            for k in range(len(coeffs))]
    expected = (_sum_of_products(list(zip(tags, coeffs))) if coeffs
                else Polynomial.zero())
    assert_same_storage(hb._tagged_sum(coeffs), expected)


def orthonormality_by_residuals(n, overlaps):
    """The record's residual as the first nonzero norm_n * overlap - delta
    over m <= n, every one of them built."""
    _, norm_n = mixed_basis(n)
    for m, overlap in enumerate(overlaps):
        residual = norm_n * overlap - (1 if m == n else 0)
        if residual:
            return residual
    return Fraction(0)


@pytest.mark.parametrize("n", [0, 1, 4, 7])
@pytest.mark.parametrize("shift", [Fraction(1, 3), Fraction(-5), "diagonal"])
def test_orthonormality_on_perturbed_overlaps(monkeypatch, n, shift):
    # each overlap in turn is moved off its value: the residual is the one
    # the old per-overlap residual gives, whichever m it sits at
    real = hb.weighted_overlaps
    args = hermite_rodrigues(n), [hermite_rodrigues(m) for m in range(n + 1)]
    for moved in range(n + 1):
        def perturbed(p, qs, moved=moved):
            out = real(p, qs)
            if shift == "diagonal":
                # a diagonal overlap read as 0, an off-diagonal one as 1
                out[moved] = Fraction(0 if moved == n else 1)
            else:
                out[moved] += shift
            return out
        expected = orthonormality_by_residuals(n, perturbed(*args))
        monkeypatch.setattr(hb, "weighted_overlaps", perturbed)
        residual = verify_hermite_identity("orthonormality", n)
        assert residual == expected != 0
        assert type(residual) is Fraction
    monkeypatch.setattr(hb, "weighted_overlaps", real)
    assert verify_hermite_identity("orthonormality", n) == Fraction(0)


@pytest.mark.parametrize("n", [True, False, 2.0], ids=["true", "false",
                                                       "float"])
def test_hermite_builders_reject_a_non_int_order(n):
    # a bool is an int to isinstance: hermite_rodrigues(True) returned H_1
    with pytest.raises(TypeError, match="must be an int"):
        hermite_rodrigues(n)
    with pytest.raises(TypeError, match="must be an int"):
        next(hermite_recurrence_sequence(n))
    with pytest.raises(TypeError, match="must be an int"):
        hermite_recurrence(n)


@pytest.mark.parametrize("check", [hermite_genfunc_check, disentangle_check,
                                   ladder_commutator_residual,
                                   anticommutator_operator_residual])
@pytest.mark.parametrize("n", [True, 2.0], ids=["true", "float"])
def test_series_and_family_checks_reject_a_non_int_order(check, n):
    # a bool is an int to isinstance: each of these ran with True as 1
    with pytest.raises(TypeError, match="must be an int"):
        check(n)


@pytest.mark.parametrize("check", [hermite_genfunc_check, disentangle_check,
                                   ladder_commutator_residual,
                                   anticommutator_operator_residual])
def test_series_and_family_checks_reject_a_negative_order(check):
    # a negative degree tagged no monomial, so the family checks read an
    # empty family and returned the zero residual
    with pytest.raises(ValueError, match="must be >="):
        check(-1)


@pytest.mark.parametrize("n", range(0, 65, 4))
def test_hermite_parity(n):
    h = hermite_rodrigues(n)
    assert h.substitute({"x": -X}) == (-1) ** n * h


# -- identities -----------------------------------------------------------------

@pytest.mark.parametrize("which", ["ode_A2", "recursion_A3", "diffrel_A4"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 17, 32])
def test_polynomial_identities_zero_residual(which, n):
    assert verify_hermite_identity(which, n).is_zero


def test_diffrel_n1_hand_value():
    # H_1' = 2 = 2*1*H_0, via the recurrence oracle
    h1 = hermite_recurrence(1)
    assert h1.differentiate("x") == 2 * hermite_recurrence(0)
    assert verify_hermite_identity("diffrel_A4", 1).is_zero


def test_anticommutator_eigenvalue_examples():
    # (1/2){lower, raise} H_n w = (2n + 1) H_n w, by direct application
    for n, eigenvalue in ((0, 1), (3, 7)):
        basis = hermite_recurrence(n)
        anti = lower_raise(basis) + raise_lower(basis)
        assert anti == 2 * eigenvalue * basis
    assert verify_hermite_identity("anticommutator", 3).is_zero


def test_orthonormality_exact():
    assert verify_hermite_identity("orthonormality", 5) == 0
    psi5, norm5 = mixed_basis(5)
    assert weighted_overlaps(psi5, [psi5])[0] == math.factorial(5) * 2 ** 5
    assert norm5 * weighted_overlaps(psi5, [psi5])[0] == 1
    psi1, _ = mixed_basis(1)
    # odd integrand
    assert weighted_overlaps(psi1, [Polynomial.constant(1)])[0] == 0
    psi4, _ = mixed_basis(4)
    psi2, _ = mixed_basis(2)
    assert weighted_overlaps(psi4, [psi2])[0] == 0


def test_ground_state_normalization():
    # the bare Gaussian integrates to sqrt(pi): moment coefficient 1
    ground = Polynomial.constant(1)
    assert weighted_overlaps(ground, [ground])[0] == 1
    _, norm = mixed_basis(0)
    assert norm == 1


def test_norm_factor_invariant():
    for n in (0, 1, 5, 12):
        _, norm = mixed_basis(n)
        assert norm * math.factorial(n) * 2 ** n == 1


def test_raising_consistency():
    for n in range(0, 21):
        poly_residual, norm_residual = raising_consistency_residual(n)
        assert poly_residual.is_zero
        assert norm_residual == 0


# -- discrete matrices ------------------------------------------------------------

def test_discrete_entries():
    assert LOWER.column(1) == {0: 2}      # lower psi_1 = 2 psi_0
    assert LOWER.column(2) == {1: 4}      # lower psi_2 = 4 psi_1
    assert RAISE.column(2) == {3: 1}      # raise psi_2 = psi_3
    # there is no psi_{-1}: lower must annihilate psi_0 through its 2n at 0
    assert LOWER.column(0) == {}


@pytest.mark.parametrize("op", ["lower", "raise"])
def test_discrete_matrix_matches_the_differential_operators(op):
    # the psi_i coefficient of op(psi_j) is its overlap with psi_i divided
    # by overlap(psi_i, psi_i) = 1/norm_i; the basis reaches one past the
    # columns, where raise sends the last one
    dim = 12
    banded = {"lower": LOWER, "raise": RAISE}[op]
    basis = [mixed_basis(n) for n in range(dim + 1)]
    for j, (psi_j, _) in enumerate(basis[:dim]):
        image = apply_ladder(op, psi_j)
        expected = {i: c for i, (psi_i, norm_i) in enumerate(basis)
                    if (c := norm_i * weighted_overlaps(psi_i, [image])[0])}
        assert banded.column(j) == expected


def test_discrete_commutator_truncation_edge():
    # the dense 8x8 product read -14 in its last diagonal entry; the banded
    # one has no edge, so every column is [lower, raise] - 2 = 0
    assert discrete_commutator(40) == [{}] * 40


def test_discrete_anticommutator_diagonal():
    assert discrete_anticommutator(40) == [{}] * 40
    anti = LOWER * RAISE + RAISE * LOWER
    for n in range(40):
        assert anti.column(n) == {n: 2 * (2 * n + 1)}


def test_discrete_matrix_rejects_small_dimension():
    for check in (discrete_commutator, discrete_anticommutator):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            check(0)


@pytest.mark.parametrize("dimension", [True, 3.0], ids=["bool", "float"])
def test_discrete_matrix_rejects_a_non_int_dimension(dimension):
    # True was refused as too small, with a ValueError; 3.0 reached range()
    for check in (discrete_commutator, discrete_anticommutator):
        with pytest.raises(TypeError, match="dimension must be an int, not a"):
            check(dimension)


# -- shift operator ------------------------------------------------------------

def test_shift_of_ground_state_hand_oracle():
    # w(x - t) = w exp(xt - t^2/2): through t^3 the coefficients are
    # 1, x, (x^2 - 1)/2 and (x^3 - 3x)/6, each times w; with t = y they
    # are read off as the coefficients of y^k, and y^4 has none
    s = shift_series(3)
    expected = [Polynomial.constant(1), X, (X ** 2 - 1) / 2,
                (X ** 3 - 3 * X) / 6]
    assert s.variables == ("x", "y")
    assert [Polynomial(("x",), {(a,): c for (a, b), c in s.terms.items()
                                if b == k})
            for k in range(5)] == expected + [0]


@pytest.mark.parametrize("order, error", [(True, TypeError),
                                          (2.0, TypeError),
                                          (-1, ValueError)],
                         ids=["true", "float", "negative"])
def test_shift_series_rejects_a_bad_order(order, error):
    # a bool is an int to isinstance: shift_series(True) was order 1
    with pytest.raises(error, match="order must be"):
        shift_series(order)


# -- generating function and disentangling ----------------------------------------

def test_disentangle_low_orders_by_hand():
    residual = disentangle_check(2)
    assert residual.is_zero
    # spot-check the left side really carries H_k/k! * w
    lhs1 = apply_ladder("raise", Polynomial.constant(1))
    assert lhs1 == 2 * X


def test_disentangle_through_order_32():
    assert disentangle_check(32).is_zero


def test_genfunc_coefficients():
    residual = hermite_genfunc_check(8)
    assert residual.is_zero


def test_genfunc_through_order_64():
    assert hermite_genfunc_check(64).is_zero


def test_genfunc_above_default_max_n():
    # the Hermite side reads the Rodrigues cache up to the check's own order
    assert hermite_genfunc_check(70).is_zero


def test_checks_reject_zero_order():
    with pytest.raises(ValueError):
        disentangle_check(0)
    with pytest.raises(ValueError):
        hermite_genfunc_check(0)
