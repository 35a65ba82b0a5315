"""Bessel evaluator, polar ladder algebra, identity residuals, flow."""

import cmath
import math

import pytest

from liegen.errors import BranchAmbiguityError, EnvelopeError
from liegen.euclidean import (
    BESSEL_IDENTITIES,
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
