"""Suite runner: the hermite block, NaN-propagating aggregates, gates that
must fail when the checked values are wrong or vanish, config validation,
the fixed tolerances, the JSON config reader and the emitters."""

import dataclasses
import importlib.util
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from liegen import contraction as ct
from liegen import euclidean as eu
from liegen import groups as gr
from liegen import heisenberg as hb
from liegen import suites
from liegen.numeric import BandedOp, Matrix, Polynomial, X, Y, _worst
from liegen.suites import (
    CheckRecord,
    ConfigError,
    SuiteConfig,
    SuiteReport,
    emit_csv,
    emit_json,
    emit_text,
    load_config,
    run_suite,
)

SMALL_HERMITE = dict(hermite_max_n=8, genfunc_order=8, disentangle_order=8,
                     orthonormality_max=4, spectrum_max=4, discrete_dim=6)


def records_by_id(report):
    return {r.check_id: r for r in report.records}


def test_run_hermite_defaults_all_pass_exactly():
    report = run_suite("hermite", SuiteConfig())[0]
    assert len(report.records) == 13
    for record in report.records:
        assert record.status == "pass", record.check_id
        assert record.to_dict()["exact_zero"], record.check_id


@pytest.mark.parametrize("values", [(0.0, math.nan), (math.nan, 0.0),
                                    (1.0, math.nan, 2.0)])
def test_worst_propagates_nan_in_any_position(values):
    assert math.isnan(_worst(*values))


def test_worst_is_max_without_nan():
    assert _worst(0.0, 3.0, Fraction(1, 2)) == 3.0


def test_transposed_rotation_fails_the_e2_tangent_record(monkeypatch):
    # the rotation's tangent at the identity is E2_BASIS_ROT, not its
    # transpose; the translations and H3 keep their exact tangents
    real = gr.E2Element.to_matrix

    def transposed(self):
        rows = [list(row) for row in real(self).rows]
        rows[0][1], rows[1][0] = rows[1][0], rows[0][1]
        return Matrix(rows)

    monkeypatch.setattr(gr.E2Element, "to_matrix", transposed)
    records = records_by_id(run_suite("groups", SuiteConfig(group_samples=1))[0])
    assert records["e2_generators_tangent"].status == "fail"
    # the quotient is -w * E2_BASIS_ROT, off by 2w = 4/(1 + h^2), which is
    # largest at the smallest step, h = -3/7
    assert records["e2_generators_tangent"].residual == float(Fraction(98, 29))
    assert records["h3_generators_tangent"].status == "pass"


def test_transposed_e2_layout_fails_closure_and_tangent(monkeypatch):
    # num_matrix is the one layout: to_matrix and the closure check both
    # read it, so one transposed layout fails both records; the axioms
    # that compare elements and every H3 record are untouched
    real = gr.E2Element.num_matrix

    def transposed(self):
        return Matrix(zip(*real(self).rows))

    monkeypatch.setattr(gr.E2Element, "num_matrix", transposed)
    records = records_by_id(run_suite("groups", SuiteConfig(group_samples=3))[0])
    failed = {r.check_id for r in records.values() if r.status != "pass"}
    assert failed == {"e2_axiom_closure", "e2_generators_tangent"}


def test_ladder_without_its_sign_flip_fails_the_series_record(monkeypatch):
    unflipped = {op: eu.POLAR_OPS[op] * -1 for op in ("raise", "lower")}
    monkeypatch.setattr(eu, "POLAR_OPS", {**eu.POLAR_OPS, **unflipped})
    records = records_by_id(run_suite("bessel", SuiteConfig())[0])
    assert records["ladder_crosscheck_series"].status == "fail"
    assert records["ladder_crosscheck_series"].exact


def test_exact_record_reads_a_matrix_residual():
    rec = suites._Recorder()
    third = Matrix([[0, 0, 0], [0, Fraction(-1, 3), 0], [0, 0, 0]])
    rec.exact("third", [third])
    rec.exact("zero", [third - third])
    third_record, zero_record = rec.records
    assert third_record.status == "fail"
    assert third_record.residual == 1 / 3
    assert zero_record.status == "pass" and zero_record.residual == 0.0


@pytest.mark.parametrize("series", [
    X * Y / 3,   # (x/3) t, with t = y
], ids=["polynomial"])
def test_exact_record_reads_a_series_residual(series):
    rec = suites._Recorder()
    rec.exact("third", [series])
    rec.exact("zero", [series - series])
    third_record, zero_record = rec.records
    assert third_record.status == "fail"
    assert third_record.residual == 1 / 3
    assert zero_record.status == "pass" and zero_record.residual == 0.0


_HUGE = Polynomial.constant(10 ** 400) * X


@pytest.mark.parametrize("residual", [
    _HUGE,
    ct.VectorFieldOp(_HUGE),
], ids=["polynomial", "vector-field"])
def test_exact_record_of_a_coefficient_past_the_float_range_is_inf(residual):
    # a scalar of this size records inf; a coefficient of one must not raise
    rec = suites._Recorder()
    rec.exact("huge", [residual])
    (record,) = rec.records
    assert record.status == "fail"
    assert record.residual == math.inf


@pytest.mark.parametrize("residual, magnitude", [
    (0.0, math.ulp(0.0)),
    (0.25, 0.25),
    (Matrix([[0, 0], [0.0, 0]]), math.ulp(0.0)),
    (Matrix([[Fraction(1, 4), 0], [0, 0.0]]), 0.25),
    (0j, math.ulp(0.0)),
    (Matrix([[0, 0j], [0, 0]]), math.ulp(0.0)),
], ids=["float-zero", "float", "matrix-float-zero", "matrix-float-entry",
        "complex-zero", "matrix-complex-zero"])
def test_float_residual_fails_exact_record(residual, magnitude):
    # a float zero says nothing exact, so it fails at the recorder's floor
    rec = suites._Recorder()
    rec.exact("inexact", [Fraction(0), residual])
    (record,) = rec.records
    assert record.status == "fail"
    assert record.residual == magnitude


@pytest.mark.parametrize("residual", [object(), "0", None,
                                      Matrix([[0, object()], [0, 0]])],
                         ids=["object", "string", "none", "matrix-entry"])
def test_residual_of_an_unknown_type_records_inf(residual):
    rec = suites._Recorder()
    rec.exact("unknown", [Fraction(0), residual])
    (record,) = rec.records
    assert record.status == "fail"
    assert record.residual == math.inf


def test_exact_record_reads_a_column_residual():
    rec = suites._Recorder()
    rec.exact("column", [{}, {0: Fraction(1, 2), 2: -1}])
    rec.exact("zero", [{}, {}])
    column_record, zero_record = rec.records
    assert column_record.status == "fail"
    assert column_record.residual == 1.0      # the coefficient at order 2
    assert zero_record.status == "pass" and zero_record.residual == 0.0


def test_tiny_composition_error_fails_h3_closure(monkeypatch):
    real = gr.h3_compose

    def perturbed(g, h):
        # composing with (0, e, 0) adds e to the second parameter
        return real(real(g, h), gr.H3Element(0, Fraction(1, 10 ** 400), 0))

    monkeypatch.setattr(gr, "h3_compose", perturbed)
    record = records_by_id(run_suite("groups", SuiteConfig(group_samples=3))[0])[
        "h3_axiom_closure"]
    # the error underflows a float, so the recorder's floor reports it
    assert record.status == "fail"
    assert record.residual == math.ulp(0.0)


def test_flipped_rotation_term_fails_e2_apply_rotation(monkeypatch):
    def flipped(g, point):
        a, b = point
        (x, y, c, s), d = g.num, g.den
        return (Fraction(a * c + b * s + x, d), Fraction(a * s + b * c + y, d))

    monkeypatch.setattr(gr, "e2_apply", flipped)
    record = records_by_id(run_suite("groups", SuiteConfig(group_samples=1))[0])[
        "e2_apply_rotation"]
    assert record.status == "fail"
    assert record.residual == 4


def test_perturbed_exponential_fails_closed_form(monkeypatch):
    real = gr.h3_exp

    def perturbed(m):
        return gr.h3_compose(real(m), gr.H3Element(0, Fraction(1, 8), 0))

    monkeypatch.setattr(gr, "h3_exp", perturbed)
    records = records_by_id(run_suite("groups", SuiteConfig(group_samples=1))[0])
    assert records["h3_exp_closed_form"].status == "fail"
    assert records["h3_exp_closed_form"].residual == 0.125
    assert records["h3_exp_log_roundtrip"].status == "fail"


def test_nan_residual_fails_contraction_gate(monkeypatch):
    real = ct.legendre_ode_residual

    def poisoned(l, m, r):
        return math.nan if (l, m) == (128, 2) else real(l, m, r)

    monkeypatch.setattr(ct, "legendre_ode_residual", poisoned)
    record = records_by_id(run_suite("contraction", SuiteConfig())[0])[
        "legendre_ode_monotone"]
    assert record.status == "fail"
    assert math.isnan(record.residual)


def test_nan_bessel_value_fails_the_polar_ladder_rate(monkeypatch):
    # the worst of the two ladder gaps was a plain max, which keeps a number
    # met before a NaN: with J_1(1.0) poisoned the record read pass at ~0.25
    real = eu.BesselEval.j

    def poisoned(self, n, z):
        return complex(math.nan) if (n, z) == (1, 1.0) else real(self, n, z)

    monkeypatch.setattr(eu.BesselEval, "j", poisoned)
    record = records_by_id(run_suite("contraction", SuiteConfig())[0])[
        "polar_ladder_rate"]
    assert record.status == "fail"
    assert math.isnan(record.residual)


def mutant(func, *edits):
    """``func`` rebuilt from its own source with each (old, new) edit made
    at the one place ``old`` occurs, in the namespace of its module."""
    source = inspect.getsource(func)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(func.__globals__)
    exec(source, namespace)
    return namespace[func.__name__]


def test_tagged_residuals_match_the_per_degree_ones(monkeypatch):
    # raise without its factor 2: raise p = xp - p'
    monkeypatch.setattr(hb, "apply_ladder", mutant(
        hb.apply_ladder, ('return 2 * X * p - p.differentiate("x")',
                          'return X * p - p.differentiate("x")')))
    # H_n built by the broken raise must not outlive the test
    monkeypatch.setattr(hb, "_rodrigues_cache", [Polynomial.constant(1)])
    up, down = (lambda p: hb.apply_ladder("raise", p),
                lambda p: hb.apply_ladder("lower", p))
    per_degree = {
        hb.ladder_commutator_residual:
            lambda p: down(up(p)) - up(down(p)) - 2 * p,
        hb.anticommutator_operator_residual:
            lambda p: (hb._half_anticommutator(p)
                       - hb._position_squared_minus_d_squared(p)),
    }
    for tagged, residual in per_degree.items():
        parts = [residual(X ** k) for k in range(33)]
        assert all(not part.is_zero for part in parts)
        # the y^k part of the tagged residual is the residual on x^k
        assert tagged(32) == sum((Y ** k * part for k, part in enumerate(parts)),
                                 Polynomial.zero())
    records = records_by_id(run_suite("hermite", SuiteConfig())[0])
    for check_id in ("ladder_commutator_identity", "anticommutator_spectrum"):
        assert records[check_id].status == "fail"
        assert records[check_id].residual > 0


@pytest.mark.parametrize("edits", [
    # the sign of the 2 t r w term of u^2
    [("X * X + 2 * X * Y * Z", "X * X - 2 * X * Y * Z")],
    # w^(n-m) in place of w^(n+m); both sides times w^(2J), so that no
    # power of w is negative
    [("(m, n + m)", "(m, n - m + 2 * t_degree)"),
     ("return lhs - rhs", "return lhs * Z ** (2 * t_degree) - rhs")],
], ids=["sign", "w-power"])
def test_wrong_a11_term_fails_genfunc_a11(monkeypatch, edits):
    monkeypatch.setattr(eu, "genfunc_a11_residual",
                        mutant(eu.genfunc_a11_residual, *edits))
    records = records_by_id(run_suite("bessel", SuiteConfig(**SMALL_BESSEL))[0])
    assert records["genfunc_A11"].status == "fail"
    assert records["genfunc_A11"].residual > 0
    assert all(r.status == "pass" for r in records.values()
               if r.check_id != "genfunc_A11")


def test_dropped_m_squared_fails_bessel_operator(monkeypatch):
    monkeypatch.setattr(ct, "bessel_operator_residual", mutant(
        ct.bessel_operator_residual, (" - m * m * j", "")))
    records = records_by_id(run_suite("contraction", SuiteConfig(**TINY))[0])
    assert records["bessel_operator_exact_form"].status == "fail"
    assert all(r.status == "pass" for r in records.values()
               if r.check_id != "bessel_operator_exact_form")


def test_nan_residual_fails_bessel_identity(monkeypatch):
    real = eu.verify_bessel_identity

    def poisoned(which, n, r):
        if which == "ode_A6" and (n, r) == (1, 1.0):
            return math.nan
        return real(which, n, r)

    monkeypatch.setattr(eu, "verify_bessel_identity", poisoned)
    config = SuiteConfig(bessel_orders=(0, 1), bessel_r_grid=(0.5, 1.0, 2.0))
    records = records_by_id(run_suite("bessel", config)[0])
    assert records["ode_A6"].status == "fail"
    assert math.isnan(records["ode_A6"].residual)
    others = [r for r in records.values() if r.check_id != "ode_A6"]
    assert all(r.status == "pass" for r in others)


SMALL_BESSEL = dict(bessel_orders=(0, 1), bessel_r_grid=(0.5, 1.0, 2.0))


def test_doubled_raise_records_the_coefficient_gap(monkeypatch):
    # a wrong coefficient records its size, not a flag: with raise scaled
    # by k, both round trips are k where they should be 1
    real = eu.POLAR_OPS
    for k, gap in ((2, 1.0), (3, 2.0)):
        monkeypatch.setattr(eu, "POLAR_OPS",
                            {**real, "raise": real["raise"] * k})
        records = records_by_id(
            run_suite("bessel", SuiteConfig(**SMALL_BESSEL))[0])
        assert records["ladder_roundtrip_identity"].status == "fail"
        assert records["ladder_roundtrip_identity"].residual == gap
        assert records["lz_eigenvalue"].status == "pass"


@pytest.mark.parametrize("eigenvalue, residual", [
    (lambda n: n + 1, 2.0),  # 8 against 6
], ids=["order-plus-one"])
def test_wrong_lz_records_the_coefficient_gap(monkeypatch, eigenvalue,
                                              residual):
    # a wrong eigenvalue reaches the record as an exact gap
    monkeypatch.setattr(eu, "POLAR_OPS",
                        {**eu.POLAR_OPS, "lz": BandedOp({0: eigenvalue})})
    records = records_by_id(run_suite("bessel", SuiteConfig(**SMALL_BESSEL))[0])
    record = records["lz_eigenvalue"]
    assert record.status == "fail"
    assert record.residual == residual
    assert records["ladder_roundtrip_identity"].status == "pass"


def test_lz_with_a_stray_band_fails_the_bracket_members(monkeypatch):
    # L_z = n + (n - 3) S^2 has 2 L_z e_3 = 6 e_3, so the eigenvalue alone
    # passes it; [L_z, raise] = raise fails by -e_{n+3} at every order
    mutant = BandedOp({0: lambda n: n, 2: lambda n: n - 3})
    one = BandedOp({0: lambda n: 1})
    assert (mutant * 2 - one * 6).column(3) == {}
    monkeypatch.setattr(eu, "POLAR_OPS", {**eu.POLAR_OPS, "lz": mutant})
    records = records_by_id(run_suite("bessel", SuiteConfig(**SMALL_BESSEL))[0])
    record = records["lz_eigenvalue"]
    assert record.status == "fail"
    assert record.residual == 1.0
    assert record.params == {"order": 3}
    assert records["ladder_roundtrip_identity"].status == "pass"


@pytest.mark.parametrize("index, bump", [
    (5, Fraction(3, 2) * X ** 2),   # even exponent in the odd H_5
    # odd exponent in H_8, whose t^8 is the series checks' top coefficient
    # under SMALL_HERMITE: a check cut one order short would miss it
    (8, Fraction(3, 2) * X ** 3),
], ids=["H5-even", "H8-odd-top"])
def test_wrong_parity_term_fails_parity_and_recurrence(monkeypatch, index,
                                                       bump):
    real = hb.hermite_rodrigues

    def mutated(n):
        h = real(n)
        return h + bump if n == index else h

    monkeypatch.setattr(hb, "hermite_rodrigues", mutated)
    records = records_by_id(run_suite("hermite", SuiteConfig(**SMALL_HERMITE))[0])
    assert records["parity"].status == "fail"
    assert records["parity"].residual == 1.5
    assert records["rodrigues_vs_recurrence"].status == "fail"
    # both series checks read sum H_k t^k / k!, so the bump shows in t^index
    for series_check in ("genfunc_A5", "disentangle"):
        assert records[series_check].status == "fail"
        assert records[series_check].residual == 1.5 / math.factorial(index)


def failed_ids(report):
    return {r.check_id for r in report.records if r.status != "pass"}


@pytest.mark.parametrize("entry, failing", [
    # an offset in lower cancels from [lower, raise] in every column, so the
    # anticommutator is the record that must see it
    (lambda n: 2 * n + 1, {"discrete_anticommutator_diagonal"}),
    (lambda n: 4 * n, {"discrete_anticommutator_diagonal",
                       "discrete_commutator_identity"}),
])
def test_wrong_lower_entry_fails_discrete_records(monkeypatch, entry, failing):
    monkeypatch.setattr(hb, "LOWER", BandedOp({-1: entry}))
    failed = failed_ids(run_suite("hermite", SuiteConfig(**SMALL_HERMITE))[0])
    assert failed == failing


def test_wrong_norm_fails_orthonormality_and_raising(monkeypatch):
    real = hb.mixed_basis

    def mutated(n):
        basis, norm = real(n)
        return basis, Fraction(1, 1 / norm + 1)

    monkeypatch.setattr(hb, "mixed_basis", mutated)
    assert failed_ids(run_suite("hermite", SuiteConfig(**SMALL_HERMITE))[0]) == {
        "orthonormality", "raising_consistency"}


def test_small_hermite_config_passes():
    report = run_suite("hermite", SuiteConfig(**SMALL_HERMITE))[0]
    assert all(r.status == "pass" for r in report.records)


def test_hermite_checks_above_64_pass():
    # no Hermite function caps n, so configs above 64 need no widening
    report = run_suite("hermite", SuiteConfig(spectrum_max=70))[0]
    assert all(r.status == "pass" for r in report.records)
    assert hb.verify_hermite_identity("orthonormality", 70) == 0
    poly_residual, norm_residual = hb.raising_consistency_residual(70)
    assert poly_residual.is_zero and norm_residual == 0


def test_empty_gate_fails():
    # a gate or an exact record that read nothing must not pass
    rec = suites._Recorder()
    rec.gated("nothing", (), "bessel/identity")
    rec.exact("nothing exact", [])
    rec.exact("nothing exact, lazily", iter(()))
    for record in rec.records:
        assert record.status == "fail"
        assert record.residual == math.inf


ZERO_SEQUENCES = {
    "contraction_residual": lambda f, R_list: {R: Fraction(0) for R in R_list},
    "polar_ladder_limit": lambda n, r, phi, R_list: {R: 0.0 for R in R_list},
    "legendre_ode_residual": lambda l, m, r: 0.0,
}


@pytest.mark.parametrize("target, checks", [
    ("contraction_residual", ["contraction_rate_band"]),
    ("polar_ladder_limit", ["polar_ladder_rate", "polar_ladder_monotone"]),
    ("legendre_ode_residual", ["legendre_ode_rate_m0", "legendre_ode_monotone"]),
])
def test_vanishing_sequence_fails_rate_gates(monkeypatch, target, checks):
    # a zero denominator must fail the gate, neither raise nor be skipped
    monkeypatch.setattr(ct, target, ZERO_SEQUENCES[target])
    records = records_by_id(run_suite("contraction", SuiteConfig())[0])
    for check in checks:
        assert records[check].status == "fail", check
        assert records[check].residual == math.inf, check


def test_rate_a_thousandth_off_fails_the_exact_rate_record(monkeypatch):
    # the last pair's rate is (1 + 1e-3)/2, inside the old band |rate - 1/2|
    # <= 0.1; the residual at 2R must be exactly half the one at R
    real = ct.contraction_residual

    def slowed(f, R_list):
        residuals = real(f, R_list)
        residuals[R_list[-1]] *= Fraction(1001, 1000)
        return residuals

    monkeypatch.setattr(ct, "contraction_residual", slowed)
    config = SuiteConfig(contraction_R=(8, 16, 32), legendre_l=(64, 128))
    record = records_by_id(run_suite("contraction", config)[0])[
        "contraction_rate_band"]
    assert record.exact and record.status == "fail"
    assert record.residual > 0


def test_widened_pass_an_ulp_off_fails_the_selfconsistency_record(monkeypatch):
    # the old gate, |a - b| / |a| <= 1e-13 on J, passed J one ulp off; both
    # passes are correctly rounded, so they must agree bit for bit
    real = eu._series

    def an_ulp_off(n, z, widen=1):
        j, dj, d2j = real(n, z, widen)
        if widen == 2:
            j = complex(math.nextafter(j.real, math.inf), j.imag)
        return j, dj, d2j

    monkeypatch.setattr(eu, "_series", an_ulp_off)
    record = records_by_id(run_suite("bessel", SuiteConfig(
        bessel_orders=(0,), bessel_r_grid=(1.0,)))[0])[
        "selfconsistency_double_precision"]
    assert record.exact and record.status == "fail"
    old_gate = max(
        abs(eu.BESSEL.j(n, r) - eu._series(n, complex(r), widen=2)[0])
        / abs(eu.BESSEL.j(n, r))
        for n in (0, 5, 10, 20) for r in (0.1, 1.0, 5.0, 15.0, 30.0))
    assert 0 < record.residual and old_gate <= 1e-13


@pytest.mark.parametrize("bad", [
    dict(contraction_R=(8,)),
    dict(legendre_l=(64,)),
    dict(legendre_l=(64, ct.MAX_LEGENDRE_DEGREE + 1)),
    dict(bessel_orders=(eu.IDENTITY_MAX_ORDER + 1,)),
    dict(bessel_r_grid=(0.05, 1.0)),
    dict(bessel_r_grid=(1.0, 25.0)),
    dict(contraction_R=(0, 8)),
    dict(contraction_R=(-8, 16)),
    # inf doubles to itself, and Fraction(inf) raised inside the suite
    dict(contraction_R=(math.inf, math.inf)),
    # the rate gates compare each ratio of consecutive entries with 1/2
    dict(contraction_R=(8, 8)),
    dict(contraction_R=(8, 24)),
    dict(contraction_R=(16, 8)),
    dict(legendre_l=(64, 64)),
    dict(legendre_l=(128, 64)),
    # counts, orders and degrees feed range(), which rejects floats
    dict(legendre_l=(64.0, 128.0, 256.0)),
    dict(hermite_max_n=8.0),
    dict(discrete_dim=6.0),
    dict(group_samples=2.0),
    dict(bessel_orders=(0.5, 1)),
    # the range checks compare these with numbers: a string raised TypeError
    dict(bessel_r_grid=("1.0",)),
    dict(contraction_R=("8", "16")),
    # the emitters write ints and floats: a Fraction ran, then broke emit_json
    dict(bessel_r_grid=(Fraction(1, 2),)),
    dict(contraction_R=(Fraction(1, 2), 1)),
    # a bool is an int to isinstance, but not a count, order or radius
    dict(seed=True),
    dict(bessel_orders=(False, 1)),
    dict(bessel_r_grid=(True,)),
    # a container field of the wrong type raised AttributeError or TypeError
    dict(bessel_orders=5),
    dict(bessel_r_grid=1.0),
    dict(contraction_R=8),
    dict(legendre_l=64),
    dict(bessel_r_grid={"r": 1.0}),
    # no radius at or above SMALL_R: ode_A6 gated an empty family and
    # reported fail with residual inf
    dict(bessel_r_grid=(0.1,)),
    dict(bessel_r_grid=(0.1, 0.15)),
    dict(bessel_r_grid=(0.1, math.nextafter(suites.SMALL_R, 0))),
    # an empty family gates nothing, and a rate needs a pair
    dict(bessel_orders=()),
    dict(bessel_r_grid=()),
    dict(contraction_R=()),
    dict(legendre_l=()),
    # NaN fails every comparison with a bound, so each must reject it
    dict(bessel_r_grid=(math.nan,)),
    dict(bessel_r_grid=(1.0, math.nan)),
    dict(contraction_R=(math.nan, math.nan)),
    # None, as a config file's null reads
    dict(seed=None),
    dict(spectrum_max=None),
    dict(bessel_orders=(None,)),
    dict(bessel_r_grid=(None, 1.0)),
    # more numbers of the wrong type
    dict(flow_steps=True),
    dict(seed=1.5),
    dict(genfunc_order="8"),
    dict(bessel_orders=("1",)),
    dict(contraction_R=(8, "16")),
])
def test_bad_config_raises_at_construction(bad):
    with pytest.raises(ConfigError):
        SuiteConfig(**bad)


def test_the_default_report_reads_every_tolerance_key(monkeypatch):
    # a key no gate reads is an entry that gates nothing: it must go
    read, real = set(), suites._Recorder.gated

    def spy(self, check_id, residuals, tol_key, params=None):
        read.add(tol_key)
        return real(self, check_id, residuals, tol_key, params)

    monkeypatch.setattr(suites._Recorder, "gated", spy)
    run_suite("all", SuiteConfig())
    assert read == set(suites.TOLERANCES)
    assert len(read) == 7


def test_no_config_can_change_a_tolerance():
    # {"bessel/identity": 1e300} as an override once turned every identity
    # record into pass; no field or table entry can set it now
    assert not [f.name for f in dataclasses.fields(SuiteConfig)
                if "tol" in f.name]
    with pytest.raises(TypeError):
        SuiteConfig(tolerance_overrides={"bessel/identity": 1e300})
    with pytest.raises(TypeError):
        suites.TOLERANCES["bessel/identity"] = 1e300


def test_load_config_tolerance_keys(tmp_path):
    # a tolerance key in a config file is refused, not read as a gate
    for key, value in [("tolerance_overrides", {"bessel/identity": 1e300}),
                       ("tolerance.bessel/identity", 1e300)]:
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(write_json(tmp_path, {key: value}))


def test_identity_override_sets_both_ode_tolerances():
    # the identity gate cannot be overridden, and below SMALL_R the ODE is
    # reported apart under that same fixed gate
    with pytest.raises(TypeError):
        SuiteConfig(tolerance_overrides={"bessel/identity": 1e-8})
    config = SuiteConfig(bessel_orders=(0, 1), bessel_r_grid=(0.1, 1.0))
    records = records_by_id(run_suite("bessel", config)[0])
    for check_id in ("ode_A6", "ode_A6_small_r"):
        assert records[check_id].tolerance == 1e-10
        assert records[check_id].tolerance == suites.TOLERANCES["bessel/identity"]
        assert records[check_id].status == "pass"


def test_the_default_report_reads_every_config_field(monkeypatch):
    # a field no runner reads is a knob that changes nothing: it must go.
    # echo() reads every field, so it is left out
    config, read = SuiteConfig(), set()
    echo, real = config.echo(), SuiteConfig.__getattribute__

    def spy(self, name):
        read.add(name)
        return real(self, name)

    monkeypatch.setattr(SuiteConfig, "echo", lambda self: echo)
    monkeypatch.setattr(SuiteConfig, "__getattribute__", spy)
    run_suite("all", config)
    names = {f.name for f in dataclasses.fields(SuiteConfig)}
    assert names - read == set()
    assert len(names) == 13


def test_config_is_frozen_after_its_checks():
    # an assignment once skipped every check: bessel_r_grid = (0.1,) left
    # ode_A6 an empty family, which failed with residual inf
    config = SuiteConfig()
    for name, value in (("bessel_r_grid", (0.1,)), ("group_samples", 0),
                        ("seed", 7)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    assert config == SuiteConfig()


def test_config_stores_a_list_as_a_tuple():
    # a list, as JSON gives, could be changed in place after the checks
    lists = {f.name: list(f.default) for f in dataclasses.fields(SuiteConfig)
             if type(f.default) is tuple}
    assert len(lists) == 4
    config = SuiteConfig(**lists)
    for name, value in lists.items():
        assert type(getattr(config, name)) is tuple, name
        value.append(value[-1])
    assert config == SuiteConfig()
    assert (emit_json(run_suite("all", config))
            == emit_json(run_suite("all", SuiteConfig())))


def test_doubling_schedules_build():
    # the default config and the benchmark's tiny report config
    assert SuiteConfig().contraction_R[-1] == 1024
    SuiteConfig(contraction_R=(8, 16, 32), legendre_l=(64, 128, 256))
    SuiteConfig(contraction_R=(0.5, 1, 2), legendre_l=(8, 16))


@pytest.mark.parametrize("bad", [
    dict(group_samples=0),
    dict(hermite_max_n=-1),
    dict(genfunc_order=-1),
    dict(disentangle_order=-1),
    dict(orthonormality_max=-1),
    dict(spectrum_max=-1),
    dict(discrete_dim=0),
    dict(flow_steps=0),
], ids=lambda bad: next(iter(bad)))
def test_integer_field_below_its_limit_raises_at_construction(bad):
    name, = bad
    least = suites._LOWER_BOUNDS[name]
    with pytest.raises(ConfigError, match=f"^{name} must be >= {least}$"):
        SuiteConfig(**bad)


def test_integer_fields_at_their_limits_run():
    # each lower bound is where the code it feeds still works
    config = SuiteConfig(group_samples=1, hermite_max_n=0, genfunc_order=1,
                         disentangle_order=1, orthonormality_max=0,
                         spectrum_max=0, discrete_dim=1, flow_steps=1)
    assert len(run_suite("all", config)) == 5


def test_ode_small_r_recorded_when_residual_is_zero(monkeypatch):
    real = eu.verify_bessel_identity

    def exact_at_small_r(which, n, r):
        return 0.0 if which == "ode_A6" and r < 0.2 else real(which, n, r)

    monkeypatch.setattr(eu, "verify_bessel_identity", exact_at_small_r)
    config = SuiteConfig(bessel_orders=(0, 1), bessel_r_grid=(0.1, 1.0))
    record = records_by_id(run_suite("bessel", config)[0])["ode_A6_small_r"]
    assert record.status == "pass" and record.residual == 0.0


@pytest.mark.parametrize("grid, small_r", [
    ((0.1, 1.0), 0.1),
    ((0.15, 1.0), 0.15),
    ((0.1, 0.15, 1.0), [0.1, 0.15]),
])
def test_ode_small_r_params_name_the_grid_radii(monkeypatch, grid, small_r):
    monkeypatch.setattr(eu, "verify_bessel_identity",
                        lambda which, n, r: 0.0)
    config = SuiteConfig(bessel_orders=(0,), bessel_r_grid=grid)
    record = records_by_id(run_suite("bessel", config)[0])["ode_A6_small_r"]
    assert record.params == {"r": small_r}


def write_json(tmp_path, document):
    """A config file holding ``document``: text as it is, else as JSON."""
    path = tmp_path / "liegen.json"
    path.write_text(document if isinstance(document, str)
                    else json.dumps(document))
    return str(path)


def benchmark_tiny_config():
    """The benchmark's tiny report config, from its own worker."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.report_inputs(7, "tiny")


def test_load_config_round_trip(tmp_path):
    # a report block's config, written to a file, reads back as the same
    # config and reproduces the report byte for byte
    for config in (SuiteConfig(), benchmark_tiny_config()):
        text = emit_json(run_suite("all", config))
        echoed = json.loads(text)["suites"][0]["config"]
        loaded = load_config(write_json(tmp_path, echoed))
        assert loaded.echo() == echoed == config.echo()
        assert emit_json(run_suite("all", loaded)) == text


def test_load_config_reads_tuple_entries_as_numbers(tmp_path):
    # a JSON number keeps its type: an int tuple takes a float entry where
    # SuiteConfig does (contraction_R), and a radius may be an int; keys
    # left out keep their defaults
    entries = {"contraction_R": [0.5, 1, 2], "bessel_r_grid": [1, 2.5],
               "bessel_orders": [0, -3]}
    config = load_config(write_json(tmp_path, entries))
    assert config.echo() == SuiteConfig(**entries).echo()
    assert config.echo() == {**SuiteConfig().echo(), **entries}
    assert [type(v) for v in config.contraction_R] == [float, int, int]
    assert [type(v) for v in config.bessel_r_grid] == [int, float]


@pytest.mark.parametrize("text", [
    "[x]\nno_such_field = 1\n",
    "[x]\ntolerance_overrides = 1\n",
    "[hermite]\nhermite_max_n = ten\n",
    "[bessel]\nbessel_orders = 0, one\n",
    "[bessel]\ntolerance.bessel/identity = -1e-9\n",
    "[bessel]\ntolerance.bessel/identiy = 1e-3\n",
    "[bessel]\nbessel_orders = 1.0, 2\n",
    "[contraction]\nlegendre_l = 64, 128.5\n",
    "[bessel]\ngenfunc_terms = 30\n",
    "[bessel]\ntolerance.bessel/genfunc_A11 = 1e-8\n",
    "[contraction]\ntolerance.contraction/bessel_operator = 1e-9\n",
    "[contraction]\ntolerance.contraction/rate_band = 0.1\n",
    "[bessel]\ntolerance.bessel/selfconsistency = 1e-13\n",
    "[bessel]\ntolerance.bessel/identity_ode_small_r = 1e-9\n",
    "[x]\nseed = 1\nseed = 2\n",
    "seed = 1\n",
])
def test_load_config_rejects_bad_entries(tmp_path, text):
    # files of the sectioned key = value format read before: none is JSON,
    # so each is refused whole, and none of its entries applies
    with pytest.raises(ConfigError):
        load_config(write_json(tmp_path, text))


@pytest.mark.parametrize("text", [
    "[]",
    '[{"seed": 1}]',
    "1234",
    '{"no_such_field": 1}',
    '{"tolerance_overrides": {"bessel/identity": 1e-9}}',
    '{"output_format": "json"}',
    '{"out_path": "report.json"}',
    '{"bessel_orders": [1.0, 2]}',
    '{"bessel_r_grid": [NaN, 1.0]}',
    # emit_json writes a NaN as null
    '{"bessel_r_grid": [null, 1.0]}',
    '{"seed": 1',
    "",
], ids=["list", "list-of-object", "number", "unknown-key",
        "tolerance-overrides", "output-format", "out-path", "float-order",
        "nan-radius", "null-radius", "truncated", "empty"])
def test_load_config_rejects_bad_documents(tmp_path, text):
    with pytest.raises(ConfigError):
        load_config(write_json(tmp_path, text))


def test_load_config_rejects_a_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="absent.json"):
        load_config(str(tmp_path / "absent.json"))


@pytest.mark.parametrize("key, first, second", [
    # the later entry would silently replace the first
    ("hermite_max_n", "8", "10"),
    ("seed", "1", "1"),
    ("bessel_r_grid", "[0.5, 1.0]", "[1.0]"),
], ids=["hermite_max_n-8-10", "seed-1-1", "bessel_r_grid"])
def test_load_config_rejects_a_key_given_twice(tmp_path, key, first, second):
    text = f'{{"{key}": {first}, "seed": 3, "{key}": {second}}}'
    with pytest.raises(ConfigError, match=f"{key}.*given twice"):
        load_config(write_json(tmp_path, text))


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ConfigError):
        run_suite("nope", SuiteConfig())


def test_emit_text_counts_an_error_record():
    records = [
        CheckRecord("a_ok", {}, 0.0, True, None, "pass"),
        CheckRecord("b_raised", {"exception": "TypeError"}, math.nan, False,
                    None, "error"),
    ]
    text = emit_text([SuiteReport("groups", records, {})])
    assert text == ("== suite groups ==\n"
                    "PASS  a_ok: exact zero\n"
                    "ERROR  b_raised: residual=nan\n"
                    "-- 1 passed, 0 failed, 0 diagnostic, 1 error\n")


#: every block at small sizes, so the full report runs in well under a second
TINY = dict(SMALL_HERMITE, **SMALL_BESSEL, group_samples=5,
            contraction_R=(8, 16, 32), legendre_l=(64, 128, 256),
            flow_steps=200)


def test_a_raising_check_becomes_an_error_record(monkeypatch):
    config = SuiteConfig(**TINY)
    intact = run_suite("all", config)

    def raising(order):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(hb, "hermite_genfunc_check", raising)
    reports = run_suite("all", config)
    assert [r.suite for r in reports] == [r.suite for r in intact]
    hermite = reports[1]
    # the records made before genfunc_A5 are kept, in check_id order
    assert [r.check_id for r in hermite.records] == [
        "block_raised", "diffrel_A4", "ode_A2", "parity", "recursion_A3",
        "rodrigues_vs_recurrence"]
    error = hermite.records[0]
    assert error.status == "error" and not error.exact
    assert error.params == {"exception": "ZeroDivisionError"}
    assert math.isnan(error.residual) and error.tolerance is None
    assert all(r.status == "pass" for r in hermite.records[1:])
    for before, after in zip(intact, reports):
        if before.suite != "hermite":
            assert after.to_dict() == before.to_dict()
    assert "-- 5 passed, 0 failed, 0 diagnostic, 1 error\n" in emit_text(
        [hermite])


def test_emit_json_writes_a_raising_block_as_strict_json(monkeypatch):
    def raising(order):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(hb, "hermite_genfunc_check", raising)
    reports = run_suite("hermite", SuiteConfig(**SMALL_HERMITE))

    def no_constants(token):
        raise ValueError(f"{token} is not JSON")

    document = json.loads(emit_json(reports), parse_constant=no_constants)
    (error,) = [c for c in document["suites"][0]["checks"]
                if c["check_id"] == "block_raised"]
    assert error["residual"] is None and error["status"] == "error"
    # CSV and text keep Python's spelling
    assert "hermite,block_raised,exception=ZeroDivisionError,nan," in (
        emit_csv(reports))
    assert "ERROR  block_raised: residual=nan\n" in emit_text(reports)
    # an infinity, in a residual or in the params, is null too
    gap = CheckRecord("gap", {"step": -math.inf}, math.inf, True, None, "fail")
    (check,) = json.loads(emit_json([SuiteReport("groups", [gap], {})]),
                          parse_constant=no_constants)["suites"][0]["checks"]
    assert check["params"] == {"step": None} and check["residual"] is None


_EMIT_DEFAULT_REPORT = """\
import sys
from liegen.suites import SuiteConfig, emit_csv, emit_json, run_suite
reports = run_suite("all", SuiteConfig())
sys.stdout.write(emit_json(reports) + emit_csv(reports))
"""


def test_default_report_bytes_do_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    runs = [subprocess.Popen(
        [sys.executable, "-c", _EMIT_DEFAULT_REPORT], stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
        for seed in ("0", "12345")]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") > 75
