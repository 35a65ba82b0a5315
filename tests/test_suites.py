"""Suite runner: the hermite block, NaN-propagating aggregates, and checks
that must fail when the checked polynomials are wrong."""

import math
from fractions import Fraction

import pytest

from liegen import contraction as ct
from liegen import euclidean as eu
from liegen import heisenberg as hb
from liegen import suites
from liegen.numeric import X
from liegen.suites import SuiteConfig, run_bessel, run_contraction, run_hermite

SMALL_HERMITE = dict(hermite_max_n=8, genfunc_order=8, disentangle_order=8,
                     orthonormality_max=4, spectrum_max=4, discrete_dim=6)


def records_by_id(report):
    return {r.check_id: r for r in report.records}


def test_run_hermite_defaults_all_pass_exactly():
    report = run_hermite(SuiteConfig())
    assert len(report.records) == 13
    for record in report.records:
        assert record.status == "pass", record.check_id
        assert record.to_dict()["exact_zero"], record.check_id


@pytest.mark.parametrize("values", [(0.0, math.nan), (math.nan, 0.0),
                                    (1.0, math.nan, 2.0)])
def test_worst_propagates_nan_in_any_position(values):
    assert math.isnan(suites._worst(*values))


def test_worst_is_max_without_nan():
    assert suites._worst(0.0, 3.0, Fraction(1, 2)) == 3.0


def test_nan_residual_fails_contraction_gate(monkeypatch):
    real = ct.bessel_operator_residual

    def poisoned(m, r, ev):
        return math.nan if (m, r) == (2, 1.0) else real(m, r, ev)

    monkeypatch.setattr(ct, "bessel_operator_residual", poisoned)
    record = records_by_id(run_contraction(SuiteConfig()))[
        "bessel_operator_exact_form"]
    assert record.status == "fail"
    assert math.isnan(record.residual)


def test_nan_residual_fails_bessel_identity(monkeypatch):
    real = eu.verify_bessel_identity

    def poisoned(which, n, r, ev):
        if which == "ode_A6" and (n, r) == (1, 1.0):
            return math.nan
        return real(which, n, r, ev)

    monkeypatch.setattr(eu, "verify_bessel_identity", poisoned)
    config = SuiteConfig(bessel_orders=(0, 1), bessel_r_grid=(0.5, 1.0, 2.0))
    records = records_by_id(run_bessel(config))
    assert records["ode_A6"].status == "fail"
    assert math.isnan(records["ode_A6"].residual)
    others = [r for r in records.values() if r.check_id != "ode_A6"]
    assert all(r.status == "pass" for r in others)


def test_wrong_parity_term_fails_parity_and_recurrence(monkeypatch):
    real = hb.hermite_rodrigues
    bump = Fraction(3, 2) * X ** 2  # even exponent in the odd H_5

    def mutated(n, max_n=hb.DEFAULT_MAX_N):
        h = real(n, max_n)
        return h + bump if n == 5 else h

    monkeypatch.setattr(hb, "hermite_rodrigues", mutated)
    records = records_by_id(run_hermite(SuiteConfig(**SMALL_HERMITE)))
    assert records["parity"].status == "fail"
    assert records["parity"].residual == 1.5
    assert records["rodrigues_vs_recurrence"].status == "fail"


def test_small_hermite_config_passes():
    report = run_hermite(SuiteConfig(**SMALL_HERMITE))
    assert all(r.status == "pass" for r in report.records)
