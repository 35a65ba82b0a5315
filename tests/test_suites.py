"""Suite runner: the hermite block, NaN-propagating aggregates, gates that
must fail when the checked values are wrong or vanish, config validation
and config-file parsing."""

import math
from fractions import Fraction

import pytest

from liegen import contraction as ct
from liegen import euclidean as eu
from liegen import heisenberg as hb
from liegen import suites
from liegen.errors import ConfigError
from liegen.numeric import X
from liegen.suites import (
    SuiteConfig,
    load_config,
    run_bessel,
    run_contraction,
    run_hermite,
    run_suite,
)

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

    def mutated(n):
        h = real(n)
        return h + bump if n == 5 else h

    monkeypatch.setattr(hb, "hermite_rodrigues", mutated)
    records = records_by_id(run_hermite(SuiteConfig(**SMALL_HERMITE)))
    assert records["parity"].status == "fail"
    assert records["parity"].residual == 1.5
    assert records["rodrigues_vs_recurrence"].status == "fail"


def test_small_hermite_config_passes():
    report = run_hermite(SuiteConfig(**SMALL_HERMITE))
    assert all(r.status == "pass" for r in report.records)


def test_hermite_checks_above_64_pass():
    # no Hermite function caps n, so configs above 64 need no widening
    report = run_hermite(SuiteConfig(spectrum_max=70))
    assert all(r.status == "pass" for r in report.records)
    assert hb.verify_hermite_identity("orthonormality", 70) == 0
    poly_residual, norm_residual = hb.raising_consistency_residual(70)
    assert poly_residual.is_zero and norm_residual == 0


def test_empty_gate_fails():
    rec = suites._Recorder(SuiteConfig())
    rec.gated("nothing", (), "bessel/identity")
    assert rec.records[0].status == "fail"


ZERO_SEQUENCES = {
    "contraction_residual": lambda f, R_list: {R: Fraction(0) for R in R_list},
    "polar_ladder_limit": lambda n, r, phi, R_list, ev: {R: 0.0 for R in R_list},
    "legendre_ode_residual": lambda l, m, r, ev: 0.0,
}


@pytest.mark.parametrize("target, checks", [
    ("contraction_residual", ["contraction_rate_band"]),
    ("polar_ladder_limit", ["polar_ladder_rate", "polar_ladder_monotone"]),
    ("legendre_ode_residual", ["legendre_ode_rate_m0", "legendre_ode_monotone"]),
])
def test_vanishing_sequence_fails_rate_gates(monkeypatch, target, checks):
    # a zero denominator must fail the gate, neither raise nor be skipped
    monkeypatch.setattr(ct, target, ZERO_SEQUENCES[target])
    records = records_by_id(run_contraction(SuiteConfig()))
    for check in checks:
        assert records[check].status == "fail", check
        assert records[check].residual == math.inf, check


@pytest.mark.parametrize("bad", [
    dict(contraction_R=(8,)),
    dict(legendre_l=(64,)),
    dict(legendre_l=(64, ct.MAX_LEGENDRE_DEGREE + 1)),
    dict(bessel_orders=(eu.IDENTITY_MAX_ORDER + 1,)),
    dict(bessel_r_grid=(0.05, 1.0)),
    dict(bessel_r_grid=(1.0, 25.0)),
    dict(tolerance_overrides={"bessel/identity": math.nan}),
])
def test_bad_config_raises_at_construction(bad):
    with pytest.raises(ConfigError):
        SuiteConfig(**bad)


@pytest.mark.parametrize("bad", [
    dict(group_samples=0),
    dict(hermite_max_n=-1),
    dict(genfunc_order=-1),
    dict(disentangle_order=-1),
    dict(orthonormality_max=-1),
    dict(spectrum_max=-1),
    dict(discrete_dim=1),
    dict(genfunc_terms=eu.MIN_GENFUNC_TERMS - 1),
    dict(flow_steps=0),
], ids=lambda bad: next(iter(bad)))
def test_integer_field_below_its_limit_raises_at_construction(bad):
    with pytest.raises(ConfigError):
        SuiteConfig(**bad)


def test_integer_fields_at_their_limits_run():
    # each lower bound is where the code it feeds still works
    config = SuiteConfig(group_samples=1, hermite_max_n=0, genfunc_order=1,
                         disentangle_order=1, orthonormality_max=0,
                         spectrum_max=0, discrete_dim=2,
                         genfunc_terms=eu.MIN_GENFUNC_TERMS, flow_steps=1)
    assert len(run_suite("all", config)) == 5


def test_ode_small_r_recorded_when_residual_is_zero(monkeypatch):
    real = eu.verify_bessel_identity

    def exact_at_small_r(which, n, r, ev):
        return 0.0 if which == "ode_A6" and r < 0.2 else real(which, n, r, ev)

    monkeypatch.setattr(eu, "verify_bessel_identity", exact_at_small_r)
    config = SuiteConfig(bessel_orders=(0, 1), bessel_r_grid=(0.1, 1.0))
    record = records_by_id(run_bessel(config))["ode_A6_small_r"]
    assert record.status == "pass" and record.residual == 0.0


def write_ini(tmp_path, text):
    path = tmp_path / "liegen.ini"
    path.write_text(text)
    return str(path)


def test_load_config_round_trip(tmp_path):
    config = SuiteConfig(seed=7, output_format="json", hermite_max_n=10,
                         bessel_orders=(0, 2), bessel_r_grid=(0.5, 2.0),
                         contraction_R=(8, 16), legendre_l=(64, 128))
    lines = ["[suites]"]
    for key, value in config.echo().items():
        if isinstance(value, list):
            lines.append(f"{key} = {', '.join(map(str, value))}")
        elif value is not None and key != "tolerance_overrides":
            lines.append(f"{key} = {value}")
    loaded = SuiteConfig(**load_config(write_ini(tmp_path, "\n".join(lines))))
    assert loaded == config


def test_load_config_tolerance_keys(tmp_path):
    path = write_ini(tmp_path, "[bessel]\ntolerance.bessel/identity = 1e-9\n")
    overrides = load_config(path)
    assert overrides == {"tolerance_overrides": {"bessel/identity": 1e-9}}
    assert SuiteConfig(**overrides).tolerance("bessel/identity") == 1e-9


@pytest.mark.parametrize("text", [
    "[x]\nno_such_field = 1\n",
    "[x]\ntolerance_overrides = 1\n",
    "[hermite]\nhermite_max_n = ten\n",
    "[bessel]\nbessel_orders = 0, one\n",
    "[bessel]\ntolerance.bessel/identity = -1e-9\n",
])
def test_load_config_rejects_bad_entries(tmp_path, text):
    with pytest.raises(ConfigError):
        SuiteConfig(**load_config(write_ini(tmp_path, text)))


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ConfigError):
        run_suite("nope", SuiteConfig())
