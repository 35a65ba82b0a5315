"""Verification suites: runnable bundles of checks with serializable reports.

Each block is a runner ``run_<block>(config, rec)`` that only records
checks.  :func:`run_suite` is the one loop that runs blocks: per block a
fresh recorder, a timed call and a :class:`SuiteReport`, which sorts its
records by check id, so a report's bytes depend only on the configuration
and seed.  A runner that raises keeps its records and gains one
``block_raised`` record of status ``error``; the later blocks still run.
Checks are exact (pass means the residual is identically zero in rational
arithmetic) or floats gated by the fixed :data:`TOLERANCES`; diagnostic
records can never affect an exit status.  Every emitter reads rows from
:meth:`CheckRecord.to_dict`, and :func:`emit_json` writes
``{"suites": [block, ...]}`` for one block or for all.  A block's
``config``, written to a JSON file, is what :func:`load_config` reads.
"""
from __future__ import annotations

import csv
import io
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import chain
from types import MappingProxyType

from . import contraction as ct
from . import euclidean as eu
from . import groups as gr
from . import heisenberg as hb
from .numeric import (BandedOp, Matrix, Polynomial, X, Y, Z, _check_order,
                      _is_int, _worst)

#: the tolerance of each float gate, fixed: a gate a config could loosen
#: could be made to pass anything
TOLERANCES = MappingProxyType({
    "bessel/identity": 1e-10,
    "bessel/j0_root": 1e-10,
    "contraction/polar_ladder_rate": 0.3,
    "contraction/monotone": 1.0,
    "contraction/legendre_closed_forms": 1e-12,
    "contraction/legendre_ode_rate": 0.5,
    "contraction/mehler_heine_margin": 1.0,
})

#: the ODE residuals at radii below this are recorded apart, in ode_A6_small_r
SMALL_R = 0.2


class ConfigError(ValueError):
    """A config file or value the checks cannot take."""


@dataclass(frozen=True)
class SuiteConfig:
    """The inputs of the checks, each read by the default report.  Frozen,
    and every tuple field is stored as a tuple (a list, as JSON gives, is
    copied into one), so no field changes after the checks below."""

    seed: int = 1234
    group_samples: int = 100
    hermite_max_n: int = 64
    genfunc_order: int = 64
    disentangle_order: int = 32
    orthonormality_max: int = 20
    spectrum_max: int = 32
    discrete_dim: int = 40
    bessel_orders: tuple = tuple(range(11))
    bessel_r_grid: tuple = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    contraction_R: tuple = (8, 16, 32, 64, 128, 256, 512, 1024)
    legendre_l: tuple = (64, 128, 256, 512, 1024)
    #: RK4 steps at its accuracy floor: see :func:`euclidean.flow_solve`
    flow_steps: int = 1_000

    def __post_init__(self):
        # range() takes the ints and the checks below iterate the tuples: a
        # wrong type would raise inside a check, not here
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int:
                _config_order(value, _LOWER_BOUNDS.get(f.name), f.name)
            elif not isinstance(value, (tuple, list)):
                raise ConfigError(f"{f.name} must be a tuple or a list")
            else:
                object.__setattr__(self, f.name, tuple(value))
        for name in ("legendre_l", "bessel_orders"):
            for value in getattr(self, name):
                _config_order(value, None, f"a {name} entry")
        # the rate gates compare the ratio of each pair of consecutive
        # entries with 1/2: there must be a pair, and each entry must be
        # twice the one before it
        if len(self.contraction_R) < 2 or len(self.legendre_l) < 2:
            raise ConfigError("contraction_R and legendre_l need two entries")
        if any(not (_is_real(R) and 0 < R < math.inf)
               for R in self.contraction_R):
            raise ConfigError("contraction_R entries must be positive numbers")
        for name in ("contraction_R", "legendre_l"):
            values = getattr(self, name)
            if any(b != 2 * a for a, b in zip(values, values[1:])):
                raise ConfigError(
                    f"each {name} entry must be twice the one before it")
        if any(abs(n) > eu.IDENTITY_MAX_ORDER for n in self.bessel_orders):
            raise ConfigError(
                f"bessel_orders outside |n| <= {eu.IDENTITY_MAX_ORDER}")
        if any(not (_is_real(r) and eu.IDENTITY_MIN_R <= r <= eu.IDENTITY_MAX_R)
               for r in self.bessel_r_grid):
            raise ConfigError(f"bessel_r_grid entries must be numbers in "
                              f"[{eu.IDENTITY_MIN_R}, {eu.IDENTITY_MAX_R}]")
        # else the identity records (ode_A6 at least) gate empty families
        if not self.bessel_orders or all(r < SMALL_R for r in self.bessel_r_grid):
            raise ConfigError(f"bessel_orders must not be empty, and "
                              f"bessel_r_grid needs a radius >= {SMALL_R}")
        if any(not ct.MIN_LEGENDRE_ODE_DEGREE <= l <= ct.MAX_LEGENDRE_DEGREE
               for l in self.legendre_l):
            raise ConfigError(f"legendre_l outside [{ct.MIN_LEGENDRE_ODE_DEGREE}, "
                              f"{ct.MAX_LEGENDRE_DEGREE}]")

    def echo(self) -> dict:
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in asdict(self).items()}


def _config_order(value, least, name: str) -> None:
    """:func:`numeric._check_order`, its errors raised as ``ConfigError``."""
    try:
        _check_order(value, least, name)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _is_real(value) -> bool:
    """Whether ``value`` is an int or a float, and not a bool."""
    return isinstance(value, float) or _is_int(value)


#: the smallest value of each integer field, as the code it feeds requires
_LOWER_BOUNDS = {
    "group_samples": gr.MIN_AXIOM_SAMPLES,
    "hermite_max_n": hb.MIN_HERMITE_N,
    "genfunc_order": hb.MIN_SERIES_ORDER,
    "disentangle_order": hb.MIN_SERIES_ORDER,
    "orthonormality_max": hb.MIN_HERMITE_N,
    "spectrum_max": hb.MIN_HERMITE_N,
    "discrete_dim": hb.MIN_DISCRETE_DIM,
    "flow_steps": eu.MIN_FLOW_STEPS,
}


def _unique_keys(pairs: list) -> dict:
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ConfigError(f"config key {key!r} is given twice")
    return dict(pairs)


def load_config(path: str) -> SuiteConfig:
    """The config in a JSON object shaped like a report block's ``config``,
    so a report's own config reproduces its run; a key left out keeps its
    default.  :class:`ConfigError` for an unreadable file, a document that
    is not an object, a key given twice or a key that is not a field."""
    try:
        with open(path) as fh:
            document = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"config file {path!r}: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"config file {path!r} is not a JSON object")
    unknown = sorted(set(document) - {f.name for f in fields(SuiteConfig)})
    if unknown:
        raise ConfigError(f"unknown config keys {unknown} in {path!r}")
    return SuiteConfig(**document)


# ---------------------------------------------------------------------------
# check records
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    check_id: str
    params: dict
    residual: float
    exact: bool
    tolerance: float | None
    status: str  # pass | fail | diagnostic | error

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "residual": self.residual,
            "exact_zero": self.exact and self.residual == 0.0,
            "tolerance": self.tolerance,
            "status": self.status,
        }


@dataclass
class SuiteReport:
    suite: str
    records: list
    config_echo: dict
    wall_time_s: float = 0.0

    def __post_init__(self):
        # every emitter writes the records in this order, as stored
        self.records = sorted(self.records, key=lambda r: r.check_id)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config_echo,
            "checks": [r.to_dict() for r in self.records],
        }


def _ratios(sequences):
    """Consecutive ratios b/a within each float sequence; a zero denominator
    gives inf, so a vanishing sequence fails its gate: no raise, no skip."""
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            yield b / a if a else math.inf


def _scalars(residual):
    """The scalars an exact residual is made of: a matrix's entries, a
    polynomial's coefficients (a series in t is a polynomial in y), the
    coefficients' coefficients of a vector field, the coefficients of a
    banded operator's column (a dict), or else the residual itself."""
    if isinstance(residual, Polynomial):
        if not residual.is_zero:
            yield from residual.terms.values()
    elif isinstance(residual, ct.VectorFieldOp):
        for c in residual.coeffs:
            yield from _scalars(c)
    elif isinstance(residual, Matrix):
        for row in residual.rows:
            yield from row
    elif isinstance(residual, dict):
        yield from residual.values()
    else:
        yield residual


def _magnitude(scalar) -> float:
    """|scalar| as a float: inf for a value past the float range or of a
    type with no magnitude."""
    try:
        return float(abs(scalar))
    except (TypeError, OverflowError):
        return math.inf


class _Recorder:
    def __init__(self):
        self.records: list[CheckRecord] = []

    def exact(self, check_id: str, residuals, params: dict | None = None):
        """One record for a family of exact residuals, consumed one at a
        time; every member must be identically zero (summing first could
        let nonzero members cancel) and exact: each of its scalars (see
        :func:`_scalars`; a series is a polynomial) an int or a Fraction
        equal to 0.  Any other scalar, a float zero included, fails the
        record with its magnitude, floored at the smallest float so that it
        cannot read as zero.  A family with no member fails with inf, as an
        empty gate does: a check that read nothing must not pass."""
        residuals, empty = iter(residuals), object()
        first = next(residuals, empty)
        if first is empty:
            worst = math.inf
        else:
            magnitudes = [_magnitude(s) for r in chain((first,), residuals)
                          for s in _scalars(r)
                          if not (isinstance(s, (int, Fraction)) and s == 0)]
            worst = _worst(*magnitudes, math.ulp(0.0)) if magnitudes else 0.0
        self.records.append(CheckRecord(
            check_id=check_id, params=params or {}, residual=worst,
            exact=True, tolerance=None,
            status="pass" if worst == 0.0 else "fail"))

    def gated(self, check_id: str, residuals, tol_key: str,
              params: dict | None = None):
        """One record for the largest of a family of float residuals, gated
        by ``TOLERANCES[tol_key]``."""
        residual = float(_worst(*residuals))
        tol = TOLERANCES[tol_key]
        self.records.append(CheckRecord(
            check_id=check_id, params=params or {}, residual=residual,
            exact=False, tolerance=tol,
            status="pass" if residual <= tol else "fail"))

    def diagnostic(self, check_id: str, residual: float,
                   params: dict | None = None):
        self.records.append(CheckRecord(
            check_id=check_id, params=params or {}, residual=float(residual),
            exact=False, tolerance=None, status="diagnostic"))


# ---------------------------------------------------------------------------
# the four verification suites plus the diagnostics block
# ---------------------------------------------------------------------------

def run_groups(config: SuiteConfig, rec: _Recorder) -> None:
    for group in ("h3", "e2"):
        residuals = gr.axiom_suite(group, config.group_samples, config.seed)
        for axiom, residual in sorted(residuals.items()):
            rec.exact(f"{group}_axiom_{axiom}", [residual],
                      {"samples": config.group_samples, "axiom": axiom})

    A, B, C = gr.H3_BASIS_A, gr.H3_BASIS_B, gr.H3_BASIS_C
    rec.exact("h3_exp_closed_form",
              [gr.h3_exp(A + C).to_matrix()
               - gr.H3Element(1, Fraction(1, 2), 1).to_matrix()],
              {"element": "(1,0,1)"})
    probe = A * Fraction(3, 2) - B * Fraction(1, 7) + C * 5
    series = gr.IDENTITY + probe + (probe * probe) * Fraction(1, 2)
    rec.exact("h3_exp_matches_series", [gr.h3_exp(probe).to_matrix() - series])
    rec.exact("h3_exp_log_roundtrip", [gr.h3_log(gr.h3_exp(probe)) - probe])
    rec.exact("h3_algebra_cube_zero", [probe * probe * probe])

    comm = gr.commutator
    rec.exact("h3_commutator_ab", [comm(A, B)])
    rec.exact("h3_commutator_bc", [comm(B, C)])
    rec.exact("h3_commutator_ac_minus_b", [comm(A, C) - B])
    rec.exact("e2_commutator_xy", [comm(gr.E2_BASIS_X, gr.E2_BASIS_Y)])
    rec.exact("e2_commutator_rot_x_minus_y",
              [comm(gr.E2_BASIS_ROT, gr.E2_BASIS_X) - gr.E2_BASIS_Y])
    rec.exact("e2_commutator_y_rot_minus_x",
              [comm(gr.E2_BASIS_Y, gr.E2_BASIS_ROT) - gr.E2_BASIS_X])

    steps = (Fraction(1), Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3))
    for group in ("h3", "e2"):
        rec.exact(f"{group}_generators_tangent",
                  (r for h in steps for r in gr.tangent_residuals(group, h)),
                  {"steps": [str(h) for h in steps]})

    t = Fraction(5, 3)
    shift = gr.e2_exp_translation(t, "x") - gr.IDENTITY
    rec.exact("e2_translation_nilpotent", [shift * shift], {"t": "5/3"})
    a = gr.e2_exp_translation(Fraction(3, 7), "x")
    b = gr.e2_exp_translation(Fraction(-2, 5), "y")
    rec.exact("e2_translations_commute", [a * b - b * a])
    moved = gr.e2_exp_translation(t, "y").apply((Fraction(2), Fraction(3), Fraction(1)))
    expected = (Fraction(2), Fraction(3) + t, Fraction(1))
    rec.exact("e2_translation_shift_action",
              [_worst(*(abs(a - b) for a, b in zip(moved, expected)))])

    # t = 1 in Cayley's parametrization gives u = i, the quarter turn; a
    # point with both coordinates nonzero reads both columns of the rotation
    turned = gr.e2_apply(gr.E2Element(0, 0, 0, 1), (1, 2))
    rec.exact("e2_apply_rotation", [turned[0] + 2, turned[1] - 1],
              {"t": 1, "theta": "pi/2"})


def run_hermite(config: SuiteConfig, rec: _Recorder) -> None:
    max_n = config.hermite_max_n

    rec.exact(
        "rodrigues_vs_recurrence",
        (hb.hermite_rodrigues(n) - h
         for n, h in enumerate(hb.hermite_recurrence_sequence(max_n))),
        {"max_n": max_n})

    for which in ("ode_A2", "recursion_A3", "diffrel_A4"):
        rec.exact(which, (hb.verify_hermite_identity(which, n)
                          for n in range(max_n + 1)), {"max_n": max_n})

    def parity_residuals():
        # H_n(-x) = (-1)^n H_n(x) says exactly that every exponent of H_n
        # has the parity of n; the residual is the wrong-parity part, read
        # off the stored numerators (no part at all gives the zero over 1)
        for n in range(max_n + 1):
            h = hb.hermite_rodrigues(n)
            yield Polynomial._make(
                {e: c for e, c in h._nums.items() if (sum(e) - n) % 2}, h._den)
    rec.exact("parity", parity_residuals(), {"max_n": max_n})

    rec.exact("genfunc_A5", [hb.hermite_genfunc_check(config.genfunc_order)],
              {"order": config.genfunc_order})
    rec.exact("disentangle", [hb.disentangle_check(config.disentangle_order)],
              {"order": config.disentangle_order})

    rec.exact(
        "orthonormality",
        (hb.verify_hermite_identity("orthonormality", n)
         for n in range(config.orthonormality_max + 1)),
        {"max_n": config.orthonormality_max})

    def spectrum_residuals():
        # the operator identity on every x^k, k <= N, covers every degree
        # the eigenvalue relations for n <= N reach
        yield hb.anticommutator_operator_residual(config.spectrum_max)
        for n in range(config.spectrum_max + 1):
            yield hb.verify_hermite_identity("anticommutator", n)
    rec.exact("anticommutator_spectrum", spectrum_residuals(),
              {"max_n": config.spectrum_max})

    rec.exact("ladder_commutator_identity",
              [hb.ladder_commutator_residual(12)], {"max_degree": 12})

    def raising_residuals():
        for n in range(config.orthonormality_max + 1):
            yield from hb.raising_consistency_residual(n)
    rec.exact("raising_consistency", raising_residuals(),
              {"max_n": config.orthonormality_max})

    dim = config.discrete_dim
    rec.exact("discrete_anticommutator_diagonal",
              hb.discrete_anticommutator(dim), {"dimension": dim})
    rec.exact("discrete_commutator_identity", hb.discrete_commutator(dim),
              {"dimension": dim})


def run_bessel(config: SuiteConfig, rec: _Recorder) -> None:
    def identity_residuals(which, small_r):
        # the ODE divides by r and r^2: reported apart below SMALL_R, same gate
        for n in config.bessel_orders:
            for r in config.bessel_r_grid:
                if (which == "ode_A6" and r < SMALL_R) == small_r:
                    yield eu.verify_bessel_identity(which, n, r)
    params = {"orders": list(config.bessel_orders),
              "r_grid": list(config.bessel_r_grid)}
    for which in eu.BESSEL_IDENTITIES:
        rec.gated(which, identity_residuals(which, False), "bessel/identity",
                  params)
    small_r = [r for r in config.bessel_r_grid if r < SMALL_R]
    if small_r:
        rec.gated("ode_A6_small_r", identity_residuals("ode_A6", True),
                  "bessel/identity",
                  {"r": small_r[0] if len(small_r) == 1 else small_r})

    rec.exact("ladder_crosscheck_series",
              (r for op in ("raise", "lower") for n in range(6)
               for r in eu.ladder_series_residuals(op, n, 24)),
              {"orders": "0..5", "degree": 24})

    # raise lower = lower raise = 1 on the orders -2 .. 5
    one = BandedOp({0: lambda n: 1})
    up, down, lz = (eu.POLAR_OPS[op] for op in ("raise", "lower", "lz"))
    rec.exact("ladder_roundtrip_identity",
              ((trip - one).column(n) for trip in (up * down, down * up)
               for n in range(-2, 6)))

    # L_z (2 e_3) = 6 e_3, and [L_z, raise] = raise, [L_z, lower] = -lower
    rec.exact("lz_eigenvalue", chain(
        [(lz * 2 - one * 6).column(3)],
        (rel.column(n) for rel in (lz.bracket(up) - up, lz.bracket(down) + down)
         for n in range(-2, 6))), {"order": 3})

    rec.exact("genfunc_A11",
              (eu.genfunc_a11_residual(n, 16) for n in (0, 1, 2)),
              {"orders": [0, 1, 2], "t_degree": 16})

    root = eu.find_j0_root()
    rec.gated("j0_root_bisection", [abs(eu.BESSEL.j(0, root))],
              "bessel/j0_root", {"root": root})

    def widened_mismatches():
        # against a pass from twice the bits: both correctly rounded, so equal
        for n in (0, 5, 10, 20):
            for r in (0.1, 1.0, 5.0, 15.0, 30.0):
                wide = eu._series(n, complex(r), widen=2)
                for a, b in zip(eu.BESSEL.derivatives(n, r), wide):
                    yield 0 if a == b else abs(a - b)
    rec.exact("selfconsistency_double_precision", widened_mismatches(),
              {"start_precision": [1, 2]})


def run_contraction(config: SuiteConfig, rec: _Recorder) -> None:
    rec.exact("so3_commutator_xy", [ct.vf_commutator(ct.LX, ct.LY) + ct.LZ])
    rec.exact("so3_commutator_yz", [ct.vf_commutator(ct.LY, ct.LZ) + ct.LX])
    rec.exact("so3_commutator_zx", [ct.vf_commutator(ct.LZ, ct.LX) + ct.LY])

    for R in (1, 10, 1000):
        rec.exact(f"scaled_commutators_R{R}",
                  ct.scaled_commutator_check(R).values(), {"R": R})

    rec.exact("contracted_relations", ct.contracted_relations_check().values())

    rec.exact(
        "jacobi_identity",
        (ct.vf_commutator(a, ct.vf_commutator(b, c))
         + ct.vf_commutator(b, ct.vf_commutator(c, a))
         + ct.vf_commutator(c, ct.vf_commutator(a, b))
         for a, b, c in ((ct.LX, ct.LY, ct.LZ), (ct.LX, ct.LZ, ct.LY),
                         (ct.LY, ct.LZ, ct.LX))))

    R_list = [Fraction(R) for R in config.contraction_R]
    rate_polys = {"xxyyyz": X ** 2 * Y ** 3 * Z, "xyz": X * Y * Z,
                  "y5z": Y ** 5 * Z}

    def rate_residuals():
        # f_z is free of z, so max(|x0|, |y0|) |f_z| / R at z = R halves at 2R
        for poly in rate_polys.values():
            res = ct.contraction_residual(poly, R_list)
            for R, R2 in zip(R_list, R_list[1:]):
                yield 2 * res[R2] - res[R] if res[R] else math.inf
    rec.exact("contraction_rate_band", rate_residuals(),
              {"R": list(config.contraction_R),
               "polynomials": sorted(rate_polys)})

    z_free = ct.contraction_residual(X ** 2 * Y, R_list)
    rec.exact("contraction_z_free_zero", [sum(z_free.values(), Fraction(0))],
              {"polynomial": "x^2 y"})

    R_floats = [float(R) for R in config.contraction_R]

    def ladder_sequence(n, r, phi):
        residuals = ct.polar_ladder_limit(n, r, phi, R_floats)
        return [residuals[R] for R in R_floats]
    rec.gated("polar_ladder_rate", _ratios([ladder_sequence(0, 1.0, 0.0)]),
              "contraction/polar_ladder_rate", {"n": 0, "r": 1.0})
    rec.gated("polar_ladder_monotone",
              _ratios(ladder_sequence(n, 2.0, 0.7) for n in (1, 2)),
              "contraction/monotone", {"orders": [1, 2], "r": 2.0})

    rec.gated("legendre_closed_forms",
              (residual for x in (-0.9, -0.3, 0.0, 0.4, 0.99) for residual in (
                  abs(ct.assoc_legendre(2, 0, x) - (3 * x * x - 1) / 2),
                  abs(ct.assoc_legendre(2, 1, x)
                      - 3 * x * math.sqrt(1 - x * x)))),
              "contraction/legendre_closed_forms", {"degree": 2})

    def legendre_sequence(m, r):
        return [ct.legendre_ode_residual(l, m, r) for l in config.legendre_l]
    rec.gated("legendre_ode_rate_m0",
              _ratios(legendre_sequence(0, r) for r in (1.0, 2.0, 4.0)),
              "contraction/legendre_ode_rate",
              {"l": list(config.legendre_l), "r": [1.0, 2.0, 4.0]})
    rec.gated("legendre_ode_monotone",
              _ratios(legendre_sequence(m, 2.0) for m in (1, 2, 3)),
              "contraction/monotone", {"m": [1, 2, 3], "r": 2.0})

    rec.exact("bessel_operator_exact_form",
              (ct.bessel_operator_residual(m, 30) for m in range(4)),
              {"m": "0..3", "degree": 30})

    def mehler_heine_margins():
        for m in range(4):
            for r in (1.0, 2.0, 4.0):
                errs = ct.mehler_heine_check(m, r, list(config.legendre_l))
                seq = [errs[l] for l in config.legendre_l]
                # the tail must be decreasing as well
                if any(b >= a for a, b in zip(seq, seq[1:])):
                    yield math.inf
                else:
                    yield seq[-1] / (0.02 * abs(eu.BESSEL.j(m, r).real) + 0.005)
    rec.gated("mehler_heine_margin", mehler_heine_margins(),
              "contraction/mehler_heine_margin",
              {"l_final": max(config.legendre_l), "m": "0..3",
               "r": [1.0, 2.0, 4.0]})


def run_diagnostics(config: SuiteConfig, rec: _Recorder) -> None:
    """Recorded-only block: residuals with no pass/fail semantics."""
    for n, r, phi, t in ((0, 2.0, 0.5, 0.2), (1, 3.0, 1.0, 0.1)):
        report = eu.genfunc_a12_diagnostic(n, r, phi, t)
        params = {"n": n, "r": r, "phi": phi, "t": t}
        rec.diagnostic(f"a12_catalog_form_n{n}",
                       report["residual_catalog_form"], params)
        rec.diagnostic(f"a12_substituted_form_n{n}",
                       report["residual_substituted_form"], params)

    rec.diagnostic("a11_literal_form",
                   eu.genfunc_a11_literal_diagnostic(0, 2.0, 0.7, 0.3),
                   {"n": 0, "r": 2.0, "phi": 0.7, "t": 0.3})

    flow = eu.flow_solve(2.0, 0.5, 0.3, config.flow_steps)
    params = {"r0": 2.0, "phi0": 0.5, "t": 0.3, "steps": config.flow_steps}
    rec.diagnostic("flow_vs_closed_form_r", flow.r_discrepancy, params)
    rec.diagnostic("flow_vs_closed_form_phi", flow.phi_discrepancy, params)
    rec.diagnostic("flow_q_drift", flow.q_drift, params)
    rec.diagnostic("flow_integrator_selfcheck", flow.integrator_error, params)


#: every block, in the order of the full report
_RUNNERS = {
    "groups": run_groups,
    "hermite": run_hermite,
    "bessel": run_bessel,
    "contraction": run_contraction,
    "diagnostics": run_diagnostics,
}


def run_suite(name: str, config: SuiteConfig) -> list[SuiteReport]:
    """Run one named block, or every block in the order of ``_RUNNERS``."""
    if name == "all":
        blocks = _RUNNERS
    elif name in _RUNNERS:
        blocks = {name: _RUNNERS[name]}
    else:
        raise ConfigError(f"unknown suite {name!r}")
    reports = []
    for suite, run in blocks.items():
        rec = _Recorder()
        started = time.perf_counter()
        try:
            run(config, rec)
        except Exception as exc:
            rec.records.append(CheckRecord(
                "block_raised", {"exception": type(exc).__name__}, math.nan,
                False, None, "error"))
        reports.append(SuiteReport(suite, rec.records, config.echo(),
                                   time.perf_counter() - started))
    return reports


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def emit_json(reports: list[SuiteReport]) -> str:
    """The reports as JSON, which (RFC 8259) has no NaN or Infinity: read
    back, each such token of a first pass becomes None, written as null."""
    text = json.dumps({"suites": [r.to_dict() for r in reports]})
    document = json.loads(text, parse_constant=lambda token: None)
    return json.dumps(document, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _params_text(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def emit_csv(reports: list[SuiteReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=",", lineterminator="\n")
    writer.writerow(["suite", "check_id", "params", "residual",
                     "exact_zero", "tolerance", "status"])
    for report in reports:
        for record in report.records:
            row = record.to_dict()
            writer.writerow([
                report.suite, row["check_id"], _params_text(row["params"]),
                repr(row["residual"]), str(row["exact_zero"]).lower(),
                "" if row["tolerance"] is None else repr(row["tolerance"]),
                row["status"]])
    return buffer.getvalue()


def emit_text(reports: list[SuiteReport]) -> str:
    lines = []
    for report in reports:
        lines.append(f"== suite {report.suite} ==")
        for record in report.records:
            row = record.to_dict()
            if row["exact_zero"]:
                label = "exact zero"
            elif record.exact:
                label = f"NONZERO ~{row['residual']:.3e}"
            else:
                label = f"residual={row['residual']:.6e}"
                if row["tolerance"] is not None:
                    label += f" tol={row['tolerance']:.1e}"
            status = "DIAG" if row["status"] == "diagnostic" else row["status"].upper()
            lines.append(f"{status:4}  {row['check_id']}: {label}")
        counts = Counter(record.status for record in report.records)
        errors = f", {counts['error']} error" if counts["error"] else ""
        lines.append(f"-- {counts['pass']} passed, {counts['fail']} failed, "
                     f"{counts['diagnostic']} diagnostic{errors}")
    return "\n".join(lines) + "\n"


EMITTERS = {"json": emit_json, "csv": emit_csv, "text": emit_text}
