"""Verification suites: runnable bundles of checks with serializable reports.

Each suite produces a :class:`SuiteReport` whose records are sorted by check
id, so a report's bytes depend only on the configuration and seed.  Checks
are either exact (pass means the residual is identically zero in rational
arithmetic) or tolerance-gated floats; diagnostic records are reported but
can never affect an exit status.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction

from . import contraction as ct
from . import euclidean as eu
from . import groups as gr
from . import heisenberg as hb
from .errors import ConfigError
from .numeric import Polynomial, X, Y, Z, _coeff_is_zero

SUITE_NAMES = ("groups", "hermite", "bessel", "contraction")

#: tolerances pinned by the acceptance gates; per-check overrides go through
#: SuiteConfig.tolerance_overrides
DEFAULT_TOLERANCES = {
    "groups/e2_axioms": 1e-12,
    "groups/e2_apply_rotation": 1e-12,
    "groups/generator_fd": 1e-8,
    "bessel/identity": 1e-10,
    "bessel/identity_ode_small_r": 1e-9,
    "bessel/ladder_crosscheck": 1e-6,
    "bessel/genfunc_A11": 1e-8,
    "bessel/j0_root": 1e-10,
    "bessel/selfconsistency": 1e-13,
    "contraction/rate_band": 0.1,
    "contraction/polar_ladder_rate": 0.3,
    "contraction/monotone": 1.0,
    "contraction/legendre_closed_forms": 1e-12,
    "contraction/legendre_ode_rate": 0.5,
    "contraction/bessel_operator": 1e-9,
    "contraction/mehler_heine_margin": 1.0,
}


@dataclass
class SuiteConfig:
    """Knobs for the verification suites; defaults match the acceptance gates."""

    seed: int = 1234
    output_format: str = "text"
    out_path: str | None = None
    tolerance_overrides: dict = field(default_factory=dict)
    group_samples: int = 100
    hermite_max_n: int = 64
    genfunc_order: int = 64
    disentangle_order: int = 32
    orthonormality_max: int = 20
    spectrum_max: int = 32
    discrete_dim: int = 40
    bessel_orders: tuple = tuple(range(11))
    bessel_r_grid: tuple = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    genfunc_terms: int = 30
    contraction_R: tuple = (8, 16, 32, 64, 128, 256, 512, 1024)
    legendre_l: tuple = (64, 128, 256, 512, 1024)
    flow_steps: int = 10_000

    def __post_init__(self):
        if self.output_format not in ("json", "csv", "text"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if not self.bessel_orders or not self.bessel_r_grid:
            raise ConfigError("bessel_orders and bessel_r_grid must not be empty")
        # the rate gates compare consecutive entries
        if len(self.contraction_R) < 2 or len(self.legendre_l) < 2:
            raise ConfigError("contraction_R and legendre_l need two entries")
        if any(abs(n) > eu.IDENTITY_MAX_ORDER for n in self.bessel_orders):
            raise ConfigError(
                f"bessel_orders outside |n| <= {eu.IDENTITY_MAX_ORDER}")
        if any(not eu.IDENTITY_MIN_R <= r <= eu.IDENTITY_MAX_R
               for r in self.bessel_r_grid):
            raise ConfigError(f"bessel_r_grid outside "
                              f"[{eu.IDENTITY_MIN_R}, {eu.IDENTITY_MAX_R}]")
        if any(not ct.MIN_LEGENDRE_ODE_DEGREE <= l <= ct.MAX_LEGENDRE_DEGREE
               for l in self.legendre_l):
            raise ConfigError(f"legendre_l outside [{ct.MIN_LEGENDRE_ODE_DEGREE}, "
                              f"{ct.MAX_LEGENDRE_DEGREE}]")
        for key, value in self.tolerance_overrides.items():
            if not value > 0:
                raise ConfigError(f"tolerance for {key} must be positive")
        for name, low in _LOWER_BOUNDS.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} below {low}")

    def tolerance(self, key: str) -> float:
        if key in self.tolerance_overrides:
            return self.tolerance_overrides[key]
        return DEFAULT_TOLERANCES[key]

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


#: the smallest value of each integer field, as the code it feeds requires
_LOWER_BOUNDS = {
    "group_samples": gr.MIN_AXIOM_SAMPLES,
    "hermite_max_n": hb.MIN_HERMITE_N,
    "genfunc_order": hb.MIN_SERIES_ORDER,
    "disentangle_order": hb.MIN_SERIES_ORDER,
    "orthonormality_max": hb.MIN_HERMITE_N,
    "spectrum_max": hb.MIN_HERMITE_N,
    "discrete_dim": hb.MIN_DISCRETE_DIM,
    "genfunc_terms": eu.MIN_GENFUNC_TERMS,
    "flow_steps": eu.MIN_FLOW_STEPS,
}


#: default of every field a config file may set, which fixes how it parses
_FILE_FIELDS = {f.name: f.default for f in fields(SuiteConfig)
                if f.default is not MISSING}


def _parse_field(key: str, raw: str):
    """``raw`` as the type of the field's default: an int, a comma-separated
    tuple of the type of its first entry, or the string itself."""
    default = _FILE_FIELDS[key]
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(part.strip())
                         for part in raw.split(",") if part.strip())
        if isinstance(default, int):
            return int(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for {key}") from exc
    return raw


def load_config(path: str) -> dict:
    """Read the sectioned key=value config format into override kwargs.

    Sections group keys per suite for readability; keys map directly onto
    :class:`SuiteConfig` fields.  ``tolerance.<check-key>`` entries feed the
    per-check overrides.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep the case of field names (contraction_R)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    overrides: dict = {}
    tolerances: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key.startswith("tolerance."):
                check_key = key[len("tolerance."):]
                try:
                    tolerances[check_key] = float(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad tolerance {raw!r}") from exc
                continue
            if key not in _FILE_FIELDS:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            overrides[key] = _parse_field(key, raw)
    if tolerances:
        overrides["tolerance_overrides"] = tolerances
    return overrides


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
    status: str  # pass | fail | diagnostic

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

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config_echo,
            "checks": [r.to_dict() for r in sorted(self.records,
                                                   key=lambda r: r.check_id)],
        }


def _worst(*values):
    """Largest of the values, NaN if any is NaN, inf if there are none:
    plain ``max`` keeps a number over a NaN met later, so a NaN residual
    would pass its gate, and a gate that saw nothing must not pass."""
    if any(v != v for v in values):
        return math.nan
    return max(values, default=math.inf)


def _ratios(sequences):
    """Consecutive ratios b/a within each sequence, as floats.  A zero
    denominator gives inf, so a sequence that vanishes fails its rate gate
    instead of raising or being skipped."""
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            yield float(b / a) if a else math.inf


def _exact_magnitude(residual) -> float:
    if isinstance(residual, Polynomial):
        if residual.is_zero:
            return 0.0
        return max(abs(float(c)) for c in residual.terms.values())
    if isinstance(residual, ct.VectorFieldOp):
        return _worst(0.0, *map(_exact_magnitude, residual.coeffs.values()))
    try:
        return abs(float(residual))
    except (TypeError, OverflowError):
        return math.inf


class _Recorder:
    def __init__(self, config: SuiteConfig):
        self.config = config
        self.records: list[CheckRecord] = []

    def exact(self, check_id: str, residuals, params: dict | None = None):
        """One record for a family of exact residuals, consumed one at a
        time; every member must be identically zero (summing first could
        let nonzero members cancel)."""
        magnitudes = [_exact_magnitude(r) for r in residuals
                      if not _coeff_is_zero(r)]
        worst = _worst(*magnitudes, math.ulp(0.0)) if magnitudes else 0.0
        self.records.append(CheckRecord(
            check_id=check_id, params=params or {}, residual=worst,
            exact=True, tolerance=None,
            status="pass" if worst == 0.0 else "fail"))

    def gated(self, check_id: str, residuals, tol_key: str,
              params: dict | None = None):
        """One record for the largest of a family of float residuals."""
        residual = float(_worst(*residuals))
        tol = self.config.tolerance(tol_key)
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

def run_groups(config: SuiteConfig) -> SuiteReport:
    rec = _Recorder(config)
    started = time.perf_counter()

    for group in ("h3", "e2"):
        report = gr.axiom_suite(group, config.group_samples, config.seed)
        for axiom, residual in sorted(report.max_residuals.items()):
            params = {"samples": config.group_samples, "axiom": axiom}
            if group == "h3":
                rec.exact(f"h3_axiom_{axiom}",
                          [Fraction(0) if report.exact or residual == 0.0
                           else Fraction(1)], params)
            else:
                rec.gated(f"e2_axiom_{axiom}", [residual], "groups/e2_axioms",
                          params)

    sample = gr.H3AlgebraElement(Fraction(1), Fraction(0), Fraction(1))
    rec.exact("h3_exp_closed_form",
              [Fraction(0) if gr.h3_exp(sample) == gr.H3Element(1, Fraction(1, 2), 1)
               else Fraction(1)], {"element": "(1,0,1)"})
    probe = gr.H3AlgebraElement(Fraction(3, 2), Fraction(-1, 7), Fraction(5))
    mat = probe.to_matrix()
    series = gr.Matrix3.identity() + mat + (mat * mat) * Fraction(1, 2)
    rec.exact("h3_exp_matches_series", [gr.h3_exp(probe).to_matrix() - series])
    rec.exact("h3_exp_log_roundtrip",
              [Fraction(0) if gr.h3_log(gr.h3_exp(probe)) == probe
               else Fraction(1)])
    rec.exact("h3_algebra_cube_zero", [mat * mat * mat])

    comm = gr.commutator
    rec.exact("h3_commutator_ab", [comm(gr.H3_BASIS_A, gr.H3_BASIS_B)])
    rec.exact("h3_commutator_bc", [comm(gr.H3_BASIS_B, gr.H3_BASIS_C)])
    rec.exact("h3_commutator_ac_minus_b",
              [comm(gr.H3_BASIS_A, gr.H3_BASIS_C) - gr.H3_BASIS_B])
    rec.exact("e2_commutator_xy", [comm(gr.E2_BASIS_X, gr.E2_BASIS_Y)])
    rec.exact("e2_commutator_rot_x_minus_y",
              [comm(gr.E2_BASIS_ROT, gr.E2_BASIS_X) - gr.E2_BASIS_Y])
    rec.exact("e2_commutator_y_rot_minus_x",
              [comm(gr.E2_BASIS_Y, gr.E2_BASIS_ROT) - gr.E2_BASIS_X])

    def generator_fd_errors(group):
        for index in (1, 2, 3):
            fd = gr.generators_at_identity(group, index)
            exact = gr.EXACT_GENERATORS[(group, index)]
            yield fd.max_abs_diff(
                gr.Matrix3([[float(e) for e in r] for r in exact.rows]))
    for group in ("h3", "e2"):
        rec.gated(f"{group}_generators_fd", generator_fd_errors(group),
                  "groups/generator_fd", {"step": gr.GENERATOR_FD_STEP})

    t = Fraction(5, 3)
    shift = gr.e2_exp_translation(t, "x") - gr.Matrix3.identity()
    rec.exact("e2_translation_nilpotent", [shift * shift], {"t": "5/3"})
    a = gr.e2_exp_translation(Fraction(3, 7), "x")
    b = gr.e2_exp_translation(Fraction(-2, 5), "y")
    rec.exact("e2_translations_commute", [a * b - b * a])
    moved = gr.e2_exp_translation(t, "y").apply((Fraction(2), Fraction(3), Fraction(1)))
    rec.exact("e2_translation_shift_action",
              [Fraction(0) if moved == (Fraction(2), Fraction(3) + t, Fraction(1))
               else Fraction(1)])

    turned = gr.e2_apply(gr.E2Element(0.0, 0.0, math.pi / 2), (1.0, 0.0))
    rec.gated("e2_apply_rotation",
              [abs(turned[0] - 0.0), abs(turned[1] - 1.0)],
              "groups/e2_apply_rotation", {"theta": "pi/2"})

    return SuiteReport("groups", rec.records, config.echo(),
                       time.perf_counter() - started)


def run_hermite(config: SuiteConfig) -> SuiteReport:
    rec = _Recorder(config)
    started = time.perf_counter()
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
        # has the parity of n; the residual is the wrong-parity part
        for n in range(max_n + 1):
            h = hb.hermite_rodrigues(n)
            yield Polynomial(h.variables,
                             {e: c for e, c in h.terms.items()
                              if sum(e) % 2 != n % 2})
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

    rec.exact(
        "anticommutator_spectrum",
        (hb.verify_hermite_identity("anticommutator", n)
         for n in range(config.spectrum_max + 1)),
        {"max_n": config.spectrum_max})

    def ladder_residuals():
        for k in range(13):
            f = hb.GaussianWeighted(X ** k)
            comm = (hb.apply_word(("lower", "raise"), f)
                    - hb.apply_word(("raise", "lower"), f))
            yield (comm - 2 * f).poly
    rec.exact("ladder_commutator_identity", ladder_residuals(),
              {"max_degree": 12})

    def raising_residuals():
        for n in range(config.orthonormality_max + 1):
            yield from hb.raising_consistency_residual(n)
    rec.exact("raising_consistency", raising_residuals(),
              {"max_n": config.orthonormality_max})

    dim = config.discrete_dim

    def discrete_residuals(matrix, diagonal):
        # the truncation spoils the last diagonal entry, so it is not checked
        for i, row in enumerate(matrix.entries):
            for j, entry in enumerate(row):
                if i != j:
                    yield entry
                elif i <= dim - 2:
                    yield entry - diagonal(i)
    rec.exact("discrete_anticommutator_diagonal",
              discrete_residuals(hb.discrete_anticommutator(dim),
                                 lambda i: 2 * i + 1), {"dimension": dim})
    rec.exact("discrete_commutator_identity",
              discrete_residuals(hb.discrete_commutator(dim), lambda i: 1),
              {"dimension": dim})

    return SuiteReport("hermite", rec.records, config.echo(),
                       time.perf_counter() - started)


def run_bessel(config: SuiteConfig) -> SuiteReport:
    rec = _Recorder(config)
    started = time.perf_counter()
    ev = eu.BesselEval()

    def identity_residuals(which, small_r):
        # the ODE divides by r and r^2, so it is gated apart below r = 0.2
        for n in config.bessel_orders:
            for r in config.bessel_r_grid:
                if (which == "ode_A6" and r < 0.2) == small_r:
                    yield eu.verify_bessel_identity(which, n, r, ev)
    params = {"orders": list(config.bessel_orders),
              "r_grid": list(config.bessel_r_grid)}
    for which in eu.BESSEL_IDENTITIES:
        rec.gated(which, identity_residuals(which, False), "bessel/identity",
                  params)
    if any(r < 0.2 for r in config.bessel_r_grid):
        rec.gated("ode_A6_small_r", identity_residuals("ode_A6", True),
                  "bessel/identity_ode_small_r", {"r": 0.1})

    rec.gated("ladder_crosscheck_fd",
              (eu.polar_numeric_crosscheck(op, n, r, 0.4, ev)
               for op in ("raise", "lower") for n in range(0, 6)
               for r in (0.2, 1.0, 4.0, 10.0)),
              "bessel/ladder_crosscheck", {"orders": "0..5", "step": 1e-5})

    f = eu.CylFunc([eu.CylTerm(0, 1.5), eu.CylTerm(4, -2j), eu.CylTerm(-1, 1.0)])
    round_trip_up = eu.apply_polar_op("raise", eu.apply_polar_op("lower", f))
    round_trip_down = eu.apply_polar_op("lower", eu.apply_polar_op("raise", f))
    rec.exact("ladder_roundtrip_identity",
              [Fraction(0) if round_trip_up == f and round_trip_down == f
               else Fraction(1)])

    eigen = eu.apply_polar_op("lz", eu.CylFunc.basis(3, 2.0))
    rec.exact("lz_eigenvalue",
              [Fraction(0) if eigen == eu.CylFunc([eu.CylTerm(3, 6.0)])
               else Fraction(1)], {"order": 3})

    rec.gated("genfunc_A11",
              (eu.genfunc_a11_check(n, r, phi, t, config.genfunc_terms, ev)
               for n in (0, 1, 2) for r in (1.0, 2.0, 5.0)
               for phi in (0.0, 0.7, math.pi / 3)
               for t in (0.5, -0.25, 0.5j, -0.5j)),
              "bessel/genfunc_A11",
              {"terms": config.genfunc_terms, "t": "[0.5, -0.25, 0.5j, -0.5j]"})

    root = eu.find_j0_root(ev)
    rec.gated("j0_root_bisection", [abs(ev.j(0, root))], "bessel/j0_root",
              {"root": root})

    double = eu.BesselEval(max_terms=400)

    def relative_differences():
        for n in (0, 5, 10, 20):
            for r in (0.1, 1.0, 5.0, 15.0, 30.0):
                a, b = ev.j(n, r), double.j(n, r)
                yield abs(a - b) / max(abs(a), 1e-300)
    rec.gated("selfconsistency_double_terms", relative_differences(),
              "bessel/selfconsistency", {"max_terms": [200, 400]})

    return SuiteReport("bessel", rec.records, config.echo(),
                       time.perf_counter() - started)


def run_contraction(config: SuiteConfig) -> SuiteReport:
    rec = _Recorder(config)
    started = time.perf_counter()
    ev = eu.BesselEval()

    lx, ly, lz = (ct.angular_momentum_x(), ct.angular_momentum_y(),
                  ct.angular_momentum_z())
    rec.exact("so3_commutator_xy", [ct.vf_commutator(lx, ly) + lz])
    rec.exact("so3_commutator_yz", [ct.vf_commutator(ly, lz) + lx])
    rec.exact("so3_commutator_zx", [ct.vf_commutator(lz, lx) + ly])

    for R in (1, 10, 1000):
        rec.exact(f"scaled_commutators_R{R}",
                  ct.scaled_commutator_check(R).values(), {"R": R})

    rec.exact("contracted_relations", ct.contracted_relations_check().values())

    rec.exact(
        "jacobi_identity",
        (ct.vf_commutator(a, ct.vf_commutator(b, c))
         + ct.vf_commutator(b, ct.vf_commutator(c, a))
         + ct.vf_commutator(c, ct.vf_commutator(a, b))
         for a, b, c in ((lx, ly, lz), (lx, lz, ly), (ly, lz, lx))))

    R_list = [Fraction(R) for R in config.contraction_R]
    rate_polys = {"xxyyyz": X ** 2 * Y ** 3 * Z, "xyz": X * Y * Z,
                  "y5z": Y ** 5 * Z}

    def residual_sequence(poly):
        residuals = ct.contraction_residual(poly, R_list)
        return [residuals[R] for R in R_list]
    rec.gated("contraction_rate_band",
              (abs(q - 0.5) for q in
               _ratios(map(residual_sequence, rate_polys.values()))),
              "contraction/rate_band",
              {"R": list(config.contraction_R),
               "polynomials": sorted(rate_polys)})

    z_free = ct.contraction_residual(X ** 2 * Y, R_list)
    rec.exact("contraction_z_free_zero", [sum(z_free.values(), Fraction(0))],
              {"polynomial": "x^2 y"})

    R_floats = [float(R) for R in config.contraction_R]

    def ladder_sequence(n, r, phi):
        residuals = ct.polar_ladder_limit(n, r, phi, R_floats, ev)
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
        return [ct.legendre_ode_residual(l, m, r, ev) for l in config.legendre_l]
    rec.gated("legendre_ode_rate_m0",
              _ratios(legendre_sequence(0, r) for r in (1.0, 2.0, 4.0)),
              "contraction/legendre_ode_rate",
              {"l": list(config.legendre_l), "r": [1.0, 2.0, 4.0]})
    rec.gated("legendre_ode_monotone",
              _ratios(legendre_sequence(m, 2.0) for m in (1, 2, 3)),
              "contraction/monotone", {"m": [1, 2, 3], "r": 2.0})

    rec.gated("bessel_operator_exact_form",
              (ct.bessel_operator_residual(m, r, ev)
               for m in range(4) for r in (0.5, 1.0, 2.0, 5.0, 8.0)),
              "contraction/bessel_operator", {"m": "0..3"})

    def mehler_heine_margins():
        for m in range(4):
            for r in (1.0, 2.0, 4.0):
                errs = ct.mehler_heine_check(m, r, list(config.legendre_l), ev)
                seq = [errs[l] for l in config.legendre_l]
                # the tail must be decreasing as well
                if any(b >= a for a, b in zip(seq, seq[1:])):
                    yield math.inf
                else:
                    yield seq[-1] / (0.02 * abs(ev.j(m, r).real) + 0.005)
    rec.gated("mehler_heine_margin", mehler_heine_margins(),
              "contraction/mehler_heine_margin",
              {"l_final": max(config.legendre_l), "m": "0..3",
               "r": [1.0, 2.0, 4.0]})

    return SuiteReport("contraction", rec.records, config.echo(),
                       time.perf_counter() - started)


def run_diagnostics(config: SuiteConfig) -> SuiteReport:
    """Recorded-only block: residuals with no pass/fail semantics."""
    rec = _Recorder(config)
    started = time.perf_counter()
    ev = eu.BesselEval()

    for n, r, phi, t in ((0, 2.0, 0.5, 0.2), (1, 3.0, 1.0, 0.1)):
        report = eu.genfunc_a12_diagnostic(n, r, phi, t,
                                           config.genfunc_terms, ev)
        params = {"n": n, "r": r, "phi": phi, "t": t}
        rec.diagnostic(f"a12_catalog_form_n{n}",
                       report["residual_catalog_form"], params)
        rec.diagnostic(f"a12_substituted_form_n{n}",
                       report["residual_substituted_form"], params)

    literal = eu.genfunc_a11_literal_diagnostic(0, 2.0, 0.7, 0.3,
                                                config.genfunc_terms, ev)
    rec.diagnostic("a11_literal_form", literal["residual_literal_form"],
                   {"n": 0, "r": 2.0, "phi": 0.7, "t": 0.3})

    flow = eu.flow_solve(2.0, 0.5, 0.3, config.flow_steps)
    params = {"r0": 2.0, "phi0": 0.5, "t": 0.3, "steps": config.flow_steps}
    rec.diagnostic("flow_vs_closed_form_r", flow.r_discrepancy, params)
    rec.diagnostic("flow_vs_closed_form_phi", flow.phi_discrepancy, params)
    rec.diagnostic("flow_q_drift", flow.q_drift, params)
    rec.diagnostic("flow_integrator_selfcheck", flow.integrator_error, params)

    return SuiteReport("diagnostics", rec.records, config.echo(),
                       time.perf_counter() - started)


_RUNNERS = {
    "groups": run_groups,
    "hermite": run_hermite,
    "bessel": run_bessel,
    "contraction": run_contraction,
    "diagnostics": run_diagnostics,
}


def run_suite(name: str, config: SuiteConfig) -> list[SuiteReport]:
    """Run one named suite, or all four plus the diagnostics block."""
    if name == "all":
        return [_RUNNERS[s](config) for s in
                ("groups", "hermite", "bessel", "contraction", "diagnostics")]
    if name not in _RUNNERS:
        raise ConfigError(f"unknown suite {name!r}")
    return [_RUNNERS[name](config)]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def reports_to_document(reports: list[SuiteReport]) -> dict:
    if len(reports) == 1:
        return reports[0].to_dict()
    return {"suites": [r.to_dict() for r in reports]}


def emit_json(reports: list[SuiteReport]) -> str:
    return json.dumps(reports_to_document(reports), sort_keys=True, indent=2) + "\n"


def _params_text(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def emit_csv(reports: list[SuiteReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=",", lineterminator="\n")
    writer.writerow(["suite", "check_id", "params", "residual",
                     "exact_zero", "tolerance", "status"])
    for report in reports:
        for record in sorted(report.records, key=lambda r: r.check_id):
            writer.writerow([
                report.suite, record.check_id, _params_text(record.params),
                repr(record.residual),
                str(record.exact and record.residual == 0.0).lower(),
                "" if record.tolerance is None else repr(record.tolerance),
                record.status,
            ])
    return buffer.getvalue()


def emit_text(reports: list[SuiteReport]) -> str:
    lines = []
    for report in reports:
        lines.append(f"== suite {report.suite} ==")
        for record in sorted(report.records, key=lambda r: r.check_id):
            if record.status == "diagnostic":
                lines.append(f"DIAG  {record.check_id}: residual={record.residual:.6e}")
            elif record.exact:
                label = "exact zero" if record.residual == 0.0 else \
                    f"NONZERO ~{record.residual:.3e}"
                lines.append(f"{record.status.upper():4}  {record.check_id}: {label}")
            else:
                lines.append(
                    f"{record.status.upper():4}  {record.check_id}: "
                    f"residual={record.residual:.6e} tol={record.tolerance:.1e}")
        counts = {"pass": 0, "fail": 0, "diagnostic": 0}
        for record in report.records:
            counts[record.status] += 1
        lines.append(f"-- {counts['pass']} passed, {counts['fail']} failed, "
                     f"{counts['diagnostic']} diagnostic")
    return "\n".join(lines) + "\n"


EMITTERS = {"json": emit_json, "csv": emit_csv, "text": emit_text}
