"""The mutant matrix: which deliberately wrong programs the report sees.

Each mutant patches one function of ``liegen`` (wherever a module binds it),
runs the default-config blocks that read that function on fresh caches, and
counts as killed when some record is ``fail`` or ``error``.  ``KILLED`` names
the records that kill each mutant; ``SURVIVORS`` names the mutants no record
sees, each with the roadmap item whose records should kill it.  The test
pins both exactly: a change that kills a survivor, or lets a killed mutant
through, moves it between the two tables and says so.
"""

import inspect
import textwrap
from fractions import Fraction

import pytest

from liegen import contraction as ct
from liegen import euclidean as eu
from liegen import groups as gr
from liegen import heisenberg as hb
from liegen import numeric as nm
from liegen import suites
from liegen.numeric import BandedOp, Polynomial

MODULES = (nm, gr, hb, eu, ct, suites)
CONFIG = suites.SuiteConfig()

#: the blocks that read each layer
GROUPS = ("groups",)
HERMITE = ("hermite",)
BESSEL_VALUES = ("bessel", "contraction", "diagnostics")
SERIES = ("bessel", "contraction")
POLYNOMIALS = ("hermite", "bessel", "contraction")


def edited(func, *edits):
    """``func`` rebuilt from its own source, each (old, new) edit made at the
    one place ``old`` occurs, in the namespace of its module.  A method's or
    a classmethod's source is dedented; the result is what its ``def`` (and
    decorator) bind."""
    source = textwrap.dedent(inspect.getsource(func))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(func.__globals__)
    exec(source, namespace)
    return namespace[func.__name__]


def patch_function(monkeypatch, module, name, new):
    """Bind ``new`` in every liegen module that binds ``module.name``."""
    original = getattr(module, name)
    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, new)


def patch_method(monkeypatch, cls, name, new):
    """Bind ``new`` under every name of ``cls`` that holds ``cls.name``
    (``Polynomial.__rmul__`` is ``__mul__``)."""
    original = vars(cls)[name]
    for attr, value in list(vars(cls).items()):
        if value is original:
            monkeypatch.setattr(cls, attr, new)


def edit_function(module, name, *edits):
    def patch(monkeypatch):
        patch_function(monkeypatch, module, name,
                       edited(getattr(module, name), *edits))
    return patch


def edit_method(cls, name, *edits):
    def patch(monkeypatch):
        func = vars(cls)[name]
        patch_method(monkeypatch, cls, name,
                     edited(getattr(func, "__func__", func), *edits))
    return patch


def wrap_function(module, name, make):
    """Patch ``module.name`` with ``make(original)``."""
    def patch(monkeypatch):
        patch_function(monkeypatch, module, name, make(getattr(module, name)))
    return patch


def replace(module, name, value):
    def patch(monkeypatch):
        monkeypatch.setattr(module, name, value)
    return patch


def polar_op(op, bands):
    return replace(eu, "POLAR_OPS", {**eu.POLAR_OPS, op: BandedOp(bands)})


def scaled(factor):
    return lambda real: lambda n, z, widen=1: tuple(
        v * factor for v in real(n, z, widen))


def j_scaled_by_order(real):
    def series(n, z, widen=1):
        j, jp, jpp = real(n, z, widen)
        return j * (1 + 1e-12 * n), jp, jpp
    return series


def derivatives_scaled(monkeypatch):
    real = eu.BesselEval.derivatives
    monkeypatch.setattr(eu.BesselEval, "derivatives", lambda self, n, z: tuple(
        v * (1 + 1e-4) for v in real(self, n, z)))


def j_plus_y(monkeypatch):
    yn = pytest.importorskip("scipy.special").yn
    real = eu.BesselEval.j

    def j(self, n, z):
        value, w = real(self, n, z), complex(z)
        if w.imag == 0 and w.real > 0:
            return value + 1e-9 * yn(n, w.real)
        return value
    monkeypatch.setattr(eu.BesselEval, "j", j)


def legendre_scaled(real):
    return lambda l, m, x: real(l, m, x) * (1 + 1 / l) if l > 2 else real(l, m, x)


#: name -> (the blocks that read the patched function, the patch)
MUTANTS = {
    # -- the Bessel evaluator ------------------------------------------------
    "series-times-1e-4": (BESSEL_VALUES,
                          wrap_function(eu, "_series", scaled(1 + 1e-4))),
    "series-jn-times-1e-12n": (BESSEL_VALUES,
                               wrap_function(eu, "_series", j_scaled_by_order)),
    "series-times-1e-3": (BESSEL_VALUES,
                          wrap_function(eu, "_series", scaled(1 + 1e-3))),
    "derivatives-times-1e-4": (BESSEL_VALUES, derivatives_scaled),
    "j-plus-1e-9-yn": (BESSEL_VALUES, j_plus_y),
    "assoc-legendre-times-1-plus-inverse-l": (
        ("contraction",), wrap_function(ct, "assoc_legendre", legendre_scaled)),
    "a11-closed-form-times-2": (
        ("diagnostics",), wrap_function(
            eu, "_a11_closed_form",
            lambda real: lambda *args: 2 * real(*args))),
    # -- the exact Bessel series and the E(2) ladders ------------------------
    "bessel-series-times-8-over-7": (SERIES, wrap_function(
        eu, "bessel_series",
        lambda real: lambda n, degree: real(n, degree) * Fraction(8, 7))),
    "bessel-series-sign": (SERIES, edit_function(
        eu, "bessel_series",
        ("num *= -4 * j * (n + j)", "num *= 4 * j * (n + j)"))),
    "polar-raise-sign": (("bessel",), polar_op("raise", {1: lambda n: 1})),
    "polar-lower-factor": (("bessel",), polar_op("lower", {-1: lambda n: -2})),
    "polar-lz-factor": (("bessel",), polar_op("lz", {0: lambda n: 2 * n})),
    # -- the groups ------------------------------------------------------------
    "h3-compose-sign": (GROUPS, edit_function(
        gr, "h3_compose", ("+ a1 * c2 +", "- a1 * c2 +"))),
    "e2-compose-sign": (GROUPS, edit_function(
        gr, "e2_compose", ("c1 * x2 - s1 * y2", "c1 * x2 + s1 * y2"))),
    "cayley-sine-sign": (GROUPS, edit_function(
        gr, "tangent_residuals", ("2 * a * q,", "-2 * a * q,"))),
    "cayley-weight-factor": (GROUPS, edit_function(
        gr, "tangent_residuals", ("2 / (1 + h * h)", "1 / (1 + h * h)"))),
    "reduced-keeps-numerators": (GROUPS, edit_method(
        gr._OverDen, "_reduced",
        ("tuple(n // common for n in num)", "tuple(num)"))),
    "h3-draw-admits-q-0": (GROUPS, edit_function(
        gr, "_random_h3",
        ("p1, q1 = draw(-60, 61), draw(1, 13)",
         "p1, q1 = draw(-60, 61), draw(0, 13)"))),
    "inverse-axiom-reads-g": (GROUPS, edit_function(
        gr, "axiom_suite", ("g_inv = inverse(g)", "g_inv = g"))),
    "tangent-step-factor": (GROUPS, edit_function(
        gr, "tangent_residuals",
        ("generator * (2 * h * weight)", "generator * (h * weight)"))),
    # -- the Heisenberg ladders ------------------------------------------------
    "apply-ladder-factor-2": (HERMITE, edit_function(
        hb, "apply_ladder", ('return 2 * X * p - p.differentiate("x")',
                             'return X * p - p.differentiate("x")'))),
    "lower-factor": (HERMITE, replace(hb, "LOWER",
                                      BandedOp({-1: lambda n: n}))),
    "raise-sign": (HERMITE, replace(hb, "RAISE",
                                    BandedOp({1: lambda n: -1}))),
    "overlap-moment-weight": (HERMITE, edit_function(
        nm, "weighted_overlaps", ("(2 * j - 1)", "(2 * j + 1)"))),
    "recurrence-step-2k-plus-2": (HERMITE, edit_function(
        hb, "_recurrence_step",
        ("2 * k * (den // h_prev._den)", "2 * (k + 1) * (den // h_prev._den)"))),
    "derivative-ladder-sign": (HERMITE, edit_function(
        hb, "apply_ladder",
        ("nums[key] = get(key, 0) - n", "nums[key] = get(key, 0) + n"))),
    "tag-scale": (HERMITE, edit_function(
        hb, "_tagged_sum", ("math.factorial(k)", "math.factorial(k + 1)"))),
    "orthonormality-delta": (HERMITE, edit_function(
        hb, "verify_hermite_identity",
        ("delta = 1 if m == n else 0", "delta = 1 if m == 0 else 0"))),
    "series-exp-perm-weight": (HERMITE, edit_function(
        nm, "series_exp",
        ("math.perm(n - 1, j - 1)", "math.perm(n, j - 1)"))),
    # -- the polynomial core -----------------------------------------------------
    "one-term-product-drops-x-shift": (POLYNOMIALS, edit_method(
        Polynomial, "__mul__", ("{(a0 + b0, a1 + b1, a2 + b2): n * m",
                                "{(a0, a1 + b1, a2 + b2): n * m"))),
    "one-term-product-drops-y-shift": (POLYNOMIALS, edit_method(
        Polynomial, "__mul__", ("{(a0 + b0, a1 + b1, a2 + b2): n * m",
                                "{(a0 + b0, a1, a2 + b2): n * m"))),
    "differentiate-drops-x-factor": (POLYNOMIALS, edit_method(
        Polynomial, "differentiate",
        ("{(a - 1, b, c): n * a for", "{(a - 1, b, c): n for"))),
}

HERMITE_FROM_RAISE = {
    "hermite/anticommutator_spectrum", "hermite/diffrel_A4",
    "hermite/disentangle", "hermite/genfunc_A5",
    "hermite/ladder_commutator_identity", "hermite/ode_A2",
    "hermite/orthonormality", "hermite/recursion_A3",
    "hermite/rodrigues_vs_recurrence"}
E2_AXIOMS = {"groups/e2_axiom_associativity", "groups/e2_axiom_closure",
             "groups/e2_axiom_inverse"}
LADDER_SERIES = {"bessel/ladder_crosscheck_series",
                 "contraction/bessel_operator_exact_form"}
DISCRETE = {"hermite/discrete_anticommutator_diagonal",
            "hermite/discrete_commutator_identity"}
POLAR_LADDERS = {"bessel/ladder_crosscheck_series",
                 "bessel/ladder_roundtrip_identity"}

#: mutant -> the records that are ``fail`` or ``error`` under it, exactly
KILLED = {
    "series-times-1e-3": {"contraction/mehler_heine_margin"},
    "derivatives-times-1e-4": {"bessel/selfconsistency_double_precision"},
    "j-plus-1e-9-yn": {"bessel/recursion_A7", "bessel/diffrel_A8",
                       "bessel/diffrel_A9", "bessel/diffrel_A10"},
    "bessel-series-times-8-over-7": {"bessel/genfunc_A11"},
    # the ladder and operator records compare truncations cut after the same
    # number of terms, so the sign of I_n's relations shows
    "bessel-series-sign": {"bessel/genfunc_A11"} | LADDER_SERIES,
    "polar-raise-sign": POLAR_LADDERS,
    "polar-lower-factor": POLAR_LADDERS,
    "polar-lz-factor": {"bessel/lz_eigenvalue"},
    "h3-compose-sign": {"groups/h3_axiom_closure", "groups/h3_axiom_inverse"},
    "e2-compose-sign": E2_AXIOMS,
    "cayley-sine-sign": {"groups/e2_generators_tangent"},
    "cayley-weight-factor": {"groups/e2_generators_tangent"},
    # the E(2) draws are built by _reduced too
    "reduced-keeps-numerators": E2_AXIOMS | {
        "groups/e2_axiom_identity", "groups/h3_axiom_associativity", "groups/h3_axiom_closure",
        "groups/h3_axiom_identity", "groups/h3_axiom_inverse"},
    # a zero denominator reaches divmod in the closure check
    "h3-draw-admits-q-0": {"groups/block_raised"},
    "inverse-axiom-reads-g": {"groups/e2_axiom_inverse",
                              "groups/h3_axiom_inverse"},
    "tangent-step-factor": {"groups/e2_generators_tangent",
                            "groups/h3_generators_tangent"},
    "apply-ladder-factor-2": HERMITE_FROM_RAISE,
    "lower-factor": DISCRETE,
    "raise-sign": DISCRETE,
    "overlap-moment-weight": {"hermite/orthonormality"},
    "recurrence-step-2k-plus-2": {"hermite/rodrigues_vs_recurrence"},
    "derivative-ladder-sign": {"hermite/anticommutator_spectrum",
                               "hermite/disentangle"},
    "tag-scale": {"hermite/disentangle", "hermite/genfunc_A5"},
    "orthonormality-delta": {"hermite/orthonormality"},
    "series-exp-perm-weight": {"hermite/disentangle", "hermite/genfunc_A5"},
    "one-term-product-drops-x-shift": HERMITE_FROM_RAISE | LADDER_SERIES | {
        "bessel/genfunc_A11", "hermite/parity"},
    # x y and y y lose their y: series_exp meets a constant term and raises
    "one-term-product-drops-y-shift": {"bessel/genfunc_A11",
                                       "hermite/block_raised"},
    "differentiate-drops-x-factor": HERMITE_FROM_RAISE | LADDER_SERIES,
}

#: mutant -> the roadmap item whose records should kill it
SURVIVORS = {
    # both sides of selfconsistency_double_precision come from _series
    "series-times-1e-4": "6(b)",
    # far below the calibrated 1e-10 of the identity gates
    "series-jn-times-1e-12n": "6(c)",
    # the Mehler-Heine and Legendre-ODE rate gates cannot tell a wrong
    # limit that has the right rate
    "assoc-legendre-times-1-plus-inverse-l": "6(d)",
    # the diagnostics block never fails
    "a11-closed-form-times-2": "11",
}

#: the roadmap items whose records target today's survivors
TARGET_ITEMS = {"6(b)", "6(c)", "6(d)", "11", "15"}


def failing_records(monkeypatch, name):
    blocks, patch = MUTANTS[name]
    # fresh caches: no value of the mutant outlives it, and none of the
    # sound program's is read by it
    monkeypatch.setattr(eu.BESSEL, "_cache", {})
    monkeypatch.setattr(hb, "_rodrigues_cache", [Polynomial.constant(1)])
    patch(monkeypatch)
    return {f"{report.suite}/{record.check_id}"
            for block in blocks for report in suites.run_suite(block, CONFIG)
            for record in report.records if record.status in ("fail", "error")}


def test_every_mutant_is_killed_or_a_named_survivor():
    assert not KILLED.keys() & SURVIVORS.keys()
    assert KILLED.keys() | SURVIVORS.keys() == MUTANTS.keys()
    assert set(SURVIVORS.values()) <= TARGET_ITEMS
    assert all(KILLED.values())


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant(monkeypatch, name):
    assert failing_records(monkeypatch, name) == KILLED.get(name, set())
