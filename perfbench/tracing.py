"""In-memory span tracing for the benchmark's traced runs.

Wrappers go on liegen's public functions and methods at the name where
callers look them up: a module global (``heisenberg.hermite_rodrigues`` is
called both from ``suites`` through ``hb.`` and from inside ``heisenberg``)
or a class attribute (``Polynomial.__mul__``, ``BesselEval.derivatives``).
Nothing inside ``src/liegen`` is edited.  Each traced call appends a span
``[name, start_ns, end_ns, parent_index]``; spans stay in memory until the
run ends and are then reduced to per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

LAYERS = ("suites", "groups", "heisenberg", "numeric", "euclidean",
          "contraction")


class Tracer:
    """Spans and counters recorded by wrappers, plus what they replaced."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped so that every call records a span named ``name``.

        ``observe(args, kwargs, result, duration_ns)`` runs after the span
        closes, for calls that return.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, record[2] - record[1])
            return result

        return traced

    def count(self, name: str, fn):
        """``fn`` wrapped so that every call bumps a counter (no span)."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, wrapper):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def totals(self):
        """(calls, inclusive ns, self ns per layer).

        A name's inclusive time counts only its outermost spans, so a
        recursive call (``Polynomial.__pow__`` multiplying inside a
        multiplication, say) is not counted twice.
        """
        spans = self.spans
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        layer_self: Counter = Counter()
        for i, own in enumerate(self.self_ns()):
            name, start, end, parent = spans[i]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        return calls, inclusive, layer_self


class _Observers:
    """Work counters gathered by observers outside liegen."""

    def __init__(self):
        self.instances: list = []      # keeps ids below from being reused
        self.seen: dict[int, set] = {}
        self.hits = 0
        self.miss_ns: list[int] = []
        self.hermite_polys: dict[int, object] = {}
        self.legendre_steps = 0
        self.flow_steps = 0

    def derivatives(self, args, kwargs, result, duration_ns):
        evaluator, n, z = args[0], args[1], args[2]
        seen = self.seen.get(id(evaluator))
        if seen is None:
            seen = self.seen[id(evaluator)] = set()
            self.instances.append(evaluator)
        key = (abs(n), complex(z))
        if key in seen:
            self.hits += 1
        else:
            seen.add(key)
            self.miss_ns.append(duration_ns)

    def hermite(self, args, kwargs, result, duration_ns):
        self.hermite_polys[id(result)] = result

    def legendre(self, args, kwargs, result, duration_ns):
        self.legendre_steps += args[0] - args[1]

    def flow(self, args, kwargs, result, duration_ns):
        self.flow_steps += args[3] if len(args) > 3 else kwargs.get("steps", 10_000)


# (owner of the looked-up name, attribute, span name, _Observers method)
_SPANS = (
    ("suites", "run_suite", "suites.run_suite", None),
    ("groups", "axiom_suite", "groups.axiom_suite", None),
    ("heisenberg", "hermite_genfunc_check", "heisenberg.genfunc_check", None),
    ("heisenberg", "disentangle_check", "heisenberg.disentangle_check", None),
    ("heisenberg", "hermite_rodrigues", "heisenberg.rodrigues", "hermite"),
    ("heisenberg", "hermite_recurrence", "heisenberg.recurrence", "hermite"),
    ("heisenberg", "verify_hermite_identity", "heisenberg.identity", None),
    ("heisenberg", "raising_consistency_residual",
     "heisenberg.raising_consistency", None),
    ("heisenberg", "discrete_commutator", "heisenberg.discrete", None),
    ("heisenberg", "discrete_anticommutator", "heisenberg.discrete", None),
    # heisenberg imported series_exp by name, so that is where it is looked up
    ("heisenberg", "series_exp", "numeric.series_exp", None),
    ("numeric", "series_exp", "numeric.series_exp", None),
    ("Polynomial", "__mul__", "numeric.poly_mul", None),
    ("Polynomial", "__rmul__", "numeric.poly_mul", None),
    ("Polynomial", "substitute", "numeric.substitute", None),
    ("BesselEval", "derivatives", "euclidean.derivatives", "derivatives"),
    ("euclidean", "flow_solve", "euclidean.flow_solve", "flow"),
    ("contraction", "vf_commutator", "contraction.vf_commutator", None),
    ("contraction", "contraction_residual", "contraction.residual", None),
    ("contraction", "assoc_legendre", "contraction.legendre", "legendre"),
    ("contraction", "polar_ladder_limit", "contraction.ladder_limit", None),
)


def install(tracer: Tracer) -> _Observers:
    """Wrap liegen's public entry points; undo with ``tracer.uninstall()``."""
    from liegen import contraction, euclidean, groups, heisenberg, numeric, suites

    owners = {"suites": suites, "groups": groups, "heisenberg": heisenberg,
              "numeric": numeric, "euclidean": euclidean,
              "contraction": contraction, "Polynomial": numeric.Polynomial,
              "BesselEval": euclidean.BesselEval}
    observers = _Observers()
    for owner, attr, name, observer in _SPANS:
        observe = getattr(observers, observer) if observer else None
        tracer.patch(owners[owner], attr,
                     lambda fn, name=name, observe=observe:
                     tracer.span(name, fn, observe))
    tracer.patch(numeric.Polynomial, "__init__",
                 lambda fn: tracer.count("numeric.poly_new", fn))
    return observers


def layer_metrics(tracer: Tracer, observers: _Observers) -> dict:
    """Per-layer metrics of one traced run (``suites.<block>_s`` excluded:
    those come from the program's own ``SuiteReport.wall_time_s``)."""
    calls, inclusive, layer_self = tracer.totals()

    def seconds(name):
        return inclusive[name] / 1e9

    bits = 0
    for poly in observers.hermite_polys.values():
        for c in poly.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    derivative_calls = calls["euclidean.derivatives"]
    out = {
        "heisenberg.genfunc_check_s": seconds("heisenberg.genfunc_check"),
        "heisenberg.disentangle_check_s": seconds("heisenberg.disentangle_check"),
        "heisenberg.rodrigues_s": seconds("heisenberg.rodrigues"),
        "heisenberg.recurrence_s": seconds("heisenberg.recurrence"),
        "heisenberg.identity_s": seconds("heisenberg.identity"),
        "heisenberg.raising_consistency_s":
            seconds("heisenberg.raising_consistency"),
        "heisenberg.discrete_s": seconds("heisenberg.discrete"),
        "heisenberg.rodrigues_calls": calls["heisenberg.rodrigues"],
        "heisenberg.recurrence_calls": calls["heisenberg.recurrence"],
        "numeric.series_exp_s": seconds("numeric.series_exp"),
        "numeric.series_exp_calls": calls["numeric.series_exp"],
        "numeric.poly_mul_s": seconds("numeric.poly_mul"),
        "numeric.poly_mul_calls": calls["numeric.poly_mul"],
        "numeric.poly_new_calls": tracer.counters["numeric.poly_new"],
        "numeric.substitute_s": seconds("numeric.substitute"),
        "numeric.max_coeff_bits": bits,
        "euclidean.derivatives_s": seconds("euclidean.derivatives"),
        "euclidean.derivatives_calls": derivative_calls,
        "euclidean.distinct_points": sum(len(s) for s in observers.seen.values()),
        "euclidean.hit_ratio":
            observers.hits / derivative_calls if derivative_calls else 0.0,
        "euclidean.miss_p50_ms":
            statistics.median(observers.miss_ns) / 1e6 if observers.miss_ns else 0.0,
        "euclidean.flow_solve_s": seconds("euclidean.flow_solve"),
        "euclidean.flow_ns_per_step":
            inclusive["euclidean.flow_solve"] / observers.flow_steps
            if observers.flow_steps else 0.0,
        "contraction.vf_commutator_s": seconds("contraction.vf_commutator"),
        "contraction.vf_commutator_calls": calls["contraction.vf_commutator"],
        "contraction.residual_s": seconds("contraction.residual"),
        "contraction.legendre_s": seconds("contraction.legendre"),
        "contraction.legendre_steps": observers.legendre_steps,
        "contraction.ladder_limit_s": seconds("contraction.ladder_limit"),
        "groups.axiom_suite_s": seconds("groups.axiom_suite"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return out
