"""One benchmark repetition, run by ``run.py`` in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --scale full|tiny --trace 0|1

Sets up (imports liegen from the checkout's ``src/`` and generates the
seeded inputs), runs the timed body, checks every output outside the timed
section and prints one JSON object on stdout.  A fresh process per
repetition keeps liegen's module caches (``heisenberg._rodrigues_cache``,
``numeric._moment_cache``) and the peak RSS from carrying over.

Workloads:

* ``report``: the product, ``run_suite("all", SuiteConfig(seed=N))``.  The
  exact univariate core (Hermite) does most of the work, and Bessel points
  repeat, so the evaluator's cache is hit about nine times in ten.
* ``bessel-points``: seeded, distinct (n, z) points, each passed once to
  one fresh ``BesselEval().derivatives``.  No cache hit and no polynomial
  work, so only the series evaluator is measured.
* ``exact-multivar``: seeded Jacobi triples of vector fields in x, y, z and
  seeded polynomials through ``contraction_residual``.  The same exact
  ``Polynomial`` core as the report, but multivariate, low degree and with
  no Bessel work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

REPORT_RECORDS = 75
REPORT_BLOCKS = ("groups", "hermite", "bessel", "contraction", "diagnostics")
#: bessel-points: mixed bound |v - ref| <= tol * max(1, |ref|), the
#: bessel/selfconsistency tolerance of the report
BESSEL_TOL = 1e-13
BESSEL_MAX_ORDER = 20
#: points per order: real ones stratified over |z| < 30, complex ones over
#: |z| < 10, so seeds change the points but hardly the total work
BESSEL_POINTS = {"full": (15, 4), "tiny": (2, 1)}
#: exact-multivar: (Jacobi triples, residual polynomials)
MULTIVAR_OPS = {"full": (100, 200), "tiny": (3, 6)}
#: reference_work() runs every PROBE_INTERVAL_S of the body (or, for a body
#: too short for one tick, PROBE_ROUNDS times after it)
PROBE_INTERVAL_S = 0.1
PROBE_ROUNDS = 5


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def report_inputs(seed: int, scale: str):
    from liegen.suites import SuiteConfig
    if scale == "full":
        return SuiteConfig(seed=seed)
    return SuiteConfig(seed=seed, group_samples=5, hermite_max_n=8,
                       genfunc_order=8, disentangle_order=8,
                       orthonormality_max=4, spectrum_max=4, discrete_dim=6,
                       bessel_r_grid=(0.1, 1.0, 5.0),
                       contraction_R=(8, 16, 32), legendre_l=(64, 128, 256),
                       flow_steps=200)


def report_body(config, probe):
    """One operation: the whole report.  The outputs are the reports and the
    share of the wall time that was not the probe's."""
    from liegen import suites
    started, wall = probe.clock(), time.perf_counter()
    try:
        reports = suites.run_suite("all", config)
    except Exception as exc:  # a raising suite is a failed report, not a crash
        return exc, []
    elapsed = probe.clock() - started
    return (reports, elapsed / (time.perf_counter() - wall)), [elapsed * 1e3]


def report_check(config, outputs):
    """(attempted, failed, errors, info): 75 records in the five blocks;
    every gated record passes and every exact one is exactly zero."""
    if isinstance(outputs, Exception):
        return REPORT_RECORDS, REPORT_RECORDS, [repr(outputs)], {}
    import hashlib  # after the peak RSS is read: it maps libcrypto, ~4 MB

    from liegen.suites import emit_json

    reports, share = outputs
    errors = []
    blocks = tuple(r.suite for r in reports)
    if blocks != REPORT_BLOCKS:
        errors.append(f"blocks {blocks}")
    records = [(r.suite, rec) for r in reports for rec in r.records]
    failed = abs(REPORT_RECORDS - len(records)) + (blocks != REPORT_BLOCKS)
    if len(records) != REPORT_RECORDS:
        errors.append(f"{len(records)} records, expected {REPORT_RECORDS}")
    for suite, rec in records:
        if rec.status == "diagnostic":
            continue
        if rec.status != "pass" or (rec.exact and not rec.to_dict()["exact_zero"]):
            failed += 1
            errors.append(f"{suite}/{rec.check_id}: {rec.status} {rec.residual!r}")
    digest = hashlib.sha256(emit_json(reports).encode()).hexdigest()[:16]
    # the blocks time themselves on the wall clock; leave out the probe's share
    blocks = {r.suite: r.wall_time_s * share for r in reports}
    return (max(REPORT_RECORDS, len(records)), failed, errors,
            {"sha256_prefix": digest, "blocks": blocks})


# ---------------------------------------------------------------------------
# bessel-points
# ---------------------------------------------------------------------------

def _bessel_z(rng, stratum: int, strata: int, real: bool):
    """A float in the stratum-th of ``strata`` equal bands of |z| < 30, of
    either sign; or a complex z in such a band of |z| < 10."""
    if real:
        return math.copysign(30.0 * (stratum + rng.random()) / strata,
                             rng.random() - 0.5)
    r = 10.0 * (stratum + rng.random()) / strata
    theta = rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def bessel_inputs(seed: int, scale: str):
    per_real, per_complex = BESSEL_POINTS[scale]
    rng = random.Random(seed)
    points, seen = [], set()
    for n in range(BESSEL_MAX_ORDER + 1):
        for real, strata in ((True, per_real), (False, per_complex)):
            for stratum in range(strata):
                z = _bessel_z(rng, stratum, strata, real)
                while (n, complex(z)) in seen:
                    z = _bessel_z(rng, stratum, strata, real)
                seen.add((n, complex(z)))
                points.append((n, z))
    rng.shuffle(points)
    return points


def bessel_body(points, probe):
    from liegen import euclidean
    evaluator = euclidean.BesselEval()
    clock = probe.clock
    outputs, op_ms = [], []
    for n, z in points:
        start = clock()
        try:
            value = evaluator.derivatives(n, z)
        except Exception as exc:  # counted as a failed operation
            value = exc
        op_ms.append((clock() - start) * 1e3)
        outputs.append(value)
    return outputs, op_ms


def bessel_check(points, outputs):
    """J, J' and J'' against mpmath.besselj at 30 digits."""
    import mpmath

    failed, errors = 0, []
    if len(outputs) != len(points):
        failed += abs(len(points) - len(outputs))
        errors.append(f"{len(outputs)} results for {len(points)} points")
    with mpmath.workdps(30):
        for (n, z), value in zip(points, outputs):
            if isinstance(value, Exception):
                failed += 1
                errors.append(f"J_{n}({z!r}) raised {value!r}")
                continue
            arg = mpmath.mpc(z.real, z.imag) if isinstance(z, complex) else mpmath.mpf(z)
            for order, got in enumerate(value):
                ref = complex(mpmath.besselj(n, arg, derivative=order))
                if not (math.isfinite(got.real) and math.isfinite(got.imag)
                        and abs(got - ref) <= BESSEL_TOL * max(1.0, abs(ref))):
                    failed += 1
                    errors.append(f"J_{n}^({order})({z!r}) = {got!r}, mpmath {ref!r}")
                    break
    return len(points), failed, errors, {}


# ---------------------------------------------------------------------------
# exact-multivar
# ---------------------------------------------------------------------------

def _random_terms(rng, count: int, max_degree: int, z_free: bool) -> dict:
    terms = {}
    while len(terms) < count:
        degree = rng.randint(0, max_degree)
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        c = degree - a - b
        if z_free:
            b, c = b + c, 0
        terms[(a, b, c)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                    rng.randint(1, 9))
    return terms


def multivar_inputs(seed: int, scale: str):
    """Ops in seeded order: ("jacobi", (a, b, c)) with degree <= 2 fields,
    or ("residual", (f, terms, z_free)) with degree <= 6 polynomials, every
    third one z-free."""
    from liegen.contraction import VectorFieldOp
    from liegen.numeric import Polynomial

    triples, residuals = MULTIVAR_OPS[scale]
    rng = random.Random(seed)
    xyz = ("x", "y", "z")
    ops = []
    for _ in range(triples):
        fields = tuple(
            VectorFieldOp(*(Polynomial(xyz, _random_terms(rng, 2, 2, False))
                            for _ in xyz))
            for _ in range(3))
        ops.append(("jacobi", fields))
    for i in range(residuals):
        z_free = i % 3 == 0
        terms = _random_terms(rng, 4, 6, z_free)
        ops.append(("residual", (Polynomial(xyz, terms), terms, z_free)))
    rng.shuffle(ops)
    return ops


def _default_R_list() -> list[Fraction]:
    from liegen.suites import SuiteConfig
    return [Fraction(R) for R in SuiteConfig().contraction_R]


def multivar_body(ops, probe):
    from liegen import contraction

    comm = contraction.vf_commutator
    R_list = _default_R_list()
    clock = probe.clock
    outputs, op_ms = [], []
    for kind, data in ops:
        start = clock()
        try:
            if kind == "jacobi":
                a, b, c = data
                value = (comm(a, comm(b, c)) + comm(b, comm(c, a))
                         + comm(c, comm(a, b)))
            else:
                value = contraction.contraction_residual(data[0], R_list)
        except Exception as exc:  # counted as a failed operation
            value = exc
        op_ms.append((clock() - start) * 1e3)
        outputs.append(value)
    return outputs, op_ms


def _residual_oracle(terms: dict, R_list, points) -> dict:
    """At z = R the operators (Lx/R + Py) and (Ly/R - Px) reduce to
    (y/R) d/dz and -(x/R) d/dz, so the residual is
    max over points of max(|x0|, |y0|) |f_z(x0, y0, R)| / R."""
    out = {}
    for R in R_list:
        worst = Fraction(0)
        for x0, y0 in points:
            f_z = sum((coeff * c * x0 ** a * y0 ** b * R ** (c - 1)
                       for (a, b, c), coeff in terms.items() if c),
                      Fraction(0))
            worst = max(worst, max(abs(x0), abs(y0)) * abs(f_z) / R)
        out[R] = worst
    return out


def multivar_check(ops, outputs):
    """Jacobi residuals and z-free residuals exactly zero; every residual
    equal to the closed form of ``_residual_oracle``."""
    from liegen.contraction import DEFAULT_SAMPLE_POINTS

    R_list = _default_R_list()
    failed, errors = abs(len(ops) - len(outputs)), []
    for index, ((kind, data), value) in enumerate(zip(ops, outputs)):
        if isinstance(value, Exception):
            ok = False
        elif kind == "jacobi":
            ok = value.is_zero
        else:
            expected = _residual_oracle(data[1], R_list, DEFAULT_SAMPLE_POINTS)
            ok = value == expected and (not data[2] or not any(value.values()))
        if not ok:
            failed += 1
            errors.append(f"op {index} ({kind}): {value!r}")
    return len(ops), failed, errors, {}


WORKLOADS = {
    "report": (report_inputs, report_body, report_check),
    "bessel-points": (bessel_inputs, bessel_body, bessel_check),
    "exact-multivar": (multivar_inputs, multivar_body, multivar_check),
}


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def reference_work() -> float:
    """Seconds taken by a fixed computation shaped like liegen's exact core,
    outside liegen: an alternating series in a float-derived rational, and
    repeated products of a sparse polynomial kept as a dict of exponent
    tuples.  run.py divides every time by it (see REFERENCE_S there), so
    changing it changes every timed metric."""
    started = time.perf_counter()
    w = Fraction(7.318273645) / 2
    term = total = Fraction(1)
    for k in range(1, 30):
        term = -term * w * w / (k * k)
        total += term
    p = {(0, 0, 0): Fraction(1)}
    q = {(1, 0, 0): Fraction(3, 7), (0, 1, 0): Fraction(-2, 5),
         (0, 0, 1): Fraction(1, 3), (1, 1, 0): Fraction(5, 11)}
    for _ in range(4):
        out = {}
        for ea, ca in p.items():
            for eb, cb in q.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[key] = out.get(key, 0) + ca * cb
        p = out
    return time.perf_counter() - started


class SpeedProbe:
    """Samples the machine's speed all through the timed body.

    On a shared host (measured on a 2-vCPU Xeon virtual machine) the CPU's
    speed flips between levels about 1.5x apart, a few times a minute, so a
    reference timed only before and after a body of seconds misses what the
    body met.  While the probe is entered, a SIGALRM handler in this process
    (no thread, no second process) times ``reference_work()`` every
    PROBE_INTERVAL_S.  ``clock()`` is the wall clock minus the handler's
    time, so the body's timings exclude it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_ns = 0

    def clock(self) -> float:
        return (time.perf_counter_ns() - self.spent_ns) / 1e9

    def clock_ns(self) -> int:
        return time.perf_counter_ns() - self.spent_ns

    def _tick(self, signum, frame):
        started = time.perf_counter_ns()
        self.samples.append(reference_work())
        self.spent_ns += time.perf_counter_ns() - started

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_liegen():
    """Import liegen from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "liegen", "__init__.py")):
        raise SystemExit(f"liegen sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import liegen.suites
    if not os.path.abspath(liegen.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported liegen from {liegen.__file__}, not {SRC}")


def repetition(workload: str, seed: int, scale: str, trace: bool) -> dict:
    make_inputs, body, check = WORKLOADS[workload]
    started = time.perf_counter()
    import_liegen()
    inputs = make_inputs(seed, scale)
    setup_s = time.perf_counter() - started

    probe = SpeedProbe()
    tracer = observers = None
    if trace:
        import tracing
        tracer = tracing.Tracer(probe.clock_ns)
        observers = tracing.install(tracer)
        body = tracer.span("bench.body", body)
    with probe:
        started = probe.clock()
        outputs, op_ms = body(inputs, probe)
        run_s = probe.clock() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if trace:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer, observers)
    if not probe.samples:
        probe.samples = [reference_work() for _ in range(PROBE_ROUNDS)]

    attempted, failed, errors, info = check(inputs, outputs)
    return {"workload": workload, "traced": trace,
            "reference_s": statistics.fmean(probe.samples), "setup_s": setup_s,
            "run_s": run_s, "op_ms": op_ms, "peak_rss_mb": peak_rss_mb,
            "attempted": attempted, "failed": failed, "errors": errors[:5],
            "info": info, "layers": layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    result = repetition(args.workload, args.seed, args.scale, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
