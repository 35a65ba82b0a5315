"""A work budget of the default report that reads no clock: the number of
``Polynomial._make`` calls, one per normalized result of the exact core, in
each block of ``run_suite("all", SuiteConfig())`` on fresh caches.

A change that adds passes over polynomials raises a count and fails here,
on any machine and at any load; a change that removes passes lowers the pin
it moves, and says so."""

from liegen import euclidean as eu
from liegen import heisenberg as hb
from liegen import suites
from liegen.numeric import Polynomial

#: block -> the ``Polynomial._make`` calls of its default-config run, with
#: the blocks run in the report's order from fresh caches
MAKE_CALLS = {"groups": 0, "hermite": 1781, "bessel": 297,
              "contraction": 126, "diagnostics": 0}


def test_make_calls_per_block(monkeypatch):
    monkeypatch.setattr(eu.BESSEL, "_cache", {})
    monkeypatch.setattr(hb, "_rodrigues_cache", [Polynomial.constant(1)])
    make = Polynomial.__dict__["_make"].__func__
    calls = []

    def counted(cls, nums, den):
        calls.append(None)
        return make(cls, nums, den)

    monkeypatch.setattr(Polynomial, "_make", classmethod(counted))
    counts, statuses = {}, set()
    for block in suites._RUNNERS:
        calls.clear()
        for report in suites.run_suite(block, suites.SuiteConfig()):
            statuses.update(r.status for r in report.records)
        counts[block] = len(calls)
    assert statuses == {"pass", "diagnostic"}
    assert counts == MAKE_CALLS
