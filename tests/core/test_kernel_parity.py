"""Randomized two-kernel parity harness.

The compiled kernel (``repro.core._ckernel``) claims bit-identity with
the pure-Python reference loop: identical pop order, identical clock
and counter writes, identical exception/stop behaviour.  The golden
captures prove that on the 14 macros; this harness probes the corners
macros never hit — randomized interleavings of ``schedule`` /
``schedule_fast`` / ``Timer`` re-anchor / cancel, nested scheduling
from inside callbacks, mid-run ``stop()``, every ``until`` /
``max_events`` combination (until-only, budget-only, both, drain) —
and requires the two kernels to produce byte-equal fingerprints.

The whole module skips when the extension is not built (parity needs
both kernels); CI's compiled-kernel lane builds it first.
"""

import heapq
import random
from types import SimpleNamespace

import pytest

from repro.core import Simulator
from repro.core.engine import Timer, ckernel_available
from repro.core.trace import TraceLog
from repro.faults import InvariantChecker

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")


def _drive(kernel: str, seed: int):
    """Run one randomized mixed workload on ``kernel``; return its
    full observable fingerprint.

    Every callback logs the repr-exact clock AND the executed counter —
    the latter pins the documented counter rule (a local flushed at
    exit, so mid-run reads return the figure from when ``run`` was
    entered), which the compiled kernel must reproduce exactly for
    telemetry byte-identity.
    """
    rng = random.Random(seed)
    trace = TraceLog(capacity=None, enabled=True)
    sim = Simulator(seed=0, trace=trace, kernel=kernel)
    log = []
    handles = []
    timers = []

    def timer_cb(index):
        log.append(("timer", index, repr(sim.now), sim._events_executed))

    timers.extend(Timer(sim, lambda i=i: timer_cb(i)) for i in range(4))

    def cb(tag):
        log.append((tag, repr(sim.now), sim._events_executed))
        trace.record(sim.now, "harness", "cb", tag=tag)
        roll = rng.random()
        if roll < 0.25:
            sim.schedule_fast(rng.random() * 0.1, cb, tag + 1000)
        elif roll < 0.45:
            handles.append(sim.schedule(rng.random() * 0.1, cb, tag + 2000))
        elif roll < 0.55 and handles:
            handles[rng.randrange(len(handles))].cancel()
        elif roll < 0.70:
            timers[rng.randrange(4)].schedule(rng.random() * 0.05)
        elif roll < 0.75:
            timers[rng.randrange(4)].cancel()
        elif roll < 0.78:
            sim.stop()
        # else: leaf event, schedule nothing

    for tag in range(40):
        roll = rng.random()
        if roll < 0.4:
            sim.schedule_fast(rng.random() * 0.6, cb, tag)
        elif roll < 0.8:
            handles.append(sim.schedule(rng.random() * 0.6, cb, tag))
        else:
            timers[rng.randrange(4)].schedule(rng.random() * 0.6)
    for victim in rng.sample(handles, len(handles) // 5):
        victim.cancel()

    # One segment per until/max_events combination: until-only,
    # budget-only, both, then drain.
    marks = [sim.run(until=0.15),
             sim.run(max_events=25),
             sim.run(until=0.45, max_events=10_000),
             sim.run()]
    InvariantChecker(sim, strict=True).check_counter_parity()
    return {
        "log": log,
        "marks": [repr(m) for m in marks],
        "trace": [record.format() for record in trace],
        "now": repr(sim.now),
        "scheduled": sim._scheduled,
        "executed": sim._events_executed,
        "cancelled": sim._cancelled_events,
        "pending": sim.pending_events,
        "heap_len": len(sim._heap),
        "kernel": None,   # overwritten below; keep keys identical
    }


@pytest.mark.parametrize("seed", range(8))
def test_randomized_workload_parity(seed):
    reference = _drive("python", seed)
    compiled = _drive("c", seed)
    for result in (reference, compiled):
        result.pop("kernel")
    assert reference == compiled
    assert reference["executed"] > 20   # the workload actually ran


def test_randomized_workloads_are_not_degenerate():
    # Across the parametrized seeds the harness must exercise every
    # ingredient at least once: timer fires and cancels would silently
    # vanish from the parity claim if the distribution drifted.
    saw_timer = saw_cancel = False
    for seed in range(8):
        result = _drive("python", seed)
        if any(entry[0] == "timer" for entry in result["log"]):
            saw_timer = True
        if result["cancelled"] > 0:
            saw_cancel = True
    assert saw_timer and saw_cancel


def test_same_time_ties_pop_in_seq_order_on_both_kernels():
    def run(kernel):
        sim = Simulator(kernel=kernel)
        log = []
        timer = Timer(sim, lambda: log.append("timer"))
        sim.schedule_fast(0.5, log.append, "fast-0")
        sim.schedule(0.5, log.append, "handle-1")
        timer.schedule_at(0.5)
        sim.schedule_fast(0.5, log.append, "fast-3")
        sim.run()
        return log

    expected = ["fast-0", "handle-1", "timer", "fast-3"]
    assert run("python") == expected
    assert run("c") == expected


#: Every until/max_events combination: both kernels share one counter
#: rule (a local flushed at exit) and one clock-snap rule.
RUN_MODES = [{"until": 1.0}, {"max_events": 2},
             {"until": 1.0, "max_events": 2}, {"until": 0.25, "max_events": 2}]


@pytest.mark.parametrize("run_kwargs", RUN_MODES, ids=str)
def test_midrun_exception_leaves_identical_state(run_kwargs):
    def run(kernel):
        sim = Simulator(kernel=kernel)
        sim.schedule_fast(0.05, lambda: None)
        sim.run()   # the run under test enters with the counter at 1
        log = []

        def record(tag):
            log.append((tag, sim.events_executed))

        def boom():
            raise ValueError("boom")

        sim.schedule(0.1, record, "a")
        sim.schedule_fast(0.2, boom)
        sim.schedule(0.3, record, "c")
        with pytest.raises(ValueError, match="boom"):
            sim.run(**run_kwargs)
        # The finally block must flush counters and clear _running even
        # on the exception path; the survivor event is still live.
        assert not sim._running
        InvariantChecker(sim, strict=True).check_counter_parity()
        return log, repr(sim.now), sim._events_executed, sim.pending_events

    assert run("python") == run("c")
    log, now, executed, pending = run("c")
    assert log == [("a", 1)] and executed == 3 and pending == 1


@pytest.mark.parametrize("run_kwargs", RUN_MODES, ids=str)
def test_stop_from_callback_parity(run_kwargs):
    def run(kernel):
        sim = Simulator(kernel=kernel)
        log = []

        def record(tag):
            log.append((tag, sim.events_executed))

        sim.schedule(0.1, record, "a")
        sim.schedule(0.2, sim.stop)
        sim.schedule(0.3, record, "b")
        sim.schedule(0.4, record, "c")
        first = sim.run(**run_kwargs)
        after_first = sim._events_executed
        second = sim.run(**run_kwargs)   # resumes past the stop
        return (log, repr(first), after_first, repr(second),
                sim._events_executed)

    assert run("python") == run("c")
    log, first, after_first, second, _executed = run("c")
    assert first == "0.2" and after_first == 2   # "a", then the stop
    if run_kwargs == {"until": 1.0}:
        assert [tag for tag, _count in log] == ["a", "b", "c"]
        assert second == "1.0"
    # Mid-run reads return the counter from when each run was entered.
    assert log[0] == ("a", 0)
    assert all(count == after_first for _tag, count in log[1:])


#: Objects that are neither ``None`` nor a Timer at element 2, including
#: a duck-typed stand-in for the retired three-element handle shape.
FOREIGN = {
    "object": lambda log: (object(), 1),
    "str": lambda log: ("timer", 1),
    "old-handle": lambda log: (SimpleNamespace(
        _cancelled=False, _fired=False, callback=log.append,
        args=("foreign",)),),
}


@pytest.mark.parametrize("shape", sorted(FOREIGN))
def test_foreign_object_at_element_2_fails_alike(shape):
    def run(kernel):
        sim = Simulator(kernel=kernel)
        log = []
        sim.schedule(0.1, log.append, "a")
        sim.schedule_fast(0.3, log.append, "c")
        heapq.heappush(sim._heap,
                       (0.2, sim._next_seq()) + FOREIGN[shape](log))
        with pytest.raises(Exception) as info:
            sim.run()
        assert not sim._running
        return (info.type, log, repr(sim.now), sim._scheduled,
                sim._events_executed, sim._cancelled_events, len(sim._heap))

    reference = run("python")
    assert reference[0] is AttributeError
    assert reference == run("c")
    assert reference[1:3] == (["a"], "0.1")


def test_exotic_until_comparison_parity():
    # Non-float horizons (ints, Fractions) must take the rich-compare
    # fallback on both kernels and stop at the same instant.
    from fractions import Fraction

    def run(kernel, until):
        sim = Simulator(kernel=kernel)
        log = []
        for i in range(6):
            sim.schedule_fast(float(i), log.append, i)
        sim.run(until=until)
        return log, repr(sim.now)

    for until in (3, Fraction(7, 2)):
        assert run("python", until) == run("c", until)
