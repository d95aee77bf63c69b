"""Tests for the discrete-event kernel."""

import gc
import math
import weakref

import pytest

from repro.core import SchedulingError, SimulationError, Simulator
from repro.core.engine import PeriodicTask, Timer, ckernel_available
from repro.faults import InvariantChecker

needs_c = pytest.mark.skipif(not ckernel_available(),
                             reason="compiled kernel not built")
BOTH_KERNELS = ["python", pytest.param("c", marks=needs_c)]


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(0.3, fired.append, "c")
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, sim):
        fired = []
        for label in "abcdef":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcdef")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_and_inf_delays_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(math.inf, lambda: None)

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_args_are_passed(self, sim):
        received = []
        sim.schedule(0.1, lambda a, b: received.append((a, b)), 1, "x")
        sim.run()
        assert received == [(1, "x")]

    def test_call_now_runs_after_current_event(self, sim):
        order = []

        def outer():
            sim.call_now(order.append, "inner")
            order.append("outer")

        sim.schedule(0.1, outer)
        sim.run()
        assert order == ["outer", "inner"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(0.1, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(0.1, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_count_excludes_cancelled(self, sim):
        keep = sim.schedule(0.1, lambda: None)
        drop = sim.schedule(0.2, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        assert keep.pending


class TestEventHandleLifecycle:
    """An EventHandle is a Timer armed once: the run loop drops or fires
    its ``(time, seq, handle, 1)`` entry like any timer entry."""

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_pending_then_fired(self, kernel):
        sim = Simulator(kernel=kernel)
        fired = []
        handle = sim.schedule(0.1, fired.append, "x")
        assert handle.pending and not handle.cancelled
        assert sim._heap[0][2:] == (handle, 1)
        sim.run()
        assert fired == ["x"]
        assert not handle.pending and not handle.cancelled
        assert (sim.events_executed, sim._cancelled_events) == (1, 0)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_pending_then_cancelled(self, kernel):
        sim = Simulator(kernel=kernel)
        fired = []
        handle = sim.schedule_at(0.1, fired.append, "x")
        handle.cancel()
        assert not handle.pending and handle.cancelled
        assert sim.pending_events == 0
        sim.run()
        assert fired == []
        assert (sim.events_executed, sim._cancelled_events) == (0, 1)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_cancel_after_fire_is_not_counted(self, kernel):
        sim = Simulator(kernel=kernel)
        handle = sim.schedule(0.1, lambda: None)
        sim.run()
        handle.cancel()
        assert not handle.cancelled and not handle.pending
        assert sim._cancelled_events == 0 and sim.pending_events == 0

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_double_cancel_counts_once(self, kernel):
        sim = Simulator(kernel=kernel)
        handle = sim.schedule(0.1, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled and sim._cancelled_events == 1
        sim.run()
        assert sim.pending_events == 0 and sim.events_executed == 0

    def test_cancel_releases_callback_and_args(self, sim):
        class Owner:
            def fire(self, payload):
                raise AssertionError("cancelled event fired")

        class Payload:
            pass

        owner, payload = Owner(), Payload()
        refs = weakref.ref(owner), weakref.ref(payload)
        handle = sim.schedule(0.1, owner.fire, payload)
        del owner, payload
        gc.collect()
        assert all(ref() is not None for ref in refs)  # the heap holds them
        handle.cancel()
        gc.collect()
        assert all(ref() is None for ref in refs)  # entry still queued
        assert len(sim._heap) == 1
        sim.run()


def mixed_heap(sim, fired):
    """Queue every entry shape and liveness state on ``sim``: raw
    entries, an armed timer, a re-armed timer (one superseded entry),
    a cancelled timer, live and cancelled handles.  Five stay live."""
    sim.schedule_fast(0.1, fired.append, "fast")
    sim.schedule_fast_at(0.6, fired.append, "fast-at")
    armed = Timer(sim, lambda: fired.append("armed"))
    armed.schedule(0.2)
    rearmed = Timer(sim, lambda: fired.append("rearmed"))
    rearmed.schedule(0.3)
    rearmed.schedule_at(0.5)   # supersedes the 0.3 entry
    cancelled = Timer(sim, lambda: fired.append("cancelled-timer"))
    cancelled.schedule(0.25)
    cancelled.cancel()
    sim.schedule(0.4, fired.append, "handle")
    sim.schedule(0.35, fired.append, "cancelled-handle").cancel()
    assert len(sim._heap) == 8 and sim.pending_events == 5


class TestMixedHeap:
    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_runs_only_live_entries(self, kernel):
        sim = Simulator(kernel=kernel)
        fired = []
        mixed_heap(sim, fired)
        InvariantChecker(sim, strict=True).check_counter_parity()
        sim.run(until=0.45)
        InvariantChecker(sim, strict=True).check_counter_parity()
        sim.run()
        assert fired == ["fast", "armed", "handle", "rearmed", "fast-at"]
        assert (sim.events_executed, sim.pending_events) == (5, 0)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_clear_leaves_nothing_pending(self, kernel):
        sim = Simulator(kernel=kernel)
        fired = []
        mixed_heap(sim, fired)
        sim.clear()
        assert sim.pending_events == 0 and sim.heap_depth == 0
        InvariantChecker(sim, strict=True).check_counter_parity()
        sim.run()
        assert fired == [] and sim.pending_events == 0

    def test_counter_parity_flags_a_miscounted_heap(self, sim):
        mixed_heap(sim, [])
        sim._cancelled_events += 1   # one live entry miscounted as dropped
        checker = InvariantChecker(sim, strict=False)
        checker.check_counter_parity()
        assert [v.check for v in checker.violations] == ["counter-parity"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0

    def test_until_advances_clock_even_with_no_events(self, sim):
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_remaining_events_fire_on_second_run(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=1.0)
        sim.run(until=10.0)
        assert fired == ["late"]

    def test_stop_halts_processing(self, sim):
        fired = []
        sim.schedule(0.1, lambda: (fired.append("first"), sim.stop()))
        sim.schedule(0.2, fired.append, "second")
        sim.run()
        assert fired == ["first"]

    def test_max_events_budget(self, sim):
        fired = []
        for index in range(10):
            sim.schedule(0.1 * (index + 1), fired.append, index)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(0.1, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_clear_cancels_everything(self, sim):
        fired = []
        sim.schedule(0.1, fired.append, "x")
        sim.clear()
        sim.run()
        assert fired == []

    def test_events_executed_counter(self, sim):
        for index in range(4):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestPeriodicTask:
    def test_fires_at_period(self, sim):
        times = []
        PeriodicTask(sim, 0.5, lambda: times.append(sim.now))
        sim.run(until=2.1)
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_offset_controls_first_firing(self, sim):
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now), offset=0.25)
        sim.run(until=2.5)
        assert times == pytest.approx([0.25, 1.25, 2.25])

    def test_cancel_stops_firing(self, sim):
        count = []
        task = PeriodicTask(sim, 0.5, lambda: count.append(1))
        sim.run(until=1.1)
        task.cancel()
        sim.run(until=5.0)
        assert len(count) == 2
        assert not task.active

    def test_cancel_inside_callback(self, sim):
        task_box = {}

        def fire_once():
            task_box["task"].cancel()

        task_box["task"] = PeriodicTask(sim, 0.5, fire_once)
        sim.run(until=5.0)
        assert task_box["task"].fired == 1

    def test_zero_period_rejected(self, sim):
        for period in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(SchedulingError):
                PeriodicTask(sim, period, lambda: None, offset=0.1)
        assert sim.pending_events == 0


class TestFastScheduling:
    def test_schedule_fast_fires_in_order_with_handles(self, sim):
        fired = []
        sim.schedule(0.2, fired.append, "handle")
        sim.schedule_fast(0.1, fired.append, "fast")
        sim.schedule_fast_at(0.3, fired.append, "fast-at")
        sim.run()
        assert fired == ["fast", "handle", "fast-at"]

    def test_schedule_fast_ties_respect_scheduling_order(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule_fast(1.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_fast_validates_like_schedule(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule_fast(-0.1, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule_fast(math.nan, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule_fast_at(-1.0, lambda: None)

    def test_schedule_fast_counts_as_pending(self, sim):
        sim.schedule_fast(0.5, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_clear_drops_fast_events(self, sim):
        fired = []
        sim.schedule_fast(0.1, fired.append, "x")
        sim.clear()
        sim.run()
        assert fired == []
        assert sim.pending_events == 0


class TestPendingCounter:
    def test_counter_tracks_schedule_execute_cancel(self, sim):
        handles = [sim.schedule(0.1 * (i + 1), lambda: None)
                   for i in range(4)]
        assert sim.pending_events == 4
        handles[0].cancel()
        assert sim.pending_events == 3
        sim.run(until=0.25)  # fires events at 0.2 (0.1 was cancelled)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_firing_does_not_skew_counter(self, sim):
        handle = sim.schedule(0.1, lambda: None)
        sim.run()
        handle.cancel()  # late cancel of an already-fired event
        assert sim.pending_events == 0
        assert not handle.pending

    def test_run_until_boundary_keeps_future_event_pending(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["early", "late"]


class TestBudgetedRunClock:
    """A spent ``max_events`` budget must not snap the clock past events
    that are still queued before ``until``."""

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_spent_budget_leaves_clock_at_last_event(self, kernel):
        sim = Simulator(kernel=kernel)
        fired = []
        for time in (1.0, 2.0, 3.0):
            sim.schedule_at(time, lambda: fired.append(sim.now))
        assert sim.run(until=10.0, max_events=1) == 1.0
        sim.schedule_at(5.0, lambda: fired.append(sim.now))  # not the past
        assert sim.run() == 5.0
        assert fired == [1.0, 2.0, 3.0, 5.0]  # the clock never ran back

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_budget_spent_with_nothing_before_until_still_snaps(self, kernel):
        sim = Simulator(kernel=kernel)
        for time in (1.0, 2.0, 20.0):
            sim.schedule_at(time, lambda: None)
        assert sim.run(until=10.0, max_events=2) == 10.0  # head is 20.0
        assert sim.run(until=30.0, max_events=1) == 30.0  # heap drained


#: Every until/max_events combination: the run loop has one counter rule.
RUN_MODES = [{}, {"until": 10.0}, {"max_events": 3},
             {"until": 10.0, "max_events": 3}]


def counter_rule_run(run_kwargs, exit_by):
    """Run with observers reading ``events_executed`` mid-run; return
    (mid-run readings, callbacks fired, counter after exit)."""
    sim = Simulator(kernel="python")
    sim.schedule_at(0.5, lambda: None)
    sim.run()  # the counter enters the run under test at 1, not 0
    readings, fired = [], []

    def observe():
        fired.append(sim.now)
        readings.append(sim.events_executed)

    def halt():
        fired.append(sim.now)
        sim.stop()

    def boom():
        fired.append(sim.now)
        raise ValueError("boom")

    for time in (1.0, 2.0, 3.0, 4.0):
        sim.schedule_at(time, observe)
    if exit_by == "stop":
        sim.schedule_at(2.5, halt)
    elif exit_by == "raise":
        sim.schedule_at(2.5, boom)
    if exit_by == "raise":
        with pytest.raises(ValueError, match="boom"):
            sim.run(**run_kwargs)
    else:
        sim.run(**run_kwargs)
    assert not sim._running
    InvariantChecker(sim, strict=True).check_counter_parity()
    return readings, fired, sim.events_executed


class TestExecutedCounterRule:
    @pytest.mark.parametrize("exit_by", ["clean", "stop", "raise"])
    @pytest.mark.parametrize("run_kwargs", RUN_MODES, ids=str)
    def test_midrun_reads_entry_value_and_exit_is_exact(self, run_kwargs,
                                                        exit_by):
        readings, fired, executed = counter_rule_run(run_kwargs, exit_by)
        assert readings and set(readings) == {1}
        assert executed == 1 + len(fired)
        if "max_events" in run_kwargs and exit_by == "clean":
            assert len(fired) == run_kwargs["max_events"]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("test")
            values = []
            for _ in range(5):
                sim.schedule(rng.random(), lambda: values.append(sim.now))
            sim.run()
            return values

        assert run(7) == run(7)
        assert run(7) != run(8)
