"""Instrumentation probes for every subsystem, plus the Telemetry hub.

Each probe wires one subsystem into a
:class:`~repro.telemetry.metrics.MetricsRegistry` /
:class:`~repro.telemetry.metrics.PeriodicSampler` pair.  The common
contract: a probe installed against a *disabled* registry is a complete
no-op (nothing wrapped, nothing sampled, nothing allocated), and an
installed probe never mutates simulation state — it reads counters and
gauges the subsystems already maintain, wraps a method with a
pass-through that only counts, or rides the one-slot ``_frame_probe``
hook.  Probes therefore cannot perturb seeded protocol outcomes; the
only observable difference in an instrumented run is the sampler's own
(read-only) events on the kernel heap.

:class:`Telemetry` bundles the whole layer behind one object — the
perf macros, ``run_bench --telemetry`` and the parallel executor all
construct exactly this.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.engine import Simulator
from .metrics import MetricsRegistry, PeriodicSampler
from .spans import FrameSpanTracker, Span, SpanLog

__all__ = ["MediumProbe", "MacFleetProbe", "RadioFleetProbe",
           "record_fault_spans", "Telemetry"]


def _install_kernel_sampling(sim: Simulator,
                             sampler: PeriodicSampler) -> None:
    """Heap/pending/cancellation gauges (cancellations are dominated by
    timer re-arms: every Timer re-anchor supersedes its live entry)."""
    sampler.add("kernel", "heap_depth", lambda: float(len(sim._heap)))
    sampler.add("kernel", "pending_events",
                lambda: float(sim._scheduled - sim._events_executed
                              - sim._cancelled_events))
    sampler.add("kernel", "events_executed",
                lambda: float(sim._events_executed))
    sampler.add("kernel", "cancelled_events",
                lambda: float(sim._cancelled_events))


class MediumProbe:
    """Per-channel airtime/frame accounting and fan-out widths.

    :meth:`install` wraps ``medium.transmit`` with a counting
    pass-through, again as an instance attribute — and because
    ``Radio.transmit`` dispatches through ``self.medium.transmit`` and
    ``Medium.transmit_energy`` through ``self.transmit``, the one wrap
    observes every frame *and* every energy burst.  Fan-out width is
    recovered exactly from the kernel's scheduled-events counter (the
    fan-out pushes two heap entries per audible receiver and nothing
    else inside ``transmit`` schedules), so the probe needs no access
    to the compiled plans.  Plan/link-cache hit rates ride the sampler.
    """

    def __init__(self, medium: Any, registry: MetricsRegistry,
                 sampler: Optional[PeriodicSampler] = None):
        self.medium = medium
        self.registry = registry
        self._enabled = registry.enabled
        self._installed = False
        self._original: Optional[Callable] = None
        self.fanout = registry.histogram("medium", "fanout_width")
        self.energy_bursts = registry.counter("medium", "energy_bursts")
        if sampler is not None:
            sampler.add("medium", "plan_hits",
                        lambda: float(medium.plan_hits))
            sampler.add("medium", "plan_misses",
                        lambda: float(medium.plan_misses))
            sampler.add("medium", "plan_invalidations",
                        lambda: float(medium.plan_invalidations))
            sampler.add("medium", "link_cache_hits",
                        lambda: float(medium.links.hits))
            sampler.add("medium", "link_cache_misses",
                        lambda: float(medium.links.misses))

    def install(self) -> "MediumProbe":
        if not self._enabled or self._installed:
            return self
        medium = self.medium
        original = medium.transmit  # the bound class method
        sim = medium.sim
        fanout = self.fanout
        energy_bursts = self.energy_bursts
        counter = self.registry.counter
        # Per-channel handles, resolved lazily and memoized locally so
        # the steady state is two dict hits per frame.
        frames: Dict[int, Any] = {}
        airtime: Dict[int, Any] = {}

        def _transmit(sender: Any, payload: Any, size_bits: int, mode: Any,
                      duration: float, power_watts: float) -> Any:
            before = sim._scheduled
            transmission = original(sender, payload, size_bits, mode,
                                    duration, power_watts)
            channel = sender._channel_id
            frame_counter = frames.get(channel)
            if frame_counter is None:
                frame_counter = frames[channel] = counter(
                    "medium", "frames", channel=channel)
                airtime[channel] = counter(
                    "medium", "airtime_seconds", channel=channel)
            frame_counter.value += 1
            airtime[channel].value += duration
            if size_bits == 0:
                energy_bursts.value += 1
            fanout.observe((sim._scheduled - before) // 2)
            return transmission

        self._original = original
        medium.transmit = _transmit
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            del self.medium.transmit
            self._original = None
            self._installed = False


class MacFleetProbe:
    """Aggregate DCF-fleet gauges, sampled — zero per-event cost.

    Everything here reads state the MACs already maintain: queue
    depths, NAV deadlines, contention-timer arming, and the per-MAC
    retry/drop counters.  ``backoff_stalled`` counts stations that hold
    a residual backoff but have neither IFS nor countdown armed — i.e.
    contenders frozen by a busy medium right now.
    """

    def __init__(self, macs: Iterable[Any], registry: MetricsRegistry,
                 sampler: PeriodicSampler):
        self.macs = list(macs)
        if not registry.enabled or not self.macs:
            return
        sampler.add("mac", "queue_depth_total", self._queue_total)
        sampler.add("mac", "queue_depth_max", self._queue_max)
        sampler.add("mac", "nav_busy_count", self._nav_busy)
        sampler.add("mac", "backoff_stalled", self._backoff_stalled)
        sampler.add("mac", "retry_timeouts", self._retry_timeouts)
        sampler.add("mac", "queue_drops", self._queue_drops)

    def _queue_total(self) -> float:
        return float(sum(len(mac.queue) for mac in self.macs))

    def _queue_max(self) -> float:
        return float(max(len(mac.queue) for mac in self.macs))

    def _nav_busy(self) -> float:
        count = 0
        for mac in self.macs:
            if mac.sim._now < mac.nav._until:
                count += 1
        return float(count)

    def _backoff_stalled(self) -> float:
        count = 0
        for mac in self.macs:
            if mac._backoff_remaining is not None \
                    and not mac._ifs._armed and not mac._countdown._armed:
                count += 1
        return float(count)

    def _retry_timeouts(self) -> float:
        total = 0
        for mac in self.macs:
            counters = mac.counters
            total += counters.get("ack_timeouts") \
                + counters.get("cts_timeouts")
        return float(total)

    def _queue_drops(self) -> float:
        return float(sum(mac.counters.get("queue_drops")
                         for mac in self.macs))


class RadioFleetProbe:
    """Aggregate PHY-fleet gauges: incident arrivals and the fast-mode
    accumulator rebase count (cumulative ``Radio._rebases``)."""

    def __init__(self, radios: Iterable[Any], registry: MetricsRegistry,
                 sampler: PeriodicSampler):
        self.radios = list(radios)
        if not registry.enabled or not self.radios:
            return
        sampler.add("phy", "arrivals_incident", self._arrivals)
        sampler.add("phy", "accumulator_rebases", self._rebases)

    def _arrivals(self) -> float:
        return float(sum(len(radio._arrivals) for radio in self.radios))

    def _rebases(self) -> float:
        return float(sum(radio._rebases for radio in self.radios))


def record_fault_spans(fault_log: Any, spans: SpanLog,
                       horizon: Optional[float] = None) -> int:
    """Convert a FaultLog's crash/restart pairs into ``downtime`` spans.

    Delegates the pairing to
    :meth:`~repro.faults.schedule.FaultLog.downtime_spans`; targets
    still down at the horizon yield open spans (outcome ``open``).
    Returns the number of spans recorded.
    """
    if not spans.wants("downtime"):
        return 0
    recorded = 0
    for target, start, end in fault_log.downtime_spans():
        if end is None:
            span = Span("downtime", target, start, end=horizon,
                        outcome="open")
        else:
            span = Span("downtime", target, start, end=end,
                        outcome="restored")
        spans.record(span)
        recorded += 1
    return recorded


class Telemetry:
    """The whole observability layer behind one object.

    Construct with ``enabled=False`` for a null hub: every
    ``instrument_*`` call and :meth:`install` short-circuits, metric
    handles are the shared null metric, and the simulation runs the
    byte-identical uninstrumented path.  Enabled, the hub owns one
    registry, one sim-time sampler, one span log and one frame tracker;
    :meth:`finish` takes the final edge sample, closes still-open frame
    spans and (optionally) folds a fault log into downtime spans.
    """

    def __init__(self, sim: Simulator, enabled: bool = True,
                 sample_interval: float = 0.05,
                 span_capacity: Optional[int] = 65_536,
                 series_capacity: Optional[int] = 100_000):
        self.sim = sim
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.registry.set_series_capacity(series_capacity)
        self.sampler = PeriodicSampler(sim, self.registry,
                                       interval=sample_interval)
        self.spans = SpanLog(capacity=span_capacity, enabled=enabled)
        self.frames = FrameSpanTracker(self.spans)
        self._medium_probes: List[MediumProbe] = []
        self._fault_logs: List[Any] = []
        self._finished = False

    # --- wiring ------------------------------------------------------------

    def instrument_kernel(self) -> "Telemetry":
        if not self.enabled:
            return self
        _install_kernel_sampling(self.sim, self.sampler)
        return self

    def instrument_medium(self, medium: Any) -> "Telemetry":
        if not self.enabled:
            return self
        self._medium_probes.append(
            MediumProbe(medium, self.registry, self.sampler).install())
        return self

    def instrument_macs(self, macs: Iterable[Any],
                        spans: bool = True) -> "Telemetry":
        if not self.enabled:
            return self
        macs = list(macs)
        MacFleetProbe(macs, self.registry, self.sampler)
        if spans:
            for mac in macs:
                self.frames.attach(mac)
        return self

    def instrument_radios(self, radios: Iterable[Any]) -> "Telemetry":
        if not self.enabled:
            return self
        RadioFleetProbe(radios, self.registry, self.sampler)
        return self

    def instrument_faults(self, fault_log: Any) -> "Telemetry":
        """Remember a fault log; :meth:`finish` folds it into spans."""
        if self.enabled:
            self._fault_logs.append(fault_log)
        return self

    def install(self) -> "Telemetry":
        """Arm the periodic sampler (call after all ``instrument_*``)."""
        self.sampler.install()
        return self

    # --- wind-down ---------------------------------------------------------

    def finish(self) -> "Telemetry":
        """Final edge sample + span closure (idempotent)."""
        if not self.enabled or self._finished:
            return self
        self._finished = True
        self.sampler.stop()
        self.sampler.sample_now()
        now = self.sim._now
        self.frames.finish(now)
        self.frames.detach_all()
        for fault_log in self._fault_logs:
            record_fault_spans(fault_log, self.spans, horizon=now)
        for probe in self._medium_probes:
            probe.uninstall()
        return self

    # --- export conveniences ------------------------------------------------

    def sim_jsonl(self) -> str:
        """Canonical sim-time stream (byte-identical run-to-run)."""
        from .export import to_jsonl
        return to_jsonl(self.registry, spans=self.spans, stream="sim")

    def wall_jsonl(self) -> str:
        """The wall-clock stream — machine noise, never gated."""
        from .export import to_jsonl
        return to_jsonl(self.registry, spans=None, stream="wall")

    def summary(self) -> Dict[str, Any]:
        from .export import summary_table
        return summary_table(self.registry, spans=self.spans)
