"""Span tracer injected around the public entry points of each layer.

The traced worker calls :meth:`Tracer.install` before it imports the
workloads, so every object the workload builds already sees the wrapped
classes.  Nothing in ``src/`` changes: the tracer replaces class and
module attributes for the rest of its process's life.

Spans are ``(name, start, end, parent)`` rows kept in flat typed arrays
and reduced once at the end (:meth:`Tracer.self_times` and friends).  A
span's self time is its duration minus the durations of the spans
nested directly inside it.

Event attribution: every callback the kernel dispatches passes through
exactly one wrapper whose parent span is ``Simulator.run`` -- either the
wrapper put around a callback handed to ``Simulator.schedule*`` or
``Timer``, or a class-level wrapper around ``Radio.arrival_begins`` /
``arrival_ends``, which ``Medium`` pushes onto the heap directly.  That
wrapper counts one event for the package owning the callback, so the
owner counts sum to the kernel's own ``events_executed`` unless some
event reached the kernel unwrapped -- which the worker reports as a
failure.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer name, longest prefix first.
LAYER_MODULES: Tuple[Tuple[str, str], ...] = (
    ("repro.phy.transceiver", "phy.transceiver"),
    ("repro.phy.channel", "phy.channel"),
    ("repro.phy.interference", "phy.interference"),
    ("repro.phy.error_models", "phy.error_models"),
    ("repro.mac", "mac"),
    ("repro.net", "net"),
    ("repro.routing", "routing"),
    ("repro.adversary", "adversary"),
    ("repro.mobility", "mobility"),
    ("repro.faults", "faults"),
    ("repro.traffic", "traffic"),
    ("repro.campaign", "campaign"),
    ("repro.core", "core"),
)

#: Packages whose dispatched events get their own ``<layer>.events``
#: count; every other owner is summed into ``unattributed.events``.
EVENT_OWNERS = ("phy.transceiver", "mac", "adversary", "routing", "net",
                "mobility", "faults", "traffic")

RUN_SPAN = "core"


def layer_of(module: Optional[str]) -> str:
    if module:
        for prefix, layer in LAYER_MODULES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "unattributed"


class Tracer:
    """In-memory span recorder plus the class patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: List[int] = [-1]
        self.counts: Counter = Counter()
        self.events: Counter = Counter()
        self._run_id = self.name_id(RUN_SPAN)
        self._module_layers: Dict[str, str] = {}
        self._task_layers: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        # (object, snapshot function) per watched object; readings of
        # the live ones, and of those already let go.
        self._watched: List[Tuple[Any, Callable]] = []
        self._readings: Counter = Counter()
        self._retired: Counter = Counter()

    # --- span recording ---------------------------------------------------

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, fn: Callable, span: str, count: Optional[str] = None,
             outermost: bool = False) -> Callable:
        """``fn`` inside a span named ``span``.  ``count`` is bumped per
        call (only when not nested in a span of the same name if
        ``outermost``).  A call whose parent is ``Simulator.run`` is a
        kernel dispatch and counts one event for ``span``'s owner."""
        sid = self.name_id(span)
        owner = span if span in EVENT_OWNERS else "unattributed"
        starts, ends, names, parents = (self.start, self.end, self.name,
                                        self.parent)
        stack, counts, events = self.stack, self.counts, self.events
        run_id = self._run_id
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            top = stack[-1]
            if top >= 0:
                top_name = names[top]
                if top_name == run_id:
                    events[owner] += 1
                if count is not None and not (outermost and top_name == sid):
                    counts[count] += 1
            elif count is not None:
                counts[count] += 1
            index = len(starts)
            names.append(sid)
            parents.append(top)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def dispatch(self, callback: Callable) -> Callable:
        """Wrap a callback handed to the kernel, named by its owner."""
        return self.wrap(callback, self.owner(callback))

    def owner(self, callback: Any) -> str:
        target = callback
        while True:
            if isinstance(target, functools.partial):
                target = target.func
                continue
            bound = getattr(target, "__self__", None)
            if bound is not None and bound in self._task_layers:
                return self._task_layers[bound]
            inner = getattr(target, "__wrapped__", None)
            if inner is None:
                break
            target = inner
        func = getattr(target, "__func__", target)
        module = getattr(func, "__module__", None)
        if module is None:
            module = type(getattr(target, "__self__", target)).__module__
        layer = self._module_layers.get(module)
        if layer is None:
            layer = self._module_layers[module] = layer_of(module)
        return layer if layer in EVENT_OWNERS else "unattributed"

    # --- patching ---------------------------------------------------------

    def patch_method(self, cls: type, attr: str, span: str,
                     count: Optional[str] = None,
                     outermost: bool = False) -> None:
        setattr(cls, attr, self.wrap(cls.__dict__[attr], span, count,
                                     outermost))

    def patch_function(self, name: str, fn: Callable, span: str,
                       count: Optional[str] = None,
                       body: Optional[Callable] = None) -> None:
        """Replace module-level function ``fn`` in every loaded
        ``repro`` module that bound it under ``name`` (by ``body``, when
        given, inside the span)."""
        traced = self.wrap(fn if body is None else body, span, count)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and \
                    getattr(module, name, None) is fn:
                setattr(module, name, traced)

    def watch(self, obj: Any, snapshot: Callable[[Any], Dict[str, float]]
              ) -> None:
        self._watched.append((obj, snapshot))

    def refresh(self) -> None:
        """Re-read the counters of every watched object."""
        self._readings = Counter()
        for obj, snapshot in self._watched:
            self._readings.update(snapshot(obj))

    def retire(self) -> None:
        """Fold the current readings into the totals and let the watched
        objects go (campaign jobs build a fresh world each time)."""
        self.refresh()
        self._retired.update(self._readings)
        self._watched.clear()
        self._readings = Counter()

    def totals(self) -> Counter:
        total = Counter(self._retired)
        total.update(self._readings)
        return total

    def install(self) -> None:
        from repro.campaign import grid, manifest, runner, spec, store
        from repro.core.engine import PeriodicTask, Simulator, Timer
        from repro.mac.dcf import DcfMac
        from repro.mobility.models import MobilityModel
        from repro.net.station import Station
        from repro.phy import error_models
        from repro.phy.channel import Medium
        from repro.phy.interference import SinrTracker
        from repro.phy.transceiver import Radio
        from repro.routing.dsdv import DsdvRouting
        from repro.routing.node import MeshNode
        from repro.adversary import emitters
        from repro.faults.schedule import FaultLog
        from repro.traffic import generators

        tracer = self

        # Kernel: the run loop and every callback handed to it.
        run = Simulator.__dict__["run"]

        def traced_run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer.refresh()

        Simulator.run = self.wrap(traced_run, RUN_SPAN)
        for attr in ("schedule", "schedule_at", "schedule_fast",
                     "schedule_fast_at"):
            setattr(Simulator, attr,
                    self._scheduling(Simulator.__dict__[attr]))
        timer_init = Timer.__dict__["__init__"]

        def timer(self_: Any, sim: Any, callback: Callable) -> None:
            timer_init(self_, sim, tracer.dispatch(callback))

        Timer.__init__ = timer
        task_init = PeriodicTask.__dict__["__init__"]

        def task(self_: Any, sim: Any, period: float, callback: Callable,
                 offset: Optional[float] = None) -> None:
            tracer._task_layers[self_] = tracer.owner(callback)
            task_init(self_, sim, period, callback, offset)

        PeriodicTask.__init__ = task

        # PHY, MAC, routing, mobility entry points.
        self.patch_method(Medium, "transmit", "phy.channel",
                          "phy.channel.transmits")
        self.patch_method(Medium, "transmit_energy", "phy.channel")
        for attr in ("arrival_begins", "arrival_begins_fast"):
            self.patch_method(Radio, attr, "phy.transceiver",
                              "phy.channel.arrivals")
        for attr in ("arrival_ends", "arrival_ends_fast"):
            self.patch_method(Radio, attr, "phy.transceiver")
        self.patch_method(SinrTracker, "sinr_db", "phy.interference",
                          "phy.interference.sinr_evals")
        for cls in [error_models.ErrorModel,
                    *_subclasses(error_models.ErrorModel)]:
            for attr in ("packet_error_rate", "frame_survives"):
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, "phy.error_models",
                                      "phy.error_models.per_evals",
                                      outermost=True)
        self.patch_method(DcfMac, "send", "mac", "mac.sends")
        DcfMac.phy_rx_end = self._receptions(DcfMac.__dict__["phy_rx_end"])
        self.patch_method(MeshNode, "send", "routing")
        self.patch_method(DsdvRouting, "on_control", "routing",
                          "routing.control_rx")
        for cls in _subclasses(MobilityModel):
            if "advance" in cls.__dict__:
                self.patch_method(cls, "advance", "mobility",
                                  "mobility.moves")

        # Campaign boundaries.
        self.patch_function("validate_spec", spec.validate_spec,
                            "campaign.validate")
        self.patch_function("expand_grid", grid.expand_grid,
                            "campaign.expand")
        run_job = runner.run_job

        def job(spec_: Any) -> Any:
            try:
                return run_job(spec_)
            finally:
                tracer.retire()

        self.patch_function("run_job", run_job, "campaign.job",
                            "campaign.jobs", body=job)
        self.patch_method(manifest.Manifest, "record_done",
                          "campaign.manifest")
        opener = manifest.Manifest.__dict__["open"].__func__
        manifest.Manifest.open = classmethod(
            self.wrap(opener, "campaign.manifest"))
        for attr in ("__init__", "add", "close"):
            self.patch_method(store.StoreWriter, attr, "campaign.store")

        # Objects whose own counters feed the ledger.
        self._watch_instances(Simulator, lambda sim: {
            "core.events": sim.events_executed})
        self._watch_instances(Medium, lambda medium: {
            "phy.channel.plan_hits": medium.plan_hits,
            "phy.channel.plan_invalidations": medium.plan_invalidations,
            "phy.channel.link_cache_hits": medium.links.hits})
        self._watch_instances(DcfMac, lambda mac: {
            "mac.nav_updates": mac.counters.get("nav_updates"),
            "mac.ack_timeouts": mac.counters.get("ack_timeouts"),
            "mac.tx_data": mac.counters.get("tx_data")})
        self._watch_instances(Station, lambda sta: {
            "net.roams": sta.sta_counters.get("roams"),
            "net.associations": sta.sta_counters.get("associations")})
        self._watch_instances(MeshNode, lambda node: {
            "routing.forwarded": node.counters.get("forwarded"),
            "routing.delivered": node.counters.get("delivered"),
            "routing.originated": node.counters.get("originated")})
        for cls in (emitters.Emitter, emitters.ReactiveJammer):
            self._watch_instances(cls, lambda emitter: {
                "adversary.bursts": emitter.counters.get("bursts")})
        for cls in (generators.CbrSource, generators.PoissonSource,
                    generators.OnOffSource, generators.BulkTransferSource):
            self._watch_instances(cls, lambda source: {
                "traffic.generated": source.generated})
        self._watch_instances(FaultLog, lambda log: {
            "faults.injected": len(log)})

    def _scheduling(self, schedule: Callable) -> Callable:
        dispatch = self.dispatch

        def traced_schedule(sim: Any, when: float, callback: Callable,
                            *args: Any) -> Any:
            return schedule(sim, when, dispatch(callback), *args)

        return traced_schedule

    def _receptions(self, phy_rx_end: Callable) -> Callable:
        """``DcfMac.phy_rx_end`` in a ``mac`` span, counting every upcall
        and the ones the MAC takes as its own: decoded 802.11 frames
        addressed to it or to a group."""
        from repro.mac.frames import Dot11Frame
        counts = self.counts

        def receive(mac: Any, payload: Any, success: bool, *args: Any
                    ) -> None:
            counts["phy.transceiver.receptions"] += 1
            if success and isinstance(payload, Dot11Frame):
                addr1 = payload.addr1
                if addr1 == mac.address or addr1.is_multicast:
                    counts["mac.rx_useful"] += 1
            phy_rx_end(mac, payload, success, *args)

        return self.wrap(receive, "mac")

    def _watch_instances(self, cls: type,
                         snapshot: Callable[[Any], Dict[str, float]]) -> None:
        init = cls.__dict__["__init__"]
        tracer = self

        def watched(self_: Any, *args: Any, **kwargs: Any) -> None:
            init(self_, *args, **kwargs)
            tracer.watch(self_, snapshot)

        cls.__init__ = watched

    def write_spans(self, path: "os.PathLike[str]") -> None:
        """Dump every span as ``name<TAB>start<TAB>end<TAB>parent``
        (``parent`` is a row number, -1 for roots)."""
        names = self.names
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\n")
            for row in zip(self.name, self.start, self.end, self.parent):
                out.write(f"{names[row[0]]}\t{row[1]!r}\t{row[2]!r}\t"
                          f"{row[3]}\n")

    # --- reduction --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        starts, ends, names, parents = (self.start, self.end, self.name,
                                        self.parent)
        count = len(starts)
        child = array("d", bytes(8 * count))
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        totals = [0.0] * len(self.names)
        for index in range(count):
            totals[names[index]] += ends[index] - starts[index] - child[index]
        return {name: totals[ident] for ident, name in enumerate(self.names)}

    def inclusive_times(self) -> Dict[str, float]:
        """Seconds per span name, counting only outermost spans of a name
        (nested spans of the same name are already inside)."""
        starts, ends, names, parents = (self.start, self.end, self.name,
                                        self.parent)
        totals = [0.0] * len(self.names)
        for index in range(len(starts)):
            parent = parents[index]
            if parent < 0 or names[parent] != names[index]:
                totals[names[index]] += ends[index] - starts[index]
        return {name: totals[ident] for ident, name in enumerate(self.names)}

    def job_build_seconds(self) -> float:
        """Per ``run_job`` span, the time from its start to the start of
        the first ``Simulator.run`` inside it; summed over jobs."""
        job_id = self._ids.get("campaign.job")
        if job_id is None:
            return 0.0
        starts, names, parents = self.start, self.name, self.parent
        first: Dict[int, float] = {}
        for index in range(len(starts)):
            if names[index] != self._run_id:
                continue
            ancestor = parents[index]
            while ancestor >= 0 and names[ancestor] != job_id:
                ancestor = parents[ancestor]
            if ancestor >= 0 and ancestor not in first:
                first[ancestor] = starts[index]
        return sum(begin - starts[job] for job, begin in first.items())


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
