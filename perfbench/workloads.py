"""The four benchmark workloads, built only from the public ``repro`` API.

Each workload is a class with three phases the worker times separately:

* ``build()`` -- topology construction (or, for ``campaign_sweep``,
  spec validation and grid expansion); the part of ``setup_s`` after
  the imports,
* ``run()`` -- the measured run phase (``run_s``),
* ``outcomes()`` -- ``{operation: fingerprint}`` plus a list of sanity
  problems per operation.  Fingerprints hold only ints and strings and
  are pure functions of the seed and size; they never include the
  kernel's event count, so a change that removes events (and nothing
  else) keeps every fingerprint.

``SIZES`` scales every horizon: ``full`` is the measured size, ``tiny``
is the smoke-test size.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
from typing import Any, Dict, List, Tuple

from repro import scenarios
from repro.adversary.emitters import PeriodicJammer
from repro.campaign import run_campaign
from repro.campaign.grid import expand_grid
from repro.campaign.spec import validate_spec
from repro.core import Position, Simulator
from repro.core.trace import TraceLog
from repro.faults import ChaosMonkey, FaultLog
from repro.mac.addresses import MacAddress, allocate_address, reset_allocator
from repro.mac.dcf import DcfConfig, DcfMac, MacListener
from repro.mac.rate_adapt import fixed_rate_factory
from repro.mobility.models import LinearMobility, RandomWaypoint
from repro.net.roaming import RoamingPolicy
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.routing import DsdvRouting
from repro.traffic.generators import CbrSource
from repro.traffic.sink import TrafficSink

#: Horizon multipliers.  ``tiny`` keeps every code path of a workload
#: alive (mobility ticks, chaos strikes, roams, campaign resume) at a
#: few percent of the cost.
SIZES = {"full": 1.0, "tiny": 0.08}

Outcomes = Tuple[Dict[str, Dict[str, Any]], Dict[str, List[str]]]


def _simulator(seed: int) -> Simulator:
    """Production posture: exact profile, default kernel, tracing off."""
    return Simulator(seed=seed, trace=TraceLog(enabled=False))


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


class _Refill(MacListener):
    """Keeps a MAC's queue non-empty: saturated uplink."""

    def __init__(self, mac: DcfMac, destination: Any, payload: bytes):
        self.mac = mac
        self.destination = destination
        self.payload = payload

    def prime(self, depth: int = 4) -> None:
        for _ in range(depth):
            self.mac.send(self.destination, self.payload)

    def mac_tx_complete(self, msdu: Any, success: bool) -> None:
        self.mac.send(self.destination, self.payload)


class _Count(MacListener):
    def __init__(self) -> None:
        self.bytes = 0
        self.frames = 0

    def mac_receive(self, source: Any, destination: Any, payload: bytes,
                    meta: Dict[str, Any]) -> None:
        self.bytes += len(payload)
        self.frames += 1


class _SaturatedCell:
    """One 802.11b cell: ``stations`` saturated senders, one receiver,
    800-byte MSDUs, static topology, optional energy-emitter field."""

    PAYLOAD = 800

    def __init__(self, seed: int, stations: int, horizon: float,
                 emitter_field: bool):
        reset_allocator()
        self.sim = _simulator(seed)
        self.horizon = horizon
        medium = Medium(self.sim, FixedLoss(50.0))
        config = DcfConfig()
        factory = fixed_rate_factory("CCK-11")
        self.receiver = DcfMac(
            self.sim, Radio("rx", medium, DOT11B, Position(0, 0, 0)),
            allocate_address(), config=config, rate_factory=factory)
        self.counter = _Count()
        self.receiver.listener = self.counter
        payload = bytes(self.PAYLOAD)
        self.senders = []
        for index in range(stations):
            radio = Radio(f"tx{index}", medium, DOT11B,
                          Position(1.0 + index * 0.1, 0, 0))
            mac = DcfMac(self.sim, radio, allocate_address(), config=config,
                         rate_factory=factory)
            refill = _Refill(mac, self.receiver.address, payload)
            mac.listener = refill
            refill.prime()
            self.senders.append(mac)
        self.emitters = []
        if emitter_field:
            self._add_emitters(medium)

    def _add_emitters(self, medium: Medium) -> None:
        # FixedLoss(50): every emitter arrives at power_dbm - 50 at every
        # victim -- -96 dBm (energy only, deepens the arrival table),
        # -75 dBm (CCA busy) and -40 dBm (corrupts receptions).
        sim = self.sim
        tiers = ((20, -46.0, 500e-6, 1500e-6, (30.0, 30.0), "weak"),
                 (4, -25.0, 500e-6, 8e-3, (-30.0, 30.0), "strong"),
                 (2, 10.0, 200e-6, 5e-3, (-30.0, -30.0), "corrupt"))
        for count, power, on_time, period, (x, y), name in tiers:
            for index in range(count):
                phase = (0.5 + index if name == "corrupt" else index) / count
                self.emitters.append(PeriodicJammer(
                    sim, medium,
                    Position(x + (index if x > 0 else -index), y, 0),
                    power_dbm=power, on_time=on_time, period=period,
                    offset=period * phase, name=f"{name}{index}"))
        for emitter in self.emitters:
            emitter.start()

    def run(self) -> None:
        self.sim.run(until=self.horizon)

    def fingerprint(self) -> Dict[str, Any]:
        fp = {
            "rx_frames": self.counter.frames,
            "rx_bytes": self.counter.bytes,
            "ack_timeouts": sum(mac.counters.get("ack_timeouts")
                                for mac in self.senders),
            "rx_corrupt": self.receiver.counters.get("rx_corrupt"),
        }
        if self.emitters:
            fp["bursts"] = sum(emitter.counters.get("bursts")
                               for emitter in self.emitters)
        return fp

    def problems(self) -> List[str]:
        fp = self.fingerprint()
        found = []
        if fp["rx_frames"] <= 0:
            found.append("no frame delivered")
        if fp["rx_bytes"] != fp["rx_frames"] * self.PAYLOAD:
            found.append("delivered bytes != frames x payload")
        if self.emitters and fp["bursts"] <= 0:
            found.append("emitter field never fired")
        return found


class _CellWorkload:
    """A workload made of one :class:`_SaturatedCell` run for 1.4 sim-s."""

    STATIONS = 0
    EMITTER_FIELD = False

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.scale = SIZES[size]

    def build(self) -> None:
        self.cell = _SaturatedCell(self.seed, self.STATIONS,
                                   1.4 * self.scale, self.EMITTER_FIELD)

    def run(self) -> None:
        self.cell.run()

    def events(self) -> int:
        return self.cell.sim.events_executed

    def outcomes(self) -> Outcomes:
        return ({"cell": self.cell.fingerprint()},
                {"cell": self.cell.problems()})


class DenseBss(_CellWorkload):
    """100 saturated stations, one receiver: PHY fan-out and reception."""

    STATIONS = 100


class InterferenceField(_CellWorkload):
    """20 saturated stations under 26 duty-cycled emitters in three
    tiers: deep arrival tables, SINR refreshes, adversary bursts."""

    STATIONS = 20
    EMITTER_FIELD = True


class _MobileGrid:
    """6x6 DSDV grid, four corner-to-corner CBR flows, six interior
    relays on random-waypoint mobility and a chaos storm crashing and
    restarting every other non-corner node."""

    ROWS = COLS = 6
    MOVERS = (7, 10, 14, 21, 25, 28)
    FLOWS = ((0, 35), (35, 0), (5, 30), (30, 5))

    def __init__(self, seed: int, scale: float):
        reset_allocator()
        sim = self.sim = _simulator(seed)
        self.horizon = 4.0 * scale
        grid = self.grid = scenarios.build_mesh_network(
            sim, scenarios.grid_topology(self.ROWS, self.COLS, 30.0),
            DsdvRouting, range_m=40.0)
        grid.start_routing()
        nodes = grid.nodes
        for index in self.MOVERS:
            RandomWaypoint(sim, nodes[index].station, width=150.0,
                           height=150.0, min_speed=2.0, max_speed=6.0,
                           pause=0.3, tick=0.1,
                           rng_name=f"bench.rwp.{index}").start()
        corners = {0, self.COLS - 1, len(nodes) - self.COLS, len(nodes) - 1}
        targets = [node for index, node in enumerate(nodes)
                   if index not in corners and index not in self.MOVERS]
        self.log = FaultLog()
        self.monkey = ChaosMonkey(sim, targets=targets, mean_interval=0.15,
                                  mean_downtime=0.25, name="grid",
                                  log=self.log)
        sim.schedule_at(0.2 * self.horizon, self.monkey.start)
        sim.schedule_at(self.horizon * 0.8, self._end_storm)
        self.flows = []
        for source, destination in self.FLOWS:
            sink = TrafficSink(sim)
            nodes[destination].on_receive(sink)
            cbr = CbrSource(sim, nodes[source].sender(
                nodes[destination].address), packet_bytes=200,
                interval=0.02, start=0.3)
            self.flows.append((f"{source}->{destination}", cbr, sink))

    def _end_storm(self) -> None:
        self.monkey.stop()
        self.monkey.restore_all()

    def run(self) -> None:
        self.sim.run(until=self.horizon)

    def fingerprint(self) -> Dict[str, Any]:
        fp: Dict[str, Any] = {}
        for name, cbr, sink in self.flows:
            fp[f"generated {name}"] = cbr.generated
            fp[f"delivered {name}"] = sink.total_received
        nodes = self.grid.nodes
        fp["forwarded"] = sum(n.counters.get("forwarded") for n in nodes)
        fp["strikes"] = self.monkey.counters.get("strikes")
        fp["fault_log_sha1"] = _sha1(self.log.to_jsonl())
        return fp

    def problems(self) -> List[str]:
        fp = self.fingerprint()
        found = []
        for name, _cbr, _sink in self.flows:
            if fp[f"delivered {name}"] > fp[f"generated {name}"]:
                found.append(f"flow {name} delivered more than generated")
        if sum(fp[f"delivered {name}"] for name, _c, _s in self.flows) <= 0:
            found.append("no mesh packet delivered")
        if self.horizon >= 1.0 and len(self.log) == 0:
            found.append("chaos storm injected no fault")
        return found


class _RoamingEss:
    """4-AP ESS corridor, four walkers bouncing along it on downlink CBR."""

    WALKERS = 4

    def __init__(self, seed: int, scale: float):
        reset_allocator()
        sim = self.sim = _simulator(seed)
        self.horizon = 20.0 * scale
        corridor = scenarios.build_ess(sim, ap_count=4, spacing_m=80.0)
        server = MacAddress.from_string("00:10:20:30:40:50")
        standard = corridor.aps[0].radio.standard
        ds = corridor.ess.ds
        self.walkers = []
        self.sinks = []
        for index in range(self.WALKERS):
            walker = Station(
                sim, corridor.medium, standard,
                Position(5.0 + 70.0 * index, 2.0, 0), name=f"walker{index}",
                roaming_policy=RoamingPolicy(low_snr_threshold_db=28.0,
                                             hysteresis_db=3.0,
                                             min_dwell=0.5))
            walker.associate("repro-ess")
            sink = TrafficSink(sim)
            walker.on_receive(sink)

            def _downlink(payload: bytes, _walker: Station = walker) -> bool:
                ds.inject_from_portal(server, _walker.address, payload)
                return True

            CbrSource(sim, _downlink, packet_bytes=800, interval=0.02,
                      start=0.5)
            end = Position(240.0 if index % 2 == 0 else 0.0, 2.0, 0)
            LinearMobility(sim, walker, end, speed_mps=6.0 + index,
                           bounce=True, tick=0.1).start()
            self.walkers.append(walker)
            self.sinks.append(sink)

    def run(self) -> None:
        self.sim.run(until=self.horizon)

    def fingerprint(self) -> Dict[str, Any]:
        fp: Dict[str, Any] = {}
        for walker, sink in zip(self.walkers, self.sinks):
            fp[f"delivered {walker.name}"] = sink.total_received
            fp[f"bytes {walker.name}"] = sink.total_bytes
            fp[f"roams {walker.name}"] = walker.sta_counters.get("roams")
        return fp

    def problems(self) -> List[str]:
        fp = self.fingerprint()
        found = []
        if sum(fp[f"delivered {w.name}"] for w in self.walkers) <= 0:
            found.append("no downlink packet delivered")
        if self.horizon >= 10.0 and sum(
                fp[f"roams {w.name}"] for w in self.walkers) <= 0:
            found.append("no walker roamed")
        return found


class MobileMesh:
    """Two sub-scenarios where topology changes every 100 ms: routing,
    net, mobility and faults over small fan-outs; plans recompile."""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.scale = SIZES[size]

    def build(self) -> None:
        self.parts = {"grid": _MobileGrid(self.seed, self.scale),
                      "ess": _RoamingEss(self.seed + 1, self.scale)}

    def run(self) -> None:
        for part in self.parts.values():
            part.run()

    def events(self) -> int:
        return sum(part.sim.events_executed for part in self.parts.values())

    def outcomes(self) -> Outcomes:
        return ({name: part.fingerprint()
                 for name, part in self.parts.items()},
                {name: part.problems() for name, part in self.parts.items()})


def campaign_specs(seed: int, scale: float) -> List[Dict[str, Any]]:
    """The two benchmark-owned campaign specs (raw, before validation)."""
    seeds = max(1, round(8 * scale))
    bss = {
        "campaign": {"name": "bench_bss_jamming"},
        "scenario": {"builder": "infrastructure_bss", "horizon": 0.2,
                     "seed": seed, "params": {"stations": 4,
                                              "radius_m": 15.0}},
        "traffic": {"kind": "cbr", "payload_bytes": 400, "interval": 4e-3},
        "adversaries": [{"kind": "periodic_jammer",
                         "position": [2.0, 0.0, 0.0], "power_dbm": 20.0,
                         "period": 2e-3, "on_time": 2e-4}],
        "sweep": {"adversaries.0.on_time": [2e-4, 6e-4, 1e-3, 1.4e-3],
                  "scenario.params.stations": [4, 8]},
        "seeds": {"count": seeds},
    }
    mesh = {
        "campaign": {"name": "bench_mesh_size"},
        "scenario": {"builder": "mesh_grid", "horizon": 0.2,
                     "seed": seed, "params": {"rows": 2, "cols": 3,
                                              "spacing_m": 30.0,
                                              "range_m": 40.0,
                                              "warmup": 0.1}},
        "traffic": {"kind": "cbr", "payload_bytes": 200, "interval": 0.02},
        "sweep": {"scenario.params.cols": [3, 4, 5, 6]},
        "seeds": {"count": seeds},
    }
    return [bss, mesh]


def _row_fingerprint(row: Dict[str, Any]) -> str:
    """SHA-1 of one store row with the kernel's event count left out."""
    row = dict(row)
    row["stats"] = {key: value for key, value in row.get("stats", {}).items()
                    if key != "events"}
    return _sha1(json.dumps(row, sort_keys=True, separators=(",", ":")))


class CampaignSweep:
    """About 100 short jobs from two specs run fresh through the campaign
    pool into a scratch directory, then a resume pass over the result."""

    def __init__(self, seed: int, size: str, workdir: pathlib.Path,
                 jobs: int = 2):
        self.seed = seed
        self.scale = SIZES[size]
        self.workdir = workdir
        self.jobs = jobs

    def build(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.specs = [validate_spec(raw)
                      for raw in campaign_specs(self.seed, self.scale)]
        # Expanding here surfaces grid errors (duplicate jobs) during
        # set-up, as tools/run_campaign.py --list does; run_campaign
        # expands again from the same spec.
        for spec in self.specs:
            expand_grid(spec)

    def run(self) -> None:
        self.fresh = [run_campaign(spec, self.workdir, jobs=self.jobs)
                      for spec in self.specs]
        self.fresh_stores = [result.store_path.read_bytes()
                             for result in self.fresh]
        self.resume()

    def resume(self) -> None:
        """Re-run every campaign over its finished directory: nothing
        may execute again and the store must come out byte-identical."""
        self.resumed = [run_campaign(spec, self.workdir, jobs=self.jobs)
                        for spec in self.specs]

    def events(self) -> int:
        return sum(row["stats"]["events"] for result in self.fresh
                   for row in result.rows if row["status"] == "done")

    def outcomes(self) -> Outcomes:
        fingerprints: Dict[str, Dict[str, Any]] = {}
        problems: Dict[str, List[str]] = {}
        for result in self.fresh:
            for row in result.rows:
                name = f"{result.name}/{row['label']}"
                fingerprints[name] = {"row_sha1": _row_fingerprint(row)}
                problems[name] = ([] if row["status"] == "done"
                                  else [f"job {row['status']}: "
                                        f"{row.get('error', '')}"])
        store: Dict[str, Any] = {}
        found = []
        for result, again, fresh_bytes in zip(self.fresh, self.resumed,
                                              self.fresh_stores):
            store[f"{result.name} rows_sha1"] = _sha1("".join(
                _row_fingerprint(row) for row in result.rows))
            if again.ran != 0 or again.reused != len(result.jobs):
                found.append(f"{result.name}: resume re-ran {again.ran} jobs")
            if again.store_path.read_bytes() != fresh_bytes:
                found.append(f"{result.name}: resumed store differs")
        fingerprints["store"] = store
        problems["store"] = found
        return fingerprints, problems

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "dense_bss": DenseBss,
    "interference_field": InterferenceField,
    "mobile_mesh": MobileMesh,
    "campaign_sweep": CampaignSweep,
}
