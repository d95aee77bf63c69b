"""The flattened CCA predicates agree with ``Radio.cca_busy()``.

The per-arrival hot path carries hand-flattened copies of the
clear-channel assessment: the tails of ``arrival_begins`` /
``arrival_ends`` (and their fast-mode twins), the tail of
``_reception_complete``, ``Radio._update_cca``, ``DcfMac._medium_idle``
and the copy inlined in ``DcfMac._maybe_start_ifs``.  This module draws
radio states, arrival tables straddling the CCA threshold, exact and
fast mode and NAV deadlines on both sides of ``now``, and checks every
copy against the reference predicates ``Radio.cca_busy()`` and
``Nav.busy``.

Contention rule encoded here: a sleeping radio senses nothing
(``cca_busy()`` is False) but cannot transmit, so for channel access
SLEEP is never idle.

The per-reception paths (``_try_lock``, ``_try_lock_fast``,
``_reception_complete``) also inline the ``Radio.state`` setter.  Over
drawn step sequences (arrivals that lock, capture or stay energy only,
arrival ends, deadlines, transmissions, jamming, sleep, power loss) the
``on_state_change`` stream must equal the sequence of distinct states
the radio actually took.
"""

import math
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.engine import Simulator
from repro.core.topology import Position
from repro.core.trace import TraceLog
from repro.core.units import dbm_to_watts
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfMac
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio, RadioConfig, RadioState

THRESHOLD = dbm_to_watts(RadioConfig().cca_threshold_dbm)
NOW = 1.0

#: Small and derandomized so tier-1 stays fast and reproducible.
PROFILE = settings(max_examples=100, derandomize=True, deadline=None)

#: Powers on, just below, just above and well around the threshold;
#: halves and thirds make multi-arrival sums land on it too.
powers = st.one_of(
    st.sampled_from([0.0, THRESHOLD / 3, THRESHOLD / 2,
                     math.nextafter(THRESHOLD, 0.0), THRESHOLD,
                     math.nextafter(THRESHOLD, math.inf), 2 * THRESHOLD]),
    st.floats(min_value=0.0, max_value=3 * THRESHOLD))

#: Arrival tables: arbitrary draws, plus tables whose sum is exactly
#: the threshold (k equal binary fractions of it add up exactly).
tables = st.one_of(
    st.lists(powers, min_size=0, max_size=8),
    st.sampled_from([1, 2, 4, 8]).map(lambda k: [THRESHOLD / k] * k))

cases = st.fixed_dictionaries({
    "state": st.sampled_from(list(RadioState)),
    "powers": tables,
    "exact": st.booleans(),
    "nav_offset": st.sampled_from([-1e-3, -1e-9, 0.0, 1e-9, 1e-3]),
})

#: A foreign-PHY mode: its arrivals are energy only, so no drawn
#: arrival can start a reception and change the state under test.
FOREIGN = SimpleNamespace(name="foreign",
                          modulation=DOT11B.modes[0].modulation)


class _Transmission:
    """The fields of a medium transmission the radio reads."""

    def __init__(self, mode=FOREIGN):
        self.mode = mode
        self.duration = 1e-3
        self.payload = None
        self.size_bits = 800


def _station(case):
    """A DCF station whose radio holds exactly the drawn state."""
    sim = Simulator(seed=1, trace=TraceLog(enabled=False))
    sim._now = NOW
    medium = Medium(sim, FixedLoss(50.0), exact=case["exact"])
    radio = Radio("r", medium, DOT11B, Position(0, 0, 0))
    mac = DcfMac(sim, radio, allocate_address())
    arrivals = {_Transmission(): power for power in case["powers"]}
    radio._arrivals = arrivals
    radio._incident_watts = sum(arrivals.values())
    state = case["state"]
    radio._state = state
    if state is RadioState.RX:
        locked = next(iter(arrivals), _Transmission(DOT11B.modes[0]))
        radio._locked = locked
        radio._locked_power = arrivals.get(locked, THRESHOLD)
        radio._locked_tracker = radio._tracker.reset(
            radio._locked_power, radio._noise_watts, NOW)
    radio._cca_busy = radio.cca_busy()
    mac.nav._until = NOW + case["nav_offset"]
    edges = []
    radio.on_cca_busy = lambda: edges.append(True)
    radio.on_cca_idle = lambda: edges.append(False)
    return sim, radio, mac, edges


def _reference_idle(radio, mac):
    return (radio._state is not RadioState.SLEEP
            and not radio.cca_busy() and not mac.nav.busy)


def _assert_cca_settled(radio, edges, before):
    """``_cca_busy`` matches ``cca_busy()``, and exactly the edges of a
    change were delivered."""
    busy = radio.cca_busy()
    assert radio._cca_busy == busy
    assert edges == ([] if busy == before else [busy])


@PROFILE
@given(cases)
def test_medium_idle_matches_reference(case):
    _sim, radio, mac, _edges = _station(case)
    assert mac._medium_idle() == _reference_idle(radio, mac)


@PROFILE
@given(cases)
def test_maybe_start_ifs_arms_exactly_when_idle(case):
    _sim, radio, mac, _edges = _station(case)
    mac._current = object()  # contending: a frame is waiting for access
    mac._maybe_start_ifs()
    assert mac._ifs.armed == _reference_idle(radio, mac)


@PROFILE
@given(cases, st.booleans())
def test_update_cca_matches_cca_busy(case, stale):
    _sim, radio, _mac, edges = _station(case)
    before = radio._cca_busy = radio.cca_busy() != stale
    radio._update_cca()
    _assert_cca_settled(radio, edges, before)


@PROFILE
@given(cases)
def test_arrival_begins_tail_matches_cca_busy(case):
    # The table's last power is the arriving one.
    table = case["powers"] or [0.0]
    _sim, radio, _mac, edges = _station(dict(case, powers=table[:-1]))
    power = table[-1]
    before = radio._cca_busy
    begins = radio.arrival_begins if radio._exact \
        else radio.arrival_begins_fast
    begins(_Transmission(), power)
    if radio._state is RadioState.SLEEP:
        # A sleeping radio only tracks the arrival: no CCA edge at all.
        assert edges == [] and radio._cca_busy is False
    else:
        _assert_cca_settled(radio, edges, before)


@PROFILE
@given(cases, st.integers(min_value=0, max_value=7))
def test_arrival_ends_tail_matches_cca_busy(case, index):
    _sim, radio, _mac, edges = _station(case)
    before = radio._cca_busy
    table = list(radio._arrivals)
    leaving = table[index % len(table)] if table else _Transmission()
    ends = radio.arrival_ends if radio._exact else radio.arrival_ends_fast
    ends(leaving)
    _assert_cca_settled(radio, edges, before)


@PROFILE
@given(cases)
def test_reception_complete_tail_matches_cca_busy(case):
    case = dict(case, state=RadioState.RX)
    _sim, radio, _mac, edges = _station(case)
    before = radio._cca_busy
    received = []
    radio.on_rx_end = lambda *args: received.append(args)
    radio._reception_complete()
    assert radio._state is RadioState.IDLE and len(received) == 1
    _assert_cca_settled(radio, edges, before)


class _TappedRadio(Radio):
    """A radio that records every write to its ``_state`` slot."""

    __slots__ = ("writes",)
    _slot = Radio._state

    def __init__(self, *args):
        self.writes = []
        super().__init__(*args)

    @property
    def _state(self):
        return _TappedRadio._slot.__get__(self)

    @_state.setter
    def _state(self, value):
        self.writes.append(value.value)
        _TappedRadio._slot.__set__(self, value)


#: Arrival powers as multiples of the preamble-detection floor: below it,
#: just above it, and steps far enough apart (> 10 dB) to capture.
MULTIPLES = [0.5, 2.0, 30.0, 1000.0]

steps = st.lists(st.one_of(
    st.tuples(st.just("begin"), st.booleans(), st.sampled_from(MULTIPLES)),
    st.tuples(st.just("end"), st.integers(min_value=0, max_value=7)),
    st.sampled_from([("advance",), ("transmit",), ("jam",), ("sleep",),
                     ("wake",), ("power-off",)])), max_size=16)


def _step(sim, radio, step):
    kind = step[0]
    if kind == "begin":
        mode = DOT11B.modes[0] if step[1] else FOREIGN
        begins = radio.arrival_begins if radio._exact \
            else radio.arrival_begins_fast
        begins(_Transmission(mode), step[2] * radio._preamble_floor_watts)
    elif kind == "end":
        table = list(radio._arrivals)
        if table:
            ends = radio.arrival_ends if radio._exact \
                else radio.arrival_ends_fast
            ends(table[step[1] % len(table)])
    elif kind == "advance":
        sim.run(max_events=1)   # reception deadline or end of TX
    elif kind == "transmit":
        if radio.state not in (RadioState.TX, RadioState.SLEEP):
            radio.transmit(None, 800, DOT11B.modes[0])
    elif kind == "jam":
        if radio.state not in (RadioState.TX, RadioState.SLEEP):
            radio.transmit_energy(1e-3)
    elif kind == "sleep":
        if radio.state is not RadioState.TX:
            radio.sleep()
    elif kind == "wake":
        radio.wake()
    else:
        radio.power_off()


@PROFILE
@given(steps, st.booleans())
def test_state_change_stream_matches_distinct_states(sequence, exact):
    sim = Simulator(seed=1, trace=TraceLog(enabled=False))
    medium = Medium(sim, FixedLoss(50.0), exact=exact)
    radio = _TappedRadio("r", medium, DOT11B, Position(0, 0, 0))
    stream = []
    radio.on_state_change = stream.append
    for step in sequence:
        _step(sim, radio, step)
    sim.run()
    distinct = [state for previous, state
                in zip(radio.writes, radio.writes[1:]) if state != previous]
    assert stream == distinct
    assert radio.writes[-1] == radio.state.value
