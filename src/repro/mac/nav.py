"""Network Allocation Vector — virtual carrier sensing.

Every 802.11 frame's duration field announces how long the remainder of
its frame exchange will occupy the medium.  Stations that overhear a
frame *not addressed to them* set their NAV accordingly and treat the
medium as busy until it expires, even if the air goes quiet — this is
what protects an ACK (or a CTS-reserved data frame) from a station that
cannot hear the other end of the exchange.

The NAV only ever moves forward: a shorter overheard duration never
truncates a longer reservation already in place.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.engine import Simulator, Timer


class Nav:
    """Per-station NAV timer with an expiry callback.

    Every overheard reservation extends the NAV and re-anchors the
    expiry, so the timer churns on every overheard frame in a busy
    cell; it therefore rides on one reusable
    :class:`~repro.core.engine.Timer` (re-anchoring bumps its version
    instead of allocating a fresh event per update).
    """

    __slots__ = ("_sim", "_until", "_on_expire", "_timer")

    def __init__(self, sim: Simulator,
                 on_expire: Optional[Callable[[], None]] = None):
        self._sim = sim
        self._until = 0.0
        self._on_expire = on_expire
        self._timer = Timer(sim, self._fire)

    @property
    def busy(self) -> bool:
        """True while the NAV reservation is in the future."""
        return self._sim._now < self._until

    @property
    def until(self) -> float:
        return self._until

    def set_until(self, time: float) -> None:
        """Extend the NAV to ``time`` (ignored if it would shorten it)."""
        if time <= self._until:
            return
        self._until = time
        if self._on_expire is not None:
            # Arm at now + max(time - now, 0.0), not at ``time``: the
            # round trip can differ from ``time`` in the last ulp, and
            # seeded runs depend on the historical deadline.
            now = self._sim._now
            delay = time - now
            self._timer.schedule_at(now + (delay if delay > 0.0 else 0.0))

    def set_duration(self, duration: float) -> None:
        """Extend the NAV ``duration`` seconds from now."""
        self.set_until(self._sim._now + duration)

    def clear(self) -> None:
        """Cancel the reservation (e.g. CF-End, or test teardown)."""
        self._until = 0.0
        self._timer.cancel()

    def _fire(self) -> None:
        if not self.busy and self._on_expire is not None:
            self._on_expire()
