"""Miss-status holding registers (MSHRs).

Table I gives every cache level 64 MSHRs.  MSHRs bound the number of
outstanding misses: a miss that finds all registers busy must wait for the
earliest outstanding fill to complete before it can even be issued to the
next level.  Misses to a line that already has an MSHR allocated merge into
it (secondary misses) and complete with the original fill.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["MSHRFile"]


class MSHRFile:
    """A bounded set of outstanding line fills.

    The timing model is trace-driven rather than globally event-driven, so
    requests may arrive with non-monotonic timestamps; the file keeps
    (line, completion-time) pairs and expires them lazily against each
    request's own clock.  This approximates hardware behaviour well at the
    occupancy levels that matter (full vs not-full).
    """

    def __init__(self, entries: int = 64):
        if entries <= 0:
            raise ValueError("MSHR count must be positive")
        self.entries = entries
        #: line -> completion time of its outstanding fill.
        self._outstanding: Dict[int, int] = {}
        self.primary_misses = 0
        self.secondary_misses = 0
        self.stalls = 0

    def _expire(self, now: int) -> None:
        dead = [line for line, done in self._outstanding.items()
                if done <= now]
        for line in dead:
            del self._outstanding[line]

    def request(self, line: int, now: int, fill_latency: int) -> Tuple[int, int]:
        """Register a miss for ``line`` at time ``now``.

        Returns ``(start_time, completion_time)``: the miss begins at
        ``start_time`` (delayed past ``now`` when the file is full) and the
        line is filled at ``completion_time``.  A secondary miss to an
        already-outstanding line returns the existing completion time.
        """
        self._expire(now)
        existing = self._outstanding.get(line)
        if existing is not None:
            self.secondary_misses += 1
            return now, existing

        start = now
        if len(self._outstanding) >= self.entries:
            # Wait for the earliest outstanding fill to free a register.
            self.stalls += 1
            start = min(self._outstanding.values())
            self._expire(start)
            # The expiry above is guaranteed to free at least one slot.
        completion = start + fill_latency
        self._outstanding[line] = completion
        self.primary_misses += 1
        return start, completion

    @property
    def occupancy(self) -> int:
        return len(self._outstanding)

    def reset(self) -> None:
        self._outstanding.clear()
        self.primary_misses = 0
        self.secondary_misses = 0
        self.stalls = 0
