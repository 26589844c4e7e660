"""Deterministic discrete-event core: simulated clock, action scheduler and
seeded named random streams.

Simulated time is an integer count of seconds since day-0 midnight. Pending
actions are dispatched strictly in ``(fire_at, seq)`` order, where ``seq`` is
the insertion counter, so reruns with the same scenario and seed replay the
exact same trace.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Any, Callable, Optional

import numpy as np

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400

SimTime = int


def hms(hours: int, minutes: int = 0, seconds: int = 0) -> SimTime:
    """Seconds since midnight for a clock reading."""
    return hours * SECONDS_PER_HOUR + minutes * SECONDS_PER_MINUTE + seconds


def parse_clock(text: str) -> SimTime:
    """Parse ``"H:MM"`` or ``"H:MM:SS"`` into seconds-of-day."""
    parts = text.strip().split(":")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
        raise ValueError(f"bad clock string: {text!r}")
    h, m = int(parts[0]), int(parts[1])
    s = int(parts[2]) if len(parts) == 3 else 0
    if m >= 60 or s >= 60:
        raise ValueError(f"bad clock string: {text!r}")
    return hms(h, m, s)


class PastTimeError(ValueError):
    """Raised when an action is scheduled before the current clock."""


@dataclass(frozen=True)
class TimedAction:
    fire_at: SimTime
    actor: str
    kind: str
    payload: Any
    seq: int


class EventLog:
    """Line-delimited structured log of everything the scheduler dispatched.

    One JSON record per dispatched action plus any domain records the model
    appends, in chronological order. Bytes are stable for a given run, which
    is what the replay oracle and the determinism checks compare.
    """

    def __init__(self, path: str):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "w")
        # (actor, kind) -> the encoded rest of a data-free record after "t"
        self._tails: dict[tuple[str, str], str] = {}

    def append(self, t: SimTime, actor: str, kind: str, **data: Any) -> None:
        if data:
            rec = {"t": t, "actor": actor, "kind": kind, **data}
            self._fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            return
        # the scheduler's own records: the bytes json.dumps would write, with
        # the two names encoded once per (actor, kind)
        tail = self._tails.get((actor, kind))
        if tail is None:
            tail = self._tails[(actor, kind)] = (
                json.dumps({"actor": actor, "kind": kind}, separators=(",", ":"))[1:])
        self._fh.write(f'{{"t":{t},{tail}\n')

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Scheduler:
    """Priority-queue action dispatcher with a monotone integer clock."""

    def __init__(self, log: Optional[EventLog] = None, start: SimTime = 0):
        self.now: SimTime = start
        self.log = log
        self._seq = 0
        self._heap: list[tuple[SimTime, int, TimedAction]] = []
        self.dispatched = 0

    def schedule(self, fire_at: SimTime, actor: str, kind: str, payload: Any = None) -> int:
        if fire_at < self.now:
            raise PastTimeError(f"cannot schedule {kind!r} at t={fire_at} (now t={self.now})")
        action = TimedAction(fire_at, actor, kind, payload, self._seq)
        heappush(self._heap, (fire_at, action.seq, action))
        self._seq += 1
        return action.seq

    def run_until(self, t_end: SimTime, handler: Callable[[TimedAction], None]) -> None:
        """Dispatch every action with ``fire_at <= t_end`` and land on ``t_end``."""
        if t_end < self.now:
            raise PastTimeError(f"cannot run backwards to t={t_end} (now t={self.now})")
        count = 0
        while self._heap and self._heap[0][0] <= t_end:
            _, _, action = heappop(self._heap)
            self.now = action.fire_at
            if self.log is not None:
                self.log.append(action.fire_at, action.actor, action.kind)
            handler(action)
            count += 1
        self.now = t_end
        self.dispatched += count


# 64-bit mixing (splitmix64) used for order-independent keyed draws. The
# numpy variants below must produce bit-identical output, so any change here
# has to be mirrored there.
_U64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _U64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def mix64(*values: int) -> int:
    """Hash a tuple of integers into a well-mixed 64-bit value."""
    h = 0x8445D61A4E774912
    for v in values:
        h = splitmix64(h ^ (v & _U64))
    return h


def _np_splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _np_mix_step(h: np.ndarray, value: np.ndarray | int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _np_splitmix64(h ^ np.uint64(value) if np.isscalar(value) else h ^ value)


@lru_cache(maxsize=None)
def _name_key(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


class RngStreams:
    """Named, independently seeded random streams.

    Each stream is derived from ``(global seed, stream name)`` only, so adding
    draws to one stream never perturbs another. ``keyed_uniform_batch``
    gives stateless draws addressed by integers (human id, tick, ...), which
    makes each value independent of dispatch order as well.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def generator(self, name: str) -> np.random.Generator:
        gen = self._cache.get(name)
        if gen is None:
            ss = np.random.SeedSequence(entropy=(self.seed, _name_key(name)))
            gen = np.random.default_rng(ss)
            self._cache[name] = gen
        return gen


def keyed_uniform_batch(streams: RngStreams, name: str, fixed_prefix: tuple[int, ...],
                        varying: np.ndarray, suffix: tuple[int, ...] = ()) -> np.ndarray:
    """Vector of keyed uniforms, one for the key ``(*fixed_prefix, v,
    *suffix)`` of each v in a 1-D ``varying``. A 2-D ``varying`` holds one
    row per varying key position: column j draws the key ``(*fixed_prefix,
    *varying[:, j], *suffix)``. A key's draw is the top 53 bits of
    ``mix64(seed, name key, *key)``, the same in any batch."""
    prefix = mix64(streams.seed, _name_key(name), *fixed_prefix)
    rows = np.atleast_2d(varying)
    h = np.full(rows.shape[1:], prefix, dtype=np.uint64)
    for row in rows:
        h = _np_mix_step(h, row.astype(np.uint64))
    for v in suffix:
        h = _np_mix_step(h, v)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
