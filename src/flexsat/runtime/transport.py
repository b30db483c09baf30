"""Message transport: one event loop, on a simulated clock or the wall clock.

Every PE of a run, solvers included, lives on the thread that runs the
loop and sees the outside world through a Context (now_us/send/set_timer/
log), so the actor code is identical in --sim and --real runs; they differ
only in the clock and in message latency, which is zero on the wall clock.
Per (src, dst) pair delivery is FIFO in both modes.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from random import Random
from typing import Any, Callable, Optional

from ..util import derive_seed

# Message kinds.
JOB_REQUEST = "JOB_REQUEST"
ADOPT_ACK = "ADOPT_ACK"
JOB_PAYLOAD = "JOB_PAYLOAD"
VOLUME_UPDATE = "VOLUME_UPDATE"
EVENT_REDUCE = "EVENT_REDUCE"
EVENT_BROADCAST = "EVENT_BROADCAST"
CLAUSES_BEGIN = "CLAUSES_BEGIN"
CLAUSES_UP = "CLAUSES_UP"
CLAUSES_BCAST = "CLAUSES_BCAST"
RESULT = "RESULT"
ABORT = "ABORT"
DEMAND_SET = "DEMAND_SET"


@dataclass(slots=True)
class Envelope:
    """One message between PEs.  payload is a kind-specific dict."""

    kind: str
    src: int
    dst: int
    job: Optional[int] = None
    payload: dict = field(default_factory=dict)


def format_time_ms(us: int) -> str:
    """Render integer microseconds as milliseconds with fixed precision."""
    return "%d.%03d" % (us // 1000, us % 1000)


class Trace:
    """Append-only run trace; one line per event."""

    def __init__(self) -> None:
        self._lines: list[str] = []

    def add(self, time_us: int, pe: int, kind: str, job: Optional[int],
            detail: str = "") -> None:
        jobtxt = "-" if job is None else str(job)
        line = "%s %d %s %s" % (format_time_ms(time_us), pe, kind, jobtxt)
        if detail:
            line += " " + detail
        self._lines.append(line)

    def lines(self) -> list[str]:
        return list(self._lines)


_EV_MSG = 0
_EV_TIMER = 1

# Simulated message delay: LATENCY_US plus a uniform draw from [0, JITTER_US].
LATENCY_US = 100
JITTER_US = 50


class SimLoop:
    """Single-threaded discrete-event loop keyed by (time_us, seq)."""

    def __init__(self, seed: int):
        self.now = 0
        self._getrandbits = Random(derive_seed(seed, "sim-latency")).getrandbits
        self._heap: list[tuple[int, int, int, int, Any, Any]] = []
        self._seq = 0
        self._pair_last: dict[tuple[int, int], int] = {}

    def post_message(self, env: Envelope, extra_delay_us: int = 0) -> None:
        # The jitter takes util.below's getrandbits calls, inlined: a draw
        # from [0, JITTER_US], redrawn while above it.
        bits = (JITTER_US + 1).bit_length()
        getrandbits = self._getrandbits
        jitter = getrandbits(bits)
        while jitter > JITTER_US:
            jitter = getrandbits(bits)
        t = self.now + extra_delay_us + LATENCY_US + jitter
        # Clamp to preserve per-pair FIFO despite jitter.
        key = (env.src, env.dst)
        last = self._pair_last.get(key, 0)
        if t < last:
            t = last
        self._pair_last[key] = t
        self._seq = seq = self._seq + 1
        heappush(self._heap, (t, seq, _EV_MSG, env.dst, env, None))

    def post_timer(self, pe: int, delay_us: int, tag: str, data: Any) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay_us, seq, _EV_TIMER, pe, tag, data))

    def run(self, on_message: Callable[[int, Envelope], None],
            on_timer: Callable[[int, str, Any], None],
            should_stop: Callable[[], bool],
            timeout_us: int) -> None:
        heap = self._heap
        while heap:
            if should_stop():
                return
            if heap[0][0] > timeout_us:
                self.now = timeout_us
                return
            t, _seq, ev, pe, a, b = heappop(heap)
            self.now = t
            if ev == _EV_MSG:
                on_message(pe, a)
            else:
                on_timer(pe, a, b)
        self.now = min(self.now, timeout_us)


class WallLoop:
    """SimLoop's shape on the wall clock: a timer heap, a heap of solver
    steps (tag "step") and one FIFO inbox for every envelope, which keeps
    each (src, dst) pair FIFO.  A step holds the loop for a whole slice,
    so queued envelopes go first, then due timers, then due steps; with
    none of these, the loop sleeps until the earlier head of the two heaps
    is due or the run times out."""

    def __init__(self) -> None:
        self._start_ns = time.monotonic_ns()
        self._timers: list[tuple[int, int, int, str, Any]] = []
        self._steps: list[tuple[int, int, int, str, Any]] = []
        self._seq = 0
        self.inbox: deque[Envelope] = deque()

    @property
    def now(self) -> int:
        return (time.monotonic_ns() - self._start_ns) // 1000

    def post_timer(self, pe: int, delay_us: int, tag: str, data: Any) -> None:
        self._seq += 1
        heappush(self._steps if tag == "step" else self._timers,
                 (self.now + delay_us, self._seq, pe, tag, data))

    def run(self, on_message: Callable[[int, Envelope], None],
            on_timer: Callable[[int, str, Any], None],
            should_stop: Callable[[], bool],
            timeout_us: int) -> None:
        timers, steps, inbox = self._timers, self._steps, self.inbox
        while not should_stop():
            now = self.now
            if now >= timeout_us:
                return
            if inbox:
                env = inbox.popleft()
                on_message(env.dst, env)
            elif timers and timers[0][0] <= now:
                _t, _seq, pe, tag, data = heappop(timers)
                on_timer(pe, tag, data)
            elif steps and steps[0][0] <= now:
                _t, _seq, pe, tag, data = heappop(steps)
                on_timer(pe, tag, data)
            else:
                until = min([timeout_us] + [h[0][0] for h in (timers, steps) if h])
                time.sleep((until - now) / 1e6)


class Context:
    """What a PE actor sees of the outside world: its loop's clock, timers
    and messages, and the run's trace."""

    def __init__(self, pe_id: int, rng: Random, loop: SimLoop | WallLoop,
                 trace: Trace):
        self.pe_id = pe_id
        self.rng = rng
        self._loop = loop
        self._trace = trace

    def now_us(self) -> int:
        return self._loop.now

    def send(self, env: Envelope, extra_delay_us: int = 0) -> None:
        self._loop.post_message(env, extra_delay_us)

    def set_timer(self, delay_us: int, tag: str, data: Any = None) -> None:
        self._loop.post_timer(self.pe_id, delay_us, tag, data)

    def log(self, kind: str, job: Optional[int], detail: str = "",
            at_us: Optional[int] = None) -> None:
        """Trace one event, stamped now unless at_us gives its time."""
        self._trace.add(self._loop.now if at_us is None else at_us,
                        self.pe_id, kind, job, detail)


class RealContext(Context):
    """A Context on a WallLoop, whose messages take no time."""

    def send(self, env: Envelope, extra_delay_us: int = 0) -> None:
        # Delivery takes as long as the inbox does; extra_delay is a
        # simulation-only refinement and is ignored here.
        self._loop.inbox.append(env)
