"""Load generators and latency statistics for the serve phases.

Two load generators feed one caller's queries to a dispatch function:

* :func:`closed_loop` sends the next micro-batch only after the previous
  one returned -- capacity with one caller.  The caller thinks for as
  long as the last batch took before it sends the next, so the server
  runs at half duty.  On a shared 2-core Xeon VM, back-to-back load ran
  the CPU at a boosted speed that wandered by 20% from one second to the
  next, and halved load did not (the spread of capacity over repeated
  passes fell from 16% to 8%).
* :func:`open_loop` sends on a fixed schedule, query ``i`` being due at
  ``i / rate`` whatever happened before it.  Each dispatch takes every
  query already due, up to ``max_batch``.  A query's latency runs from
  when it was *due*, so a stall also counts against the queries that
  queued behind it.

Both run on the serving thread's CPU clock (``time.thread_time``), not
the wall clock.  On a shared virtual machine the host deschedules the
vCPU for whole 4 ms ticks, at a rate that changes from minute to minute.
On the wall clock those stalls, not the program, set every tail
percentile, while the thread's CPU clock does not advance during them.
The open loop therefore keeps its schedule on a virtual clock that
advances by the CPU time of each call and, while the server is idle, by
the gap to the next due time.  The gap is also slept for real, so the
server sees the offered load's real duty cycle (sustained load runs a
shared VM's CPU at a different and less steady speed than bursts do).
Queueing, batching and a stall the program causes itself -- a hot reload
-- all count; host preemption does not.  How late the generator woke
from each real sleep is reported apart, as ``gen_late_ms``.

``dispatch(batch)`` returns one ``bool`` per query (answered correctly
and finitely or not); an exception fails the whole batch.  ``hooks`` maps
a query index to a callable run before that query is dispatched, on the
same caller and the same clock (a hot reload at the midpoint); batches
never straddle a hook index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


def percentile(latencies_ms, q: float, failed: int = 0) -> float:
    """Nearest-rank ``q``-th percentile, each failed query a miss.

    A failed or refused query never met any deadline, so it enters the
    sample as ``+inf``: with more than ``(100 - q)%`` of the sample
    failing, the percentile itself is infinite.
    """
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    values = sorted(latencies_ms)
    values += [math.inf] * failed
    if not values:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(q / 100.0 * len(values))
    return values[max(rank, 1) - 1]


@dataclass
class PassResult:
    """What one pass measured."""

    n_queries: int
    #: Seconds of the pass on the pass's clock, hooks included.
    elapsed_s: float
    #: Due-to-completion latency of every query that succeeded.
    latencies_ms: list = field(default_factory=list)
    failed: int = 0
    #: Due-to-dispatch wait of every query (open loop only).
    queue_wait_ms: list = field(default_factory=list)
    #: How late the generator woke from each real sleep (open loop only).
    gen_late_ms: list = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.n_queries / self.elapsed_s


def _run_batch(dispatch, batch) -> list[bool]:
    try:
        oks = list(dispatch(batch))
    except Exception:  # noqa: BLE001 - a failed batch is counted, not fatal
        return [False] * len(batch)
    if len(oks) != len(batch):
        return [False] * len(batch)
    return oks


def _next_stop(i: int, n: int, hooks: dict) -> int:
    return min([n] + [h for h in hooks if h > i])


def closed_loop(dispatch, queries, batch_size: int = 64, hooks=None,
                clock=time.thread_time, sleep=time.sleep) -> PassResult:
    """One caller, micro-batches of ``batch_size``, each followed by a
    think time as long as the batch took."""
    hooks = dict(hooks or {})
    n = len(queries)
    result = PassResult(n_queries=n, elapsed_s=0.0)
    start = clock()
    i = 0
    while i < n:
        if i in hooks:
            hooks[i]()
        j = min(i + batch_size, _next_stop(i, n, hooks))
        sent = clock()
        oks = _run_batch(dispatch, queries[i:j])
        done = clock()
        for ok in oks:
            if ok:
                result.latencies_ms.append((done - sent) * 1e3)
            else:
                result.failed += 1
        i = j
        sleep(done - sent)
    # The think time is slept, so it does not advance the CPU clock.
    result.elapsed_s = clock() - start
    return result


def open_loop(dispatch, queries, rate: float, max_batch: int = 64,
              hooks=None, clock=time.thread_time, sleep=time.sleep,
              wall=time.perf_counter) -> PassResult:
    """Fixed offered ``rate`` (queries/s), timed from each due time."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    hooks = dict(hooks or {})
    n = len(queries)
    interval = 1.0 / rate
    result = PassResult(n_queries=n, elapsed_s=0.0)
    now = 0.0  # the server's virtual clock, in seconds from the first due
    i = 0
    while i < n:
        due = i * interval
        if now < due:  # idle until the next query is due
            target = wall() + (due - now)
            sleep(due - now)
            result.gen_late_ms.append(max(0.0, wall() - target) * 1e3)
            now = due
        if i in hooks:
            started = clock()
            hooks[i]()
            now += clock() - started
        due_count = int(now / interval) + 1
        j = max(i + 1, min(i + max_batch, due_count,
                           _next_stop(i, n, hooks)))
        for k in range(i, j):
            result.queue_wait_ms.append((now - k * interval) * 1e3)
        started = clock()
        oks = _run_batch(dispatch, queries[i:j])
        now += clock() - started
        for k, ok in zip(range(i, j), oks):
            if ok:
                result.latencies_ms.append((now - k * interval) * 1e3)
            else:
                result.failed += 1
        i = j
    result.elapsed_s = now
    return result
