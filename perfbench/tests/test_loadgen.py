"""Percentiles with failures as misses; the load generators on a fake clock."""

import math

import pytest

from loadgen import closed_loop, open_loop, percentile


class FakeClock:
    """CPU time moves only while the code under test serves."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeWall:
    """Wall time moves only when the generator sleeps, late by
    ``oversleep`` each time."""

    def __init__(self, oversleep: float = 0.0):
        self.now = 0.0
        self.oversleep = oversleep
        self.slept = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds + self.oversleep


def drive(dispatch, queries, rate, clock, wall=None, **kwargs):
    wall = wall or FakeWall()
    return open_loop(dispatch, queries, rate, clock=clock, sleep=wall.sleep,
                     wall=wall, **kwargs)


def test_percentile_nearest_rank():
    values = [float(x) for x in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0


def test_failures_count_as_misses():
    served = [float(x) for x in range(1, 99)]  # 98 answered queries
    # Two failures out of 100: the 99th-percentile query is a miss.
    assert percentile(served, 99, failed=2) == math.inf
    assert percentile(served, 98, failed=2) == 98.0
    # The failures push the median up by one rank, not down.
    assert percentile(served, 50, failed=2) == 50.0
    assert percentile(served, 50, failed=0) == 49.0
    assert percentile([], 50, failed=1) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_open_loop_times_queries_from_when_they_were_due():
    clock = FakeClock()
    served = []

    def dispatch(batch):
        served.append(list(batch))
        clock.now += 0.025 if len(served) == 1 else 0.001
        return [True] * len(batch)

    # 100 queries/s: query i is due at 10 ms * i.
    wall = FakeWall()
    result = drive(dispatch, list(range(6)), 100.0, clock, wall,
                   max_batch=64)
    # The first query stalls the server 25 ms, so queries 1 and 2 (due at
    # 10 and 20 ms) queue behind it and go out together at 25 ms.
    assert served[:2] == [[0], [1, 2]]
    assert result.latencies_ms[0] == pytest.approx(25.0)
    assert result.latencies_ms[1] == pytest.approx(16.0)  # due 10, done 26
    assert result.latencies_ms[2] == pytest.approx(6.0)   # due 20, done 26
    assert result.queue_wait_ms[:3] == pytest.approx([0.0, 15.0, 5.0])
    # Later queries arrive to an idle server: only the 1 ms service.
    assert result.latencies_ms[3:] == pytest.approx([1.0, 1.0, 1.0])
    assert result.failed == 0
    # The pass ends with the last query, due at 50 ms and served in 1 ms;
    # the idle gaps before queries 3, 4 and 5 were slept for real.
    assert result.elapsed_s == pytest.approx(0.051)
    assert wall.slept == pytest.approx([0.004, 0.009, 0.009])
    assert result.gen_late_ms == pytest.approx([0.0, 0.0, 0.0])


def test_generator_lateness_is_reported_but_not_charged():
    clock = FakeClock()

    def dispatch(batch):
        clock.now += 0.001
        return [True] * len(batch)

    wall = FakeWall(oversleep=0.002)
    result = drive(dispatch, list(range(4)), 100.0, clock, wall)
    # Every real sleep woke 2 ms late; the schedule runs on the server's
    # clock, so no query pays for the generator's lateness.
    assert result.gen_late_ms == pytest.approx([2.0, 2.0, 2.0])
    assert result.latencies_ms == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_a_hook_stalls_the_queries_due_behind_it():
    clock = FakeClock()

    def dispatch(batch):
        clock.now += 0.001
        return [True] * len(batch)

    def reload():
        clock.now += 0.030

    result = drive(dispatch, list(range(8)), 100.0, clock,
                   hooks={2: reload})
    # Query 2 is due at 20 ms; the 30 ms reload runs first, so queries
    # 2-5 (due 20-50 ms) go out together at 50 ms and finish at 51 ms.
    assert result.latencies_ms == pytest.approx(
        [1.0, 1.0, 31.0, 21.0, 11.0, 1.0, 1.0, 1.0])
    assert percentile(result.latencies_ms, 99) == pytest.approx(31.0)


def test_open_loop_caps_batches_and_counts_failures():
    clock = FakeClock()
    sizes = []

    def dispatch(batch):
        sizes.append(len(batch))
        clock.now += 0.050
        if 5 in batch:
            raise RuntimeError("server error")
        return [q != 3 for q in batch]

    result = drive(dispatch, list(range(10)), 1000.0, clock, max_batch=4)
    assert max(sizes) == 4
    assert sum(sizes) == 10
    # Query 3 answered wrongly; the batch holding 5 failed as a whole.
    assert result.failed == 1 + sizes[1]
    assert len(result.latencies_ms) == 10 - result.failed


def test_hooks_run_once_at_their_index_and_split_batches():
    clock = FakeClock()
    batches, fired = [], []

    def dispatch(batch):
        batches.append(list(batch))
        clock.now += 0.001
        return [True] * len(batch)

    thinks = []
    closed = closed_loop(dispatch, list(range(10)), batch_size=4,
                         hooks={5: lambda: fired.append(len(batches))},
                         clock=clock, sleep=thinks.append)
    assert batches == [[0, 1, 2, 3], [4], [5, 6, 7, 8], [9]]
    assert fired == [2]
    # The caller thinks as long as each batch took, off the CPU clock.
    assert thinks == pytest.approx([0.001] * 4)
    assert closed.qps == pytest.approx(10 / 0.004)
