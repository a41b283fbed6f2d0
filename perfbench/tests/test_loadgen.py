import threading
import time

import numpy as np
import pytest

from harness.loadgen import (GenerationClock, paced_schedule, run_closed_loop,
                             run_open_loop, split_schedule)


class FakeClient:
    """Answers every request after ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.sent: list[tuple[str, dict]] = []

    def request(self, method, path, body=None):
        self.sent.append((path, body))
        time.sleep(self.delay)
        return 200, {"results": []}


def test_schedule_is_deterministic_per_seed():
    a = paced_schedule(200.0, 500, seed=7)
    b = paced_schedule(200.0, 500, seed=7)
    c = paced_schedule(200.0, 500, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    gaps = np.diff(a)
    assert np.all(gaps > 0)
    assert gaps.min() >= 0.8 / 200.0 - 1e-12 and gaps.max() <= 1.2 / 200.0 + 1e-12
    assert a[-1] == pytest.approx(500 / 200.0, rel=0.01)


def test_open_loop_latency_is_timed_from_the_due_time():
    # Five reads all due at once on one connection that takes 20 ms each:
    # the k-th waits for the k before it, and that wait is latency.
    delay = 0.02
    client = FakeClient(delay)
    schedule = [(0.0, i) for i in range(5)]
    reads = [{"i": i} for i in range(5)]
    records = run_open_loop([client], schedule, reads, GenerationClock())
    assert [r.index for r in records] == list(range(5))
    due = records[0].due
    for k, rec in enumerate(records):
        assert rec.due == due
        assert rec.late >= k * delay * 0.9
        assert rec.latency == pytest.approx(rec.done - rec.due)
        assert rec.latency >= (k + 1) * delay * 0.9
        assert rec.latency >= rec.service
    assert [body for _, body in client.sent] == reads


def test_open_loop_waits_for_due_times():
    client = FakeClient(0.0)
    schedule = [(0.05 * i, i) for i in range(4)]
    records = run_open_loop([client], schedule, [{}] * 4, GenerationClock())
    sent = [r.sent - records[0].due for r in records]
    for i, t in enumerate(sent):
        assert t >= 0.05 * i - 1e-3


def test_closed_loop_cycles_reads_from_start_on_every_client():
    client_a, client_b = FakeClient(0.002), FakeClient(0.002)
    reads = [{"r": i} for i in range(10)]
    records, elapsed, stop = run_closed_loop(
        [client_a, client_b], reads, 3, 0.2, GenerationClock())
    assert elapsed >= 0.2
    assert all(rec.kind == "read" for rec in records)
    assert sorted(r.index for r in records) == list(range(3, stop))
    assert stop - 3 > len(reads)  # wrapped around the list
    for rec in records:
        assert rec.body == reads[rec.index % len(reads)]
    assert client_a.sent and client_b.sent


def test_closed_loop_stops_after_limit_reads():
    client_a, client_b = FakeClient(0.001), FakeClient(0.001)
    reads = [{"r": i} for i in range(10)]
    records, elapsed, stop = run_closed_loop(
        [client_a, client_b], reads, 4, 30.0, GenerationClock(), limit=25)
    assert elapsed < 5.0
    assert stop == 4 + 25
    assert sorted(r.index for r in records) == list(range(4, 29))


def test_split_schedule_keeps_every_read_once_and_rebases():
    offsets = paced_schedule(100.0, 50, seed=1)
    pieces = split_schedule(offsets, 3)
    assert [len(p) for p in pieces] == [17, 16, 17]
    assert all(p[0][0] == 0.0 for p in pieces)
    assert [o for p in pieces for _, o in p] == list(range(50))
    for piece in pieces:
        gaps = np.diff([t for t, _ in piece])
        assert np.allclose(gaps, np.diff(offsets[[o for _, o in piece]]))


def test_open_loop_sends_the_pieces_reads_in_order():
    client = FakeClient(0.0)
    reads = [{"r": i} for i in range(6)]
    pieces = split_schedule(paced_schedule(500.0, 6, seed=2), 2)
    records = [rec for piece in pieces
               for rec in run_open_loop([client], piece, reads,
                                        GenerationClock())]
    assert [r.body for r in records] == reads
    assert [r.index for r in records] == list(range(6))


def test_generation_clock_is_thread_safe():
    clock = GenerationClock()

    def bump():
        for _ in range(2000):
            clock.begin()
            clock.end()

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert clock.started == clock.finished == 8000
