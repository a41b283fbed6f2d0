"""Load generation: keep-alive HTTP clients, a closed loop and an open loop.

All load comes from the benchmark process: at most two threads, each
owning one keep-alive connection.  An *operation* is a ``(kind, body)``
pair, ``kind`` being ``"read"`` (``POST /predict``) or ``"append"``
(``POST /append``); the loops below send reads, and appends are sent
one at a time with :func:`execute`.  Every completed operation yields
one :class:`OpRecord`; nothing is aggregated while load runs.

* :func:`run_closed_loop` — each connection sends its next read as soon
  as the previous reply arrives, for a fixed duration (capacity).
* :func:`run_open_loop` — reads are due at the times of a seeded
  fixed-rate schedule (:func:`paced_schedule`); a connection that is still busy
  sends late, and latency is timed from the due time, so a stall is
  charged to every request queued behind it.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["HttpClient", "OpRecord", "GenerationClock",
           "paced_schedule", "split_schedule", "execute",
           "run_closed_loop", "run_open_loop"]


class HttpClient:
    """One keep-alive HTTP/1.1 connection to ``127.0.0.1:port``."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=self.timeout)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def request(self, method: str, path: str, body=None) -> tuple[int, object]:
        """``(status, decoded JSON or text)``; status 0 on a transport error."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            if self._conn is None:
                self._conn = self._connect()
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, {"error": repr(exc)}
        if response.getheader("Content-Type", "").startswith("application/json"):
            return status, json.loads(raw)
        return status, raw.decode("utf-8", "replace")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class GenerationClock:
    """Counts appends started and finished, to date each read's model.

    A read sent after ``finished`` appends completed and answered before
    ``started`` appends began was served by a model that had applied
    between ``finished`` and ``started`` appends.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = 0
        self.finished = 0

    def begin(self) -> None:
        with self._lock:
            self.started += 1

    def end(self) -> None:
        with self._lock:
            self.finished += 1


@dataclass
class OpRecord:
    """One completed operation (times are ``perf_counter`` seconds)."""

    kind: str
    index: int            # position in the operation list
    due: float            # when it should have been sent
    sent: float
    done: float
    status: int
    body: dict = field(repr=False, default=None)
    payload: object = field(repr=False, default=None)
    gen_lo: int = 0       # appends finished before it was sent
    gen_hi: int = 0       # appends started before its reply arrived

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        """Seconds from the due time to the reply."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from the actual send to the reply."""
        return self.done - self.sent

    @property
    def late(self) -> float:
        """Seconds the generator sent after the due time."""
        return self.sent - self.due


def paced_schedule(rate: float, count: int, seed: int,
                   jitter: float = 0.2) -> np.ndarray:
    """``count`` send offsets (seconds) at a fixed ``rate``.

    Arrival ``i`` is due at ``(i + 1/2 + u_i) / rate`` with ``u_i`` drawn
    uniformly from ``[-jitter/2, jitter/2)`` by a generator seeded with
    ``seed``: a constant rate (as a rate-limited client sends) whose
    phase varies with the seed.
    """
    if rate <= 0 or count < 0 or not 0 <= jitter < 1:
        raise ValueError(f"need rate > 0, count >= 0, 0 <= jitter < 1; got "
                         f"{rate}, {count}, {jitter}")
    u = np.random.default_rng(seed).uniform(-jitter / 2, jitter / 2, size=count)
    return (np.arange(count) + 0.5 + u) / rate


def split_schedule(offsets: np.ndarray, parts: int,
                   ) -> list[list[tuple[float, int]]]:
    """Cut send offsets into ``parts`` consecutive pieces of
    ``(offset, ordinal)``, each rebased to 0.

    Ordinals index the whole schedule, so the pieces together send every
    read exactly once, at the same spacing.
    """
    bounds = [round(i * len(offsets) / parts) for i in range(parts + 1)]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        base = float(offsets[lo]) if hi > lo else 0.0
        pieces.append([(float(offsets[i]) - base, i) for i in range(lo, hi)])
    return pieces


def execute(client: HttpClient, clock: GenerationClock, kind: str,
            body: dict, index: int, due: float) -> OpRecord:
    """Send one operation now; ``due`` is when it should have been sent."""
    if kind == "append":
        clock.begin()
        sent = time.perf_counter()
        status, payload = client.request("POST", "/append", body)
        done = time.perf_counter()
        clock.end()
        return OpRecord(kind, index, due, sent, done, status, body, payload)
    gen_lo = clock.finished
    sent = time.perf_counter()
    status, payload = client.request("POST", "/predict", body)
    done = time.perf_counter()
    return OpRecord(kind, index, due, sent, done, status, body, payload,
                    gen_lo=gen_lo, gen_hi=clock.started)


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_closed_loop(clients: list[HttpClient], reads: list[dict], start: int,
                    duration: float, clock: GenerationClock,
                    limit: int | None = None,
                    ) -> tuple[list[OpRecord], float, int]:
    """Drive ``reads`` (cycled from ``start``) through every client for
    ``duration`` seconds, or until ``limit`` reads were sent.

    Returns the records, the elapsed seconds and the position in
    ``reads`` where the loop stopped.
    """
    end = start + limit if limit is not None else None
    lock = threading.Lock()
    state = {"next": start}
    begin = time.perf_counter()
    stop_at = begin + duration
    per_client: list[list[OpRecord]] = [[] for _ in clients]

    def worker(rank: int) -> None:
        client, out = clients[rank], per_client[rank]
        while True:
            if time.perf_counter() >= stop_at:
                return
            with lock:
                i = state["next"]
                if i == end:
                    return
                state["next"] += 1
            out.append(execute(client, clock, "read", reads[i % len(reads)],
                                i, time.perf_counter()))

    _run_threads([lambda r=r: worker(r) for r in range(len(clients))])
    elapsed = time.perf_counter() - begin
    return ([rec for out in per_client for rec in out], elapsed,
            state["next"])


def run_open_loop(clients: list[HttpClient], schedule: list[tuple[float, int]],
                  reads: list[dict], clock: GenerationClock) -> list[OpRecord]:
    """Send each scheduled read at (or after) its due time.

    ``schedule`` holds ``(offset, ordinal)`` pairs; the ordinal indexes
    ``reads``.  A free client takes the next read in schedule order,
    sleeps until it is due, and sends it; when every client is busy the
    read waits, and that wait is part of its latency.  ``index`` in each
    record is the ordinal; records come back in schedule order.
    """
    lock = threading.Lock()
    cursor = {"next": 0}
    start = time.perf_counter() + 0.05
    per_client: list[list[OpRecord]] = [[] for _ in clients]

    def worker(rank: int) -> None:
        client, out = clients[rank], per_client[rank]
        while True:
            with lock:
                pos = cursor["next"]
                cursor["next"] += 1
            if pos >= len(schedule):
                return
            offset, ordinal = schedule[pos]
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            out.append(execute(client, clock, "read", reads[ordinal], ordinal,
                               due))

    _run_threads([lambda r=r: worker(r) for r in range(len(clients))])
    records = [rec for out in per_client for rec in out]
    records.sort(key=lambda rec: rec.index)
    return records
