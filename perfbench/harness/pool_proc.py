"""Child process: serve one checkpoint bundle through ``repro.pool``.

Usage (the benchmark starts it; ``PYTHONPATH`` must reach ``src``)::

    python pool_proc.py BUNDLE_DIR WORKERS CPUS

``CPUS`` is a comma-separated list of the cores the pool (front end and
workers) may run on.  Prints one JSON line ``{"port", "load_s",
"start_s"}`` once the pool is listening, then serves until its standard
input reaches end of file, drains, stops the workers and exits.
``load_s`` times ``PoolServer.from_bundle`` (bundle read plus model
rebuild) and ``start_s`` times ``start_background`` (worker fork,
replica attach, listening socket).

Standard input is read through the raw descriptor: a thread blocked in
``sys.stdin.read()`` holds the buffer's lock, and a worker forked while
it is held (each ``/append`` forks fresh replicas) deadlocks closing
``sys.stdin`` as it starts.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time


def main(argv: list[str]) -> int:
    bundle, workers = argv[0], int(argv[1])
    # Before anything else: the workers forked later inherit the core.
    os.sched_setaffinity(0, {int(cpu) for cpu in argv[2].split(",")})
    from repro.pool import PoolConfig, PoolServer

    tick = time.perf_counter()
    server = PoolServer.from_bundle(bundle, PoolConfig(workers=workers))
    loaded = time.perf_counter()
    port = server.start_background()
    started = time.perf_counter()
    print(json.dumps({"port": port, "load_s": loaded - tick,
                      "start_s": started - loaded}), flush=True)
    try:
        while os.read(0, 4096):
            pass
    finally:
        server.request_shutdown(drain=True)
        server.join(timeout=30.0)
        for child in mp.active_children():
            child.terminate()
            child.join(timeout=5.0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
