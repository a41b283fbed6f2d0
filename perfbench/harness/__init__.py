"""Harness for the CamE end-to-end benchmark (``perfbench/run.py``).

Modules:

* :mod:`.stats` — medians, quartiles and the tail-percentile rule;
* :mod:`.loadgen` — keep-alive HTTP client, closed and open loops;
* :mod:`.checks` — finite-value checks and served-vs-in-process parity;
* :mod:`.pipeline` — the workloads: dataset to served top-k;
* :mod:`.pool_proc` — child process that serves a bundle via ``PoolServer``;
* :mod:`.provenance` — host and code stamp for every result record;
* :mod:`.compare` — improved / worse / unchanged / unresolved verdicts.
"""
