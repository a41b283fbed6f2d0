"""Provenance stamped into every result record."""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np

__all__ = ["provenance"]


def _git(root: str, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: str, workload: str, seed: int, seconds: int,
               trace: bool) -> dict:
    """Code version, host and run parameters for one benchmark run.

    ``git_sha`` and ``git_dirty`` are ``None`` when ``root`` is not a git
    checkout (an exported tree).
    """
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "usable_cores": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
    }
