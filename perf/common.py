"""What the benchmark's processes share: the victim every number is quoted
for, the process environment, core pinning and the chunk estimator."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# resnet20 at width 0.25, cut at 3.5, noise 0.1, protocol seed 5: the
# victim ROADMAP.md quotes its 5.3 / 31.4 / 29.1 ms placement numbers for.
WIDTH_MULT = 0.25
MODEL_SEED = 0
BOUNDARY = 3.5
NOISE = 0.1
PROTOCOL_SEED = 5

# A request that has not answered by then counts as failed.
REQUEST_TIMEOUT_S = 30.0
# A child that has not exited this long after "stop" is killed.
CHILD_GRACE_S = 10.0

# One BLAS thread per process: the parties share one core (see ``pin``).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# The cores this process may use, before it pins itself.
CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def build_victim():
    from repro.models import resnet20

    return resnet20(
        width_mult=WIDTH_MULT, rng=np.random.default_rng(MODEL_SEED)
    ).eval()


def pin() -> int | None:
    """Pin this process, and with it every child it starts, to one core.

    The load generator and the remote party share that core on purpose.
    The two take turns (one computes while the other waits for its frame),
    so a second core buys them nothing; what it adds on a shared VM is a
    sleeping vCPU to wake through the hypervisor twice a round, and that
    wait measures the host. Measured on the reference box, ten 25 s
    ``socket_b1`` runs of each placement, alternating: the quartiles of
    ``request_ms_p50`` lay 19 % of the median apart on two cores and 6 % on
    one (``online_ms_p50`` 17 % and 3 %), the medians 31.5 and 32.4 ms.

    Returns the core, or ``None`` where affinity cannot be set.
    """
    if not CORES:
        return None
    os.sched_setaffinity(0, {CORES[0]})
    return CORES[0]


def spawn(script: str, *args: str, pipe_stdin: bool = False) -> subprocess.Popen:
    """Start ``perf/<script>`` as a child process with one BLAS thread."""
    return subprocess.Popen(
        [sys.executable, str(ROOT / "perf" / script), *args],
        stdin=subprocess.PIPE if pipe_stdin else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **BLAS_ENV},
    )


def reap(proc: subprocess.Popen) -> None:
    """Wait for a child that was told to stop; kill it after the grace."""
    try:
        proc.wait(timeout=CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                pipe.close()


def stop_resource_tracker() -> None:
    """Stop and wait for the tracker process ``multiprocessing`` starts the
    first time shared memory is attached; left alone it outlives us by a
    moment. (A private method, hence the guard: without it the tracker
    still exits by itself when this process does.)"""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def best_chunk(chunks: list[list[float]], better: str = "lower") -> float:
    """Median of each chunk, then the best of those medians.

    Interference on a shared host only ever slows a chunk down, so the
    best chunk is the one that saw the least of it.
    """
    medians = [statistics.median(chunk) for chunk in chunks if chunk]
    return min(medians) if better == "lower" else max(medians)
