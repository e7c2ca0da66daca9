"""``repro.serve`` — the batched C2PI serving layer.

Compile-once, serve-many deployment of the C2PI pipeline:
:class:`C2PIServer` keeps one compiled
:class:`~repro.mpc.program.SecureProgram`, warm offline preprocessing
pools, and coalesces queued requests into batched secure executions.

:mod:`repro.serve.remote` is the *two-process* deployment of the same
flow: :class:`RemoteServer` / :class:`RemoteClient` run the compiled
program between real processes over the socket transport
(``c2pi serve --listen`` / ``c2pi client``), shipping offline bundles
ahead of the online phase and measuring actual wire traffic. The server
is concurrent: a bounded worker pool serves one session per connection,
each session's dealer seed derived from its session key
(:func:`~repro.core.c2pi.derive_session_seed`), with busy-reply
backpressure past ``max_sessions`` and graceful drain on ``stop()``.

:mod:`repro.serve.loadgen` (``c2pi loadgen``) is the one load harness:
it drives that server with an open-loop sustained load — many concurrent
sessions, Poisson or fixed-rate arrivals — and gates errors, wedges and
serial byte-identity against a committed snapshot. Nothing here imports
:mod:`repro.bench`: the placement conformance run (``c2pi serve-bench``)
lives there and drives this package from outside, and time is judged in
``perf/``.
"""

from .chaos_check import run_chaos_check, tiny_victim
from .loadgen import check_load_snapshot, run_loadgen
from .remote import (
    RemoteClient,
    RemoteReply,
    RemoteServer,
    ServerBusy,
    SessionStats,
    derive_session_seed,
)
from .server import C2PIServer, InferenceReply, InferenceRequest, ServerMetrics

__all__ = [
    "C2PIServer",
    "InferenceReply",
    "InferenceRequest",
    "ServerMetrics",
    "RemoteServer",
    "RemoteClient",
    "RemoteReply",
    "ServerBusy",
    "SessionStats",
    "derive_session_seed",
    "run_chaos_check",
    "tiny_victim",
    "run_loadgen",
    "check_load_snapshot",
]
