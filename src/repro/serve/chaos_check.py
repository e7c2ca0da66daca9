"""``c2pi chaos-check``: a deterministic chaos self-check for the serving stack.

Runs a battery of scripted network faults (:mod:`repro.mpc.chaos`)
against a live :class:`~repro.serve.remote.RemoteServer` on a loopback
socket and verifies the recovery contract end to end:

* the faulted request succeeds on retry with logits **byte-identical**
  to a fault-free run of the same session (same dealer bundle replayed
  server-side, same rng draws replayed client-side);
* the server survives every fault and still serves a clean session;
* pool accounting balances — every acquired bundle is either served,
  returned intact, or poisoned; none is double-sold or leaked.

The victim is a deliberately tiny convnet (:func:`tiny_victim`): the
properties under test are protocol-level and model-independent, and a
small model keeps the check fast enough to run on every CI push. Each
case prints its :class:`~repro.mpc.chaos.ChaosTrace` one-liner, which is
also the replay recipe: feed it back as an explicit schedule to
reproduce the exact failure.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .. import nn
from ..models.layered import LayeredModel
from ..mpc.chaos import ChaosController, FaultSpec
from ..mpc.transport import TransportError
from .remote import RemoteClient, RemoteServer

__all__ = ["TINY_BOUNDARY", "tiny_victim", "CHAOS_CASES", "run_chaos_check"]

#: crypto/clear boundary for :func:`tiny_victim` — the crypto segment
#: covers conv1/ReLU/maxpool/conv2/ReLU (linear + boolean protocol
#: phases), the clear tail flatten + the linear head.
TINY_BOUNDARY = 2.5


def tiny_victim(seed: int = 0) -> LayeredModel:
    """A deterministic 5-class demo convnet on 2x8x8 inputs.

    Small enough that one remote inference costs milliseconds, yet its
    compiled program exercises every protocol phase a resnet does:
    masked linear layers, the bitsliced DReLU circuit (ReLU and the
    maxpool tournament), truncation and the noised reveal.
    """
    rng = np.random.default_rng(seed)
    body = [
        nn.Conv2d(2, 4, 3, padding=1),
        nn.ReLU(),
        nn.MaxPool2d(2, 2),
        nn.Conv2d(4, 4, 3, padding=1),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 5),
    ]
    model = LayeredModel(body, "chaos-demo", (2, 8, 8))
    for parameter in model.parameters():
        parameter.data = rng.normal(0, 0.3, parameter.data.shape).astype(np.float32)
    return model.eval()


#: The scripted battery: one fault per protocol phase and kind family.
CHAOS_CASES: tuple[FaultSpec, ...] = (
    FaultSpec("drop", label="link"),  # handshake vanishes
    FaultSpec("corrupt", label="input-share", request=1),
    FaultSpec("partial", label="and-open", occurrence=2, request=1),
    FaultSpec("stall", label="noised-reveal", request=0),
    FaultSpec("drop", label="logits", direction="recv", request=1),
)


def _serve(model, seed: int, request_timeout: float) -> tuple[RemoteServer, threading.Thread]:
    server = RemoteServer(
        model, TINY_BOUNDARY, seed=seed, request_timeout=request_timeout
    )
    server.handshake_timeout = request_timeout
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _run_session(port: int, images, *, session, seed, controller=None,
                 retries: int = 0, timeout: float = 5.0) -> list[bytes]:
    client = RemoteClient(
        "127.0.0.1",
        port,
        noise_magnitude=0.1,
        seed=seed,
        session=session,
        timeout=timeout,
        transport_wrapper=controller.wrap if controller else None,
        connect_retries=retries,
    )
    logits = [client.infer(batch, retries=retries).logits.tobytes() for batch in images]
    client.close()
    return logits


def run_chaos_check(seed: int = 0, request_timeout: float = 0.5,
                    verbose: bool = True) -> int:
    """Run every scripted case; returns the number of failures (0 = pass)."""
    model = tiny_victim(seed)
    images = np.random.default_rng(seed + 1).random((2, 1, 2, 8, 8), np.float32)

    # The fault-free reference for session "chaos"/client seed: computed
    # once on its own identically-seeded server.
    server, thread = _serve(model, seed, request_timeout)
    try:
        baseline = _run_session(server.port, images, session="chaos", seed=seed + 7)
    finally:
        server.stop()
        thread.join(timeout=10.0)

    failures = 0
    for spec in CHAOS_CASES:
        controller = ChaosController([spec])
        server, thread = _serve(model, seed, request_timeout)
        start = time.perf_counter()
        try:
            faulted = _run_session(
                server.port, images, session="chaos", seed=seed + 7,
                controller=controller, retries=3,
            )
            clean = _run_session(server.port, images, session="clean", seed=seed + 8)
            metrics = server.metrics()
        except (AssertionError, TransportError, OSError, ValueError) as exc:
            # The check reports failures, it does not raise them.
            failures += 1
            if verbose:
                print(f"FAIL {spec.describe():<40} {type(exc).__name__}: {exc}")
            continue
        finally:
            server.stop()
            thread.join(timeout=10.0)
        elapsed = time.perf_counter() - start
        problems = []
        if not controller.trace.events:
            problems.append("fault never fired")
        if faulted != baseline:
            problems.append("retried logits differ from the fault-free run")
        if len(clean) != len(images):
            problems.append("bystander session not served")
        for name, pool in metrics["pools"].items():
            outstanding = (
                pool["bundles_consumed"]
                - pool["bundles_returned"]
                - pool["bundles_poisoned"]
            )
            if outstanding != len(images):
                problems.append(
                    f"pool {name} unbalanced: consumed={pool['bundles_consumed']} "
                    f"returned={pool['bundles_returned']} "
                    f"poisoned={pool['bundles_poisoned']} served={len(images)}"
                )
        status = "FAIL" if problems else "PASS"
        failures += bool(problems)
        if verbose:
            detail = "; ".join(problems) if problems else (
                f"trace={controller.trace.describe()}  "
                f"retried={metrics['requests_retried']}  "
                f"reaped={metrics['sessions_reaped']}  {elapsed:.2f}s"
            )
            print(f"{status} {spec.describe():<40} {detail}")
    if verbose:
        total = len(CHAOS_CASES)
        print(f"chaos-check: {total - failures}/{total} cases recovered")
    return failures
