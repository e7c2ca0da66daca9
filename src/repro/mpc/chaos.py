"""Deterministic fault injection for the socket transport (chaos testing).

Production 2PC serving dies on exactly the failures a clean test network
never produces: a frame that vanishes, a flipped byte, a connection torn
mid-write, a peer that stalls past every deadline. This module makes
those failures *scriptable and replayable* so the serving stack's
recovery machinery (``serve/remote.py``) can be driven through every one
of them deterministically:

* :class:`FaultSpec` addresses one fault by ``(kind, direction, label,
  occurrence, request)`` — "corrupt the 3rd ``and-open`` frame of
  request 2" is ``FaultSpec("corrupt", label="and-open", occurrence=3,
  request=2)``. Request indices come from the idempotency key inside the
  client's ``req`` frame, so a retried request re-enters the same index
  with its occurrence counters reset.
* :class:`ChaosController` owns the schedule, the frame counters and the
  :class:`ChaosTrace`. It survives reconnects (the client wraps every
  fresh connection via :meth:`ChaosController.wrap`), and its seeded
  random mode (:meth:`ChaosController.random`) fires faults from a
  deterministic rng — the resulting trace converts back into an explicit
  schedule (:meth:`ChaosTrace.specs`), so every failure a randomized run
  finds is a one-line scripted repro.
* :class:`ChaosLink` wraps a :class:`~repro.mpc.transport.Transport`
  (typically a socket :class:`~repro.mpc.transport.PeerChannel`) and
  applies the scheduled faults on the live wire. ``corrupt`` and
  ``partial`` forge real frames *below* the checksum via
  ``PeerChannel.send_raw`` — the receiver sees genuine line noise, not a
  polite simulation of it.

Fault semantics (what the two endpoints observe):

========  ============================================================
kind      observable failure
========  ============================================================
drop      the frame silently never arrives; the peer's read deadline
          (or the lock-step label check on the next frame) fires
corrupt   the frame arrives with a flipped payload byte; the receiver's
          CRC check raises a typed :class:`TransportError`
partial   a prefix of the frame is written, then the connection is torn;
          the receiver sees a truncated stream, the sender a dead link
stall     the frame is held beyond the peer's deadline; the sender
          resumes (with an error) once the peer gives up and closes
reorder   the frame is swapped with the next outgoing frame; the peer's
          lock-step check reports the out-of-order label
========  ============================================================
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .transport import (
    FRAME_JSON,
    Transport,
    TransportError,
    _encode_frame,
    _HEADER,
)

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultEvent",
    "ChaosTrace",
    "ChaosController",
    "ChaosLink",
]

FAULT_KINDS = ("drop", "corrupt", "partial", "stall", "reorder")
_RECV_KINDS = ("drop",)  # receive-side faults the link can express


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, addressed by (direction, label, occurrence, request).

    ``label=None`` matches any frame label; ``request=None`` matches any
    request index (the idempotency key the client sends — ``-1`` covers
    handshake frames before the first request). ``occurrence`` counts
    matching frames per direction within one request scope, starting at
    1. A spec fires exactly once, then disarms.
    """

    kind: str
    label: str | None = None
    occurrence: int = 1
    request: int | None = None
    direction: str = "send"
    cut_at: float = 0.5  # partial: fraction of the wire frame written
    flip_byte: int = 0  # corrupt: payload byte index to flip
    stall_s: float = 30.0  # stall: bound on waiting for the peer to give up

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.direction not in ("send", "recv"):
            raise ValueError(f"direction must be send or recv: {self.direction!r}")
        if self.direction == "recv" and self.kind not in _RECV_KINDS:
            raise ValueError(
                f"receive-side faults support only {_RECV_KINDS}, got {self.kind!r}"
            )
        if self.occurrence < 1:
            raise ValueError("occurrence is 1-based")

    def describe(self) -> str:
        scope = "any" if self.request is None else f"req{self.request}"
        return (
            f"{self.kind}@{self.direction}:{self.label or '*'}"
            f"#{self.occurrence}/{scope}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (recorded in the :class:`ChaosTrace`)."""

    spec: FaultSpec
    frame: int  # global frame ordinal at firing time (1-based)
    request: int  # request scope the frame belonged to
    label: str
    direction: str
    occurrence: int

    def describe(self) -> str:
        return (
            f"{self.spec.kind}@{self.direction}:{self.label}"
            f"#{self.occurrence}/req{self.request}"
        )


class ChaosTrace:
    """The faults a run actually injected, replayable as a schedule.

    ``specs()`` pins every event to its concrete ``(direction, label,
    occurrence, request)`` address, so a failure found by the seeded
    random mode becomes a one-line deterministic repro::

        ChaosController(trace.specs())
    """

    def __init__(self):
        self.events: list[FaultEvent] = []

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def describe(self) -> str:
        return "; ".join(event.describe() for event in self.events) or "(no faults)"

    def specs(self) -> tuple[FaultSpec, ...]:
        return tuple(
            replace(
                event.spec,
                label=event.label,
                occurrence=event.occurrence,
                request=event.request,
                direction=event.direction,
            )
            for event in self.events
        )


class ChaosController:
    """Schedule + counters + trace, shared across a client's reconnects.

    One controller follows one logical client: wrap every fresh
    connection with :meth:`wrap` and the request/occurrence counters
    carry over, so a fault addressed at "request 2" still means request
    2 after a mid-request reconnect. Thread-safe (the conformance suite
    drives concurrent sessions through per-session controllers, but one
    controller's link may be touched from reader and writer paths).
    """

    def __init__(self, schedule=(), seed: int | None = None, rate: float = 0.0,
                 kinds: tuple[str, ...] = ("corrupt", "partial")):
        self._armed = list(schedule)
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(seed) if seed is not None else None
        self._rate = float(rate)
        self._kinds = tuple(kinds)
        for kind in self._kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.frames = 0
        self.request = -1  # handshake frames precede the first request
        self._seen: dict[tuple[str, str], int] = {}
        self.trace = ChaosTrace()

    @classmethod
    def random(cls, seed: int, rate: float,
               kinds: tuple[str, ...] = ("corrupt", "partial")) -> "ChaosController":
        """Seeded random chaos: each sent frame faults with ``rate``.

        Deterministic for a deterministic workload — the rng is consumed
        once per sent frame in protocol order, so the same (server seed,
        client seed, schedule seed) triple always faults the same frames
        and :meth:`ChaosTrace.specs` replays it exactly.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        return cls(seed=seed, rate=rate, kinds=kinds)

    def wrap(self, transport: Transport) -> "ChaosLink":
        """Wrap one (re)connection; pass as ``RemoteClient(transport_wrapper=...)``."""
        return ChaosLink(transport, self)

    # ------------------------------------------------------------------
    def decide(self, direction: str, frame_kind: int, label: str,
               payload: bytes) -> FaultSpec | None:
        """Which fault (if any) hits this frame. Called once per frame."""
        with self._lock:
            self.frames += 1
            if direction == "send" and frame_kind == FRAME_JSON and label == "req":
                self._begin_request(payload)
            # A fused batch frame ("a+b") counts one occurrence of the
            # joined label *and* one of each part, so a schedule written
            # against a logical message ("linear-masked-input") still
            # hits whichever physical frame carries it.
            counters = {}
            for name in {label, *label.split("+")}:
                key = (direction, name)
                counters[name] = self._seen[key] = self._seen.get(key, 0) + 1
            occurrence = counters[label]
            for spec in self._armed:
                hit = counters.get(spec.label, occurrence)
                if (
                    spec.direction == direction
                    and (spec.label is None or spec.label in counters)
                    and (spec.request is None or spec.request == self.request)
                    and spec.occurrence == hit
                ):
                    self._armed.remove(spec)
                    return self._fire(spec, label, direction, occurrence)
            if (
                self._rng is not None
                and direction == "send"
                and float(self._rng.random()) < self._rate
            ):
                kind = self._kinds[int(self._rng.integers(len(self._kinds)))]
                spec = FaultSpec(kind, label=label, occurrence=occurrence,
                                 request=self.request, direction=direction)
                return self._fire(spec, label, direction, occurrence)
        return None

    def _begin_request(self, payload: bytes) -> None:
        """A ``req`` frame opens a new request scope (idempotency key)."""
        try:
            request = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return
        if request.get("cmd") != "infer":
            return
        key = request.get("request")
        self.request = int(key) if key is not None else self.request + 1
        self._seen.clear()

    def _fire(self, spec: FaultSpec, label: str, direction: str,
              occurrence: int) -> FaultSpec:
        self.trace.record(
            FaultEvent(
                spec=spec,
                frame=self.frames,
                request=self.request,
                label=label,
                direction=direction,
                occurrence=occurrence,
            )
        )
        return spec


class ChaosLink(Transport):
    """A transport that injects the controller's scheduled faults.

    Wraps any :class:`~repro.mpc.transport.Transport`; ``corrupt`` and
    ``partial`` additionally need the socket transport's ``send_raw``
    (they forge real wire bytes below the checksum). The link keeps its
    own :class:`~repro.mpc.network.Channel` accounting (the protocols
    book on whatever transport object they hold) but shares the inner
    transport's measured :class:`~repro.mpc.transport.WireStats`.
    """

    def __init__(self, inner: Transport, controller: ChaosController):
        super().__init__(inner.party)
        self.inner = inner
        self.controller = controller
        self.stats = inner.stats  # one measured wire, whoever asks
        self._held: tuple[int, str, tuple] | None = None

    # -- delegation ------------------------------------------------------
    @property
    def timeout(self):
        return getattr(self.inner, "timeout", None)

    @timeout.setter
    def timeout(self, value):
        self.inner.timeout = value

    def close(self) -> None:
        self._held = None
        self.inner.close()

    # -- faulted movement ------------------------------------------------
    def _send_frame(self, kind: int, label: str, segments) -> None:
        payload = b"".join(bytes(memoryview(segment)) for segment in segments)
        spec = self.controller.decide("send", kind, label, payload)
        if spec is None:
            self.inner._send_frame(kind, label, (payload,))
            self._flush_held()
            return
        if spec.kind == "drop":
            return
        if spec.kind == "reorder":
            # Held until the next outgoing frame overtakes it; if none
            # follows, the hold degenerates into a drop (the peer's
            # deadline recovers either way).
            self._held = (kind, label, (payload,))
            return
        if spec.kind == "corrupt":
            frame = bytearray(_encode_frame(kind, label, payload))
            if payload:
                index = len(frame) - len(payload) + spec.flip_byte % len(payload)
            else:  # empty payload: flip a CRC byte instead
                index = _HEADER.size - 4
            frame[index] ^= 0xFF
            self._send_raw(spec, bytes(frame))
            return
        if spec.kind == "partial":
            frame = _encode_frame(kind, label, payload)
            cut = max(1, min(len(frame) - 1, int(len(frame) * spec.cut_at)))
            self._send_raw(spec, frame[:cut])
            self.inner.close()
            raise TransportError(
                f"chaos: connection torn mid-frame ({spec.describe()})"
            )
        if spec.kind == "stall":
            # Hold the frame past the peer's deadline: resume only once
            # the peer reaps the connection (event-driven — no timed
            # sleep when the inner transport exposes peer death).
            wait = getattr(self.inner, "wait_peer_gone", None)
            if wait is not None:
                wait(spec.stall_s)
            else:  # pragma: no cover - loopback fallback
                time.sleep(spec.stall_s)
            raise TransportError(
                f"chaos: frame stalled beyond the peer's deadline "
                f"({spec.describe()})"
            )
        raise AssertionError(f"unhandled fault kind {spec.kind!r}")

    def _flush_held(self) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            self.inner._send_frame(*held)

    def _send_raw(self, spec: FaultSpec, data: bytes) -> None:
        send_raw = getattr(self.inner, "send_raw", None)
        if send_raw is None:
            raise TransportError(
                f"chaos fault {spec.kind!r} needs a socket transport "
                "(PeerChannel) to forge wire bytes"
            )
        send_raw(data)

    def _recv_frame(self) -> tuple[int, str, bytes]:
        while True:
            kind, label, payload = self.inner._recv_frame()
            spec = self.controller.decide("recv", kind, label, payload)
            if spec is None:
                return kind, label, payload
            # Receive-side faults are drops: discard and keep reading —
            # the protocol's next expectation (or its deadline) fails.
            continue
