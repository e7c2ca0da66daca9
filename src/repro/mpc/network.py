"""Network model and traffic accounting for the two-party engine.

The paper benchmarks on two settings taken from Cheetah's evaluation:
LAN (384 MB/s bandwidth, 0.3 ms round-trip time) and WAN (44 MB/s, 40 ms).
The :class:`Channel` records every byte the in-process protocol actually
moves between the two simulated parties plus the number of communication
rounds, and a :class:`NetworkModel` turns (bytes, rounds, compute seconds)
into an end-to-end latency estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar

import numpy as np

__all__ = ["NetworkModel", "LAN", "WAN", "Channel", "TrafficSnapshot"]


@dataclass(frozen=True)
class NetworkModel:
    """Bandwidth/latency description of the link between the parties.

    The paper's Cheetah-style LAN/WAN links are **full duplex**: both
    directions move bytes concurrently, so serialisation time is governed
    by the *busier* direction, not the sum of both.
    """

    name: str
    bandwidth_bytes_per_s: float
    rtt_s: float

    def latency(
        self,
        total_bytes: float | None = None,
        rounds: float = 0.0,
        compute_s: float = 0.0,
        *,
        bytes_client_to_server: float | None = None,
        bytes_server_to_client: float | None = None,
    ) -> float:
        """End-to-end time: serialisation + propagation + computation.

        With directional byte counts the serialisation term charges
        ``max(c2s, s2c) / bandwidth`` (full duplex). When only a total is
        known — the aggregate cost models track no direction — a
        symmetric split is assumed, i.e. ``total / 2`` per direction.
        """
        if bytes_client_to_server is None and bytes_server_to_client is None:
            if total_bytes is None:
                raise ValueError("latency() needs total or directional bytes")
            busier = total_bytes / 2.0
        else:
            busier = max(
                bytes_client_to_server or 0.0, bytes_server_to_client or 0.0
            )
        return compute_s + busier / self.bandwidth_bytes_per_s + rounds * self.rtt_s

    def latency_of(self, traffic: "TrafficSnapshot", compute_s: float = 0.0) -> float:
        """Modeled latency of measured channel traffic (directional)."""
        return self.latency(
            rounds=traffic.rounds,
            compute_s=compute_s,
            bytes_client_to_server=traffic.bytes_client_to_server,
            bytes_server_to_client=traffic.bytes_server_to_client,
        )


# The paper's Section IV-E settings (bandwidth in MB/s, RTT in seconds).
LAN = NetworkModel("LAN", bandwidth_bytes_per_s=384e6, rtt_s=0.3e-3)
WAN = NetworkModel("WAN", bandwidth_bytes_per_s=44e6, rtt_s=40e-3)


@dataclass
class TrafficSnapshot:
    """Immutable copy of a channel's counters."""

    bytes_client_to_server: int = 0
    bytes_server_to_client: int = 0
    rounds: int = 0
    messages: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_client_to_server + self.bytes_server_to_client


@dataclass(eq=False)
class Channel:
    """Byte/round accounting between the client (party 0) and server (party 1).

    Protocols call :meth:`send` for one-directional messages and
    :meth:`tick_round` once per synchronous communication round (a round may
    carry messages in both directions, as in a simultaneous exchange).
    Every message's ``label`` feeds a per-label breakdown (``by_label``),
    so results and serving metrics can attribute traffic to protocol steps
    (``input-share``, ``masked-reveal``, ``beaver-open``, ...).

    A channel is also the protocols' *placement*: the online primitives are
    written once, over arrays with a leading party axis, and reach the
    other party only through :meth:`frame` / :meth:`row` /
    :meth:`open_add` / :meth:`open_xor` / :meth:`open_bits` / :meth:`hand`.
    This class is the placement where both parties share one address
    space: arrays carry both rows, an opening combines them locally and
    nothing moves. :class:`~repro.mpc.transport.Transport` is the
    placement of a single party: one row, and the same calls move real
    bytes to the peer. Either way every message is accounted here, on the
    same call.

    ``eq=False``: a channel (and every :class:`~repro.mpc.transport.Transport`
    derived from it) is a stateful *identity* — two channels that happen to
    hold equal counters are not the same link. Identity equality keeps the
    default ``object.__hash__``, so transports can key registries and sets
    directly; the dataclass default (value ``__eq__`` with ``__hash__``
    silently set to ``None``) made every transport unhashable and forced
    ``id()``-keyed bookkeeping on the serving layer.
    """

    bytes_client_to_server: int = 0
    bytes_server_to_client: int = 0
    rounds: int = 0
    messages: int = 0
    by_label: dict[str, TrafficSnapshot] = field(default_factory=dict)
    _round_log: list[str] = field(default_factory=list)

    #: The parties whose rows live in this address space, in row order.
    parties: ClassVar[tuple[int, ...]] = (0, 1)

    # -- placement: both rows local ------------------------------------
    def row(self, party: int) -> int | None:
        """Index of ``party``'s row on the party axis (None: not held here)."""
        return party

    def frame(self, label: str, shape: tuple[int, ...]) -> np.ndarray:
        """Writable ``(rows, *shape)`` uint64 scratch for one opening."""
        return np.empty((2, *shape), dtype=np.uint64)

    def open_add(self, frame: np.ndarray, label: str) -> np.ndarray:
        """Open additively shared words to both parties (one round)."""
        self.exchange(frame[0].nbytes, label)
        return frame[0] + frame[1]

    def open_xor(self, frame: np.ndarray, label: str) -> np.ndarray:
        """Open XOR-shared words to both parties (one round)."""
        self.exchange(frame[0].nbytes, label)
        return frame[0] ^ frame[1]

    def open_bits(self, bits: np.ndarray, label: str) -> np.ndarray:
        """Open XOR-shared 0/1 bytes; they travel packed 8 per byte."""
        self.exchange(max(1, (bits[0].size + 7) // 8), label)
        return bits[0] ^ bits[1]

    def hand(
        self,
        label: str,
        shape: tuple[int, ...],
        fill: Callable[[np.ndarray], object],
    ) -> np.ndarray | None:
        """One client-to-server message of uint64 words.

        ``fill(out)`` writes the client's message into ``out`` and runs
        only where the client's row lives; the message is returned where
        the server's row lives (``None`` elsewhere). Accounts the bytes;
        the caller ticks the round. A transport may hold the message back
        to share the frame of the client's next opening: a caller with
        nothing more to send follows up with :meth:`flush_deferred`.
        """
        message = np.empty(shape, dtype=np.uint64)
        fill(message)
        self.send(0, message.nbytes, label)
        return message

    def flush_deferred(self) -> None:
        """Nothing is ever queued when no bytes move."""

    # -- accounting ----------------------------------------------------
    def send(self, sender: int, num_bytes: int, label: str = "") -> None:
        if sender not in (0, 1):
            raise ValueError(f"sender must be 0 (client) or 1 (server), got {sender}")
        if num_bytes < 0:
            raise ValueError("message size cannot be negative")
        bucket = self.by_label.setdefault(label or "unlabeled", TrafficSnapshot())
        if sender == 0:
            self.bytes_client_to_server += int(num_bytes)
            bucket.bytes_client_to_server += int(num_bytes)
        else:
            self.bytes_server_to_client += int(num_bytes)
            bucket.bytes_server_to_client += int(num_bytes)
        self.messages += 1
        bucket.messages += 1

    def exchange(self, bytes_each_way: int, label: str = "") -> None:
        """A simultaneous exchange: both parties send, one round elapses."""
        self.send(0, bytes_each_way, label)
        self.send(1, bytes_each_way, label)
        self.tick_round(label)

    def tick_round(self, label: str = "") -> None:
        self.rounds += 1
        if label:
            self._round_log.append(label)
            self.by_label.setdefault(label, TrafficSnapshot()).rounds += 1

    def label_breakdown(self) -> dict[str, TrafficSnapshot]:
        """Immutable per-label traffic copies, heaviest labels first."""
        return {
            label: replace(snapshot)
            for label, snapshot in sorted(
                self.by_label.items(), key=lambda kv: -kv[1].total_bytes
            )
        }

    @property
    def total_bytes(self) -> int:
        return self.bytes_client_to_server + self.bytes_server_to_client

    def snapshot(self) -> TrafficSnapshot:
        return TrafficSnapshot(
            bytes_client_to_server=self.bytes_client_to_server,
            bytes_server_to_client=self.bytes_server_to_client,
            rounds=self.rounds,
            messages=self.messages,
        )

    def diff(self, before: TrafficSnapshot) -> TrafficSnapshot:
        """Traffic since ``before`` (used for per-layer accounting)."""
        return TrafficSnapshot(
            bytes_client_to_server=self.bytes_client_to_server - before.bytes_client_to_server,
            bytes_server_to_client=self.bytes_server_to_client - before.bytes_server_to_client,
            rounds=self.rounds - before.rounds,
            messages=self.messages - before.messages,
        )
