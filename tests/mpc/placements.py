"""Test helpers: run the same protocol code under every placement.

The primitives are written once over a party axis; whether a call runs
both parties' rows in this process or one party's row against a peer is
decided by the channel it is given. :func:`run_placements` runs one
operation both ways and asserts the results and the accounting agree, so
every oracle test built on it checks the two-row and the one-row
placement at once.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.mpc import Channel, TrustedDealer
from repro.mpc.preprocessing import (
    RecordingDealer,
    ReplayDealer,
    pack_party_bundle,
    split_bundle,
    unpack_party_bundle,
)
from repro.mpc.transport import PeerChannel, QueueTransport


def labels(channel: Channel) -> dict:
    """A channel's whole per-label accounting, comparable across placements."""
    return {
        label: (s.bytes_client_to_server, s.bytes_server_to_client, s.rounds, s.messages)
        for label, s in channel.label_breakdown().items()
    }


def feed(decoder, data, piece: int | None = None) -> list:
    """Put ``data`` through a decoder the way a carrier does — write into
    ``want()``, report with ``advance()`` — at most ``piece`` bytes at a
    time. Returns the items completed (a terminal error is the last);
    bytes after a terminal failure are not looked at."""
    view = memoryview(data).cast("B")
    items, offset = [], 0
    while offset < len(view) and decoder.failed is None:
        want = decoder.want()
        take = min(len(want), len(view) - offset, piece or len(view))
        want[:take] = view[offset : offset + take]
        offset += take
        item = decoder.advance(take)
        if item is not None:
            items.append(item)
    return items


def links(placement: str):
    """A connected (client, server) transport pair and its cleanup."""
    if placement == "queue":
        client_io, server_io = QueueTransport.pair()
        return client_io, server_io, lambda: None
    listener = PeerChannel.listen()
    accepted = {}
    thread = threading.Thread(
        target=lambda: accepted.update(io=PeerChannel.accept(listener))
    )
    thread.start()
    client_io = PeerChannel.connect("127.0.0.1", listener.getsockname()[1])
    thread.join(timeout=30.0)
    server_io = accepted["io"]

    def close():
        client_io.close()
        server_io.close()
        listener.close()

    return client_io, server_io, close


def run_parties(client_side, server_side, placement: str = "queue"):
    """Run one callable per party, each on its end of a fresh link.

    Returns ``(results, (client_io, server_io))``. A party's exception is
    re-raised (the client's first), carrying every party's failure as
    ``.failures`` — so error cases read the same on every placement.
    """
    client_io, server_io, close = links(placement)
    client_io.timeout = server_io.timeout = 20.0
    out, failures = {}, {}

    def run(party, side, io):
        try:
            out[party] = side(io)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            failures[party] = exc

    thread = threading.Thread(target=run, args=(1, server_side, server_io))
    thread.start()
    run(0, client_side, client_io)
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "the server party never finished"
    close()
    if failures:
        error = failures[min(failures)]
        error.failures = failures
        raise error
    return out, (client_io, server_io)


def run_placements(op, seed: int = 0):
    """Run ``op(rows, dealer, channel)`` in-process and as two parties.

    ``rows`` maps a party-stacked array to the rows the placement holds:
    everything in-process, ``array[p : p + 1]`` for party ``p``. The
    two-party run replays the material the in-process run drew, over a
    thread loopback; its stacked result, per-label accounting and raw wire
    payload must equal the in-process ones. Each party's rows reach it the
    way a deployed party's do — unpacked in place from a receive buffer,
    read-only — so every oracle built on this also shows that no protocol
    writes the dealer's material. Returns the in-process
    ``(result, channel)`` for the caller's own oracle.
    """
    recorder = RecordingDealer(TrustedDealer(seed=seed))
    channel = Channel()
    joint = op(lambda array: array, recorder, channel)
    bundle = recorder.take()

    def party(p):
        received = bytearray(pack_party_bundle(split_bundle(bundle, p)))
        return lambda io: op(
            lambda array: array[p : p + 1],
            ReplayDealer(unpack_party_bundle(received)),
            io,
        )

    out, ios = run_parties(party(0), party(1))
    np.testing.assert_array_equal(np.concatenate([out[0], out[1]]), joint)
    for io in ios:
        assert labels(io) == labels(channel)
        assert io.stats.raw_payload_total == channel.total_bytes
    return joint, channel
