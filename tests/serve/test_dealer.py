"""The crypto-producer service: byte-identity, durability, degradation.

The acceptance contract of the standalone dealer process:

* logits served from dealer-fetched material are **byte-identical** to
  a server drawing its own bundles under equal seeds;
* a ``kill -9``'d dealer restarts from its disk-backed store and the
  serving request rides the restart out — retried logits byte-identical,
  ``bundles_recovered > 0``, restored bundles actually re-served;
* a dealer link under scheduled chaos (drop / corrupt / stall) recovers
  inside the RPC retry loop — logits unchanged;
* an unreachable dealer surfaces as a typed retriable busy reply that
  leaves the session connection alive, and the server never generates
  a bundle itself (every pool fetched all it generated);
* a dealer refusal reaches every client as a typed ``DealerError`` and
  costs no serving worker thread;
* pool accounting balances across all of it.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.mpc.chaos import ChaosController, FaultSpec
from repro.mpc.dealer import TrustedDealer
from repro.mpc.party import program_fingerprint
from repro.mpc.pool_store import PoolStore
from repro.mpc.preprocessing import (
    MaterialMismatch,
    draw_bundle,
    material_plan,
    split_bundle,
)
from repro.mpc.program import compile_program
from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
from repro.serve.dealer_service import (
    DealerBackedPool,
    DealerClient,
    DealerError,
    DealerServer,
    _record_segments,
    _unpack_record,
    stream_key,
)
from repro.serve.remote import (
    PoolBusy,
    RemoteClient,
    RemoteServer,
    derive_session_seed,
)

REQUESTS = 2
CLIENT_TIMEOUT = 10.0


@pytest.fixture(scope="module")
def victim():
    return tiny_victim(0)


@pytest.fixture(scope="module")
def program(victim):
    return compile_program(victim, TINY_BOUNDARY)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((REQUESTS, 1, 2, 8, 8), np.float32)


def _start_server(victim, **kwargs):
    kwargs.setdefault("workers", 2)
    server = RemoteServer(victim, TINY_BOUNDARY, seed=3, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _session_logits(port, images, session="s", seed=9, retries=0):
    client = RemoteClient(
        "127.0.0.1", port, noise_magnitude=0.1, seed=seed, session=session,
        timeout=CLIENT_TIMEOUT,
    )
    logits = [
        client.infer(batch, retries=retries).logits.tobytes() for batch in images
    ]
    client.close()
    return logits


@pytest.fixture(scope="module")
def baseline_logits(victim, images):
    """Fault-free logits from a server drawing its own bundles, same seeds."""
    server, thread = _start_server(victim)
    try:
        return _session_logits(server.port, images)
    finally:
        server.stop()
        thread.join(timeout=10.0)


def _start_dealer(program, store, **kwargs):
    dealer = DealerServer(program, store=store, **kwargs)
    dealer.start()
    return dealer


def _assert_fetched(metrics):
    """A dealer-backed server draws nothing itself: every bundle any of
    its pools generated was fetched from the dealer."""
    for name, pool in metrics["pools"].items():
        assert pool["bundles_fetched_remote"] == pool["bundles_generated"], (
            name, pool,
        )


def _assert_balanced(metrics, served):
    for name, pool in metrics["pools"].items():
        outstanding = (
            pool["bundles_consumed"]
            - pool["bundles_returned"]
            - pool["bundles_poisoned"]
        )
        assert outstanding == served, (name, pool)


class TestDealerBackedServing:
    def test_logits_byte_identical_to_inline_generation(
        self, victim, program, images, baseline_logits, tmp_path
    ):
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store=store)
        server, thread = _start_server(
            victim, dealer=("127.0.0.1", dealer.port)
        )
        try:
            logits = _session_logits(server.port, images)
            assert logits == baseline_logits
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["dealer"]["bundles_fetched_remote"] == REQUESTS
            _assert_fetched(metrics)
            _assert_balanced(metrics, REQUESTS)
            assert store.stats.bundles_spilled == REQUESTS
        finally:
            server.stop()
            thread.join(timeout=10.0)
            dealer.stop()
            store.close()

    def test_direct_party_fetch_matches_server_forwarded_half(
        self, program, tmp_path
    ):
        """The stricter topology: a party fetching its own half directly
        receives bytes identical to the half the server would forward.
        No reply carries the rng state; the stored record keeps it."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store=store)
        client = DealerClient("127.0.0.1", dealer.port)
        try:
            joint = client.fetch(1, 42, 0)
            blob0, blob1, state = _unpack_record(joint)
            assert state == b"", "a forwarded reply must not carry the rng state"
            stored = _unpack_record(store.get(stream_key(dealer.fingerprint, 1, 42), 0))
            assert stored[:2] == (blob0, blob1) and stored[2], stored[2]
            half0 = _unpack_record(client.fetch(1, 42, 0, party=0))
            half1 = _unpack_record(client.fetch(1, 42, 0, party=1))
            assert half0 == (blob0, b"", b"")
            assert half1 == (b"", blob1, b"")
        finally:
            client.close()
            dealer.stop()
            store.close()

    def test_restarted_dealer_continues_stream_identically(
        self, program, tmp_path
    ):
        """A dealer restarted from its store resumes the rng stream: the
        *next* (never-stored) bundle equals the uninterrupted stream's."""
        store = PoolStore(tmp_path / "restarted")
        dealer = _start_dealer(program, store=store)
        client = DealerClient("127.0.0.1", dealer.port)
        witness_store = PoolStore(tmp_path / "uninterrupted")
        uninterrupted = _start_dealer(program, witness_store)  # never restarted
        witness = DealerClient("127.0.0.1", uninterrupted.port)
        try:
            for seq in range(2):
                client.fetch(1, 7, seq)
            dealer.stop()
            client.close()
            store.close()

            reopened = PoolStore(tmp_path / "restarted")
            revived = _start_dealer(program, store=reopened)
            client = DealerClient("127.0.0.1", revived.port)
            assert reopened.stats.bundles_recovered == 2
            record = client.fetch(1, 7, 2)  # beyond the stored tail
            expected = witness.fetch(1, 7, 2)
            _assert_records_equal(record, expected)
            stats = client.stats()
            assert stats["bundles_generated"] == 1  # only seq 2, no replay
            revived.stop()
            reopened.close()
        finally:
            client.close()
            witness.close()
            uninterrupted.stop()
            witness_store.close()


def _assert_records_equal(record, reference):
    """Two sealed records are the same bytes: the container is a pure
    function of the material and the record of its containers, whenever
    and by whichever dealer process they were written."""
    assert bytes(record) == bytes(reference)


class TestVersion2Store:
    @staticmethod
    def _write_version_2_record(program, seed, directory, version_2_container):
        """The first batch-1 record of ``seed``'s stream, as a dealer of
        container version 2 stored it."""
        dealer = TrustedDealer(seed=seed)  # batch 1: the stream seed is the seed
        bundle = draw_bundle(dealer, material_plan(program, 1))
        record = b"".join(
            _record_segments(
                [version_2_container(split_bundle(bundle, 0))],
                [version_2_container(split_bundle(bundle, 1))],
                json.dumps(dealer.state()).encode("utf-8"),
            )
        )
        with PoolStore(directory) as written:
            written.put(stream_key(program_fingerprint(program), 1, seed), 0, record)

    def test_a_version_2_record_is_refused_by_version(
        self, program, tmp_path, version_2_container
    ):
        """A store an older dealer wrote, reopened: the dealer serves the
        record verbatim and the pool refuses it typed, naming the version."""
        self._write_version_2_record(program, 7, tmp_path, version_2_container)
        store = PoolStore(tmp_path)
        server = _start_dealer(program, store)
        client = DealerClient("127.0.0.1", server.port)
        pool = DealerBackedPool(
            program, 1, dealer_seed=7, client=client, fetch_deadline=2.0
        )
        try:
            with pytest.raises(
                MaterialMismatch, match="^unknown party bundle version 2$"
            ) as refused:
                pool.acquire_bundle()
            assert refused.value.__context__ is None  # no parse error behind it
            assert server.stats()["served_from_store"] == 1
            assert pool.available == 0
        finally:
            pool.close()
            server.stop()
            store.close()

    def test_a_served_version_2_record_is_a_typed_refusal(
        self, victim, program, images, tmp_path, version_2_container
    ):
        """The same record behind a serving process: each request gets the
        version refusal as a non-retriable ``DealerError`` in its bundle
        slot, and every worker thread lives on — the refusal escaping the
        request used to end the worker and close the client's connection."""
        seed = derive_session_seed(3, None)  # _start_server's anonymous session
        self._write_version_2_record(program, seed, tmp_path, version_2_container)
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store)
        server, thread = _start_server(victim, dealer=("127.0.0.1", dealer.port))
        client = RemoteClient(
            "127.0.0.1", server.port, noise_magnitude=0.1, seed=9, timeout=3.0
        )
        try:
            for _ in range(server.workers + 1):
                with pytest.raises(DealerError, match="unknown party bundle version 2"):
                    client.infer(images[0])
            workers = server._worker_threads
            assert len(workers) == server.workers
            assert all(worker.is_alive() for worker in workers)
            client.close()
            assert server.wait_idle(timeout=10.0)
            assert server.metrics()["requests_served"] == 0
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)
            dealer.stop()
            store.close()


class TestWarmRefusal:
    def test_warm_replies_typed_error_and_keeps_connection(
        self, program, tmp_path
    ):
        """Regression: a non-retriable DealerError raised while warming
        must come back as a typed error reply. Before the fix it escaped
        _dispatch and killed the connection thread without any reply, so
        the client retried a configuration error until its deadline and
        reported DealerUnreachable."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store)
        client = DealerClient("127.0.0.1", dealer.port, timeout=2.0)
        try:
            client.warm(1, 7, count=1)
            # Lose the stored history after the rng moved past it (as a
            # torn record is dropped): the next warm of seq 0 cannot
            # regenerate without forking the stream -> DealerError,
            # immediately, with zero retries.
            store._index.clear()
            with pytest.raises(DealerError, match="predates"):
                client.warm(1, 7, count=1)
            assert client.rpc_retries == 0
            # The refusal cost nothing but the reply: the same
            # connection still serves requests.
            assert client.stats()["ok"] is True
        finally:
            client.close()
            dealer.stop()
            store.close()


class TestChaosOnDealerLink:
    def test_rpc_rides_out_drop_corrupt_stall(
        self, victim, program, images, baseline_logits, tmp_path
    ):
        """Scheduled faults on the dealer link are absorbed inside the
        RPC retry loop: every bundle is still fetched remotely and the
        logits stay byte-identical."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store=store)
        controller = ChaosController(
            [
                FaultSpec("corrupt", label="dealer-req", occurrence=1),
                FaultSpec("drop", label="dealer-req", occurrence=2),
                FaultSpec("stall", label="dealer-req", occurrence=3,
                          stall_s=2.0),
            ]
        )
        server, thread = _start_server(
            victim,
            dealer=("127.0.0.1", dealer.port),
            dealer_timeout=1.0,
            # Room for all three faults (the stall alone holds the frame
            # for 2 s) before the fetch would give up.
            dealer_fetch_deadline=10.0,
            dealer_transport_wrapper=controller.wrap,
        )
        try:
            logits = _session_logits(server.port, images)
            assert logits == baseline_logits
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["dealer"]["bundles_fetched_remote"] == REQUESTS
            _assert_fetched(metrics)
            assert metrics["dealer"]["dealer_rpc_retries"] >= 3
            assert len(controller.trace.events) == 3, "all faults fired"
        finally:
            server.stop()
            thread.join(timeout=10.0)
            dealer.stop()
            store.close()


class TestGracefulDegradation:
    def test_dead_dealer_surfaces_typed_busy_and_keeps_connection(
        self, victim, program, images, baseline_logits, tmp_path
    ):
        """No dealer at the endpoint: the client gets a typed retriable
        busy reply on a connection that stays alive, and the server
        generates nothing itself. A dealer then starting on that port
        serves the *same* connection's retry byte-identical logits."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        server, thread = _start_server(
            victim,
            dealer=("127.0.0.1", dead_port),
            dealer_timeout=0.3,
            dealer_fetch_deadline=0.3,
        )
        client = RemoteClient(
            "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
            session="s", timeout=CLIENT_TIMEOUT,
        )
        dealer = None
        store = PoolStore(tmp_path)
        try:
            with pytest.raises(PoolBusy):
                client.infer(images[0])
            assert server.metrics()["dealer"]["bundles_fetched_remote"] == 0
            _assert_fetched(server.metrics())
            transport_before = client.transport
            dealer = _start_dealer(program, store, port=dead_port)
            logits = [
                client.infer(batch, retries=3).logits.tobytes()
                for batch in images
            ]
            assert client.transport is transport_before
            assert logits == baseline_logits
            # Counters land after the reply is on the wire: quiesce the
            # session before reading them.
            client.close()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["requests_busy"] >= 1
            assert metrics["requests_served"] == REQUESTS
            _assert_fetched(metrics)
            _assert_balanced(metrics, REQUESTS)
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)
            if dealer is not None:
                dealer.stop()
            store.close()


class TestDealerRefusal:
    def test_refusal_reaches_every_client_and_no_worker_dies(
        self, victim, images, tmp_path
    ):
        """A dealer compiled at another boundary refuses the server's
        pools (fingerprint mismatch). Each of ``workers + 1`` requests
        gets that refusal as a typed ``DealerError`` in its bundle slot,
        well inside its timeout, and every worker thread lives on — a
        refusal escaping the request used to end the thread serving it,
        until no worker was left to answer."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(compile_program(victim, TINY_BOUNDARY - 1), store)
        server, thread = _start_server(victim, dealer=("127.0.0.1", dealer.port))
        timeout = 3.0
        try:
            for _ in range(server.workers + 1):
                client = RemoteClient(
                    "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                    timeout=timeout,
                )
                start = time.monotonic()
                with pytest.raises(DealerError, match="fingerprint-mismatch"):
                    client.infer(images[0])
                assert time.monotonic() - start < timeout / 2
                client.close()
            workers = server._worker_threads
            assert len(workers) == server.workers
            assert all(worker.is_alive() for worker in workers)
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["requests_served"] == 0
            _assert_fetched(metrics)
        finally:
            server.stop()
            thread.join(timeout=10.0)
            dealer.stop()
            store.close()


class TestKillDashNine:
    def _spawn_dealer(self, store_dir, port=0, wait=True):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "dealer",
                "--tiny", "0", "--boundary", str(TINY_BOUNDARY),
                "--listen", f"127.0.0.1:{port}", "--store", str(store_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if not wait:
            return process, port
        banner = process.stdout.readline()
        assert "dealer listening on" in banner, banner
        bound = int(banner.rsplit(":", 1)[1])
        return process, bound

    def test_kill9_restart_serves_byte_identical_retried_logits(
        self, victim, images, baseline_logits, tmp_path
    ):
        """The tentpole acceptance: warm the dealer's store, serve one
        request, SIGKILL the dealer, restart it on the same port while a
        request is in flight — the serving process rides the restart out
        on recovered (restored-from-disk) bundles and the logits match
        the inline baseline byte for byte."""
        process, port = self._spawn_dealer(tmp_path)
        restarted = None
        server = None
        thread = None
        try:
            # Warm the *dealer's store* (not the server pool): both
            # stream positions are spilled to disk before the kill.
            warmer = DealerClient("127.0.0.1", port)
            warmer.warm(1, derive_session_seed(3, "s"), count=REQUESTS)
            warmer.close()

            server, thread = _start_server(
                victim, dealer=("127.0.0.1", port), dealer_timeout=2.0
            )
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session="s", timeout=CLIENT_TIMEOUT,
            )
            first = client.infer(images[0], retries=1).logits.tobytes()

            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10.0)
            # Relaunch on the same port but do NOT wait for it to come
            # up: the next request is already retrying against a dead
            # endpoint and must ride the restart out inside its fetch
            # deadline.
            restarted, _ = self._spawn_dealer(tmp_path, port=port, wait=False)

            second = client.infer(images[1], retries=1).logits.tobytes()
            client.close()
            assert [first, second] == baseline_logits

            stats = DealerClient("127.0.0.1", port)
            dealer_stats = stats.stats()
            stats.close()
            assert dealer_stats["store"]["bundles_recovered"] >= REQUESTS
            assert dealer_stats["served_from_store"] >= 1

            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["dealer"]["bundles_fetched_remote"] == REQUESTS
            _assert_fetched(metrics)
            _assert_balanced(metrics, REQUESTS)
        finally:
            if server is not None:
                server.stop()
                thread.join(timeout=10.0)
            for proc in (process, restarted):
                if proc is None:
                    continue
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)
                proc.stdout.close()


class TestAcquireReady:
    def test_dealer_backed_pool_pops_ready_or_none_without_an_rpc(
        self, program, tmp_path
    ):
        """The non-blocking acquire a ride-ahead promise is cut from: what
        a refill already fetched, or nothing — never a dealer call, so a
        dealer that is slow, busy or gone cannot reach a reply path."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store)
        client = DealerClient("127.0.0.1", dealer.port)
        pool = DealerBackedPool(
            program, 1, dealer_seed=7, client=client, fetch_deadline=0.5
        )
        try:
            assert pool.acquire_ready() is None
            assert client.transport is None  # never dialled
            pool.refill(1)
            dealer.stop()
            assert pool.acquire_ready() is not None
            assert pool.acquire_ready() is None  # acquire_bundle would raise here
            stats = pool.stats.as_dict()
            assert stats["bundles_fetched_remote"] == 1
            assert stats["bundles_fetched_remote"] == stats["bundles_generated"]
            assert stats["bundles_consumed"] == 1
            assert stats["misses"] == 0
            assert stats["dealer_rpc_retries"] == 0
        finally:
            pool.close()
            dealer.stop()
            store.close()
