"""Placement equivalence: one request, three placements, the same bytes.

The protocols, the program executor, the noised reveal and the clear tail
exist once; the channel they are handed decides whether both parties' rows
live in this process or one party talks to its peer over a transport.
These tests run the same whole request — input sharing, crypto segment,
noised reveal, clear tail — on the same program, input and offline bundle
under every placement — in-process (:class:`Channel`), two threads over
:class:`QueueTransport`, two threads over TCP :class:`PeerChannel` — and
pin:

* boundary shares identical, row for row, and the server's view and the
  logits identical byte for byte;
* channel accounting (bytes, rounds, messages, per-label breakdown,
  ``noised-reveal`` included) identical on every party of every placement;
* measured raw wire payload equal to the channel accounting;
* a wrong-batch bundle is a typed ``MaterialMismatch`` on every party of
  every placement, at its first item;
* the client executes a weight-free program reconstructed from the
  handshake manifest — no weights ever reach party 0.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from placements import labels, run_parties

from repro import nn
from repro.core.c2pi import clear_tail, noised_reveal
from repro.core.noise import NoiseMechanism
from repro.models import resnet20
from repro.models.layered import LayeredModel
from repro.mpc import SecureInferenceEngine, compile_program
from repro.mpc.network import Channel
from repro.mpc.party import PartyEngine, ops_from_manifest, program_manifest
from repro.mpc.preprocessing import (
    MaterialMismatch,
    PreprocessingPool,
    ReplayDealer,
    fuse_bundles,
    material_plan,
    pack_party_bundle,
    split_bundle,
    unpack_party_bundle,
)
from repro.mpc.program import ConvOp, LinearOp
from repro.mpc.sharing import reconstruct_additive
from repro.mpc.transport import QueueTransport

PLACEMENTS = ("in-process", "queue", "tcp")


def _pool_victim(pool: nn.Module) -> LayeredModel:
    rng = np.random.default_rng(3)
    modules = [
        nn.Conv2d(1, 3, 3, padding=1, rng=rng),
        nn.ReLU(),
        pool,
        nn.Conv2d(3, 2, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(2 * 4 * 4, 4, rng=rng),
    ]
    return LayeredModel(modules, name="tiny", input_shape=(1, 8, 8)).eval()


@pytest.fixture(scope="module")
def programs():
    resnet = resnet20(width_mult=0.25, rng=np.random.default_rng(1)).eval()
    maxpool = _pool_victim(nn.MaxPool2d(2))
    avgpool = _pool_victim(nn.AvgPool2d(2))
    return {
        "resnet20@3.5": compile_program(resnet, 3.5),
        "max-pool": compile_program(maxpool, maxpool.layer_ids[-1]),
        "avg-pool": compile_program(avgpool, avgpool.layer_ids[-1]),
    }


@pytest.fixture(scope="module")
def program(programs):
    return programs["resnet20@3.5"]


def _bundle(program, batch: int, dealer_seed: int = 11):
    """One offline bundle; batch > 1 is fused from batch-1 bundles, the
    way the serving layer builds it."""
    pool = PreprocessingPool(program, batch=1, dealer_seed=dealer_seed)
    bundles = [pool.acquire_bundle() for _ in range(batch)]
    return fuse_bundles(bundles, material_plan(program, batch))


def _images(program, batch: int) -> np.ndarray:
    return np.random.default_rng(7).random(
        (batch, *program.input_shape), dtype=np.float32
    )


@dataclass
class Run:
    shares: np.ndarray  # (2, ...): row p is party p's boundary share
    channels: list[Channel]  # every party's accounting
    tallies: list
    server_view: bytes  # what the server saw and answered, row group by
    logits: bytes  # row group (one batch-1 group per row, as when fused)


def _noises(batch: int):
    """One batch-1 row group per row, each on its own noise stream."""
    return [(NoiseMechanism(0.1, seed=40 + i), slice(i, i + 1)) for i in range(batch)]


def run_placement(program, images, bundle, placement: str, share_seed: int = 5) -> Run:
    """One whole request on ``images`` with ``bundle`` under one placement."""
    batch = images.shape[0]

    def finish(channel, shares, noises):
        """Reveal and, where the server's row lives, the clear tail."""
        ring = noised_reveal(channel, shares, noises, program.config)
        if ring is None:
            return None
        tails = [clear_tail(program, ring[i : i + 1]) for i in range(batch)]
        return (
            b"".join(view.tobytes() for view, _ in tails),
            b"".join(logits.tobytes() for _, logits in tails),
        )

    if placement == "in-process":
        engine = SecureInferenceEngine.from_program(program, share_seed=share_seed)
        result = engine.run(images, material=ReplayDealer(bundle))
        view, logits = finish(result.channel, result.shares, _noises(batch))
        return Run(result.shares, [result.channel], result.tallies, view, logits)
    # The client's rows cross the wire as a blob, exactly as deployed: the
    # seed of one dealer bundle, in a receive buffer. A fused bundle has no
    # one seed (and no networked path fuses): its rows are handed over.
    client_rows = split_bundle(bundle, 0)
    if client_rows.seed is not None:
        client_rows = unpack_party_bundle(bytearray(pack_party_bundle(client_rows)))
    client = PartyEngine.from_manifest(program_manifest(program), share_seed=share_seed)
    server = PartyEngine.from_program(program, party=1)

    def party(engine, material, noises, **inputs):
        def side(io):
            out = engine.run(io, ReplayDealer(material), **inputs)
            return out, finish(io, out.share[None], noises)

        return side

    out, ios = run_parties(
        party(client, client_rows, _noises(batch), x=images),
        party(server, split_bundle(bundle, 1), [], batch=batch),
        placement,
    )
    (client_out, _), (server_out, (view, logits)) = out[0], out[1]
    return Run(
        np.stack([client_out.share, server_out.share]),
        list(ios),
        client_out.tallies,
        view,
        logits,
    )


class TestPlacementEquivalence:
    @pytest.mark.parametrize("batch", (1, 2))
    @pytest.mark.parametrize("victim", ("resnet20@3.5", "max-pool", "avg-pool"))
    def test_shares_accounting_and_wire_are_identical(self, programs, victim, batch):
        program = programs[victim]
        images, bundle = _images(program, batch), _bundle(program, batch)
        reference = run_placement(program, images, bundle, "in-process")
        (joint,) = reference.channels
        assert reference.shares.shape == (2, batch, *program.output_shape)
        assert labels(joint)["noised-reveal"] == (reference.shares[0].nbytes, 0, 1, 1)
        for placement in PLACEMENTS[1:]:
            run = run_placement(program, images, bundle, placement)
            np.testing.assert_array_equal(run.shares, reference.shares)
            assert run.server_view == reference.server_view, placement
            assert run.logits == reference.logits, placement
            for party in run.channels:
                assert labels(party) == labels(joint), placement
                assert party.total_bytes == joint.total_bytes
                assert party.rounds == joint.rounds
                assert party.messages == joint.messages
                # Raw wire payload == channel bytes, per direction.
                assert party.stats.raw_payload_total == party.total_bytes
            client = run.channels[0]
            assert client.stats.raw_payload_sent == client.bytes_client_to_server
            assert client.stats.raw_payload_received == client.bytes_server_to_client

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_no_placement_writes_the_material(self, program, placement):
        """Retries replay a bundle, so nothing may write it: the same
        shares come out when every array of the bundle is read-only (the
        client's rows already are, redrawn from the blob's seed)."""
        images, bundle = _images(program, 1), _bundle(program, 1)
        reference = run_placement(program, images, bundle, placement)
        for _, material in bundle:
            for array in vars(material).values():
                array.flags.writeable = False
        frozen = run_placement(program, images, bundle, placement)
        np.testing.assert_array_equal(frozen.shares, reference.shares)

    def test_tally_stream_matches(self, program):
        images, bundle = _images(program, 1), _bundle(program, 1)
        joint = run_placement(program, images, bundle, "in-process")
        party = run_placement(program, images, bundle, "queue")
        assert [t.kind for t in party.tallies] == [t.kind for t in joint.tallies]
        for ours, theirs in zip(party.tallies, joint.tallies):
            assert ours.traffic.total_bytes == theirs.traffic.total_bytes
            assert ours.traffic.rounds == theirs.traffic.rounds

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_wrong_batch_bundle_is_a_typed_mismatch_on_every_party(
        self, program, placement
    ):
        """A batch-2 bundle fed to a batch-1 run fails at the first item
        with ``MaterialMismatch`` — on the client *and* the server, not as
        a numpy broadcasting error on one and a peer timeout on the other."""
        with pytest.raises(MaterialMismatch, match="program/batch mismatch") as info:
            run_placement(program, _images(program, 1), _bundle(program, 2), placement)
        if placement != "in-process":
            failures = info.value.failures
            assert sorted(failures) == [0, 1]
            assert all(isinstance(exc, MaterialMismatch) for exc in failures.values())


class TestManifest:
    def test_manifest_is_weight_free(self, program):
        manifest = program_manifest(program)
        assert manifest["model"] == program.model.name
        blob = repr(manifest)
        assert "weight_ring" not in blob and "bias_ring" not in blob
        ops = ops_from_manifest(manifest)
        assert [op.kind for op in ops] == [op.kind for op in program.ops]
        for op in ops:
            if isinstance(op, (ConvOp, LinearOp)):
                assert op.weight_ring is None
                assert op.bias_ring is None

    def test_manifest_roundtrips_through_json(self, program):
        manifest = json.loads(json.dumps(program_manifest(program)))
        ops = ops_from_manifest(manifest)
        assert [tuple(op.out_shape) for op in ops] == [
            tuple(op.out_shape) for op in program.ops
        ]

    def test_server_party_requires_encoded_program(self, program):
        shapes_only = compile_program(program.model, 3.5, encode_weights=False)
        with pytest.raises(ValueError, match="encoded"):
            PartyEngine.from_program(shapes_only, party=1)


class TestPartyEngineValidation:
    def test_client_requires_input(self, program):
        client_io, _ = QueueTransport.pair()
        engine = PartyEngine.from_manifest(program_manifest(program))
        with pytest.raises(ValueError, match="input batch"):
            engine.run(client_io, ReplayDealer([]))

    def test_server_requires_batch(self, program):
        _, server_io = QueueTransport.pair()
        engine = PartyEngine.from_program(program, party=1)
        with pytest.raises(ValueError, match="batch size"):
            engine.run(server_io, ReplayDealer([]))

    def test_party_transport_mismatch(self, program):
        _, server_io = QueueTransport.pair()
        engine = PartyEngine.from_manifest(program_manifest(program))
        with pytest.raises(ValueError, match="party"):
            engine.run(server_io, ReplayDealer([]), x=np.zeros((1, 3, 32, 32), np.float32))

    def test_wrong_shape_rejected(self, program):
        client_io, _ = QueueTransport.pair()
        engine = PartyEngine.from_manifest(program_manifest(program))
        with pytest.raises(ValueError, match="per-sample shape"):
            engine.run(
                client_io,
                ReplayDealer([]),
                x=np.zeros((1, 1, 8, 8), np.float32),
            )


class TestPartyBundles:
    def test_split_is_a_complementary_row_view(self, program):
        bundle = _bundle(program, 1, dealer_seed=2)
        client_rows = split_bundle(bundle, 0)
        server_rows = split_bundle(bundle, 1)
        assert len(client_rows) == len(server_rows) == len(bundle)
        for (request, joint), (_, rows0), (_, rows1) in zip(
            bundle, client_rows, server_rows
        ):
            if request.method != "beaver_triples":
                continue
            # Views of the joint rows, no copy...
            assert rows0.a.shape == (1, *request.shape)
            assert np.shares_memory(rows0.a, joint.a)
            assert np.shares_memory(rows1.c, joint.c)
            # ...that recombine to a * b = c across the two parties.
            a = reconstruct_additive(rows0.a[0], rows1.a[0])
            b = reconstruct_additive(rows0.b[0], rows1.b[0])
            c = reconstruct_additive(rows0.c[0], rows1.c[0])
            np.testing.assert_array_equal(c, a * b)
            break
        else:  # pragma: no cover - the program has ReLUs
            pytest.fail("no beaver triple in the bundle")

    def test_linear_correlation_rows_hold_only_their_owner_fields(self, program):
        bundle = _bundle(program, 1, dealer_seed=2)
        (_, client), (_, server) = split_bundle(bundle, 0)[0], split_bundle(bundle, 1)[0]
        assert client.server_offset is None
        assert server.mask is None and server.client_offset is None

    def test_pack_unpack_roundtrip(self, program):
        for party in (0, 1):
            rows = split_bundle(_bundle(program, 1, dealer_seed=2), party)
            restored = unpack_party_bundle(pack_party_bundle(rows))
            assert len(restored) == len(rows)
            for (request, ours), (original, theirs) in zip(restored, rows):
                assert request.method == original.method
                assert type(ours) is type(theirs)
                for key, array in vars(theirs).items():
                    if array is None:
                        assert getattr(ours, key) is None
                    else:
                        assert getattr(ours, key).dtype == array.dtype
                        np.testing.assert_array_equal(getattr(ours, key), array)
                # A lone server half cannot name a linear layer's input shape.
                lone = party == 1 and request.method == "linear_correlation"
                assert request.shape == (None if lone else original.shape)

    def test_pack_refuses_a_joint_bundle(self, program):
        """Packing both parties' rows would ship one party the other's halves."""
        bundle = _bundle(program, 1, dealer_seed=2)
        with pytest.raises(ValueError, match="one party's rows"):
            pack_party_bundle(bundle)
        relu_item = next(item for item in bundle if item[0].method == "dabits")
        with pytest.raises(ValueError, match="one party's rows"):
            pack_party_bundle([relu_item])

    def test_replay_validates_method_and_shape(self, program):
        rows = split_bundle(_bundle(program, 1, dealer_seed=2), 0)
        with pytest.raises(MaterialMismatch):
            ReplayDealer(rows).beaver_triples((1, 3, 32, 32))  # starts with a conv
        with pytest.raises(MaterialMismatch):
            ReplayDealer(rows).linear_correlation((2, 3, 32, 32), None)  # batch
        replay = ReplayDealer(rows)
        assert replay.linear_correlation((1, 3, 32, 32), None) is rows[0][1]
        assert (replay.consumed, replay.remaining) == (1, len(rows) - 1)
        assert ReplayDealer([]).remaining == 0
        with pytest.raises(MaterialMismatch, match="exhausted"):
            ReplayDealer([]).dabits((4,))
