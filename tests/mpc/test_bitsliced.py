"""The bitsliced boolean engine: packed kernels, byte-identity, cost model.

Four pillars of the uint64 packing refactor are pinned here:

* **Kernel correctness** — the packed word kernels against a naive
  bit-loop reference, at ring-boundary values (0, +-1, 2^62, 2^63-1,
  -2^63) and under hypothesis-driven randomness;
* **Byte-identity** — the dealer draws every array as one raw generator
  draw in the layout it is consumed in, party 0's rows from the bundle's
  client stream; the resnet20 smoke victim's logits (in-process *and*
  two-process loopback) hash to the values pinned below;
* **Cost-model exactness** — the per-label byte predictions in
  :mod:`repro.mpc.costs` equal both the Channel accounting and the
  measured socket payload of a real loopback run;
* **Serialization** — per-party bundle halves round-trip with the packed
  word dtypes intact, at the packed (shrunken) sizes.
"""

import hashlib
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from placements import run_parties, run_placements

from repro.mpc import Channel, FixedPointConfig, TrustedDealer
from repro.mpc.costs import (
    SUFFIX_AND_ROUNDS,
    WORD_BYTES,
    dealer_label_traffic,
    dealer_material_bytes,
    drelu_label_bytes,
    relu_label_bytes,
    relu_offline_material_bytes,
)
from repro.mpc.party import PartyEngine, program_manifest
from repro.mpc.preprocessing import (
    PreprocessingPool,
    RecordingDealer,
    ReplayDealer,
    pack_party_bundle,
    split_bundle,
    unpack_party_bundle,
)
from repro.mpc.program import compile_program
from repro.mpc.protocols import (
    public_less_than_shared,
    secure_drelu,
    secure_msb,
    secure_relu,
    word_parity,
)
from repro.mpc.dealer import client_stream
from repro.mpc.sharing import (
    COMPARISON_BITS,
    LOW63_MASK,
    random_bits,
    random_lanes,
    reconstruct_additive,
    reconstruct_boolean,
    share_additive,
    share_boolean_words,
)

CFG = FixedPointConfig(frac_bits=12)

# Ring-boundary values the comparison circuit must get right: 0, +-1,
# 2^62, 2^63 - 1 and -2^63 (the ring's most negative element).
RING_BOUNDARY_VALUES = np.array(
    [0, 1, (1 << 64) - 1, 1 << 62, (1 << 63) - 1, 1 << 63],
    dtype=np.uint64,
)

# Pins for the resnet20 smoke victim (width 0.25, model seed 0, boundary
# 3.5, pipeline seed 5, image rng(7)). Re-pinned once when the dealer moved
# to word draws and a per-bundle client stream (every draw changed; the
# online values, bytes and rounds did not).
PINNED_RESNET20_LOGITS_SHA256 = (
    "7ec863a3b1983ec233ba2edd1b2b8a8a6f9e2fef227eb1141920d1fc9c2950a4"
)
# Joint-engine boundary shares for vgg16 width 0.125, boundary 2.5,
# dealer_seed 11, share_seed 5, image rng(7) — pins the *share* stream,
# not just the reconstruction.
PINNED_VGG_SHARE0_SHA256 = (
    "dffd79cfbbe5bec4b8bca405bc6e8b8d722a1889940ad139ddb2492224e5e469"
)
PINNED_VGG_SHARE1_SHA256 = (
    "bbb586b5c9b8a7e57836c31fca72785ab0f87f39d2b6a6a6812ddd348b1e742d"
)


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def reference_less_than(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Naive bit-loop oracle for ``[z mod 2^63 < r mod 2^63]``.

    Walks the 63 bit positions from most to least significant, tracking
    the all-higher-bits-equal flag — the circuit specification evaluated
    one bit-plane at a time.
    """
    lt = np.zeros(z.shape, dtype=np.uint8)
    higher_equal = np.ones(z.shape, dtype=np.uint8)
    for i in range(COMPARISON_BITS - 1, -1, -1):
        z_i = ((z >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
        r_i = ((r >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
        lt ^= r_i & (1 - z_i) & higher_equal
        higher_equal &= 1 ^ z_i ^ r_i
    return lt


class TestPackedWords:
    def test_word_parity_matches_popcount(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 1 << 63, size=(257,), dtype=np.uint64)
        expected = np.array(
            [bin(int(w)).count("1") & 1 for w in words], dtype=np.uint8
        )
        np.testing.assert_array_equal(word_parity(words), expected)

    def test_share_words_reconstruct(self):
        rng = np.random.default_rng(4)
        words = random_lanes(rng, (11,))
        w0, w1 = share_boolean_words(words, rng)
        np.testing.assert_array_equal(w0 ^ w1, words)
        assert not ((w0 | w1) >> np.uint64(63)).any()


class TestAgainstNaiveReference:
    def test_less_than_at_ring_boundaries(self):
        """Every (z, r) pair from the boundary set, via the real circuit."""
        grid_z, grid_r = np.meshgrid(
            RING_BOUNDARY_VALUES, RING_BOUNDARY_VALUES, indexing="ij"
        )
        z = (grid_z.reshape(-1) & LOW63_MASK).astype(np.uint64)
        r = (grid_r.reshape(-1) & LOW63_MASK).astype(np.uint64)
        rng = np.random.default_rng(0)
        r_words = share_boolean_words(r, rng)
        lt, _ = run_placements(
            lambda rows, dealer, channel: public_less_than_shared(
                z, rows(r_words), dealer, channel
            )
        )
        np.testing.assert_array_equal(
            reconstruct_boolean(*lt), reference_less_than(z, r)
        )
        np.testing.assert_array_equal(
            reference_less_than(z, r), (z < r).astype(np.uint8)
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_less_than_matches_reference_on_random_words(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 1 << 63, size=(64,), dtype=np.uint64)
        r = rng.integers(0, 1 << 63, size=(64,), dtype=np.uint64)
        r_words = share_boolean_words(r, rng)
        lt, _ = run_placements(
            lambda rows, dealer, channel: public_less_than_shared(
                z, rows(r_words), dealer, channel
            ),
            seed,
        )
        np.testing.assert_array_equal(
            reconstruct_boolean(*lt), reference_less_than(z, r)
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_msb_at_ring_boundaries(self, seed):
        """Sign extraction at 0, +-1, 2^62, 2^63-1 and -2^63 exactly."""
        rng = np.random.default_rng(seed)
        values = RING_BOUNDARY_VALUES
        shares = share_additive(values, rng)
        msb, _ = run_placements(
            lambda rows, dealer, channel: secure_msb(rows(shares), dealer, channel),
            seed,
        )
        np.testing.assert_array_equal(
            reconstruct_boolean(*msb),
            ((values >> np.uint64(63)) & np.uint64(1)).astype(np.uint8),
        )

    def test_relu_at_ring_boundaries(self):
        rng = np.random.default_rng(9)
        values = RING_BOUNDARY_VALUES
        shares = share_additive(values, rng)
        ys, _ = run_placements(
            lambda rows, dealer, channel: secure_relu(rows(shares), dealer, channel),
            seed=9,
        )
        signed = values.astype(np.int64)
        expected = np.where(signed >= 0, values, np.uint64(0)).astype(np.uint64)
        np.testing.assert_array_equal(reconstruct_additive(*ys), expected)


class TestDealerDraws:
    """Every dealer array is one raw generator draw in the layout it is
    consumed in: secrets off the seeded stream, party 0's rows off the
    bundle's client stream, row 1 the correction."""

    @given(
        st.integers(0, 2**31),
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=3), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_bits_are_the_low_bits_of_whole_words(self, seed, shapes):
        """``n`` bits are the low bit of the first ``n`` bytes of a draw of
        ``ceil(n / 8)`` words (also for ``n`` not a multiple of eight, also
        none), so successive draws read the stream one big draw would."""
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for shape in shapes:
            got = random_bits(ours, shape)
            count = int(np.prod(shape))
            words = FixedPointConfig.random_ring(reference, -(-count // 8))
            want = (words.view(np.uint8)[:count] & 1).reshape(shape)
            assert got.dtype == np.uint8 and got.shape == tuple(shape)
            np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_bit_triples_are_word_draws(self):
        dealer = TrustedDealer(seed=123)  # a new dealer has a bundle open
        seed = dealer.begin_bundle()
        triple = dealer.bit_triples((5,))
        secret, client = np.random.default_rng(123), client_stream(seed)
        seeds = FixedPointConfig.random_ring(secret, 8).tobytes()
        assert seeds[32:] == seed and seeds[:32] != seed
        a = FixedPointConfig.random_ring(secret, (5,)) & LOW63_MASK
        b = FixedPointConfig.random_ring(secret, (5,)) & LOW63_MASK
        for shared, words in ((triple.a, a), (triple.b, b), (triple.c, a & b)):
            row0 = FixedPointConfig.random_ring(client, (5,)) & LOW63_MASK
            np.testing.assert_array_equal(shared[0], row0)
            np.testing.assert_array_equal(shared[1], words ^ row0)

    def test_both_streams_advance_by_exactly_what_was_dealt(self):
        """A beaver triple drawn after boolean material sits where a
        replica of the two streams says it should: no draw is wider than
        the array it fills, and the streams never borrow from each other."""
        dealer = TrustedDealer(seed=7)
        dealer.bit_triples((3,))  # in the bundle a new dealer has open
        dealer.comparison_masks((4,))
        triple = dealer.beaver_triples((8,))

        secret = np.random.default_rng(7)
        client = client_stream(FixedPointConfig.random_ring(secret, 4).tobytes())
        for _ in range(2):  # bit triple: a, b
            FixedPointConfig.random_ring(secret, (3,))
        for _ in range(3):  # ... and the free row of a, b, c
            FixedPointConfig.random_ring(client, (3,))
        FixedPointConfig.random_ring(secret, (4,))  # comparison mask r
        FixedPointConfig.random_ring(client, (4,))  # r's additive row 0
        FixedPointConfig.random_ring(client, (4,))  # low words row 0
        FixedPointConfig.random_ring(client, 1)  # msb row 0: 4 bits, one word
        a = FixedPointConfig.random_ring(secret, (8,))
        np.testing.assert_array_equal(reconstruct_additive(*triple.a), a)
        np.testing.assert_array_equal(
            triple.a[0], FixedPointConfig.random_ring(client, (8,))
        )

    def test_a_state_at_a_bundle_boundary_pins_what_follows(self):
        """``state()`` holds the secret stream alone: restored, the next
        bundle opens with the same seed and deals the same material."""
        dealer = TrustedDealer(seed=3)
        dealer.begin_bundle()
        dealer.comparison_masks((6,))
        state = dealer.state()
        seed = dealer.begin_bundle()
        first = dealer.comparison_masks((6,))
        dealer.beaver_triples((2,))
        dealer.restore_state(state)
        assert dealer.begin_bundle() == seed
        again = dealer.comparison_masks((6,))
        for key in ("r", "low_bits", "msb"):
            np.testing.assert_array_equal(getattr(first, key), getattr(again, key))

    def test_joint_engine_shares_match_pin(self):
        from repro.models import vgg16

        victim = vgg16(width_mult=0.125, rng=np.random.default_rng(0)).eval()
        program = compile_program(victim, 2.5)
        from repro.mpc import SecureInferenceEngine

        pool = PreprocessingPool(program, batch=1, dealer_seed=11)
        pool.refill(1)
        engine = SecureInferenceEngine.from_program(
            program, dealer_seed=11, share_seed=5
        )
        image = np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)
        result = engine.run(image, material=pool.acquire())
        assert _sha256(result.shares[0]) == PINNED_VGG_SHARE0_SHA256
        assert _sha256(result.shares[1]) == PINNED_VGG_SHARE1_SHA256


@pytest.fixture(scope="module")
def resnet_victim():
    from repro.serve.remote import _demo_victim

    return _demo_victim("resnet20", 0.25, 0)


@pytest.fixture(scope="module")
def resnet_image():
    return np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)


class TestLogitsPin:
    """Acceptance pin: the same logits in-process and over the
    two-process loopback, byte for byte."""

    def test_in_process_pipeline_logits(self, resnet_victim, resnet_image):
        from repro.core import C2PIPipeline

        pipeline = C2PIPipeline(resnet_victim, 3.5, noise_magnitude=0.1, seed=5)
        pipeline.prepare_offline(batch=1, bundles=1)
        result = pipeline.infer(resnet_image)
        assert (
            _sha256(np.asarray(result.logits, dtype=np.float32))
            == PINNED_RESNET20_LOGITS_SHA256
        )

    def test_two_process_loopback_logits(self, resnet_victim, resnet_image):
        from repro.serve.remote import RemoteClient, RemoteServer

        server = RemoteServer(resnet_victim, 3.5, seed=5)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=5
            )
            reply = client.infer(resnet_image)
            client.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert reply.bytes_match
        assert (
            _sha256(np.asarray(reply.logits, dtype=np.float32))
            == PINNED_RESNET20_LOGITS_SHA256
        )


class TestCostModelMatchesReality:
    def test_drelu_label_bytes_exact(self):
        rng = np.random.default_rng(0)
        n = 777
        x = share_additive(
            CFG.encode(rng.uniform(-4, 4, size=(n,)).astype(np.float32)), rng
        )
        channel = Channel()
        secure_drelu(x, TrustedDealer(seed=0), channel)
        predicted = drelu_label_bytes(n)
        measured = {
            label: snap.total_bytes for label, snap in channel.by_label.items()
        }
        assert measured == predicted
        assert channel.rounds == 1 + SUFFIX_AND_ROUNDS

    def test_relu_label_bytes_exact(self):
        rng = np.random.default_rng(1)
        n = 1024
        x = share_additive(
            CFG.encode(rng.uniform(-4, 4, size=(n,)).astype(np.float32)), rng
        )
        channel = Channel()
        secure_relu(x, TrustedDealer(seed=1), channel)
        measured = {
            label: snap.total_bytes for label, snap in channel.by_label.items()
        }
        assert measured == relu_label_bytes(n)

    def test_relu_offline_material_bytes_exact(self):
        """The modeled material footprint equals the generated arrays."""
        from repro.bench.protocols import material_nbytes

        n = 513
        rng = np.random.default_rng(2)
        x = share_additive(
            CFG.encode(rng.uniform(-4, 4, size=(n,)).astype(np.float32)), rng
        )
        collector = RecordingDealer(TrustedDealer(seed=2))
        secure_relu(x, collector, Channel())
        measured: dict = {}
        for request, material in collector.items:
            measured[request.method] = measured.get(
                request.method, 0
            ) + material_nbytes(material)
        assert measured == relu_offline_material_bytes(n)
        # The packed bit-triple footprint: 336 B/element (was 2646).
        assert measured["bit_triples"] == 336 * n

    def test_loopback_payload_matches_plan_prediction(
        self, resnet_victim, resnet_image
    ):
        """The CI contract: measured and-open socket payload (and every
        other protocol label) equals the costs.py prediction derived from
        the material plan alone."""
        program = compile_program(resnet_victim, 3.5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        bundle = pool.acquire_bundle()
        predicted = dealer_label_traffic(pool.requirements())

        client = PartyEngine.from_manifest(
            program_manifest(program), share_seed=4
        )
        server = PartyEngine.from_program(program, party=1)
        out, _ = run_parties(
            lambda io: client.run(
                io, ReplayDealer(split_bundle(bundle, 0)), x=resnet_image
            ),
            lambda io: server.run(io, ReplayDealer(split_bundle(bundle, 1)), batch=1),
        )

        transport = out[0].transport
        for label, expected in predicted.items():
            accounted = transport.by_label[label].total_bytes
            measured = transport.stats.raw_by_label[label]
            assert accounted == expected, label
            assert measured == expected, label
        # The prediction plus the input share covers the whole online phase.
        input_bytes = transport.by_label["input-share"].total_bytes
        assert sum(predicted.values()) + input_bytes == transport.total_bytes

    def test_material_bytes_prediction(self, resnet_victim):
        program = compile_program(resnet_victim, 3.5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=5)
        bundle = pool.acquire_bundle()
        from repro.bench.protocols import material_nbytes

        measured: dict = {}
        for request, material in bundle:
            if request.method == "linear_correlation":
                continue
            measured[request.method] = measured.get(
                request.method, 0
            ) + material_nbytes(material)
        assert measured == dealer_material_bytes(pool.requirements())


class TestPackedBundleSerialization:
    def test_party_rows_roundtrip_with_word_dtypes(self, resnet_victim):
        program = compile_program(resnet_victim, 3.5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=6)
        items = split_bundle(pool.acquire_bundle(), 0)
        restored = unpack_party_bundle(pack_party_bundle(items))
        assert [(r.method, r.shape) for r, _ in restored] == [
            (r.method, r.shape) for r, _ in items
        ]
        for (_, ours), (_, theirs) in zip(restored, items):
            for field in fields(theirs):
                original = getattr(theirs, field.name)
                if original is None:  # the server's field of a linear layer
                    continue
                assert getattr(ours, field.name).dtype == original.dtype
                np.testing.assert_array_equal(getattr(ours, field.name), original)
        # Packed boolean rows: triple words and mask words are uint64.
        bit_items = [m for r, m in restored if r.method == "bit_triples"]
        assert bit_items and all(
            getattr(m, key).dtype == np.uint64 for m in bit_items for key in "abc"
        )
        mask_items = [m for r, m in restored if r.method == "comparison_masks"]
        assert mask_items and all(m.low_bits.dtype == np.uint64 for m in mask_items)

    def test_packed_rows_are_smaller_than_byte_per_bit(self, resnet_victim):
        """>= 4x offline shrink: one party's bit-triple rows cost 8 bytes
        per element per array versus 63 in the seed layout."""
        program = compile_program(resnet_victim, 3.5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=8)
        triples = [
            m
            for r, m in split_bundle(pool.acquire_bundle(), 0)
            if r.method == "bit_triples"
        ]
        packed_bits = sum(getattr(m, key).nbytes for m in triples for key in "abc")
        elements = sum(m.a.size for m in triples)
        assert packed_bits == elements * 3 * WORD_BYTES
        byte_per_bit_baseline = elements * 3 * COMPARISON_BITS
        assert byte_per_bit_baseline >= 4 * packed_bits
