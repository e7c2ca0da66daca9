"""The bitsliced boolean engine: packed kernels, byte-identity, cost model.

Four pillars of the uint64 packing refactor are pinned here:

* **Kernel correctness** — the packed word kernels against a naive
  bit-loop reference, at ring-boundary values (0, +-1, 2^62, 2^63-1,
  -2^63) and under hypothesis-driven randomness;
* **Byte-identity** — the packed dealer draws its randomness
  bit-plane-wise exactly like the byte-per-bit seed implementation, so
  the resnet20 smoke victim's logits (in-process *and* two-process
  loopback) still hash to the pre-refactor values recorded below;
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
from repro.mpc.sharing import (
    COMPARISON_BITS,
    LOW63_MASK,
    bit_decompose,
    pack_bit_words,
    random_bits,
    reconstruct_additive,
    reconstruct_boolean,
    share_additive,
    share_boolean_words,
    unpack_bit_words,
)

CFG = FixedPointConfig(frac_bits=12)

# Ring-boundary values the comparison circuit must get right: 0, +-1,
# 2^62, 2^63 - 1 and -2^63 (the ring's most negative element).
RING_BOUNDARY_VALUES = np.array(
    [0, 1, (1 << 64) - 1, 1 << 62, (1 << 63) - 1, 1 << 63],
    dtype=np.uint64,
)

# Pre-refactor pins for the resnet20 smoke victim (width 0.25, model seed
# 0, boundary 3.5, pipeline seed 5, image rng(7)): recorded from the
# byte-per-bit implementation at commit 90d2b8b, before the packed
# circuit became the default. The packed engine must reproduce them
# byte for byte.
PINNED_RESNET20_LOGITS_SHA256 = (
    "0af4b94574f1bb499b6985c92da31e03770f859dbee3f1326dc688c197f2fb9e"
)
# Joint-engine boundary shares for vgg16 width 0.125, boundary 2.5,
# dealer_seed 11, share_seed 5, image rng(7) — pins that even the *share*
# stream (not just the reconstruction) survived the packing unchanged.
PINNED_VGG_SHARE0_SHA256 = (
    "5f94325fd6d3ed46b3fbfb01c3efb89aeef192bef0d86c341df71724e349f52e"
)
PINNED_VGG_SHARE1_SHA256 = (
    "1d9b62da89940eba026b5d00baf2d0a247e8652c99d4f694ece3e017efbd9ca4"
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
    @given(st.integers(0, 2**31), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_pack_unpack_roundtrip(self, seed, k):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(7, k), dtype=np.uint8)
        words = pack_bit_words(bits)
        assert words.dtype == np.uint64 and words.shape == (7,)
        np.testing.assert_array_equal(unpack_bit_words(words, k), bits)

    def test_pack_is_little_endian(self):
        bits = np.zeros((1, 63), dtype=np.uint8)
        bits[0, 0] = 1
        bits[0, 62] = 1
        assert int(pack_bit_words(bits)[0]) == 1 | (1 << 62)

    def test_pack_rejects_too_many_lanes(self):
        with pytest.raises(ValueError, match="65 bits"):
            pack_bit_words(np.zeros((2, 65), dtype=np.uint8))

    def test_word_parity_matches_popcount(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 1 << 63, size=(257,), dtype=np.uint64)
        expected = np.array(
            [bin(int(w)).count("1") & 1 for w in words], dtype=np.uint8
        )
        np.testing.assert_array_equal(word_parity(words), expected)

    def test_share_words_reconstruct(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(11, 63), dtype=np.uint8)
        w0, w1 = share_boolean_words(bits, rng)
        np.testing.assert_array_equal(w0 ^ w1, pack_bit_words(bits))


class TestAgainstNaiveReference:
    def test_less_than_at_ring_boundaries(self):
        """Every (z, r) pair from the boundary set, via the real circuit."""
        grid_z, grid_r = np.meshgrid(
            RING_BOUNDARY_VALUES, RING_BOUNDARY_VALUES, indexing="ij"
        )
        z = (grid_z.reshape(-1) & LOW63_MASK).astype(np.uint64)
        r = (grid_r.reshape(-1) & LOW63_MASK).astype(np.uint64)
        rng = np.random.default_rng(0)
        r_words = share_boolean_words(bit_decompose(r, COMPARISON_BITS), rng)
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
        r_words = share_boolean_words(bit_decompose(r, COMPARISON_BITS), rng)
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


class TestDealerDrawEquivalence:
    """The packing must not move the dealer's random stream.

    The packed ``bit_triples``/``comparison_masks`` draw bit-planes with
    the exact ``rng.integers`` calls the byte-per-bit seed implementation
    made, then pack — this is what keeps every arithmetic draw (and hence
    every truncation rounding, and hence the logits) byte-identical.
    """

    @given(
        st.integers(0, 2**31),
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=3), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_bits_reads_the_bounded_uint8_stream(self, seed, shapes):
        """Same bits as ``rng.integers(0, 2, dtype=uint8)`` for every size
        (also not a multiple of four, also empty), and the generator ends
        in the same state — checked with a 32-bit and a 64-bit draw in
        between, which see numpy's buffered half of a 64-bit output."""
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for shape in shapes:
            got = random_bits(ours, shape)
            want = reference.integers(0, 2, size=shape, dtype=np.uint8)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            for dtype in (np.uint32, np.uint64):
                assert ours.integers(0, 1000, dtype=dtype) == reference.integers(
                    0, 1000, dtype=dtype
                )
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_bit_triples_draw_bit_planes(self):
        triple = TrustedDealer(seed=123).bit_triples((5,))
        reference = np.random.default_rng(123)
        a = reference.integers(0, 2, size=(5, 63), dtype=np.uint8)
        b = reference.integers(0, 2, size=(5, 63), dtype=np.uint8)
        c = (a & b).astype(np.uint8)
        for packed_pair, bits in ((triple.a, a), (triple.b, b), (triple.c, c)):
            share0 = reference.integers(0, 2, size=(5, 63), dtype=np.uint8)
            np.testing.assert_array_equal(packed_pair[0], pack_bit_words(share0))
            np.testing.assert_array_equal(
                packed_pair[1], pack_bit_words((bits ^ share0).astype(np.uint8))
            )

    def test_arithmetic_draws_unmoved_by_boolean_requests(self):
        """A beaver triple drawn after boolean material matches a replica
        of the seed implementation's stream position."""
        dealer = TrustedDealer(seed=7)
        dealer.bit_triples((3,))
        dealer.comparison_masks((4,))
        triple = dealer.beaver_triples((8,))

        reference = np.random.default_rng(7)
        for _ in range(5):  # bit triple: a, b + the three share draws
            reference.integers(0, 2, size=(3, 63), dtype=np.uint8)
        FixedPointConfig.random_ring(reference, (4,))  # comparison mask r
        FixedPointConfig.random_ring(reference, (4,))  # r's additive share0
        reference.integers(0, 2, size=(4, 63), dtype=np.uint8)  # low share0
        reference.integers(0, 2, size=(4,), dtype=np.uint8)  # msb share0
        a = FixedPointConfig.random_ring(reference, (8,))
        np.testing.assert_array_equal(reconstruct_additive(*triple.a), a)

    def test_joint_engine_shares_match_pre_refactor_pin(self):
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
    """Acceptance pin: packed-circuit logits byte-identical to the
    pre-refactor path, in-process and over the two-process loopback."""

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
