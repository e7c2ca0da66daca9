"""The party-bundle container: same bytes every time, party 1's rows read
in place, party 0's redrawn from the bundle's seed, and nothing but a typed
refusal for bytes that are not a container."""

import json
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.dealer import SEED_BYTES, TrustedDealer
from repro.mpc.preprocessing import (
    _CONTAINER,
    Bundle,
    MaterialMismatch,
    RecordingDealer,
    pack_party_bundle,
    party_bundle_segments,
    split_bundle,
    unpack_party_bundle,
)


def _rows(party: int = 1, seed: int = 0, n: int = 5, batch: int = 1):
    """One party's rows of a small bundle holding every kind of record.
    Five elements: the byte-per-bit arrays need alignment padding."""
    dealer = RecordingDealer(TrustedDealer(seed=seed))
    dealer.linear_correlation(
        (batch, 2, 3), lambda mask: mask.reshape(batch, 6)[:, :4]
    )
    dealer.comparison_masks((batch * n,))
    dealer.bit_triples((2, batch, n))
    dealer.dabits((batch * n,))
    dealer.beaver_triples((batch * n,))
    return split_bundle(dealer.take(), party)


def _body_start(blob: bytes) -> int:
    return _CONTAINER.size + _CONTAINER.unpack_from(blob)[2]


# Party 1's rows travel as bodies, party 0's as the bundle's seed.
VALID = pack_party_bundle(_rows(1))
SEEDED = pack_party_bundle(_rows(0))
BODY_START = _body_start(VALID)


def _with_manifest(manifest, blob: bytes = VALID) -> bytes:
    """``blob`` with its manifest replaced (and the header's length kept honest)."""
    encoded = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    head = _CONTAINER.pack(*_CONTAINER.unpack_from(blob)[:2], len(encoded))
    return head + encoded + blob[_body_start(blob) :]


def _manifest(blob: bytes = VALID) -> dict:
    return json.loads(blob[_CONTAINER.size : _body_start(blob)])


def _assert_same_rows(ours, theirs):
    assert len(ours) == len(theirs)
    for (request, got), (wanted, want) in zip(ours, theirs):
        assert request.method == wanted.method and type(got) is type(want)
        for field in fields(want):
            original = getattr(want, field.name)
            array = getattr(got, field.name)
            if original is None:
                assert array is None
                continue
            assert array.dtype == original.dtype and array.shape == original.shape
            assert array.tobytes() == original.tobytes(), (request.method, field.name)


class TestDeterminism:
    def test_same_material_packs_to_the_same_bytes_at_any_time(self, monkeypatch):
        """A pure function of the material: not of the clock (the npz
        container stamped every member), nor of which arrays hold it."""
        first = pack_party_bundle(_rows())
        clock = time.time
        monkeypatch.setattr(time, "time", lambda: clock() + 86400.0)
        assert pack_party_bundle(_rows()) == first

    def test_segments_laid_end_to_end_are_the_packed_bytes(self):
        segments = party_bundle_segments(_rows())
        assert b"".join(segments) == VALID
        # Bodies are views of the material, not copies of it.
        rows = _rows()
        offset = rows[0][1].server_offset
        assert any(
            np.shares_memory(np.asarray(segment), offset)
            for segment in party_bundle_segments(rows)[1:]
        )

    def test_layout_is_aligned_and_self_describing(self):
        assert len(VALID) % 8 == 0 and BODY_START % 8 == 0
        manifest = _manifest()
        assert manifest["bytes"] == len(VALID) - BODY_START
        offsets = [spec[3] for item in manifest["items"] for spec in item["arrays"]]
        assert all(offset % 8 == 0 for offset in offsets)
        assert offsets == sorted(offsets)

    @pytest.mark.parametrize("party", (0, 1))
    def test_roundtrip_repacks_to_the_same_bytes(self, party):
        blob = pack_party_bundle(_rows(party))
        assert pack_party_bundle(unpack_party_bundle(blob)) == blob


class TestReadInPlace:
    @pytest.mark.parametrize(
        "carrier", (bytes, bytearray, lambda blob: memoryview(bytearray(blob)))
    )
    def test_arrays_are_read_only_views_of_the_buffer(self, carrier):
        """Whatever the blob arrived in — also a writable receive buffer
        — party 1's material is views of it that cannot be written."""
        buffer = carrier(VALID)
        rows = unpack_party_bundle(buffer)
        _assert_same_rows(rows, _rows())
        assert rows.seed is None
        for _, material in rows:
            for field in fields(material):
                array = getattr(material, field.name)
                if array is None:
                    continue
                assert array.flags.aligned
                assert np.shares_memory(array, np.frombuffer(buffer, np.uint8))
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
                with pytest.raises(ValueError):
                    array.flags.writeable = True


class TestSeedContainer:
    """Party 0's half is header + manifest + the bundle's 32-byte seed."""

    def test_it_is_the_manifest_of_the_rows_and_the_seed(self):
        rows = _rows(0)
        assert len(rows.seed) == SEED_BYTES
        assert SEEDED[-SEED_BYTES:] == rows.seed
        assert len(SEEDED) == _body_start(SEEDED) + SEED_BYTES
        manifest = _manifest(SEEDED)
        assert manifest.pop("seed") == SEED_BYTES
        # The manifest the rows would have as bodies: every array where
        # the one before it ended, 8-aligned.
        offset = 0
        for (request, material), item in zip(rows, manifest["items"], strict=True):
            assert item["method"] == request.method
            held = [
                array if request.method == "linear_correlation" else array[0]
                for field in fields(material)
                if (array := getattr(material, field.name)) is not None
            ]
            for array, spec in zip(held, item["arrays"], strict=True):
                assert spec[1:] == [array.dtype.str, list(array.shape), offset]
                offset += array.nbytes + -array.nbytes % 8
        assert manifest["bytes"] == offset

    @pytest.mark.parametrize("batch", (1, 4))
    def test_length_is_a_function_of_the_plan_alone(self, batch):
        blobs = [pack_party_bundle(_rows(0, seed, batch=batch)) for seed in range(5)]
        assert len({len(blob) for blob in blobs}) == 1
        assert len({blob[:-SEED_BYTES] for blob in blobs}) == 1
        assert len({blob[-SEED_BYTES:] for blob in blobs}) == 5

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.sampled_from((1, 4)),
        st.lists(st.integers(1, 7), min_size=1, max_size=3),
    )
    def test_expansion_is_the_dealers_row_0_byte_for_byte(self, seed, batch, shape):
        """Every record kind, any shape: what the client draws from the
        seed is what the dealer dealt party 0."""
        dealer = RecordingDealer(TrustedDealer(seed=seed))
        for _ in range(2):  # also with client-stream draws before a record
            dealer.linear_correlation(
                (batch, *shape), lambda mask: mask.reshape(batch, -1)[:, :3]
            )
            dealer.comparison_masks((batch, *shape))
            dealer.bit_triples((batch, *shape))
            dealer.dabits((batch, *shape))
            dealer.beaver_triples((batch, *shape))
        bundle = dealer.take()
        rows = split_bundle(bundle, 0)
        expanded = unpack_party_bundle(pack_party_bundle(rows))
        _assert_same_rows(expanded, rows)
        assert expanded.seed == bundle.seed
        assert [request.shape for request, _ in expanded] == [
            request.shape for request, _ in bundle
        ]

    def test_expansion_is_one_draw_laid_out_as_the_manifest_says(self):
        """The bodies a seed stands for are its stream, word for word, at
        the manifest's offsets — masked to each field's lanes, not redrawn
        field by field."""
        from repro.mpc.dealer import client_stream

        rows = unpack_party_bundle(SEEDED)
        manifest = _manifest(SEEDED)
        stream = client_stream(rows.seed).integers(
            0, 1 << 64, size=manifest["bytes"] // 8, dtype=np.uint64
        )
        raw = stream.view(np.uint8)
        for (_, material), item in zip(rows, manifest["items"]):
            for key, code, _shape, offset in item["arrays"]:
                array = getattr(material, key)
                assert not array.flags.writeable
                there = raw[offset : offset + array.nbytes].view(array.dtype)
                if code == "|u1":
                    want = there & 1
                elif item["method"] == "bit_triples" or key == "low_bits":
                    want = there & np.uint64((1 << 63) - 1)
                else:
                    want = there
                np.testing.assert_array_equal(array.reshape(-1), want)

    def test_a_half_packed_in_the_other_form_is_refused_where_it_is_read(self):
        rows = _rows(0)
        rows.seed = None  # a client half as bodies: what version 1 shipped
        with pytest.raises(MaterialMismatch, match="one party's fields"):
            unpack_party_bundle(pack_party_bundle(rows))
        server = _rows(1)
        server.seed = bytes(SEED_BYTES)  # a server half under a seed
        with pytest.raises(MaterialMismatch, match="one party's fields"):
            unpack_party_bundle(pack_party_bundle(server))

    @pytest.mark.parametrize(
        "blob, why",
        [
            (SEEDED[:-1], "ends in its 32-byte seed"),  # short seed
            (SEEDED + bytes(8), "ends in its 32-byte seed"),  # long seed
            (SEEDED[:-SEED_BYTES], "ends in its 32-byte seed"),  # no seed
            (SEEDED[:4] + b"\x01" + SEEDED[5:], "version 1"),
        ],
        ids=("short-seed", "long-seed", "no-seed", "version-1"),
    )
    def test_not_a_seed_container(self, blob, why):
        with pytest.raises(MaterialMismatch, match=why):
            unpack_party_bundle(blob)

    @pytest.mark.parametrize(
        "edit, why",
        [
            (lambda m: m.update(seed=16), "ends in its 32-byte seed"),
            (lambda m: m.update(seed=True), "ends in its 32-byte seed"),
            (lambda m: m.update(bytes=(1 << 30) + 8), "more than a frame"),
            (lambda m: m.update(bytes=m["bytes"] + 8), "does not describe"),
            # Party 1's field under a seed, a dtype the draw does not have.
            (
                lambda m: m["items"][0].update(
                    arrays=[["server_offset", "<u8", [1, 4], 0]]
                ),
                "one party's fields",
            ),
            (
                lambda m: m["items"][1]["arrays"].__setitem__(
                    2, ["msb", "<u8", [5], 160]
                ),
                "one party's fields",
            ),
            (
                lambda m: m["items"][1]["arrays"].__setitem__(
                    0, ["r", "<u8", [1 << 40], 80]
                ),
                "impossible shape",
            ),
        ],
    )
    def test_lying_seed_manifest(self, edit, why):
        manifest = _manifest(SEEDED)
        edit(manifest)
        with pytest.raises(MaterialMismatch, match=why):
            unpack_party_bundle(_with_manifest(manifest, SEEDED))

    def test_bodies_behind_a_seed_manifest_are_refused(self):
        rows = _rows(0)
        rows.seed = None
        bodies = pack_party_bundle(rows)
        blob = SEEDED[:-SEED_BYTES] + bodies[_body_start(bodies) :]
        with pytest.raises(MaterialMismatch, match="ends in its 32-byte seed"):
            unpack_party_bundle(blob)


class TestShareUniformity:
    """Each half alone is uniform, lane by lane — whichever stream drew it."""

    N = 40_000
    # A lane's mean over N fair bits stays within 5 sigma of a half.
    BAND = 5 * 0.5 / N**0.5

    @pytest.fixture(scope="class")
    def records(self):
        dealer = TrustedDealer(seed=20231001)
        shape = (self.N,)
        return {
            "beaver": dealer.beaver_triples(shape),
            "bits": dealer.bit_triples(shape),
            "dabits": dealer.dabits(shape),
            "masks": dealer.comparison_masks(shape),
        }

    @staticmethod
    def _lane_means(words: np.ndarray) -> np.ndarray:
        lanes = np.unpackbits(
            words.astype("<u8")[:, None].view(np.uint8), axis=1, bitorder="little"
        )
        return lanes.mean(axis=0)

    @pytest.mark.parametrize("party", (0, 1))
    def test_ring_shares_are_uniform_in_all_64_lanes(self, records, party):
        for array in (
            records["beaver"].a, records["beaver"].b, records["beaver"].c,
            records["masks"].r, records["dabits"].arithmetic,
        ):
            means = self._lane_means(array[party])
            assert np.abs(means - 0.5).max() < self.BAND

    @pytest.mark.parametrize("party", (0, 1))
    def test_comparison_words_are_uniform_in_63_lanes_and_lane_63_is_zero(
        self, records, party
    ):
        bits = records["bits"]
        for array in (bits.a, bits.b, bits.c, records["masks"].low_bits):
            means = self._lane_means(array[party])
            assert np.abs(means[:63] - 0.5).max() < self.BAND
            assert means[63] == 0.0

    @pytest.mark.parametrize("party", (0, 1))
    def test_single_bit_shares_are_fair_bits(self, records, party):
        for array in (records["dabits"].boolean, records["masks"].msb):
            assert set(np.unique(array[party])) == {0, 1}
            assert abs(array[party].mean() - 0.5) < self.BAND

    def test_the_secrets_are_what_the_circuit_needs(self, records):
        bits, masks = records["bits"], records["masks"]
        a, b, c = (x[0] ^ x[1] for x in (bits.a, bits.b, bits.c))
        np.testing.assert_array_equal(c, a & b)
        r = masks.r[0] + masks.r[1]
        np.testing.assert_array_equal(
            masks.low_bits[0] ^ masks.low_bits[1], r & np.uint64((1 << 63) - 1)
        )
        np.testing.assert_array_equal(masks.msb[0] ^ masks.msb[1], r >> np.uint64(63))


class TestMalformed:
    @pytest.mark.parametrize(
        "blob, why",
        [
            (b"", "shorter than its header"),
            (b"not a bundle at all, just thirty-odd bytes", "bad magic"),
            # What a pre-container dealer store or peer holds: a zip archive.
            (b"PK\x03\x04" + bytes(60), "bad magic"),
            (VALID[:10], "shorter than its header"),
            (VALID[: BODY_START - 1], "manifest overruns"),
            (VALID[:BODY_START], "does not describe these bytes"),
            (VALID[:-8], "does not describe these bytes"),
            (VALID + bytes(8), "does not describe these bytes"),
            # What a store written before the seed container holds.
            (VALID[:4] + b"\x01" + VALID[5:], "version 1"),
            (VALID[:4] + b"\x03" + VALID[5:], "version 3"),
            (_with_manifest(b"{" * 8), "not JSON"),
            (_with_manifest(b"[" * 200_000), "not JSON"),
            (_with_manifest(b"\xff\xfe" + bytes(6)), "not JSON"),
            (_with_manifest([1, 2]), "does not describe these bytes"),
        ],
    )
    def test_not_a_container(self, blob, why):
        with pytest.raises(MaterialMismatch, match=why):
            unpack_party_bundle(blob)

    @pytest.mark.parametrize(
        "item, spec, value, why",
        [
            (1, 0, ["r", "<u8", [5], 36], "bad offset"),
            (1, 0, ["r", "<u8", [5], -8], "bad offset"),
            (1, 0, ["r", "<u8", [5], 0], "bad offset"),  # over server_offset
            (1, 0, ["r", "<u8", [5], 1 << 40], "bad offset"),
            (4, 2, ["c", "<u8", [6], 488], "overruns"),
            (1, 0, ["r", "<u8", [1 << 61], 32], "impossible shape"),
            (1, 0, ["r", "<u8", [0, 1 << 70], 32], "impossible shape"),
            (1, 0, ["r", "<u8", [0] * 80, 32], "impossible shape"),
            (1, 0, ["r", "<u8", [True], 32], "impossible shape"),
            (1, 0, ["r", "<f8", [5], 32], "unknown dtype"),
            (1, 0, ["r", "O", [5], 32], "unknown dtype"),
            (1, 0, ["r", "<u8", [5]], "not \\[key, dtype, shape, offset\\]"),
            (1, 0, ["oops", "<u8", [5], 32], "one party's fields"),
            (1, 1, ["r", "<u8", [5], 72], "one party's fields"),  # r twice
            (1, 1, ["low_bits", "<u8", [1, 5], 72], "one party's fields"),
            # The client's field of a linear layer, with a body behind it.
            (0, 0, ["mask", "<u8", [1, 4], 0], "one party's fields"),
        ],
    )
    def test_lying_manifest(self, item, spec, value, why):
        manifest = _manifest()
        manifest["items"][item]["arrays"][spec] = value
        with pytest.raises(MaterialMismatch, match=why):
            unpack_party_bundle(_with_manifest(manifest))

    def test_unknown_method(self):
        manifest = _manifest()
        manifest["items"][2]["method"] = "pickle"
        with pytest.raises(MaterialMismatch, match="unknown material method"):
            unpack_party_bundle(_with_manifest(manifest))

    def test_pack_refuses_material_it_has_no_code_for(self):
        rows = _rows()
        rows[0][1].server_offset = rows[0][1].server_offset.astype(np.float64)
        with pytest.raises(TypeError, match="float64"):
            pack_party_bundle(rows)


# ----------------------------------------------------------------------
# the fuzz: hostile bytes at the parser (ROADMAP item 5c)
# ----------------------------------------------------------------------
_HOSTILE = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([None, True, 0.5, "", "<u8", "|u1", "<u16", "mask", "r"]),
    st.lists(st.integers(-1, 1 << 62), max_size=4),
    st.lists(st.lists(st.integers(0, 9), max_size=2), max_size=2),
)


@st.composite
def _mutated(draw) -> tuple[bytes, bytes]:
    """One mutation of the body container or of the seed container."""
    valid = draw(st.sampled_from((VALID, SEEDED)))
    start = _body_start(valid)
    kind = draw(st.sampled_from(("truncate", "flip", "length", "field", "entry")))
    if kind == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if kind == "flip":  # header and manifest bytes: what follows is opaque
        blob = bytearray(valid)
        blob[draw(st.integers(0, start - 1))] ^= draw(st.integers(1, 255))
        return bytes(blob)
    if kind == "length":
        head = _CONTAINER.pack(
            *_CONTAINER.unpack_from(valid)[:2], draw(st.integers(0, (1 << 64) - 1))
        )
        return head + valid[_CONTAINER.size :]
    manifest = _manifest(valid)
    if kind == "entry":
        target = draw(
            st.sampled_from(("bytes", "seed", "items", "method", "arrays", "spec"))
        )
        entry = manifest["items"][draw(st.integers(0, len(manifest["items"]) - 1))]
        if target in ("bytes", "seed", "items"):
            manifest[target] = draw(_HOSTILE)
        elif target == "spec":
            entry["arrays"][0] = draw(_HOSTILE)
        else:
            entry[target] = draw(_HOSTILE)
        return _with_manifest(manifest, valid)
    entry = manifest["items"][draw(st.integers(0, len(manifest["items"]) - 1))]
    spec = entry["arrays"][draw(st.integers(0, len(entry["arrays"]) - 1))]
    spec[draw(st.integers(0, 3))] = draw(_HOSTILE)
    return _with_manifest(manifest, valid)


class TestParserFuzz:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_mutated())
    def test_typed_refusal_and_allocation_bounded_by_the_input(self, blob):
        """Whatever the bytes declare, the parser either hands back party
        1's rows as views that stay inside them, or party 0's as draws no
        larger than the rows the valid container describes, or raises
        ``MaterialMismatch`` — and never allocates from a declared length."""
        tracemalloc.start()
        try:
            try:
                items = unpack_party_bundle(blob)
            except MaterialMismatch:
                items = []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024 + 16 * len(blob)
        span = np.frombuffer(blob, np.uint8)
        for _, material in items:
            for field in fields(material):
                array = getattr(material, field.name)
                if array is not None and array.size and items.seed is None:
                    assert np.shares_memory(array, span)
                    assert not array.flags.writeable
        if items and items.seed is not None:
            assert sum(
                getattr(material, field.name).nbytes
                for _, material in items
                for field in fields(material)
                if getattr(material, field.name) is not None
            ) <= _manifest(SEEDED)["bytes"]
