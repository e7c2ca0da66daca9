"""The party-bundle container: same bytes every time, a manifest of what
the plan cannot derive, party 1's rows read in place, party 0's redrawn
from the bundle's seed, and nothing but a typed refusal for bytes that are
not a container."""

import json
import time
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import preprocessing
from repro.mpc.dealer import SEED_BYTES, TrustedDealer, client_stream
from repro.mpc.preprocessing import (
    _CONTAINER,
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


def _held(rows):
    """Per item, the arrays one party's rows hold, in container order."""
    return [
        [
            array if request.method == "linear_correlation" else array[0]
            for field in fields(material)
            if (array := getattr(material, field.name)) is not None
        ]
        for request, material in rows
    ]


def _items(rows) -> list:
    """The manifest items ``rows`` pack under: method and request shape,
    and a linear layer's output shape."""
    return [
        [request.method, list(request.shape)]
        + ([list(arrays[-1].shape)] if request.method == "linear_correlation" else [])
        for (request, _), arrays in zip(rows, _held(rows))
    ]


def _assert_same_rows(ours, theirs):
    assert len(ours) == len(theirs)
    for (request, got), (wanted, want) in zip(ours, theirs):
        assert request.method == wanted.method and type(got) is type(want)
        assert request.shape == wanted.shape
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

    def test_the_manifest_is_what_the_plan_cannot_derive(self):
        """Method and request shape per item, a linear layer's output
        shape too: every field's key, dtype, offset and the body length
        follow from those."""
        rows = _rows()
        assert _manifest() == {"party": 1, "items": _items(rows)}
        assert len(VALID) % 8 == 0 and BODY_START % 8 == 0
        body = b"".join(
            array.tobytes() + bytes(-array.nbytes % 8)
            for arrays in _held(rows)
            for array in arrays
        )
        assert VALID[BODY_START:] == body

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

    def test_it_is_the_items_and_the_seed(self):
        rows = _rows(0)
        assert len(rows.seed) == SEED_BYTES
        assert SEEDED[-SEED_BYTES:] == rows.seed
        assert len(SEEDED) == _body_start(SEEDED) + SEED_BYTES
        assert _manifest(SEEDED) == {"party": 0, "items": _items(rows)}

    def test_the_joint_bundle_packs_as_party_0s_half(self):
        """What a server writes: the bundle's requests and seed, read off
        the bundle itself, no row view taken and no array of it shipped."""
        dealer = RecordingDealer(TrustedDealer(seed=0))
        dealer.linear_correlation((1, 2, 3), lambda mask: mask.reshape(1, 6)[:, :4])
        dealer.comparison_masks((5,))
        bundle = dealer.take()
        assert pack_party_bundle(bundle) == pack_party_bundle(split_bundle(bundle, 0))
        # A server half under a seed is the same: the seed form holds no array.
        server = split_bundle(bundle, 1)
        server.seed = bundle.seed
        assert pack_party_bundle(server) == pack_party_bundle(bundle)

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
        expanded = unpack_party_bundle(pack_party_bundle(bundle))
        _assert_same_rows(expanded, rows)
        assert expanded.seed == bundle.seed
        assert [request.shape for request, _ in expanded] == [
            request.shape for request, _ in bundle
        ]

    def test_expansion_is_one_draw_laid_out_as_the_field_table_says(self):
        """The bodies a seed stands for are its stream, word for word, each
        field where the one before it ended (8-aligned) — masked to each
        field's lanes, not redrawn field by field."""
        rows = unpack_party_bundle(SEEDED)
        held = _held(rows)
        extent = sum(array.nbytes + -array.nbytes % 8 for arrays in held for array in arrays)
        raw = client_stream(rows.seed).integers(
            0, 1 << 64, size=extent // 8, dtype=np.uint64
        ).view(np.uint8)
        offset = 0
        for (request, material), arrays in zip(rows, held):
            names = [f.name for f in fields(material) if getattr(material, f.name) is not None]
            for name, array in zip(names, arrays, strict=True):
                assert not array.flags.writeable
                there = raw[offset : offset + array.nbytes].view(array.dtype)
                if array.dtype == np.uint8:
                    want = there & 1
                elif request.method == "bit_triples" or name == "low_bits":
                    want = there & np.uint64((1 << 63) - 1)
                else:
                    want = there
                np.testing.assert_array_equal(array.reshape(-1), want)
                offset += array.nbytes + -array.nbytes % 8

    def test_party_0s_rows_without_their_seed_do_not_pack(self):
        """There is no body form of a client half: its linear offsets are
        not party 1's fields, so the writer refuses rather than mislabel."""
        rows = _rows(0)
        rows.seed = None
        with pytest.raises(ValueError, match="one party's rows"):
            pack_party_bundle(rows)

    @pytest.mark.parametrize(
        "blob, why",
        [
            (SEEDED[:-1], "ends in its 32-byte seed"),  # short seed
            (SEEDED + bytes(8), "ends in its 32-byte seed"),  # long seed
            (SEEDED + b"\x00", "ends in its 32-byte seed"),  # one byte after it
            (SEEDED[:-SEED_BYTES], "ends in its 32-byte seed"),  # no seed
            (SEEDED[:4] + b"\x01" + SEEDED[5:], "version 1"),
            (SEEDED[:4] + b"\x02" + SEEDED[5:], "version 2"),
        ],
        ids=("short-seed", "long-seed", "trailing-byte", "no-seed", "version-1", "version-2"),
    )
    def test_not_a_seed_container(self, blob, why):
        with pytest.raises(MaterialMismatch, match=why):
            unpack_party_bundle(blob)

    def test_bodies_behind_a_seed_manifest_are_refused(self):
        blob = SEEDED[:-SEED_BYTES] + VALID[BODY_START:]
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


def _assert_refused(blob: bytes, why: str) -> None:
    """``blob`` is a typed refusal, made before a word is drawn from any
    seed or more is allocated than the bytes themselves account for."""

    def no_draw(seed):
        raise AssertionError("drew rows for a container it then refused")

    with mock.patch.object(preprocessing, "client_stream", no_draw):
        tracemalloc.start()
        try:
            with pytest.raises(MaterialMismatch, match=why):
                unpack_party_bundle(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 64 * 1024 + 16 * len(blob)


def _set_item(index, value):
    return lambda manifest: manifest["items"].__setitem__(index, value)


def _set_shape(index, shape):
    return lambda manifest: manifest["items"][index].__setitem__(1, shape)


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
            (VALID[:4] + b"\x04" + VALID[5:], "version 4"),
            (_with_manifest(b"{" * 8), "not JSON"),
            (_with_manifest(b"[" * 200_000), "not JSON"),
            (_with_manifest(b"\xff\xfe" + bytes(6)), "not JSON"),
            (_with_manifest([1, 2]), "not \\{party, items\\}"),
        ],
    )
    def test_not_a_container(self, blob, why):
        _assert_refused(blob, why)

    def test_a_version_2_container_is_refused_by_version(self, version_2_container):
        """The manifest that named every array's key, dtype and offset:
        what an older peer ships or an older dealer store holds."""
        for party in (0, 1):
            blob = version_2_container(_rows(party))
            assert json.loads(blob[_CONTAINER.size : _body_start(blob)])["items"]
            _assert_refused(blob, "unknown party bundle version 2")

    @pytest.mark.parametrize("form", ("bodies", "seed"))
    @pytest.mark.parametrize(
        "edit, why",
        [
            (lambda m: m.update(party=2), "not \\{party, items\\}"),
            (lambda m: m.update(party=True), "not \\{party, items\\}"),
            (lambda m: m.pop("party"), "not \\{party, items\\}"),
            (lambda m: m.update(items={}), "not \\{party, items\\}"),
            # an unknown method
            (lambda m: m["items"][2].__setitem__(0, "pickle"), "unknown material method 'pickle'"),
            (lambda m: m["items"][2].__setitem__(0, 7), "unknown material method 7"),
            (_set_item(2, "bit_triples"), "unknown material method None"),
            (_set_item(2, []), "unknown material method None"),
            # a negative, non-int or impossible dimension
            (_set_shape(1, [-5]), "impossible shape"),
            (_set_shape(1, [5.0]), "impossible shape"),
            (_set_shape(1, [True]), "impossible shape"),
            (_set_shape(1, ["5"]), "impossible shape"),
            (_set_shape(1, [[5]]), "impossible shape"),
            (_set_shape(1, None), "impossible shape"),
            (_set_shape(1, [1] * 33), "impossible shape"),
            (_set_shape(1, [1 << 31]), "impossible shape"),
            (_set_shape(1, [1 << 70]), "impossible shape"),
            (lambda m: m["items"][0].__setitem__(2, [1, -4]), "impossible shape"),
            # a linear item without its output shape, or a shape too many
            (lambda m: m["items"][0].pop(), "output shape"),
            (lambda m: m["items"][1].append([5]), "is \\[method, shape\\]"),
            # rows past what a frame could carry, in either form
            (_set_shape(1, [1 << 27]), "more than a frame"),
            (_set_shape(4, [1 << 10, 1 << 10, 1 << 10]), "more than a frame"),
        ],
    )
    def test_hostile_manifest(self, form, edit, why):
        """Refused typed, before any payload view is made or word drawn."""
        blob = VALID if form == "bodies" else SEEDED
        manifest = _manifest(blob)
        edit(manifest)
        _assert_refused(_with_manifest(manifest, blob), why)

    @pytest.mark.parametrize(
        "blob, edit",
        [
            (VALID, _set_shape(1, [4])),  # the bodies are longer than implied
            (VALID, _set_shape(1, [6])),  # ...or shorter
            (VALID, _set_shape(3, [5, 2])),
            (VALID, lambda m: m["items"][0].__setitem__(2, [1, 3])),  # linear output
            (VALID, lambda m: m["items"].pop()),
            (VALID, lambda m: m["items"].append(["dabits", [1]])),
            (SEEDED, lambda m: m.update(party=1)),  # a seed is not party 1's bodies
        ],
    )
    def test_bodies_other_than_the_items_imply(self, blob, edit):
        manifest = _manifest(blob)
        edit(manifest)
        _assert_refused(_with_manifest(manifest, blob), "does not describe these bytes")

    def test_a_seed_manifest_over_bodies_is_refused(self):
        manifest = _manifest(VALID)
        manifest["party"] = 0
        _assert_refused(_with_manifest(manifest, VALID), "ends in its 32-byte seed")

    def test_pack_refuses_material_it_has_no_code_for(self):
        rows = _rows()
        rows[0][1].server_offset = rows[0][1].server_offset.astype(np.float64)
        with pytest.raises(TypeError, match="float64"):
            pack_party_bundle(rows)

    def test_pack_refuses_rows_that_are_not_their_requests_shape(self):
        rows = _rows()
        request, material = rows[1]
        rows[1] = (type(request)(request.method, (4,)), material)
        with pytest.raises(TypeError, match="not the uint64\\(4,\\) its request implies"):
            pack_party_bundle(rows)


# ----------------------------------------------------------------------
# the fuzz: hostile bytes at the parser (ROADMAP item 5c)
# ----------------------------------------------------------------------
#: The frame limit the fuzz parses under: a seed half legally expands to
#: as many rows as a frame could carry, so a mutated shape may ask for a
#: large draw; under this limit it stays small, and is bounded by it.
_FUZZ_FRAME = 1 << 16

_HOSTILE = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from(
        [None, True, 0.5, "", "dabits", "linear_correlation", "pickle", 0, 1, 2, {}]
    ),
    st.lists(st.integers(-1, 1 << 62), max_size=4),
    st.lists(st.lists(st.integers(0, 9), max_size=2), max_size=2),
)


@st.composite
def _mutated(draw) -> bytes:
    """One mutation of the body container or of the seed container."""
    valid = draw(st.sampled_from((VALID, SEEDED)))
    start = _body_start(valid)
    kind = draw(st.sampled_from(("truncate", "flip", "length", "manifest", "item", "dim")))
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
    items = manifest["items"]
    item = items[draw(st.integers(0, len(items) - 1))]
    if kind == "manifest":
        manifest[draw(st.sampled_from(("party", "items")))] = draw(_HOSTILE)
    elif kind == "item":
        slot = draw(st.integers(0, len(item)))
        if slot == len(item):
            item.append(draw(_HOSTILE))
        else:
            item[slot] = draw(_HOSTILE)
    else:
        shape = item[draw(st.integers(1, len(item) - 1))]
        slot = draw(st.integers(0, len(shape)))
        if slot == len(shape):
            shape.append(draw(_HOSTILE))
        else:
            shape[slot] = draw(_HOSTILE)
    return _with_manifest(manifest, valid)


class TestParserFuzz:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_mutated())
    def test_typed_refusal_and_allocation_bounded_by_the_input(self, blob):
        """Whatever the bytes declare, the parser either hands back party
        1's rows as views that stay inside them, or party 0's as one draw
        no larger than a frame, or raises ``MaterialMismatch`` — and
        allocates no more than the bytes and that draw account for."""
        with mock.patch.object(preprocessing, "MAX_FRAME_BYTES", _FUZZ_FRAME):
            tracemalloc.start()
            try:
                try:
                    items = unpack_party_bundle(blob)
                except MaterialMismatch:
                    items = []
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        seeded = bool(items) and items.seed is not None
        assert peak <= 64 * 1024 + 16 * len(blob) + (_FUZZ_FRAME if seeded else 0)
        span = np.frombuffer(blob, np.uint8)
        drawn = 0
        for _, material in items:
            for field in fields(material):
                array = getattr(material, field.name)
                if array is None:
                    continue
                assert not array.flags.writeable
                drawn += array.nbytes
                if array.size and not seeded:
                    assert np.shares_memory(array, span)
        assert drawn <= (_FUZZ_FRAME if seeded else len(blob))
