"""The party-bundle container: same bytes every time, read in place, and
nothing but a typed refusal for bytes that are not a container."""

import json
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.dealer import TrustedDealer
from repro.mpc.preprocessing import (
    _CONTAINER,
    MaterialMismatch,
    RecordingDealer,
    pack_party_bundle,
    party_bundle_segments,
    split_bundle,
    unpack_party_bundle,
)


def _rows(party: int = 0, seed: int = 0):
    """One party's rows of a small bundle holding every kind of record.
    Five elements: the byte-per-bit arrays need alignment padding."""
    dealer = RecordingDealer(TrustedDealer(seed=seed))
    dealer.linear_correlation((1, 2, 3), lambda mask: mask.reshape(1, 6)[:, :4])
    dealer.comparison_masks((5,))
    dealer.bit_triples((5,))
    dealer.dabits((5,))
    dealer.beaver_triples((5,))
    return split_bundle(dealer.take(), party)


VALID = pack_party_bundle(_rows())
_, _, MANIFEST_LEN = _CONTAINER.unpack_from(VALID)
BODY_START = _CONTAINER.size + MANIFEST_LEN


def _with_manifest(manifest, blob: bytes = VALID) -> bytes:
    """``blob`` with its manifest replaced (and the header's length kept honest)."""
    encoded = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    head = _CONTAINER.pack(*_CONTAINER.unpack_from(blob)[:2], len(encoded))
    return head + encoded + blob[BODY_START:]


def _manifest() -> dict:
    return json.loads(VALID[_CONTAINER.size : BODY_START])


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
        mask = rows[0][1].mask
        assert any(
            np.shares_memory(np.asarray(segment), mask)
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
        — the material is views of it that cannot be written."""
        buffer = carrier(VALID)
        for (_, ours), (_, theirs) in zip(unpack_party_bundle(buffer), _rows()):
            for field in fields(theirs):
                original = getattr(theirs, field.name)
                if original is None:
                    continue
                array = getattr(ours, field.name)
                np.testing.assert_array_equal(array, original)
                assert array.dtype == original.dtype and array.flags.aligned
                assert np.shares_memory(array, np.frombuffer(buffer, np.uint8))
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
                with pytest.raises(ValueError):
                    array.flags.writeable = True


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
            (VALID[:4] + b"\x02" + VALID[5:], "version 2"),
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
            (1, 0, ["r", "<u8", [5], 4], "bad offset"),
            (1, 0, ["r", "<u8", [5], -8], "bad offset"),
            (1, 0, ["r", "<u8", [5], 1 << 40], "overruns"),
            (1, 0, ["r", "<u8", [1 << 61], 0], "impossible shape"),
            (1, 0, ["r", "<u8", [0, 1 << 70], 0], "impossible shape"),
            (1, 0, ["r", "<u8", [0] * 80, 0], "impossible shape"),
            (1, 0, ["r", "<u8", [True], 0], "impossible shape"),
            (1, 0, ["r", "<f8", [5], 0], "unknown dtype"),
            (1, 0, ["r", "O", [5], 0], "unknown dtype"),
            (1, 0, ["r", "<u8", [5]], "not \\[key, dtype, shape, offset\\]"),
            (1, 0, ["oops", "<u8", [5], 0], "one party's fields"),
            (1, 1, ["r", "<u8", [5], 0], "one party's fields"),  # r twice
            (1, 1, ["low_bits", "<u8", [4], 0], "one party's fields"),
            (0, 0, ["server_offset", "<u8", [1, 4], 0], "one party's fields"),
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
        rows[0][1].mask = rows[0][1].mask.astype(np.float64)
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
def _mutated(draw) -> bytes:
    kind = draw(st.sampled_from(("truncate", "flip", "length", "field", "entry")))
    if kind == "truncate":
        return VALID[: draw(st.integers(0, len(VALID) - 1))]
    if kind == "flip":  # header and manifest bytes: the body is opaque
        blob = bytearray(VALID)
        blob[draw(st.integers(0, BODY_START - 1))] ^= draw(st.integers(1, 255))
        return bytes(blob)
    if kind == "length":
        head = _CONTAINER.pack(
            *_CONTAINER.unpack_from(VALID)[:2], draw(st.integers(0, (1 << 64) - 1))
        )
        return head + VALID[_CONTAINER.size :]
    manifest = _manifest()
    if kind == "entry":
        target = draw(st.sampled_from(("bytes", "items", "method", "arrays", "spec")))
        entry = manifest["items"][draw(st.integers(0, len(manifest["items"]) - 1))]
        if target in ("bytes", "items"):
            manifest[target] = draw(_HOSTILE)
        elif target == "spec":
            entry["arrays"][0] = draw(_HOSTILE)
        else:
            entry[target] = draw(_HOSTILE)
        return _with_manifest(manifest)
    entry = manifest["items"][draw(st.integers(0, len(manifest["items"]) - 1))]
    spec = entry["arrays"][draw(st.integers(0, len(entry["arrays"]) - 1))]
    spec[draw(st.integers(0, 3))] = draw(_HOSTILE)
    return _with_manifest(manifest)


class TestParserFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_mutated())
    def test_typed_refusal_and_allocation_bounded_by_the_input(self, blob):
        """Whatever the bytes declare, the parser either hands back views
        that stay inside them or raises ``MaterialMismatch`` — and never
        allocates from a declared length, only from bytes it was given."""
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
                if array is not None and array.size:
                    assert np.shares_memory(array, span)
                    assert not array.flags.writeable
