"""Durable spill of sealed preprocessing bundles (the dealer's disk).

The crypto-producer service pre-generates correlated randomness whose
cost *is* the offline phase of C2PI-style private inference — offline
ReLU material dominates end-to-end cost, and a process restart that
burns a night of pre-generation re-pays all of it on the morning's
request path. :class:`PoolStore` makes the pool survive the process:

* **Segment files** hold the sealed bundle payloads, append-only, read
  back through ``mmap`` (a served bundle is a zero-copy slice of the
  segment, not a second resident copy). A segment rolls over at
  ``segment_bytes`` so retired streams can eventually be reclaimed by
  deleting whole files.
* A tiny **append-only manifest** records one fixed-size CRC'd entry per
  spilled bundle: ``(key hash, seq, segment, offset, length, payload
  CRC)``. Nothing is ever rewritten in place, so there is no
  write-in-place window to corrupt.
* **Recovery** is a single scan: manifest entries are validated by magic
  + record CRC (a torn tail entry ends the scan — everything after an
  append-only tear is garbage by construction), then by payload CRC
  against the segment bytes (a manifest entry whose payload write was
  torn is dropped cleanly). A recovered bundle is served byte-identical
  to the original ``put``; a torn one is never served at all — the
  property test truncates both files at every byte offset to pin exactly
  this dichotomy.

Keys are opaque strings (the dealer keys streams by
``fingerprint:batch:session_seed``) hashed to a fixed 16 bytes in the
manifest record; ``seq`` orders the bundles within one stream. ``put``
is idempotent per ``(key, seq)`` — re-spilling an already-stored bundle
is a no-op — which is what makes dealer-side request handling replayable
across retries and restarts.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import zlib
from dataclasses import asdict, dataclass
from hashlib import blake2b
from pathlib import Path

__all__ = ["PoolStoreStats", "PoolStore"]

_MANIFEST_MAGIC = b"C2PM"
# magic(4) key_hash(16) seq(u64) segment(u32) offset(u64) length(u64)
# payload_crc(u32) record_crc(u32)
_RECORD = struct.Struct("!4s16sQIQQII")
_SEGMENT_PREFIX = "seg-"


def _key_hash(key: str) -> bytes:
    return blake2b(key.encode("utf-8"), digest_size=16).digest()


@dataclass
class PoolStoreStats:
    """Counters the store keeps about its durability work."""

    bundles_spilled: int = 0  # put() calls that wrote a new record
    bundles_recovered: int = 0  # records replayed intact by the recovery scan
    bundles_loaded: int = 0  # get() hits served from disk
    records_dropped: int = 0  # torn/corrupt records discarded at recovery
    segments: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class PoolStore:
    """Append-only, torn-write-safe persistence for sealed bundles.

    Parameters
    ----------
    root:
        Directory holding ``manifest.log`` and the ``seg-*.dat`` segment
        files; created if missing. One store owns one directory.
    segment_bytes:
        Roll to a fresh segment file once the current one exceeds this.
    fsync:
        Force data to the platter on every ``put``. ``kill -9`` (the
        failure the chaos battery injects) cannot lose OS-buffered
        writes, so the default trades power-loss durability for spill
        throughput; pair with ``True`` for machines that may lose power.
    """

    def __init__(
        self, root: str | os.PathLike, segment_bytes: int = 64 * 1024 * 1024,
        fsync: bool = False,
    ):
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.stats = PoolStoreStats()
        # (key_hash, seq) -> (segment, offset, length, payload_crc).
        self._index: dict[tuple[bytes, int], tuple[int, int, int, int]] = {}
        # Held across the file appends: a spill is segment-write then
        # manifest-write and the two must not interleave across threads.
        self._write_lock = threading.Lock()
        # Guards the mmap cache: a reader remapping a grown segment must
        # not close a map another reader is mid-slice on.
        self._read_lock = threading.Lock()
        self._mmaps: dict[int, mmap.mmap] = {}
        self._manifest = None
        self._segment_file = None
        self._segment_id = 0
        self._recover()
        self._open_for_append()

    # -- recovery -------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.root / "manifest.log"

    def _segment_path(self, segment: int) -> Path:
        return self.root / f"{_SEGMENT_PREFIX}{segment:05d}.dat"

    def _recover(self) -> None:
        """Replay the manifest; drop torn records, keep intact bundles.

        The manifest is scanned record by record. The first record that
        fails its magic or CRC ends the scan (append-only: everything
        after a torn tail was never durably written), and the manifest is
        truncated back to the last good record so the next append starts
        on a clean boundary. A well-formed record whose payload bytes are
        missing or fail their own CRC (a torn segment write) is dropped
        — the invariant is *serve byte-identical or not at all*.
        """
        path = self._manifest_path()
        if not path.exists():
            return
        data = path.read_bytes()
        good_end = 0
        sizes: dict[int, int] = {}
        for segment_path in sorted(self.root.glob(f"{_SEGMENT_PREFIX}*.dat")):
            segment = int(segment_path.stem[len(_SEGMENT_PREFIX):])
            sizes[segment] = segment_path.stat().st_size
            self._segment_id = max(self._segment_id, segment)
        for start in range(0, len(data) - _RECORD.size + 1, _RECORD.size):
            chunk = data[start : start + _RECORD.size]
            magic, key_hash, seq, segment, offset, length, payload_crc, crc = (
                _RECORD.unpack(chunk)
            )
            if magic != _MANIFEST_MAGIC or crc != zlib.crc32(chunk[:-4]):
                self.stats.records_dropped += 1
                break  # torn tail: nothing after it can be valid
            good_end = start + _RECORD.size
            if offset + length > sizes.get(segment, 0):
                self.stats.records_dropped += 1
                continue  # manifest outran a torn segment write
            payload = self._read_segment(segment, offset, length)
            if zlib.crc32(payload) != payload_crc:
                self.stats.records_dropped += 1
                continue
            self._index[(key_hash, seq)] = (segment, offset, length, payload_crc)
            self.stats.bundles_recovered += 1
        if good_end < len(data):
            with open(path, "r+b") as handle:
                handle.truncate(good_end)
        self.stats.segments = len(sizes)

    # -- the mmap'd read path -------------------------------------------
    def _read_segment(self, segment: int, offset: int, length: int) -> bytes:
        if length == 0:
            return b""
        with self._read_lock:
            mapped = self._mmaps.get(segment)
            # len(mapped) is the mapped region; mapped.size() is the
            # current *file* size, which grows past the map on append —
            # compare the region or a post-growth read clamps silently.
            if mapped is None or len(mapped) < offset + length:
                with open(self._segment_path(segment), "rb") as handle:
                    mapped = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                # The replaced map is dropped, not closed: a concurrent
                # reader may still be slicing it, and the GC reclaims it
                # once the last reference goes.
                self._mmaps[segment] = mapped
            return bytes(mapped[offset : offset + length])

    # -- append path ----------------------------------------------------
    def _open_for_append(self) -> None:
        self._manifest = open(self._manifest_path(), "ab")
        self._segment_file = open(self._segment_path(self._segment_id), "ab")
        self.stats.segments = max(self.stats.segments, self._segment_id + 1)

    def _roll_segment_if_needed(self) -> None:
        if self._segment_file.tell() < self.segment_bytes:
            return
        self._segment_file.close()
        self._segment_id += 1
        self._segment_file = open(self._segment_path(self._segment_id), "ab")
        self.stats.segments += 1

    def put(self, key: str, seq: int, payload: bytes) -> None:
        """Spill one sealed bundle; idempotent per ``(key, seq)``.

        Ordering is the durability argument: payload bytes reach the
        segment (and are flushed) *before* the manifest record that
        names them, so a crash between the two leaves an unreferenced
        payload tail — garbage, never a lie. The record's own CRC makes
        a torn manifest tail self-evident to the recovery scan.
        """
        hashed = _key_hash(key)
        with self._write_lock:
            if (hashed, seq) in self._index:
                return
            self._roll_segment_if_needed()
            offset = self._segment_file.tell()
            self._segment_file.write(payload)
            self._segment_file.flush()
            if self.fsync:
                os.fsync(self._segment_file.fileno())
            payload_crc = zlib.crc32(payload)
            body = _RECORD.pack(
                _MANIFEST_MAGIC, hashed, seq, self._segment_id, offset,
                len(payload), payload_crc, 0,
            )[:-4]
            record = body + struct.pack("!I", zlib.crc32(body))
            self._manifest.write(record)
            self._manifest.flush()
            if self.fsync:
                os.fsync(self._manifest.fileno())
            self._index[(hashed, seq)] = (
                self._segment_id, offset, len(payload), payload_crc
            )
            self.stats.bundles_spilled += 1
            self.stats.bytes_written += len(payload) + _RECORD.size

    def get(self, key: str, seq: int) -> bytes | None:
        """The sealed bundle for ``(key, seq)``, byte-identical, or None.

        The payload CRC recorded at ``put`` is re-checked on every read:
        a record whose segment bytes no longer match (bit rot, a torn
        write the recovery scan indexed before the tear) is dropped from
        the index and never served — byte-identical or not at all.
        """
        hashed = _key_hash(key)
        entry = self._index.get((hashed, seq))
        if entry is None:
            return None
        segment, offset, length, payload_crc = entry
        payload = self._read_segment(segment, offset, length)
        if zlib.crc32(payload) != payload_crc:
            self._index.pop((hashed, seq), None)
            self.stats.records_dropped += 1
            return None
        self.stats.bundles_loaded += 1
        return payload

    def max_seq(self, key: str) -> int | None:
        """The highest stored seq of a stream (None for an unknown key)."""
        hashed = _key_hash(key)
        best: int | None = None
        # list(dict) is one atomic C call: safe against concurrent put()
        # insertions, unlike iterating the live dict.
        for stored_hash, seq in list(self._index):
            if stored_hash == hashed and (best is None or seq > best):
                best = seq
        return best

    def count(self, key: str) -> int:
        """How many bundles of one stream are stored."""
        hashed = _key_hash(key)
        return sum(
            1 for stored_hash, _ in list(self._index) if stored_hash == hashed
        )

    def __len__(self) -> int:
        return len(self._index)

    def close(self) -> None:
        for mapped in self._mmaps.values():
            mapped.close()
        self._mmaps.clear()
        if self._manifest is not None:
            self._manifest.close()
            self._manifest = None
        if self._segment_file is not None:
            self._segment_file.close()
            self._segment_file = None

    def __enter__(self) -> "PoolStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
