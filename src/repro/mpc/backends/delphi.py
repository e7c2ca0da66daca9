"""Delphi's primitive stack, functional: Paillier offline + garbled ReLU.

The linear protocol follows Delphi (Mishra et al., USENIX Security 2020)
exactly, with real Paillier ciphertexts instead of the trusted dealer:

* **offline** — the client samples a mask ``m`` and sends ``Enc(m)``
  elementwise; the server evaluates its integer weight matrix
  homomorphically and returns ``Enc(W·m - s)`` for a fresh random ``s``.
  The client decrypts its output-side offset; nobody learned anything
  about the other party's secrets beyond ciphertexts.
* **online** — the client reveals ``x0 - m`` (uniform); the server
  computes ``W·(x0 - m + x1) + bias + s``, the client keeps ``W·m - s``.

Exactness over Z_2^64 inside Z_n: all homomorphic sums stay far below the
(≥ 2^255) Paillier modulus, and the server's mask is added as
``2^192 - s`` — a multiple-of-2^64 shift that keeps intermediate values
positive — so reducing the decryption mod 2^64 recovers the exact ring
share. ReLUs run through :class:`~repro.crypto.gc_protocol.GarbledReluProtocol`.
"""

from __future__ import annotations

import numpy as np

from ...crypto.gc_protocol import GarbledReluProtocol
from ...crypto.paillier import paillier_keygen
from ..network import Channel
from .suite import ProtocolSuite, Shares, linear_map_matrix, require_joint

__all__ = ["DelphiSuite"]

_RING = 1 << 64
_POSITIVE_SHIFT = 1 << 192  # multiple of 2^64, keeps masked sums positive


class DelphiSuite(ProtocolSuite):
    """Functional Delphi backend (semi-honest, in-process two-party).

    Parameters
    ----------
    rng:
        Shared randomness source for keys, masks and garbling.
    key_bits:
        Paillier modulus size; 256 bits already dominates every sum the
        64-bit ring can produce (see module docstring), larger values only
        change the modelled ciphertext width.
    gc_bits:
        Ring width of the garbled ReLU circuit (64 matches the engine's
        fixed-point ring).
    ot_security:
        IKNP column count for the ReLU label transfers.
    """

    name = "delphi-functional"

    def __init__(
        self,
        rng: np.random.Generator,
        key_bits: int = 256,
        gc_bits: int = 64,
        ot_security: int = 128,
    ):
        self._rng = rng
        self._keys = paillier_keygen(key_bits, rng)
        self._gc_bits = gc_bits
        self._ot_security = ot_security
        self._relu_protocol: GarbledReluProtocol | None = None
        self.offline_bytes = 0
        self.linear_layers_run = 0
        self.relu_elements_run = 0

    # ------------------------------------------------------------------
    def linear(self, shares: Shares, ring_fn, bias, channel: Channel) -> Shares:
        require_joint(channel)
        public = self._keys.public
        secret = self._keys.secret
        rng = self._rng
        x0, x1 = shares
        batch = x0.shape[0]
        sample_shape = x0.shape[1:]
        matrix = linear_map_matrix(ring_fn, sample_shape)
        out_elements, in_elements = matrix.shape

        # --- offline: Enc(mask) up, Enc(W·mask - s) down -----------------
        mask = rng.integers(0, _RING, size=(batch, in_elements), dtype=np.uint64)
        ct_bytes = public.ciphertext_bytes
        channel.send(0, batch * in_elements * ct_bytes, label="delphi-enc-mask")
        channel.tick_round("delphi-offline-up")

        server_mask = rng.integers(0, _RING, size=(batch, out_elements), dtype=np.uint64)
        client_offset = np.zeros((batch, out_elements), dtype=np.uint64)
        for b in range(batch):
            encrypted = [public.encrypt(int(v), rng) for v in mask[b]]
            for j in range(out_elements):
                row = matrix[j]
                acc = public.encrypt(0, rng)
                for i in range(in_elements):
                    w = int(row[i])
                    if w:
                        acc = acc + encrypted[i].mul_plain(w)
                acc = acc.add_plain(_POSITIVE_SHIFT - int(server_mask[b, j]))
                client_offset[b, j] = np.uint64(secret.decrypt(acc) % _RING)
        channel.send(1, batch * out_elements * ct_bytes, label="delphi-enc-reply")
        channel.tick_round("delphi-offline-down")
        self.offline_bytes += batch * (in_elements + out_elements) * ct_bytes

        # --- online: one uniform message, local evaluation ---------------
        delta = (x0 - mask.reshape(x0.shape)).astype(np.uint64)
        channel.send(0, delta.nbytes, label="delphi-online")
        channel.tick_round("delphi-online")
        server_input = (delta + x1).astype(np.uint64)
        y_server = (ring_fn(server_input).reshape(batch, out_elements)
                    + server_mask).astype(np.uint64)
        y_client = client_offset
        out_shape = ring_fn(np.zeros_like(x0)).shape
        y_client = y_client.reshape(out_shape)
        y_server = y_server.reshape(out_shape)
        if bias is not None:
            y_server = (y_server + bias).astype(np.uint64)
        self.linear_layers_run += 1
        return np.stack((y_client, y_server))

    # ------------------------------------------------------------------
    def relu(self, shares: Shares, channel: Channel) -> Shares:
        require_joint(channel)
        if self._relu_protocol is None:
            self._relu_protocol = GarbledReluProtocol(
                self._rng, channel, bits=self._gc_bits, security=self._ot_security
            )
        flat = (shares[0].reshape(-1), shares[1].reshape(-1))
        y0, y1 = self._relu_protocol.run(flat)
        self.relu_elements_run += flat[0].size
        return np.stack((y0.reshape(shares[0].shape), y1.reshape(shares[1].shape)))
