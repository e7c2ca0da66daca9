"""Cheetah's primitive stack, functional: RLWE packed linear + OT ReLU.

Linear layers follow Cheetah (Huang et al., USENIX Security 2022): the
client encrypts its input share with coefficient packing, the server
multiplies by the plaintext weight polynomial — no rotations — masks every
coefficient, and returns the ciphertext. Plaintext modulus ``t = 2^64``
makes the homomorphic arithmetic *identical* to the engine's fixed-point
ring, so shares reconstruct exactly.

Wide layers are tiled: each result ciphertext carries
``rows_per_ct = n // in_elements`` output rows. ReLUs run the OT
millionaire stack from :mod:`repro.crypto.millionaire` — no garbled
circuits and no trusted dealer anywhere in this suite.
"""

from __future__ import annotations

import numpy as np

from ...crypto.millionaire import OtSessionPair, secure_relu_ot
from ...crypto.rlwe import (
    RlweContext,
    encode_matrix,
    encode_vector,
    rlwe_keygen,
)
from ..network import Channel
from .suite import ProtocolSuite, Shares, linear_map_matrix, require_joint

__all__ = ["CheetahSuite"]

_RING = 1 << 64


class CheetahSuite(ProtocolSuite):
    """Functional Cheetah backend (semi-honest, in-process two-party).

    Parameters
    ----------
    rng:
        Randomness for keys, masks and OT sessions.
    ring_dim:
        RLWE ring dimension ``n``; layers must satisfy
        ``in_elements <= n`` (the functional scale — Cheetah itself tiles
        arbitrarily large layers the same way).
    ot_security:
        IKNP column count for the ReLU protocols.
    """

    name = "cheetah-functional"

    def __init__(
        self,
        rng: np.random.Generator,
        ring_dim: int = 1024,
        ot_security: int = 128,
    ):
        # q/t headroom: noise after one plaintext multiply is bounded by
        # n * max|w| * fresh-noise; 2^46 of headroom covers CIFAR-scale
        # fixed-point weights with a wide margin.
        self._context = RlweContext(n=ring_dim, q=1 << 110, t=_RING)
        self._keys = rlwe_keygen(self._context, rng)
        self._rng = rng
        self._sessions: OtSessionPair | None = None
        self._ot_security = ot_security
        self.linear_layers_run = 0
        self.relu_elements_run = 0

    # ------------------------------------------------------------------
    def linear(self, shares: Shares, ring_fn, bias, channel: Channel) -> Shares:
        require_joint(channel)
        ctx = self._context
        keys = self._keys
        rng = self._rng
        x0, x1 = shares
        batch = x0.shape[0]
        sample_shape = x0.shape[1:]
        matrix = linear_map_matrix(ring_fn, sample_shape)
        out_elements, in_elements = matrix.shape
        if in_elements > ctx.n:
            raise ValueError(
                f"layer input of {in_elements} elements exceeds ring dimension "
                f"{ctx.n}; enlarge ring_dim for this functional run"
            )
        rows_per_ct = max(1, ctx.n // in_elements)
        signed_matrix = matrix.astype(np.int64)  # centered ring weights

        out_shape = ring_fn(np.zeros_like(x0)).shape
        y_client = np.zeros((batch, out_elements), dtype=np.uint64)
        server_mask = rng.integers(0, _RING, size=(batch, out_elements), dtype=np.uint64)
        up_bytes = 0
        down_bytes = 0
        for b in range(batch):
            cipher_x = keys.encrypt(encode_vector(x0.reshape(batch, -1)[b], ctx.n), rng)
            up_bytes += ctx.ciphertext_bytes
            for start in range(0, out_elements, rows_per_ct):
                rows = signed_matrix[start : start + rows_per_ct]
                w_poly = encode_matrix(rows, ctx.n, ctx.t)
                product = cipher_x.mul_plain(w_poly)
                # Mask every coefficient: target slots get the share mask,
                # the rest fresh randomness (hides the non-target garbage).
                mask_poly = np.array(
                    [int(v) for v in rng.integers(0, _RING, ctx.n, dtype=np.uint64)],
                    dtype=object,
                )
                for r in range(rows.shape[0]):
                    slot = r * in_elements + in_elements - 1
                    mask_poly[slot] = (_RING - int(server_mask[b, start + r])) % _RING
                masked = product.add_plain(mask_poly)
                down_bytes += ctx.ciphertext_bytes
                decrypted = keys.decrypt(masked)
                for r in range(rows.shape[0]):
                    if start + r >= out_elements:
                        break
                    slot = r * in_elements + in_elements - 1
                    y_client[b, start + r] = np.uint64(int(decrypted[slot]) % _RING)
        channel.send(0, up_bytes, label="cheetah-ct-up")
        channel.tick_round("cheetah-ct-up")
        channel.send(1, down_bytes, label="cheetah-ct-down")
        channel.tick_round("cheetah-ct-down")

        y_server = (
            ring_fn(x1).reshape(batch, out_elements) + server_mask
        ).astype(np.uint64)
        y_client = y_client.reshape(out_shape)
        y_server = y_server.reshape(out_shape)
        if bias is not None:
            y_server = (y_server + bias).astype(np.uint64)
        self.linear_layers_run += 1
        return np.stack((y_client, y_server))

    # ------------------------------------------------------------------
    def relu(self, shares: Shares, channel: Channel) -> Shares:
        require_joint(channel)
        if self._sessions is None:
            self._sessions = OtSessionPair.create(
                self._rng, channel, security=self._ot_security
            )
        y0, y1 = secure_relu_ot(
            (shares[0].reshape(-1), shares[1].reshape(-1)), self._sessions, self._rng
        )
        self.relu_elements_run += int(np.prod(shares[0].shape))
        return np.stack((y0.reshape(shares[0].shape), y1.reshape(shares[1].shape)))
