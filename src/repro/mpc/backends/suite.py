"""Protocol-suite interface and the default trusted-dealer implementation."""

from __future__ import annotations

import numpy as np

from ..network import Channel
from ..protocols import secure_linear, secure_maximum, secure_relu

__all__ = [
    "ProtocolSuite",
    "DealerSuite",
    "Shares",
    "PlacementError",
    "require_joint",
    "linear_map_matrix",
]


#: Party-stacked shares: row 0 the client's, row 1 the server's.
Shares = np.ndarray


class PlacementError(RuntimeError):
    """A suite that needs both parties' rows was handed a one-party channel."""


def require_joint(channel: Channel) -> None:
    """Refuse a placement that does not hold both parties' rows."""
    if len(channel.parties) != 2:
        raise PlacementError(
            "this protocol suite runs both parties in one address space; it "
            f"cannot execute as party {channel.parties[0]} over a transport"
        )


class ProtocolSuite:
    """The three secure operations the engine composes layers from.

    A functional suite owns the preprocessing state its protocols need
    (OT sessions, HE keys); :class:`DealerSuite` is built per run over
    that run's dealer material. Shares are ``(party, ...)`` uint64 arrays over
    Z_2^64 — row 0 the client's, row 1 the server's — and every method
    returns such an array; ``bias`` arrives pre-encoded at double
    fixed-point scale (or ``None``). ``channel`` is the placement (see
    :class:`~repro.mpc.network.Channel`): the dealer suite runs on any,
    the functional stacks need both rows and raise
    :class:`PlacementError` otherwise.
    """

    name = "abstract"

    def linear(self, shares: Shares, ring_fn, bias, channel: Channel) -> Shares:
        """Shares of ``f(x) + bias`` for the server-known linear map f."""
        raise NotImplementedError

    def relu(self, shares: Shares, channel: Channel) -> Shares:
        """Shares of ``ReLU(x)`` elementwise."""
        raise NotImplementedError

    def maximum(self, left: Shares, right: Shares, channel: Channel) -> Shares:
        """Shares of ``max(left, right)`` via ``right + ReLU(left - right)``.

        Suites with a cheaper dedicated comparison may override this.
        """
        right = np.asarray(right)
        return self.relu(np.asarray(left) - right, channel) + right


class DealerSuite(ProtocolSuite):
    """Trusted-dealer protocols (:mod:`repro.mpc.protocols`) — the default,
    over one run's material (a :class:`~repro.mpc.preprocessing.ReplayDealer`
    bundle)."""

    name = "dealer"

    def __init__(self, dealer):
        self.dealer = dealer

    def linear(self, shares, ring_fn, bias, channel):
        return secure_linear(shares, ring_fn, bias, self.dealer, channel)

    def relu(self, shares, channel):
        flat = secure_relu(shares.reshape(len(shares), -1), self.dealer, channel)
        return flat.reshape(shares.shape)

    def maximum(self, left, right, channel):
        return secure_maximum(left, right, self.dealer, channel)


def linear_map_matrix(ring_fn, sample_shape: tuple[int, ...]) -> np.ndarray:
    """Extract the explicit ring matrix of a linear map by basis probing.

    ``sample_shape`` is the per-sample input shape (no batch dim). Feeding
    the identity as a batch of one-hot inputs through ``ring_fn`` yields
    every column of the ``out_elements x in_elements`` matrix in a single
    call — the homomorphic backends evaluate this matrix explicitly, the
    way Delphi/Cheetah operate on im2col'd layer matrices.
    """
    in_elements = int(np.prod(sample_shape))
    probe = np.eye(in_elements, dtype=np.uint64).reshape(in_elements, *sample_shape)
    columns = ring_fn(probe).reshape(in_elements, -1)
    return np.ascontiguousarray(columns.T)
