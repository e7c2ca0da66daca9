"""One party of the secure engine over a transport (the two-process split).

:class:`~repro.mpc.engine.SecureInferenceEngine` runs *both* parties
inside one process — convenient and fast, but every "networked" number it
produces is an accounting formula. :class:`PartyEngine` runs the same
:class:`~repro.mpc.engine.ProgramExecutor` as **one** party: its shares
carry a single row, and the placement it hands the executor is a
:class:`~repro.mpc.transport.Transport` (thread loopback or TCP
:class:`~repro.mpc.transport.PeerChannel`) that moves real bytes.

The split preserves the trust boundaries of the deployment:

* the **client** (party 0) executes a *weight-free* program: it needs
  only op kinds and shapes, which the server ships as a JSON
  :func:`program_manifest` during the handshake. Weights, biases and the
  ring encodings never leave the server.
* the **server** (party 1) executes the compiled
  :class:`~repro.mpc.program.SecureProgram` with its encoded weights and
  never sees the client's input or any non-uniform message.
* the **dealer material** arrives as each party's own rows of the offline
  bundles (:func:`~repro.mpc.preprocessing.split_bundle`), for the client
  shipped over the wire before the online phase starts, and is consumed
  through the same :class:`~repro.mpc.preprocessing.ReplayDealer`.

There is no second implementation to keep in step: a two-party run
produces byte-identical output shares and channel counters to
``SecureInferenceEngine.run`` under the same seeds because it executes the
same code (the placement-equivalence tests pin it all the same).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .backends.suite import DealerSuite
from .engine import ProgramExecutor
from .fixedpoint import DEFAULT_CONFIG, FixedPointConfig
from .preprocessing import ReplayDealer
from .program import (
    AddOp,
    AvgPoolOp,
    ConvOp,
    FlattenOp,
    LayerTally,
    LinearOp,
    MaxPoolOp,
    ProgramOp,
    ReluOp,
    SaveOp,
    SecureProgram,
)
from .transport import Transport

__all__ = [
    "PartyExecutionResult",
    "PartyEngine",
    "program_manifest",
    "program_fingerprint",
    "ops_from_manifest",
]


# ----------------------------------------------------------------------
# the weight-free program manifest (handshake payload)
# ----------------------------------------------------------------------
def program_manifest(program: SecureProgram) -> dict:
    """JSON-able description of a program **without** any weights.

    This is everything the client needs to execute its half of the
    protocol: op kinds, shapes and pooling geometry. The server's
    weights, biases and ring encodings stay out by construction.
    """
    ops = []
    for op in program.ops:
        entry = {
            "kind": op.kind,
            "name": op.name,
            "in_shape": list(op.in_shape),
            "out_shape": list(op.out_shape),
            "slot": op.slot,
        }
        if isinstance(op, ConvOp):
            entry.update(
                in_channels=op.in_channels,
                out_channels=op.out_channels,
                kernel_size=op.kernel_size,
                stride=op.stride,
                padding=op.padding,
                dilation=op.dilation,
            )
        elif isinstance(op, LinearOp):
            entry.update(in_features=op.in_features, out_features=op.out_features)
        elif isinstance(op, (MaxPoolOp, AvgPoolOp)):
            entry.update(kernel_size=op.kernel_size, stride=op.stride)
        ops.append(entry)
    return {
        "model": program.model.name,
        "boundary": program.boundary,
        "frac_bits": program.config.frac_bits,
        "input_shape": list(program.input_shape),
        "output_shape": list(program.output_shape),
        "ops": ops,
    }


def program_fingerprint(program: SecureProgram) -> str:
    """A stable, weight-free identity for a compiled program.

    Hash of the :func:`program_manifest` (op kinds, shapes, boundary,
    fixed-point geometry) — everything that determines the program's
    dealer-material consumption plan, and nothing that doesn't. Two
    processes that compile the same architecture at the same boundary
    agree on the fingerprint without exchanging weights, which is how the
    crypto-producer service and a serving process establish they are
    provisioning material for the same program.
    """
    canonical = json.dumps(program_manifest(program), sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def ops_from_manifest(manifest: dict) -> list[ProgramOp]:
    """Reconstruct a weight-free op list from a handshake manifest."""
    ops: list[ProgramOp] = []
    for entry in manifest["ops"]:
        common = {
            "kind": entry["kind"],
            "name": entry["name"],
            "in_shape": tuple(entry["in_shape"]),
            "out_shape": tuple(entry["out_shape"]),
            "slot": entry.get("slot", "main"),
        }
        kind = entry["kind"]
        if kind == "conv":
            ops.append(
                ConvOp(
                    **common,
                    in_channels=entry["in_channels"],
                    out_channels=entry["out_channels"],
                    kernel_size=entry["kernel_size"],
                    stride=entry["stride"],
                    padding=entry["padding"],
                    dilation=entry["dilation"],
                )
            )
        elif kind == "linear":
            ops.append(
                LinearOp(
                    **common,
                    in_features=entry["in_features"],
                    out_features=entry["out_features"],
                )
            )
        elif kind == "relu":
            ops.append(ReluOp(**common))
        elif kind == "maxpool":
            ops.append(
                MaxPoolOp(
                    **common,
                    kernel_size=entry["kernel_size"],
                    stride=entry["stride"],
                )
            )
        elif kind == "avgpool":
            ops.append(
                AvgPoolOp(
                    **common,
                    kernel_size=entry["kernel_size"],
                    stride=entry["stride"],
                )
            )
        elif kind == "flatten":
            ops.append(FlattenOp(**common))
        elif kind == "save":
            ops.append(SaveOp(**common))
        elif kind == "add":
            ops.append(AddOp(**common))
        else:
            raise ValueError(f"unknown op kind in manifest: {kind!r}")
    return ops


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass
class PartyExecutionResult:
    """One party's outcome of a secure prefix evaluation."""

    share: np.ndarray
    tallies: list[LayerTally]
    transport: Transport
    config: FixedPointConfig

    @property
    def total_bytes(self) -> int:
        return self.transport.total_bytes

    @property
    def rounds(self) -> int:
        return self.transport.rounds


class PartyEngine:
    """Run one party of a compiled program over a transport.

    Parameters
    ----------
    ops:
        The program's op list. The server passes encoded ops (from a
        compiled :class:`SecureProgram`); the client passes the
        weight-free reconstruction from the handshake manifest.
    party:
        0 (client, contributes the input) or 1 (server, contributes the
        weights).
    share_seed:
        Client only: seed of the input-sharing generator. Match the joint
        engine's ``share_seed`` to reproduce its run byte for byte.
    """

    def __init__(
        self,
        ops: list[ProgramOp],
        party: int,
        input_shape: tuple[int, ...],
        config: FixedPointConfig = DEFAULT_CONFIG,
        share_seed: int = 1,
    ):
        if party not in (0, 1):
            raise ValueError(f"party must be 0 or 1, got {party}")
        self.ops = ops
        self.party = party
        self.input_shape = tuple(input_shape)
        self.config = config
        self._share_rng = np.random.default_rng(share_seed)
        self._executor = ProgramExecutor(ops, self.input_shape, config)

    @classmethod
    def from_program(
        cls, program: SecureProgram, party: int, share_seed: int = 1
    ) -> "PartyEngine":
        if party == 1 and not program.encoded:
            raise ValueError("the server party needs an encoded program")
        return cls(
            program.ops,
            party,
            program.input_shape,
            config=program.config,
            share_seed=share_seed,
        )

    @classmethod
    def from_manifest(cls, manifest: dict, share_seed: int = 1) -> "PartyEngine":
        """The client-side engine: weight-free ops from the handshake."""
        return cls(
            ops_from_manifest(manifest),
            party=0,
            input_shape=tuple(manifest["input_shape"]),
            config=FixedPointConfig(frac_bits=manifest["frac_bits"]),
            share_seed=share_seed,
        )

    # ------------------------------------------------------------------
    def share_rng_state(self):
        """Snapshot of the input-sharing rng (client retry support).

        A faulted request that is retried must replay the *same* input
        mask it drew the first time — a fresh draw would change both
        shares and, through the local truncation's share-dependent
        rounding, the logits. The remote client snapshots this state
        before each request and restores it before a retry.
        """
        return self._share_rng.bit_generator.state

    def restore_share_rng(self, state) -> None:
        """Rewind the input-sharing rng to a :meth:`share_rng_state` snapshot."""
        self._share_rng.bit_generator.state = state

    # ------------------------------------------------------------------
    def run(
        self,
        io: Transport,
        material: ReplayDealer,
        x: np.ndarray | None = None,
        batch: int | None = None,
    ) -> PartyExecutionResult:
        """Execute this party's side of the online phase.

        The client passes the input batch ``x`` (float NCHW); the server
        passes the expected ``batch`` size. ``material`` replays this
        party's rows of one offline bundle.
        """
        if io.party != self.party:
            raise ValueError(
                f"engine is party {self.party} but transport is party {io.party}"
            )
        io.ensure_pool()
        shares = self._executor.share_input(io, self._share_rng, x=x, batch=batch)
        shares, tallies = self._executor.run(shares, DealerSuite(material), io)
        return PartyExecutionResult(
            share=shares[0], tallies=tallies, transport=io, config=self.config
        )
