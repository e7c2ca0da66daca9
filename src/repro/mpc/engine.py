"""Secure evaluation of a compiled :class:`SecureProgram` on additive shares.

:class:`ProgramExecutor` executes the typed op stream produced by
:func:`repro.mpc.program.compile_program` under the two-party protocols of
:mod:`repro.mpc.protocols`. It is the only executor: shares carry a
leading party axis, and the ``channel`` it is handed decides the
placement — a plain :class:`~repro.mpc.network.Channel` runs both parties
in this process (two rows, nothing moves), a
:class:`~repro.mpc.transport.Transport` runs one party against its peer
process (one row, real bytes). The two public entry points are thin:
:class:`SecureInferenceEngine` here (both parties, pluggable protocol
suite, inline or replayed dealer material) and
:class:`~repro.mpc.party.PartyEngine` (one party over a transport).

* the **client** (party 0) contributes the input image as a secret;
* the **server** (party 1) contributes the weights, which never leave it
  (the dealer stands in for the preprocessing exchanges, see
  :mod:`repro.mpc.dealer` and DESIGN.md);
* all static work — batch-norm folding, ring encoding of the weights,
  shape tracing — happened once at compile time, so ``run()`` is the
  *online phase* only.

``run(x, material=...)`` executes against pre-generated correlated
randomness from a :class:`~repro.mpc.preprocessing.PreprocessingPool`
bundle, touching the engine's own dealer not at all — the real
offline/online split of the Delphi/Cheetah stacks. Without ``material``
the dealer generates inline (the classic single-shot mode).

The executor also produces a per-layer :class:`LayerTally` stream (element
counts, MACs, actual traffic) that the cost models in
:mod:`repro.mpc.costs` turn into Delphi/Cheetah latency and communication
estimates. :func:`static_layer_tallies` derives the same tallies from the
program alone, so paper-scale cost estimation does not require running the
(slower) functional engine at full width.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..models.layered import LayeredModel
from ..nn.functional import im2col
from .backends.suite import DealerSuite, ProtocolSuite, Shares
from .dealer import TrustedDealer
from .fixedpoint import DEFAULT_CONFIG, FixedPointConfig
from .network import Channel
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
    compile_program,
    deferred_reveal_flags,
    fold_batch_norm,
)
from .protocols import multiply_public_constant, truncate_shares
from .sharing import reconstruct_additive

__all__ = [
    "Shares",
    "LayerTally",
    "ProgramExecutor",
    "SecureExecutionResult",
    "SecureInferenceEngine",
    "fold_batch_norm",
    "static_layer_tallies",
]


class ProgramExecutor:
    """Input sharing and the per-op handlers, once, for every placement.

    ``ops`` may be weight-free (the client's reconstruction from the
    handshake manifest): weights, biases and ring maps are only read where
    the server's row is held.
    """

    def __init__(
        self,
        ops: list[ProgramOp],
        input_shape: tuple[int, ...],
        config: FixedPointConfig,
    ):
        self.ops = ops
        self.input_shape = tuple(input_shape)
        self.config = config
        # Static per-program analysis: a linear layer's masked input waits
        # to ride in the frame of the next masked reveal when one follows;
        # otherwise it leaves right after the op. A framing choice only —
        # accounting is identical either way, and without a transport
        # nothing is ever queued.
        self._flush_after = [
            isinstance(op, (ConvOp, LinearOp)) and not deferred
            for op, deferred in zip(ops, deferred_reveal_flags(ops))
        ]

    def check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {x.shape}")
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"expected per-sample shape {self.input_shape}, "
                f"got {tuple(x.shape[1:])}"
            )

    def share_input(
        self,
        channel: Channel,
        rng: np.random.Generator,
        x: np.ndarray | None = None,
        batch: int | None = None,
    ) -> Shares:
        """The initial sharing: one client-to-server message of input size.

        Where the client's row is held, ``x`` is the float NCHW input
        batch; a server-only placement passes the expected ``batch``.
        """
        client, server = channel.row(0), channel.row(1)
        if client is not None:
            if x is None:
                raise ValueError("the client party needs the input batch x")
            self.check_input(x)
            batch = x.shape[0]
            encoded = self.config.encode(x)
        elif batch is None:
            raise ValueError("the server party needs the expected batch size")
        shape = (batch, *self.input_shape)
        shares = np.empty((len(channel.parties), *shape), dtype=np.uint64)
        if client is not None:
            own = FixedPointConfig.random_ring(rng, shape)
            shares[client] = own
        received = channel.hand(
            "input-share", shape, lambda out: np.subtract(encoded, own, out=out)
        )
        channel.tick_round("input-share")
        channel.flush_deferred()
        if server is not None:
            shares[server] = received
        return shares

    def run(
        self, shares: Shares, suite: ProtocolSuite, channel: Channel
    ) -> tuple[Shares, list[LayerTally]]:
        """Execute every op on ``shares``; returns the boundary shares and
        the per-layer tallies (with the traffic each op accounted)."""
        registers: dict[str, Shares] = {}
        tallies: list[LayerTally] = []
        for op, flush in zip(self.ops, self._flush_after):
            before = channel.snapshot()
            start = time.perf_counter()
            shares, tally = self._execute(op, shares, registers, suite, channel)
            if flush:
                channel.flush_deferred()
            if tally is not None:
                tally.compute_s = time.perf_counter() - start
                tally.traffic = channel.diff(before)
                tallies.append(tally)
        return shares, tallies

    # ------------------------------------------------------------------
    # per-op handlers
    # ------------------------------------------------------------------
    def _execute(
        self,
        op: ProgramOp,
        shares: Shares,
        registers: dict[str, Shares],
        suite: ProtocolSuite,
        channel: Channel,
    ) -> tuple[Shares, LayerTally | None]:
        batch = shares.shape[1]
        if isinstance(op, (ConvOp, LinearOp)):
            if op.slot != "main":
                registers[op.slot] = self._linear_like(
                    op, registers[op.slot], suite, channel
                )
                return shares, op.tally(batch)
            return self._linear_like(op, shares, suite, channel), op.tally(batch)
        if isinstance(op, ReluOp):
            return suite.relu(shares, channel), op.tally(batch)
        if isinstance(op, MaxPoolOp):
            return self._maxpool(op, shares, suite, channel), op.tally(batch)
        if isinstance(op, AvgPoolOp):
            return self._avgpool(op, shares, channel), op.tally(batch)
        if isinstance(op, FlattenOp):
            return shares.reshape(len(shares), batch, -1), op.tally(batch)
        if isinstance(op, SaveOp):
            registers[op.slot] = shares
            return shares, None
        if isinstance(op, AddOp):
            return shares + registers.pop(op.slot), None
        raise ValueError(f"unsupported program op: {op!r}")

    def _linear_like(
        self, op: ConvOp | LinearOp, shares: Shares, suite: ProtocolSuite, channel: Channel
    ) -> Shares:
        ring_fn = bias_full = None
        if channel.row(1) is not None:  # the server's: weights never leave it
            ring_fn = op.ring_fn()
            # A broadcast *view* — the add inside suite.linear produces the
            # same bytes without materializing a per-request bias tensor.
            bias_full = np.broadcast_to(
                op.bias_ring.reshape(1, *([-1] + [1] * (len(op.out_shape) - 1))),
                (shares.shape[1], *op.out_shape),
            )
        y = suite.linear(shares, ring_fn, bias_full, channel)
        return truncate_shares(y, self.config.frac_bits, channel)

    def _windows(self, op: MaxPoolOp | AvgPoolOp, shares: Shares):
        """Pooling windows as ``(party, n*c, k*k, windows)`` columns."""
        k, stride = op.kernel_size, op.stride
        parties, n, c, h, w = shares.shape
        cols, out_h, out_w = im2col(
            shares.reshape(parties * n * c, 1, h, w), k, k, stride
        )
        return cols.reshape(parties, n * c, k * k, -1), (parties, n, c, out_h, out_w)

    def _maxpool(
        self, op: MaxPoolOp, shares: Shares, suite: ProtocolSuite, channel: Channel
    ) -> Shares:
        cols, out_shape = self._windows(op, shares)
        # Pairwise tournament: each level halves the candidate count with
        # one batched secure maximum.
        candidates = [cols[:, :, i] for i in range(cols.shape[2])]
        while len(candidates) > 1:
            half = len(candidates) // 2
            left = np.stack(candidates[:half], axis=1)
            right = np.stack(candidates[half : 2 * half], axis=1)
            merged = suite.maximum(left, right, channel)
            candidates = [merged[:, i] for i in range(half)] + candidates[2 * half :]
        return candidates[0].reshape(out_shape)

    def _avgpool(self, op: AvgPoolOp, shares: Shares, channel: Channel) -> Shares:
        cols, out_shape = self._windows(op, shares)
        inv = self.config.encode(np.array(1.0 / cols.shape[2]))
        scaled = multiply_public_constant(cols.sum(axis=2, dtype=np.uint64), inv)
        return truncate_shares(scaled, self.config.frac_bits, channel).reshape(
            out_shape
        )


@dataclass
class SecureExecutionResult:
    """Outcome of a secure prefix evaluation."""

    shares: Shares
    tallies: list[LayerTally]
    channel: Channel
    config: FixedPointConfig
    boundary: float

    def reconstruct(self) -> np.ndarray:
        """Open the boundary activation (testing only — in the C2PI flow
        the client first perturbs its share, see ``repro.core``)."""
        return self.config.decode(reconstruct_additive(*self.shares))

    @property
    def total_bytes(self) -> int:
        return self.channel.total_bytes

    @property
    def rounds(self) -> int:
        return self.channel.rounds


class SecureInferenceEngine:
    """Run ``model``'s crypto layers (up to ``boundary``) under 2PC.

    Both parties in this process. The protocol instantiation is pluggable
    through ``suite`` (:class:`~repro.mpc.backends.suite.ProtocolSuite`):
    the default trusted-dealer suite is fast enough for paper-scale runs,
    while the functional Delphi/Cheetah suites execute the real primitive
    stacks at demonstration scale. Pass a pre-compiled ``program`` to
    share one compilation across engines (the serve-many path); otherwise
    the model prefix is compiled here, once, at construction.
    """

    def __init__(
        self,
        model: LayeredModel,
        boundary: float,
        config: FixedPointConfig = DEFAULT_CONFIG,
        dealer_seed: int = 0,
        share_seed: int = 1,
        suite: ProtocolSuite | None = None,
        program: SecureProgram | None = None,
    ):
        if program is None:
            program = compile_program(model, boundary, config)
        elif not program.encoded:
            raise ValueError("engine needs a program compiled with encode_weights=True")
        self.model = model
        self.boundary = boundary
        self.config = config
        self.program = program
        self.dealer_seed = dealer_seed
        self.dealer = TrustedDealer(seed=dealer_seed)
        self.suite = suite if suite is not None else DealerSuite(self.dealer)
        self.share_rng = np.random.default_rng(share_seed)
        self._executor = ProgramExecutor(program.ops, program.input_shape, config)

    @classmethod
    def from_program(
        cls,
        program: SecureProgram,
        dealer_seed: int = 0,
        share_seed: int = 1,
        suite: ProtocolSuite | None = None,
    ) -> "SecureInferenceEngine":
        """An executor over an already-compiled program (compile once, serve many)."""
        return cls(
            program.model,
            program.boundary,
            config=program.config,
            dealer_seed=dealer_seed,
            share_seed=share_seed,
            suite=suite,
            program=program,
        )

    # ------------------------------------------------------------------
    def run(
        self, x: np.ndarray, material=None, input_shares: Shares | None = None
    ) -> SecureExecutionResult:
        """Securely evaluate the program on a float NCHW input batch.

        ``material`` is an optional dealer-like source of pre-generated
        correlated randomness (a :class:`~repro.mpc.preprocessing.ReplayDealer`);
        when given, the online phase performs **zero** dealer generation and
        the engine's own dealer counters do not move.

        ``input_shares`` optionally injects the additive sharing of the
        (already validated) input instead of drawing it from the engine's
        own ``share_rng`` — :func:`repro.core.c2pi.infer_groups` draws each
        row group's sharing from that group's own engine, so a pass that
        carries other sessions' rows advances no stream but theirs and
        the anonymous pipeline stays byte-identical whether or not fused
        batches ran in between.
        """
        suite = self.suite if material is None else self.suite.with_dealer(material)
        if material is None:  # inline: this run is one bundle, opened as a pool's is
            self.dealer.begin_bundle()
        channel = Channel()
        if input_shares is None:
            shares = self._executor.share_input(channel, self.share_rng, x=x)
        else:
            self._executor.check_input(x)
            shares = np.asarray(input_shares)
            if shares.shape != (2, *x.shape):
                raise ValueError(
                    f"injected input shares of shape {shares.shape} do not "
                    f"cover the input batch {x.shape}"
                )
            # Shared by the caller: the message is accounted, not redrawn.
            channel.send(0, shares[1].nbytes, label="input-share")
            channel.tick_round("input-share")
        shares, tallies = self._executor.run(shares, suite, channel)
        return SecureExecutionResult(
            shares=shares,
            tallies=tallies,
            channel=channel,
            config=self.config,
            boundary=self.boundary,
        )


def static_layer_tallies(model: LayeredModel, boundary: float, batch: int = 1) -> list[LayerTally]:
    """Shape-derived tallies for the crypto segment — no secure execution.

    Produces the same ``LayerTally`` records the engine would (minus actual
    traffic/compute measurements) by compiling a weight-free program, so
    paper-scale cost estimation stays cheap. Batch-norm layers vanish
    (folded); dropout/identity are skipped; residual blocks expand into
    their convs and ReLUs.
    """
    return compile_program(model, boundary, encode_weights=False).tallies(batch)
