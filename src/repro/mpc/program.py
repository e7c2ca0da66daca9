"""The ``SecureProgram`` intermediate representation (compile once, serve many).

C2PI's architecture — like the Delphi/Cheetah stacks it builds on — splits
private inference into an expensive *offline* phase and a cheap *online*
phase. Everything the offline phase needs to know about a crypto segment is
static: the layer sequence, the traced activation shapes, the batch-norm
folding, and the fixed-point ring encodings of the server's weights. This
module computes all of that **once** and stores it as a typed op list:

* :func:`compile_program` walks ``model.prefix(boundary)`` a single time and
  emits :class:`ConvOp` / :class:`LinearOp` / :class:`ReluOp` /
  :class:`MaxPoolOp` / :class:`AvgPoolOp` / :class:`FlattenOp` records
  (plus :class:`SaveOp` / :class:`AddOp` register moves for residual
  blocks), each carrying pre-folded, pre-encoded weights and per-sample
  input/output shapes;
* :class:`SecureProgram` derives every static quantity downstream code
  used to re-trace separately: :meth:`SecureProgram.tallies` (the cost
  model input), :meth:`SecureProgram.total_macs` (split-learning MAC
  accounting) and the boundary activation shape;
* :class:`~repro.mpc.engine.SecureInferenceEngine` executes the program
  online, and :class:`~repro.mpc.preprocessing.PreprocessingPool`
  generates the program's correlated randomness offline.

Residual blocks (:class:`repro.models.resnet.ResidualBlock`) are lowered
into their constituent convolutions, ReLUs and one communication-free
share addition, which makes ResNet crypto segments executable by the
engine rather than only costable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..models.layered import LayeredModel
from ..nn.functional import conv_output_size
from .fixedpoint import DEFAULT_CONFIG, FixedPointConfig
from .network import TrafficSnapshot

__all__ = [
    "LayerTally",
    "ProgramOp",
    "ConvOp",
    "LinearOp",
    "ReluOp",
    "MaxPoolOp",
    "AvgPoolOp",
    "FlattenOp",
    "SaveOp",
    "AddOp",
    "SecureProgram",
    "compile_program",
    "deferred_reveal_flags",
    "frame_plan",
    "fold_batch_norm",
    "split_macs",
]


@dataclass
class LayerTally:
    """Cost-relevant facts about one executed (or statically traced) layer."""

    kind: str  # "conv" | "linear" | "relu" | "maxpool" | "avgpool" | "flatten"
    name: str
    elements: int = 0  # activation elements the op produces/consumes
    in_elements: int = 0
    out_elements: int = 0
    c_in: int = 0
    c_out: int = 0
    kernel: int = 0
    macs: int = 0
    windows: int = 0
    window_size: int = 0
    compute_s: float = 0.0
    traffic: TrafficSnapshot = field(default_factory=TrafficSnapshot)


def fold_batch_norm(conv: nn.Conv2d, bn: nn.BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
    """Fold an eval-mode batch norm into the preceding convolution.

    Returns the adjusted (weight, bias) float arrays:
    ``W' = W * gamma / sqrt(var + eps)``, ``b' = (b - mean) * gamma /
    sqrt(var + eps) + beta``.
    """
    gamma = bn.gamma.data
    beta = bn.beta.data
    mean = bn.running_mean
    var = bn.running_var
    inv_std = gamma / np.sqrt(var + bn.eps)
    weight = conv.weight.data * inv_std[:, None, None, None]
    bias = conv.bias.data if conv.bias is not None else np.zeros(conv.out_channels, np.float32)
    bias = (bias - mean) * inv_std + beta
    return weight.astype(np.float32), bias.astype(np.float32)


# ----------------------------------------------------------------------
# typed ops
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class ProgramOp:
    """One step of a compiled crypto segment.

    ``in_shape``/``out_shape`` are per-sample (no batch dimension).
    ``slot`` names the register the op reads and writes: ``"main"`` is the
    activation flowing through the network; residual lowering uses a side
    register for the skip connection.
    """

    kind: str
    name: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    slot: str = "main"

    def tally(self, batch: int = 1) -> LayerTally | None:
        """The static :class:`LayerTally` this op contributes (or ``None``)."""
        return None

    def macs(self, batch: int = 1) -> int:
        tally = self.tally(batch)
        return tally.macs if tally is not None else 0


@dataclass(kw_only=True)
class ConvOp(ProgramOp):
    """A convolution with pre-folded BN and pre-encoded ring weights."""

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    dilation: int
    weight_ring: np.ndarray | None = None  # (c_out, c_in, k, k) uint64
    bias_ring: np.ndarray | None = None  # (c_out,) uint64 at 2f scale

    def ring_fn(self):
        """The integer linear map over Z_2^64 (numpy uint64 wrap = mod 2^64)."""
        from ..nn.functional import im2col

        weight = self.weight_ring
        if weight is None:
            raise ValueError(f"{self.name}: program compiled without encoded weights")
        w_mat = weight.reshape(weight.shape[0], -1)
        out_channels, kernel, stride = self.out_channels, self.kernel_size, self.stride
        padding, dilation = self.padding, self.dilation

        def apply(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            cols, out_h, out_w = im2col(x, kernel, kernel, stride, padding, dilation)
            out = np.matmul(w_mat, cols)  # uint64 matmul wraps mod 2^64
            return out.reshape(n, out_channels, out_h, out_w)

        return apply

    def tally(self, batch: int = 1) -> LayerTally:
        out_elements = batch * int(np.prod(self.out_shape))
        return LayerTally(
            kind="conv",
            name=self.name,
            elements=out_elements,
            in_elements=batch * int(np.prod(self.in_shape)),
            out_elements=out_elements,
            c_in=self.in_channels,
            c_out=self.out_channels,
            kernel=self.kernel_size,
            macs=out_elements * self.in_channels * self.kernel_size**2,
        )


@dataclass(kw_only=True)
class LinearOp(ProgramOp):
    """A fully-connected layer with pre-encoded ring weights."""

    in_features: int
    out_features: int
    weight_ring: np.ndarray | None = None  # (out, in) uint64
    bias_ring: np.ndarray | None = None  # (out,) uint64 at 2f scale

    def ring_fn(self):
        weight = self.weight_ring
        if weight is None:
            raise ValueError(f"{self.name}: program compiled without encoded weights")

        def apply(x: np.ndarray) -> np.ndarray:
            return np.matmul(x, weight.T)

        return apply

    def tally(self, batch: int = 1) -> LayerTally:
        out_elements = batch * self.out_features
        return LayerTally(
            kind="linear",
            name=self.name,
            elements=out_elements,
            in_elements=batch * int(np.prod(self.in_shape)),
            out_elements=out_elements,
            c_in=self.in_features,
            c_out=self.out_features,
            kernel=1,
            macs=out_elements * self.in_features,
        )


@dataclass(kw_only=True)
class ReluOp(ProgramOp):
    def tally(self, batch: int = 1) -> LayerTally:
        return LayerTally(
            kind="relu", name=self.name, elements=batch * int(np.prod(self.in_shape))
        )


@dataclass(kw_only=True)
class MaxPoolOp(ProgramOp):
    kernel_size: int
    stride: int

    def tally(self, batch: int = 1) -> LayerTally:
        windows = batch * int(np.prod(self.out_shape))
        return LayerTally(
            kind="maxpool",
            name=self.name,
            elements=windows,
            windows=windows,
            window_size=self.kernel_size**2,
        )


@dataclass(kw_only=True)
class AvgPoolOp(ProgramOp):
    kernel_size: int
    stride: int

    def tally(self, batch: int = 1) -> LayerTally:
        windows = batch * int(np.prod(self.out_shape))
        return LayerTally(
            kind="avgpool",
            name=self.name,
            elements=windows,
            windows=windows,
            window_size=self.kernel_size**2,
        )


@dataclass(kw_only=True)
class FlattenOp(ProgramOp):
    def tally(self, batch: int = 1) -> LayerTally:
        return LayerTally(kind="flatten", name=self.name)


@dataclass(kw_only=True)
class SaveOp(ProgramOp):
    """Copy the main activation into a side register (skip connection)."""


@dataclass(kw_only=True)
class AddOp(ProgramOp):
    """Add a side register into the main activation (local, no traffic)."""


# ----------------------------------------------------------------------
# the program
# ----------------------------------------------------------------------
@dataclass
class SecureProgram:
    """A compiled crypto segment: typed ops plus everything static.

    One program is compiled per (model, boundary, fixed-point config) and
    shared by the online executor, the offline preprocessing pools, the
    cost models and the MAC-split accounting — the single source of truth
    the engine, ``C2PIPipeline.cost_estimate`` and
    ``SplitLearningDeployment`` previously each re-derived by walking the
    model again.
    """

    model: LayeredModel
    boundary: float
    config: FixedPointConfig
    ops: list[ProgramOp]
    input_shape: tuple[int, ...]  # per-sample CHW
    output_shape: tuple[int, ...]  # per-sample boundary activation shape
    encoded: bool

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def tallies(self, batch: int = 1) -> list[LayerTally]:
        """Shape-derived tallies for the whole segment (no execution)."""
        return [t for op in self.ops if (t := op.tally(batch)) is not None]

    def total_macs(self, batch: int = 1) -> int:
        return sum(op.macs(batch) for op in self.ops)

    def describe(self) -> str:
        """Multi-line op listing (serving logs and examples)."""
        lines = [
            f"SecureProgram({self.model.name}, boundary={self.boundary}, "
            f"f={self.config.frac_bits}, {'encoded' if self.encoded else 'shapes only'})"
        ]
        for op in self.ops:
            lines.append(
                f"  {op.kind:<8} {op.name:<20} {op.in_shape} -> {op.out_shape}"
                + (f"  [{op.slot}]" if op.slot != "main" else "")
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# static frame analysis (reveal fusion + buffer-pool presizing)
# ----------------------------------------------------------------------
def deferred_reveal_flags(ops: list[ProgramOp]) -> list[bool]:
    """Which linear ops may defer their masked-input reveal (per op).

    A linear layer's client half only *sends* — it needs nothing back
    before the next op — so whenever a ReLU or max-pool follows later in
    the program, its masked input can ride in the same physical frame as
    that op's masked reveal (the client's next push). The program's last
    linear (feeding the noised reveal) never defers: there is no later
    push to carry it.
    """
    flags = [False] * len(ops)
    carrier_behind = False
    for index in range(len(ops) - 1, -1, -1):
        op = ops[index]
        if isinstance(op, (ReluOp, MaxPoolOp)):
            carrier_behind = True
        elif isinstance(op, (ConvOp, LinearOp)):
            flags[index] = carrier_behind
    return flags


def frame_plan(
    ops: list[ProgramOp],
    batch: int,
    input_shape: tuple[int, ...],
    output_shape: tuple[int, ...],
) -> dict[str, set[int]]:
    """Every online frame size the program will use, keyed by pool label.

    All payload sizes are static per (program, batch), so a transport's
    :class:`~repro.mpc.transport.BufferPool` can allocate every ring
    before the first round (``pool.presize(frame_plan(...))``) instead of
    growing during it. Handed messages (the input share, linear masked
    inputs, the noised reveal) are listed under the ``@slot`` staging keys
    :meth:`~repro.mpc.transport.Transport.hand` queues them under: the
    slot counts same-label messages waiting for the same carrier frame.
    """
    plan: dict[str, set[int]] = {}

    def add(label: str, nbytes: int) -> None:
        plan.setdefault(label, set()).add(int(nbytes))

    def add_relu(elements: int) -> None:
        # One ReLU of m elements: masked reveal (8m), seven AND openings
        # on packed words (paired (d, e): 16m), the packed B2A bit open,
        # and the final Beaver opening pair.
        add("masked-reveal", 8 * elements)
        add("and-open", 16 * elements)
        add("b2a-open", max(1, (elements + 7) // 8))
        add("beaver-open", 16 * elements)

    # A message that travels alone is received under its bare wire label.
    for key in ("input-share@0", "input-share"):
        add(key, 8 * batch * int(np.prod(input_shape)))
    for key in ("noised-reveal@0", "noised-reveal"):
        add(key, 8 * batch * int(np.prod(output_shape)))
    flags = deferred_reveal_flags(ops)
    slot = 0
    for op, deferred in zip(ops, flags):
        if isinstance(op, (ConvOp, LinearOp)):
            nbytes = 8 * batch * int(np.prod(op.in_shape))
            add(f"linear-masked-input@{slot}", nbytes)
            if deferred:
                slot += 1
            else:
                add("linear-masked-input", nbytes)
        elif isinstance(op, ReluOp):
            slot = 0
            add_relu(batch * int(np.prod(op.in_shape)))
        elif isinstance(op, MaxPoolOp):
            slot = 0
            count = op.kernel_size * op.kernel_size
            windows = batch * int(np.prod(op.out_shape))
            # The pairwise tournament: each level compares `half` stacked
            # window slices at once.
            while count > 1:
                half = count // 2
                add_relu(half * windows)
                count = half + (count - 2 * half)
    return plan


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_program(
    model: LayeredModel,
    boundary: float,
    config: FixedPointConfig = DEFAULT_CONFIG,
    *,
    encode_weights: bool = True,
) -> SecureProgram:
    """Walk ``model.prefix(boundary)`` once and emit the typed op list.

    Batch norms are folded into the preceding convolution (the standard
    inference-time transformation); dropout/identity vanish; residual
    blocks are lowered into convs, ReLUs and a share addition. With
    ``encode_weights=False`` the program carries shapes and tallies only
    (cheap), which is what the static cost paths use.
    """
    modules = list(model.prefix(boundary))
    ops: list[ProgramOp] = []
    shape = tuple(model.input_shape)
    index = 0
    while index < len(modules):
        module = modules[index]
        if isinstance(module, nn.Conv2d):
            follower = modules[index + 1] if index + 1 < len(modules) else None
            bn = follower if isinstance(follower, nn.BatchNorm2d) else None
            ops.append(_compile_conv(module, bn, shape, config, encode_weights))
            shape = ops[-1].out_shape
            if bn is not None:
                index += 1  # consume the folded BN
        elif isinstance(module, nn.Linear):
            ops.append(_compile_linear(module, shape, config, encode_weights))
            shape = ops[-1].out_shape
        elif isinstance(module, nn.ReLU):
            ops.append(ReluOp(kind="relu", name="relu", in_shape=shape, out_shape=shape))
        elif isinstance(module, nn.MaxPool2d):
            out_shape = _pool_shape(shape, module.kernel_size, module.stride)
            ops.append(
                MaxPoolOp(
                    kind="maxpool",
                    name=f"maxpool{module.kernel_size}",
                    in_shape=shape,
                    out_shape=out_shape,
                    kernel_size=module.kernel_size,
                    stride=module.stride,
                )
            )
            shape = out_shape
        elif isinstance(module, nn.AvgPool2d):
            out_shape = _pool_shape(shape, module.kernel_size, module.stride)
            ops.append(
                AvgPoolOp(
                    kind="avgpool",
                    name=f"avgpool{module.kernel_size}",
                    in_shape=shape,
                    out_shape=out_shape,
                    kernel_size=module.kernel_size,
                    stride=module.stride,
                )
            )
            shape = out_shape
        elif isinstance(module, nn.AdaptiveAvgPool2d):
            kernel = shape[1] // module.output_size
            if shape[1] % module.output_size:
                raise ValueError(
                    f"adaptive pool needs divisible sizes, got {shape[1]}"
                    f"->{module.output_size}"
                )
            out_shape = _pool_shape(shape, kernel, kernel)
            ops.append(
                AvgPoolOp(
                    kind="avgpool",
                    name=f"avgpool{kernel}",
                    in_shape=shape,
                    out_shape=out_shape,
                    kernel_size=kernel,
                    stride=kernel,
                )
            )
            shape = out_shape
        elif isinstance(module, nn.Flatten):
            out_shape = (int(np.prod(shape)),)
            ops.append(
                FlattenOp(kind="flatten", name="flatten", in_shape=shape, out_shape=out_shape)
            )
            shape = out_shape
        elif isinstance(module, (nn.Dropout, nn.Identity)):
            pass
        elif isinstance(module, nn.BatchNorm2d):
            raise ValueError(
                "standalone BatchNorm2d in the crypto segment; batch norms "
                "must directly follow a convolution so they can be folded"
            )
        elif _is_residual_block(module):
            shape = _lower_residual(module, shape, ops, config, encode_weights)
        else:
            raise ValueError(f"unsupported module in crypto segment: {module!r}")
        index += 1

    return SecureProgram(
        model=model,
        boundary=boundary,
        config=config,
        ops=ops,
        input_shape=tuple(model.input_shape),
        output_shape=shape,
        encoded=encode_weights,
    )


def _compile_conv(
    conv: nn.Conv2d,
    bn: nn.BatchNorm2d | None,
    shape: tuple[int, ...],
    config: FixedPointConfig,
    encode: bool,
    slot: str = "main",
) -> ConvOp:
    _, h, w = shape
    out_h = conv_output_size(h, conv.kernel_size, conv.stride, conv.padding, conv.dilation)
    out_w = conv_output_size(w, conv.kernel_size, conv.stride, conv.padding, conv.dilation)
    weight_ring = bias_ring = None
    if encode:
        if bn is not None:
            weight, bias = fold_batch_norm(conv, bn)
        else:
            weight = conv.weight.data
            bias = (
                conv.bias.data
                if conv.bias is not None
                else np.zeros(conv.out_channels, np.float32)
            )
        weight_ring = config.encode(weight)
        bias_ring = config.encode(bias, frac_bits=2 * config.frac_bits)
    return ConvOp(
        kind="conv",
        name=f"conv{conv.in_channels}x{conv.out_channels}",
        in_shape=shape,
        out_shape=(conv.out_channels, out_h, out_w),
        slot=slot,
        in_channels=conv.in_channels,
        out_channels=conv.out_channels,
        kernel_size=conv.kernel_size,
        stride=conv.stride,
        padding=conv.padding,
        dilation=conv.dilation,
        weight_ring=weight_ring,
        bias_ring=bias_ring,
    )


def _compile_linear(
    layer: nn.Linear, shape: tuple[int, ...], config: FixedPointConfig, encode: bool
) -> LinearOp:
    weight_ring = bias_ring = None
    if encode:
        weight_ring = config.encode(layer.weight.data)
        bias = (
            layer.bias.data
            if layer.bias is not None
            else np.zeros(layer.out_features, np.float32)
        )
        bias_ring = config.encode(bias, frac_bits=2 * config.frac_bits)
    return LinearOp(
        kind="linear",
        name=f"fc{layer.in_features}x{layer.out_features}",
        in_shape=shape,
        out_shape=(layer.out_features,),
        in_features=layer.in_features,
        out_features=layer.out_features,
        weight_ring=weight_ring,
        bias_ring=bias_ring,
    )


def _is_residual_block(module: nn.Module) -> bool:
    from ..models.resnet import ResidualBlock

    return isinstance(module, ResidualBlock)


def _pool_shape(shape: tuple[int, ...], kernel: int, stride: int) -> tuple[int, ...]:
    c, h, w = shape
    return (c, (h - kernel) // stride + 1, (w - kernel) // stride + 1)


def _lower_residual(
    block, shape: tuple[int, ...], ops: list[ProgramOp], config: FixedPointConfig,
    encode: bool,
) -> tuple[int, ...]:
    """Lower a ResidualBlock into convs, ReLUs and one share addition.

    The skip path lives in a side register: ``SaveOp`` copies the block
    input there (through the 1x1 projection when the block downsamples),
    and ``AddOp`` folds it back in before the post-addition ReLU. Share
    addition is local for additive secret sharing, so neither register op
    contributes traffic or a tally — exactly how Delphi/Cheetah would
    execute a residual connection.
    """
    ops.append(SaveOp(kind="save", name="skip-save", in_shape=shape, out_shape=shape,
                      slot="skip"))
    skip_shape = shape
    if block.projection is not None:
        projection = _compile_conv(
            block.projection, None, shape, config, encode, slot="skip"
        )
        ops.append(projection)
        skip_shape = projection.out_shape
    conv1 = _compile_conv(block.conv1, block.bn1, shape, config, encode)
    ops.append(conv1)
    ops.append(ReluOp(kind="relu", name="relu", in_shape=conv1.out_shape,
                      out_shape=conv1.out_shape))
    conv2 = _compile_conv(block.conv2, block.bn2, conv1.out_shape, config, encode)
    ops.append(conv2)
    if conv2.out_shape != skip_shape:
        raise ValueError(
            f"residual shapes diverge: body {conv2.out_shape} vs skip {skip_shape}"
        )
    ops.append(AddOp(kind="add", name="skip-add", in_shape=conv2.out_shape,
                     out_shape=conv2.out_shape, slot="skip"))
    ops.append(ReluOp(kind="relu", name="relu", in_shape=conv2.out_shape,
                      out_shape=conv2.out_shape))
    return conv2.out_shape


# ----------------------------------------------------------------------
# shared derivations (the former triple shape-trace)
# ----------------------------------------------------------------------
def split_macs(
    model: LayeredModel, split_layer: float, batch: int = 1
) -> tuple[int, int]:
    """(prefix, suffix) multiply-accumulate counts at a split point.

    Both halves derive from :class:`SecureProgram` tallies — the single
    shape trace ``SplitLearningDeployment._mac_split`` and
    ``C2PIPipeline.cost_estimate`` used to duplicate.
    """
    last = model.layer_ids[-1]
    total = compile_program(model, last, encode_weights=False).total_macs(batch)
    prefix = compile_program(model, split_layer, encode_weights=False).total_macs(batch)
    return prefix, total - prefix
