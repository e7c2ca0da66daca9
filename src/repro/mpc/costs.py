"""Calibrated cost profiles for the Delphi and Cheetah PI backends.

The functional engine in :mod:`repro.mpc.engine` proves *what* is computed
and on which shares; this module models *what it costs* when the same layer
sequence is executed by the two frameworks the paper benchmarks
(Table II):

* **Delphi** (Mishra et al., USENIX Security 2020) — linear layers with
  linearly homomorphic encryption in an offline phase; ReLUs with garbled
  circuits. Per-ReLU communication is dominated by the offline garbled
  circuit (~17.5 KB) plus ~2 KB of online labels; compute is dominated by
  the HE evaluation of the linear layers, whose rotation count grows with
  ``c_in * c_out``, plus per-ReLU garbling.
* **Cheetah** (Huang et al., USENIX Security 2022) — lattice-based linear
  layers without rotations and VOLE-style OT for comparisons, roughly two
  orders of magnitude leaner per ReLU.

Calibration: the per-op constants are fitted so the *full-PI* rows of
Table II for VGG16/CIFAR-10 are approximately reproduced at paper scale
(Delphi ~6100 s LAN / ~5.1 GB; Cheetah ~14 s LAN / ~180 MB); the C2PI rows
then emerge from the boundary truncation with no further tuning. The
paper's own Delphi-VGG19 row is anomalous relative to any per-operation
additive model (likely memory pressure on the authors' 11 GB machine, as
discussed in EXPERIMENTS.md) and is not fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import LayerTally
from .network import NetworkModel
from .protocols import SUFFIX_STEPS

__all__ = [
    "OpCost",
    "BackendCostModel",
    "delphi_costs",
    "cheetah_costs",
    "cryptflow2_costs",
    "CostEstimate",
    "WORD_BYTES",
    "SUFFIX_AND_ROUNDS",
    "drelu_label_bytes",
    "relu_label_bytes",
    "relu_offline_material_bytes",
    "dealer_label_traffic",
    "dealer_material_bytes",
    "PROTOCOL_WIRE_LABELS",
    "FRAMEWORK_WIRE_LABELS",
    "BACKEND_WIRE_LABELS",
    "DEALER_WIRE_LABELS",
    "known_wire_labels",
    "method_wire_labels",
]


# ----------------------------------------------------------------------
# the dealer suite's own packed-circuit byte model
# ----------------------------------------------------------------------
# The functional dealer engine is not a modeled backend — its traffic is
# exact. These constants re-derive the per-label byte counts of the
# bitsliced comparison circuit so tests (and the networked CI smoke job)
# can assert that measured socket payload equals the model: one uint64
# word per ring element per boolean wire, 6 suffix-AND doubling rounds
# plus the strict AND, raw word bytes on the wire (no per-call bit
# packing).
WORD_BYTES = 8
# The doubling levels plus the final strict AND — derived from the
# circuit's own step schedule so the byte model cannot drift from it.
SUFFIX_AND_ROUNDS = len(SUFFIX_STEPS) + 1

# Single source of truth for the packed layout, keyed by dealer method.
# Online: consuming one material item over n elements opens exactly one
# message pair — these functions give its payload, both directions.
_METHOD_TRAFFIC: dict[str, tuple[str, callable]] = {
    "comparison_masks": ("masked-reveal", lambda n: 2 * WORD_BYTES * n),
    # One AND round opens (d, e): two words per element per direction.
    "bit_triples": ("and-open", lambda n: 2 * 2 * WORD_BYTES * n),
    "dabits": ("b2a-open", lambda n: 2 * max(1, (n + 7) // 8)),
    "beaver_triples": ("beaver-open", lambda n: 2 * 2 * WORD_BYTES * n),
    # The masked input travels client -> server only.
    "linear_correlation": ("linear-masked-input", lambda n: WORD_BYTES * n),
}
# Offline: material bytes per element, both parties' halves. Linear
# correlations are excluded — their output-offset size depends on the
# layer's ring function, not on the request shape.
_METHOD_MATERIAL_BYTES = {
    # (a, b, c) x 2 shares x one word per element.
    "bit_triples": 3 * 2 * WORD_BYTES,
    # r (2 x u64) + packed low bits (2 x u64) + msb (2 x u8).
    "comparison_masks": 2 * WORD_BYTES + 2 * WORD_BYTES + 2,
    # boolean half (2 x u8) + arithmetic half (2 x u64).
    "dabits": 2 + 2 * WORD_BYTES,
    "beaver_triples": 3 * 2 * WORD_BYTES,
}


# ----------------------------------------------------------------------
# wire-label registry
# ----------------------------------------------------------------------
# Every label that may appear on a push/exchange/tick_round call, tiered
# by who owns the traffic. `c2pi audit` (the wire pass) statically checks
# each accounting call site against this union — an unregistered label is
# either a typo or a deliberate addition, and both get reviewed here, in
# the same module whose tables the label must reconcile against.

#: Dealer-suite protocol openings; derived from the traffic tables above
#: so the registry cannot drift from the byte model.
PROTOCOL_WIRE_LABELS = frozenset(
    label for label, _payload in _METHOD_TRAFFIC.values()
)


def method_wire_labels() -> dict[str, str]:
    """Dealer method -> the wire label its consumption opens.

    One consumed material item opens exactly one round of this label —
    the invariant the audit schedule pass cross-checks against every
    protocol half's extracted trace, so ``_METHOD_TRAFFIC`` and the
    implementations cannot drift apart silently.
    """
    return {method: label for method, (label, _payload) in _METHOD_TRAFFIC.items()}

#: Framework traffic: share distribution, session plumbing, the noised
#: logit reveal, MAC checks, and the fault-injection frame tags.
FRAMEWORK_WIRE_LABELS = frozenset(
    {
        "input-share",
        "noised-reveal",
        "open",
        "linear",
        "mac-commit",
        "mac-open",
        "link",
        "logits",
    }
)

#: Modeled-backend and crypto-primitive traffic (OT extension, base OT,
#: garbled tables, Delphi/Cheetah ciphertext movement).
BACKEND_WIRE_LABELS = frozenset(
    {
        "bit-open",
        "iknp-u",
        "iknp-payload",
        "iknp-cot",
        "baseot-A",
        "baseot-B",
        "baseot-ciphertexts",
        "1ofN-entries",
        "gc-tables",
        "delphi-online",
        "delphi-offline-up",
        "delphi-offline-down",
        "delphi-enc-reply",
        "delphi-enc-mask",
        "cheetah-ct-up",
        "cheetah-ct-down",
    }
)


#: Crypto-producer service traffic: the dealer RPC link that ships sealed
#: preprocessing bundles from a standalone dealer process to the serving
#: parties (handshake, request/reply control, and the bundle payloads).
DEALER_WIRE_LABELS = frozenset(
    {
        "dealer-link",
        "dealer-hello",
        "dealer-req",
        "dealer-rep",
        "dealer-bundle",
    }
)


def known_wire_labels() -> frozenset:
    """The full registry: every label sanctioned for accounting calls."""
    return (
        PROTOCOL_WIRE_LABELS
        | FRAMEWORK_WIRE_LABELS
        | BACKEND_WIRE_LABELS
        | DEALER_WIRE_LABELS
    )


def _elements(shape) -> int:
    total = 1
    for dim in shape:
        total *= int(dim)
    return total


def _drelu_methods() -> list[str]:
    """The dealer methods one DReLU consumes (the comparison circuit)."""
    return ["comparison_masks"] + ["bit_triples"] * SUFFIX_AND_ROUNDS


def _relu_methods() -> list[str]:
    """One ReLU: the DReLU circuit plus daBit B2A and the Beaver mux."""
    return _drelu_methods() + ["dabits", "beaver_triples"]


def _label_traffic_of(methods: list[str], elements: int) -> dict[str, int]:
    traffic: dict[str, int] = {}
    for method in methods:
        label, payload = _METHOD_TRAFFIC[method]
        traffic[label] = traffic.get(label, 0) + payload(elements)
    return traffic


def drelu_label_bytes(elements: int) -> dict[str, int]:
    """Exact online bytes (both directions) of one DReLU batch, per label."""
    return _label_traffic_of(_drelu_methods(), elements)


def relu_label_bytes(elements: int) -> dict[str, int]:
    """Exact online bytes of one ReLU batch (DReLU + B2A + Beaver mux)."""
    return _label_traffic_of(_relu_methods(), elements)


def relu_offline_material_bytes(elements: int) -> dict[str, int]:
    """Preprocessing material bytes (both parties' halves) per ReLU batch."""
    sizes: dict[str, int] = {}
    for method in _relu_methods():
        sizes[method] = (
            sizes.get(method, 0) + _METHOD_MATERIAL_BYTES[method] * elements
        )
    return sizes


def dealer_label_traffic(plan) -> dict[str, int]:
    """Per-label online bytes a material plan implies, both directions.

    ``plan`` is a list of material requests (``method``/``shape``
    records, e.g. :class:`~repro.mpc.preprocessing.MaterialRequest`).
    Because the dealer-suite protocols are data-oblivious, the exact
    online traffic of a program follows from its material plan alone:
    every bit-triple word is opened once (``and-open``), every comparison
    mask is revealed once (``masked-reveal``), and so on. The loopback
    tests assert this prediction equals both the Channel accounting and
    the measured socket payload.
    """
    traffic: dict[str, int] = {}
    for request in plan:
        label, payload = _METHOD_TRAFFIC[request.method]
        amount = payload(_elements(request.shape))
        traffic[label] = traffic.get(label, 0) + amount
    return traffic


def dealer_material_bytes(plan) -> dict[str, int]:
    """Material bytes (both halves) per method implied by a plan.

    Linear correlations are excluded: their output-offset size depends on
    the layer's ring function, not on the request shape.
    """
    sizes: dict[str, int] = {}
    for request in plan:
        scale = _METHOD_MATERIAL_BYTES.get(request.method)
        if scale is None:
            continue
        sizes[request.method] = sizes.get(request.method, 0) + scale * _elements(
            request.shape
        )
    return sizes


@dataclass
class OpCost:
    """Modeled cost of one operation."""

    offline_bytes: float = 0.0
    online_bytes: float = 0.0
    rounds: float = 0.0
    compute_s: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.offline_bytes + self.online_bytes

    def __add__(self, other: "OpCost") -> "OpCost":
        return OpCost(
            self.offline_bytes + other.offline_bytes,
            self.online_bytes + other.online_bytes,
            self.rounds + other.rounds,
            self.compute_s + other.compute_s,
        )


@dataclass(frozen=True)
class BackendCostModel:
    """Per-operation cost constants of a PI framework.

    Attributes (units: bytes, seconds, dimensionless rounds)
    ---------------------------------------------------------
    relu_offline_bytes / relu_online_bytes:
        Per-ReLU communication.
    relu_compute_s:
        Per-ReLU cryptographic compute (garbling+evaluation for Delphi,
        OT extension for Cheetah).
    relu_rounds:
        Online rounds per ReLU *layer* (amortised over the batch of
        comparisons in the layer).
    linear_unit_compute_s:
        Compute per ``c_in*c_out`` channel-pair unit — the quantity HE
        rotation counts track for 3x3 CIFAR-scale convolutions.
    linear_element_bytes:
        Ciphertext bytes per (input + output) activation element.
    linear_unit_bytes:
        Ciphertext bytes per channel-pair unit (packing overhead of wide
        layers).
    maxpool_comparison_factor:
        Cost of one max-pool comparison relative to one ReLU.
    """

    name: str
    relu_offline_bytes: float
    relu_online_bytes: float
    relu_compute_s: float
    relu_rounds: float
    linear_unit_compute_s: float
    linear_element_bytes: float
    linear_unit_bytes: float
    linear_rounds: float
    maxpool_comparison_factor: float = 0.8

    # ------------------------------------------------------------------
    def linear_cost(self, tally: LayerTally) -> OpCost:
        units = tally.c_in * tally.c_out
        offline = (
            tally.in_elements + tally.out_elements
        ) * self.linear_element_bytes + units * self.linear_unit_bytes
        return OpCost(
            offline_bytes=offline,
            online_bytes=0.0,  # Delphi-style share arrangement: no online msg
            rounds=self.linear_rounds,
            compute_s=units * self.linear_unit_compute_s,
        )

    def relu_cost(self, n_elements: int) -> OpCost:
        return OpCost(
            offline_bytes=n_elements * self.relu_offline_bytes,
            online_bytes=n_elements * self.relu_online_bytes,
            rounds=self.relu_rounds,
            compute_s=n_elements * self.relu_compute_s,
        )

    def maxpool_cost(self, windows: int, window_size: int) -> OpCost:
        comparisons = windows * (window_size - 1)
        factor = self.maxpool_comparison_factor
        # A k*k tournament runs ceil(log2(k*k)) sequential comparison levels.
        levels = max(1, (window_size - 1).bit_length())
        return OpCost(
            offline_bytes=comparisons * self.relu_offline_bytes * factor,
            online_bytes=comparisons * self.relu_online_bytes * factor,
            rounds=self.relu_rounds * levels,
            compute_s=comparisons * self.relu_compute_s * factor,
        )

    def avgpool_cost(self, windows: int) -> OpCost:
        # Average pooling is linear: local sums plus a shared truncation.
        return OpCost(online_bytes=windows * 2.0, rounds=0.0, compute_s=windows * 1e-8)

    def cost_of(self, tally: LayerTally) -> OpCost:
        if tally.kind in ("conv", "linear"):
            return self.linear_cost(tally)
        if tally.kind == "relu":
            return self.relu_cost(tally.elements)
        if tally.kind == "maxpool":
            return self.maxpool_cost(tally.windows, tally.window_size)
        if tally.kind == "avgpool":
            return self.avgpool_cost(tally.windows)
        if tally.kind == "flatten":
            return OpCost()
        raise ValueError(f"unknown tally kind {tally.kind!r}")


def delphi_costs() -> BackendCostModel:
    """Delphi constants (see module docstring for the calibration targets)."""
    return BackendCostModel(
        name="Delphi",
        relu_offline_bytes=17_500.0,  # garbled circuit for a 41-gate ReLU
        relu_online_bytes=2_048.0,  # input/output wire labels
        relu_compute_s=1.0e-3,  # garble + evaluate, amortised
        relu_rounds=2.0,
        linear_unit_compute_s=3.2e-3,  # HE rotations track c_in*c_out
        linear_element_bytes=32.0,  # offline ciphertexts for masks
        linear_unit_bytes=0.0,
        linear_rounds=1.0,
    )


def cryptflow2_costs() -> BackendCostModel:
    """CrypTFlow2 constants (Rathee et al., CCS 2020) — not in Table II.

    The paper positions CrypTFlow2 between Delphi and Cheetah: its OT-based
    millionaire ReLU replaces Delphi's garbled circuits (>20x faster PI
    end-to-end per the paper's Section II) while Cheetah's VOLE-style OT and
    rotation-free linear layers gain another 2-5x. The constants here encode
    that ordering: ~1.5 KB per ReLU (classic IKNP millionaire with B2A and
    mux, as implemented functionally in :mod:`repro.crypto.millionaire`)
    versus Delphi's ~19.5 KB and Cheetah's ~0.12 KB.
    """
    return BackendCostModel(
        name="CrypTFlow2",
        relu_offline_bytes=0.0,  # one-shot protocol, like Cheetah
        relu_online_bytes=1_500.0,  # IKNP millionaire + B2A + mux
        relu_compute_s=8.0e-5,
        relu_rounds=10.0,  # log-depth block tree plus conversions
        linear_unit_compute_s=2.4e-4,  # SIMD HE with rotations, improved packing
        linear_element_bytes=16.0,
        linear_unit_bytes=16.0,
        linear_rounds=2.0,
    )


def cheetah_costs() -> BackendCostModel:
    """Cheetah constants (see module docstring for the calibration targets)."""
    return BackendCostModel(
        name="Cheetah",
        relu_offline_bytes=0.0,  # Cheetah is a one-shot (online-only) protocol
        relu_online_bytes=120.0,  # VOLE-OT millionaire, ~k*lambda bits
        relu_compute_s=2.0e-5,
        relu_rounds=8.0,
        linear_unit_compute_s=4.2e-6,
        linear_element_bytes=8.0,  # RLWE ciphertext coefficients
        linear_unit_bytes=82.0,  # per channel-pair packing overhead
        linear_rounds=2.0,
    )


@dataclass
class CostEstimate:
    """Aggregated modeled cost of a (partial) secure inference."""

    backend: str
    offline_bytes: float = 0.0
    online_bytes: float = 0.0
    rounds: float = 0.0
    compute_s: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.offline_bytes + self.online_bytes

    @property
    def total_mb(self) -> float:
        return self.total_bytes / 1e6

    def add(self, op: OpCost) -> None:
        self.offline_bytes += op.offline_bytes
        self.online_bytes += op.online_bytes
        self.rounds += op.rounds
        self.compute_s += op.compute_s

    def latency(self, network: NetworkModel) -> float:
        """End-to-end latency under a network model (seconds).

        The aggregate backend models do not track message direction, so
        the full-duplex serialisation term assumes a symmetric split
        (see :meth:`NetworkModel.latency`).
        """
        return network.latency(self.total_bytes, self.rounds, self.compute_s)

    @classmethod
    def from_tallies(
        cls, tallies: list[LayerTally], backend: BackendCostModel
    ) -> "CostEstimate":
        estimate = cls(backend=backend.name)
        for tally in tallies:
            estimate.add(backend.cost_of(tally))
        return estimate
