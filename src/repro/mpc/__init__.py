"""``repro.mpc`` — semi-honest two-party secure computation substrate.

Layers (bottom-up):

* :mod:`repro.mpc.fixedpoint` — Z_2^64 fixed-point encoding;
* :mod:`repro.mpc.sharing` — additive / boolean secret sharing
  (byte-per-bit and bitsliced ``uint64`` word layouts);
* :mod:`repro.mpc.dealer` — trusted dealer (preprocessing stand-in);
* :mod:`repro.mpc.network` — channel traffic accounting, LAN/WAN models;
* :mod:`repro.mpc.protocols` — Beaver multiplication, masked-reveal
  comparison, DReLU/ReLU/max, Delphi-style linear layers, truncation:
  each written once over a party axis, placed by the channel it is given;
* :mod:`repro.mpc.program` — the ``SecureProgram`` IR: a model prefix
  compiled once into typed ops with pre-folded BN, pre-encoded ring
  weights and traced shapes;
* :mod:`repro.mpc.preprocessing` — offline pools of correlated
  randomness, generated per program ahead of the online phase, with
  per-party row views for the two-process deployment;
* :mod:`repro.mpc.transport` — the real wire: length-prefixed frames,
  the socket :class:`PeerChannel`, thread loopback, LAN/WAN shaping;
* :mod:`repro.mpc.engine` — the one program executor, and its
  both-parties-in-process entry point under a pluggable protocol suite
  (:mod:`repro.mpc.backends`: trusted dealer here; the functional
  Delphi / Cheetah stacks load only when their submodule is imported);
* :mod:`repro.mpc.party` — the same executor as one party over a
  transport against the peer process, plus the weight-free manifest;
* :mod:`repro.mpc.authenticated` — SPDZ-style MAC'd shares (the
  malicious-client extension; imported by name, not re-exported here);
* :mod:`repro.mpc.costs` — calibrated Delphi/CrypTFlow2/Cheetah cost
  profiles.
"""

from .costs import (
    BackendCostModel,
    CostEstimate,
    OpCost,
    cheetah_costs,
    cryptflow2_costs,
    dealer_label_traffic,
    dealer_material_bytes,
    delphi_costs,
    drelu_label_bytes,
    relu_label_bytes,
    relu_offline_material_bytes,
)
from .chaos import (
    ChaosController,
    ChaosLink,
    ChaosTrace,
    FaultEvent,
    FaultSpec,
)
from .dealer import TrustedDealer
from .engine import (
    LayerTally,
    SecureExecutionResult,
    SecureInferenceEngine,
    fold_batch_norm,
    static_layer_tallies,
)
from .fixedpoint import DEFAULT_CONFIG, FixedPointConfig
from .network import LAN, WAN, Channel, NetworkModel, TrafficSnapshot
from .party import PartyEngine, PartyExecutionResult, program_manifest
from .preprocessing import (
    MaterialRequest,
    PoolExhausted,
    PoolStats,
    PreprocessingPool,
    ReplayDealer,
    split_bundle,
)
from .program import SecureProgram, compile_program, split_macs
from .transport import (
    LinkShaper,
    PeerChannel,
    QueueTransport,
    Transport,
    TransportError,
    WireStats,
)
from .sharing import (
    COMPARISON_BITS,
    LOW63_MASK,
    reconstruct_additive,
    reconstruct_boolean,
    reconstruct_boolean_words,
    share_additive,
    share_boolean,
    share_boolean_words,
)

__all__ = [
    "FixedPointConfig",
    "DEFAULT_CONFIG",
    "share_additive",
    "reconstruct_additive",
    "share_boolean",
    "reconstruct_boolean",
    "share_boolean_words",
    "reconstruct_boolean_words",
    "COMPARISON_BITS",
    "LOW63_MASK",
    "TrustedDealer",
    "Channel",
    "NetworkModel",
    "TrafficSnapshot",
    "LAN",
    "WAN",
    "SecureInferenceEngine",
    "SecureExecutionResult",
    "LayerTally",
    "fold_batch_norm",
    "static_layer_tallies",
    "SecureProgram",
    "compile_program",
    "split_macs",
    "PreprocessingPool",
    "PoolExhausted",
    "PoolStats",
    "ReplayDealer",
    "MaterialRequest",
    "split_bundle",
    "PartyEngine",
    "PartyExecutionResult",
    "program_manifest",
    "Transport",
    "TransportError",
    "QueueTransport",
    "PeerChannel",
    "LinkShaper",
    "WireStats",
    "ChaosController",
    "ChaosLink",
    "ChaosTrace",
    "FaultEvent",
    "FaultSpec",
    "BackendCostModel",
    "CostEstimate",
    "OpCost",
    "delphi_costs",
    "cryptflow2_costs",
    "cheetah_costs",
    "drelu_label_bytes",
    "relu_label_bytes",
    "relu_offline_material_bytes",
    "dealer_label_traffic",
    "dealer_material_bytes",
]
