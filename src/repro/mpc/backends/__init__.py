"""Pluggable protocol suites for the secure inference engine.

:class:`~repro.mpc.backends.suite.ProtocolSuite` abstracts the three
operations the engine needs (linear layer, ReLU, secure maximum). Three
implementations exist:

* :class:`~repro.mpc.backends.suite.DealerSuite` — the default
  trusted-dealer instantiation (fast, used for the paper-scale runs);
* :class:`~repro.mpc.backends.delphi.DelphiSuite` — Delphi's actual
  primitive stack: Paillier-encrypted offline linear correlations and
  garbled-circuit ReLUs;
* :class:`~repro.mpc.backends.cheetah.CheetahSuite` — Cheetah's stack:
  RLWE coefficient-packed linear layers and OT-based millionaire ReLUs.

The functional suites run the *real* cryptography and are therefore meant
for small-scale end-to-end validation; the calibrated cost models in
:mod:`repro.mpc.costs` remain the tool for paper-scale Table II estimates.
They are imported from their own submodules: the engine needs only
:mod:`~repro.mpc.backends.suite`, so a serving process never loads
:mod:`repro.crypto`.
"""

from .suite import DealerSuite, ProtocolSuite, linear_map_matrix

__all__ = [
    "ProtocolSuite",
    "DealerSuite",
    "linear_map_matrix",
]
