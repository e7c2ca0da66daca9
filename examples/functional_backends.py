"""Secure inference on the real Delphi and Cheetah primitive stacks.

The paper-scale Table II numbers come from calibrated cost models; this
example shows the same inference running on the *actual* cryptography at
demonstration scale:

* **Delphi**: Paillier-encrypted offline linear correlations, then garbled
  circuits for every ReLU;
* **Cheetah**: RLWE coefficient-packed linear layers (no rotations) and
  the OT millionaire ReLU stack.

Both must reconstruct exactly the plaintext activations (up to fixed-point
truncation), and their byte/round profiles must show the paper's
bandwidth-vs-latency trade-off.

Run:  python examples/functional_backends.py   (~10-20 s)
"""

import time

import numpy as np

from repro import nn
from repro.models.layered import LayeredModel
from repro.mpc import SecureInferenceEngine
from repro.mpc.backends.cheetah import CheetahSuite
from repro.mpc.backends.delphi import DelphiSuite


def build_demo_model() -> LayeredModel:
    rng = np.random.default_rng(0)
    body = [
        nn.Conv2d(2, 4, 3, padding=1), nn.ReLU(),
        nn.MaxPool2d(2, 2),
        nn.Conv2d(4, 4, 3, padding=1), nn.ReLU(),
    ]
    model = LayeredModel(body, "demo-convnet", (2, 8, 8))
    for parameter in model.parameters():
        parameter.data = rng.normal(0, 0.3, parameter.data.shape).astype(np.float32)
    return model.eval()


def main():
    model = build_demo_model()
    boundary = 2.5
    image = np.random.default_rng(1).normal(0, 0.5, (1, 2, 8, 8)).astype(np.float32)
    with nn.no_grad():
        reference = model.forward_to(nn.Tensor(image), boundary).data
    print(model.describe())
    print(f"\nsecurely evaluating up to layer {boundary} "
          f"({reference.size} boundary activations)\n")

    suites = [
        ("Delphi  (Paillier + garbled circuits)",
         DelphiSuite(np.random.default_rng(2), key_bits=256)),
        ("Cheetah (RLWE packing + OT millionaire)",
         CheetahSuite(np.random.default_rng(3), ring_dim=256)),
    ]
    results = {}
    for name, suite in suites:
        start = time.perf_counter()
        engine = SecureInferenceEngine(model, boundary, suite=suite)
        outcome = engine.run(image)
        elapsed = time.perf_counter() - start
        error = float(np.abs(outcome.reconstruct() - reference).max())
        results[name] = outcome
        print(f"{name}")
        print(f"   bytes moved : {outcome.total_bytes / 1e6:8.2f} MB")
        print(f"   rounds      : {outcome.rounds:8d}")
        print(f"   wall time   : {elapsed:8.1f} s (in-process, both parties)")
        print(f"   max error   : {error:8.5f}  vs plaintext\n")

    delphi, cheetah = results[suites[0][0]], results[suites[1][0]]
    print("The paper's trade-off, reproduced on real primitives:")
    print(f"   Delphi/Cheetah bytes : {delphi.total_bytes / cheetah.total_bytes:5.1f}x"
          "  (GC tables + Paillier ciphertexts dominate)")
    print(f"   Cheetah/Delphi rounds: {cheetah.rounds / delphi.rounds:5.1f}x"
          "  (interactive OT cascades)")


if __name__ == "__main__":
    main()
