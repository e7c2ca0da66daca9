"""Extension: end-to-end secure inference on the real primitive stacks.

Table II prices Delphi and Cheetah with calibrated constants; this bench
*executes* both framework's actual protocol stacks (Paillier + garbled
circuits vs RLWE + OT millionaire) on a small convolutional prefix and
checks the two headline cost relationships the paper builds on:

* Delphi moves more bytes than Cheetah (GC tables + Paillier ciphertexts
  vs packed RLWE + lean OT);
* Cheetah takes more rounds than Delphi (interactive OT cascades vs
  one-shot table transfer) - why WAN hurts Cheetah relatively more.
"""

import numpy as np
import pytest

from repro import nn
from repro.bench import render_table
from repro.models.layered import LayeredModel
from repro.mpc import SecureInferenceEngine
from repro.mpc.backends.cheetah import CheetahSuite
from repro.mpc.backends.delphi import DelphiSuite


def _demo_model():
    rng = np.random.default_rng(0)
    body = [
        nn.Conv2d(2, 3, 3, padding=1), nn.ReLU(),
        nn.MaxPool2d(2, 2),
        nn.Conv2d(3, 4, 3, padding=1), nn.ReLU(),
    ]
    model = LayeredModel(body, "demo", (2, 8, 8))
    for p in model.parameters():
        p.data = rng.normal(0, 0.3, p.data.shape).astype(np.float32)
    return model.eval()


def _run_suite(model, image, suite):
    engine = SecureInferenceEngine(model, 2.5, suite=suite)
    return engine.run(image)


@pytest.mark.slow
def test_functional_backends_shape(benchmark):
    model = _demo_model()
    image = np.random.default_rng(1).normal(0, 0.5, (1, 2, 8, 8)).astype(np.float32)
    with nn.no_grad():
        reference = model.forward_to(nn.Tensor(image), 2.5).data

    def run():
        delphi = _run_suite(
            model, image,
            DelphiSuite(np.random.default_rng(2), key_bits=256, ot_security=128),
        )
        cheetah = _run_suite(
            model, image,
            CheetahSuite(np.random.default_rng(3), ring_dim=256, ot_security=128),
        )
        return delphi, cheetah

    delphi, cheetah = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, result in (("Delphi(real)", delphi), ("Cheetah(real)", cheetah)):
        error = float(np.abs(result.reconstruct() - reference).max())
        rows.append([name, f"{result.total_bytes/1e6:.2f}", result.rounds,
                     f"{error:.4f}"])
    print("\n=== functional backends: boundary 2.5 on the demo conv net ===")
    print(render_table(["stack", "MB moved", "rounds", "max err"], rows))

    np.testing.assert_allclose(delphi.reconstruct(), reference, atol=0.01)
    np.testing.assert_allclose(cheetah.reconstruct(), reference, atol=0.01)
    assert delphi.total_bytes > cheetah.total_bytes
    assert cheetah.rounds > delphi.rounds
