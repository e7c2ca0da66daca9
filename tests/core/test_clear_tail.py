"""The clear tail is row-separable: a row's logits never depend on its batch.

A fused step runs ``clear_tail`` once over every row of the pass, and a
remote batch-N request runs it once over its N rows, so the bytes a row
gets must equal that row alone through ``model.forward_from`` — at every
boundary the paper's models offer. Every conv, BatchNorm, ReLU, residual
add, pool and Flatten already computes a row the same at any batch;
``nn.Linear`` does not (a GEMM over M rows sums differently from the
M = 1 call), which is why ``clear_tail`` runs it one row at a time.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.c2pi import clear_tail
from repro.models import alexnet, resnet20, vgg16
from repro.mpc import compile_program

ROWS = 8
BUILDERS = {"resnet20": resnet20, "vgg16": vgg16, "alexnet": alexnet}


def _with_bn_stats(model, seed=5):
    rng = np.random.default_rng(seed)
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            module.running_mean[:] = rng.normal(0, 0.2, module.num_features)
            module.running_var[:] = rng.uniform(0.5, 2.0, module.num_features)
    return model.eval()


_MODELS = {
    arch: _with_bn_stats(build(width_mult=0.25, rng=np.random.default_rng(3)))
    for arch, build in BUILDERS.items()
}
# Every boundary but the last: there the clear tail is empty.
CASES = [
    (arch, boundary)
    for arch, model in _MODELS.items()
    for boundary in model.layer_ids[:-1]
]


def _tail_case(arch, boundary):
    """``(program, ring, serial)``: ROWS noised boundary rows in the ring,
    and the logits of each row through ``forward_from`` alone."""
    model = _MODELS[arch]
    program = compile_program(model, boundary)
    images = np.random.default_rng(11).standard_normal(
        (ROWS, *model.input_shape), dtype=np.float32
    )
    with nn.no_grad():
        hidden = model.forward_to(nn.Tensor(images), boundary).data
        ring = program.config.encode(hidden)
        serial = np.concatenate(
            [
                model.forward_from(
                    nn.Tensor(program.config.decode(ring[i : i + 1])), boundary
                ).data
                for i in range(ROWS)
            ]
        )
    return program, ring, serial


def test_every_model_boundary_is_covered():
    assert [sum(arch == a for a, _ in CASES) for arch in BUILDERS] == [20, 26, 12]


@pytest.mark.parametrize(
    "arch,boundary", CASES, ids=[f"{arch}-{boundary}" for arch, boundary in CASES]
)
def test_stacked_rows_equal_batch_one_calls(arch, boundary):
    program, ring, serial = _tail_case(arch, boundary)
    server_view, logits = clear_tail(program, ring)
    assert server_view.tobytes() == program.config.decode(ring).tobytes()
    assert logits.shape == serial.shape
    assert logits.tobytes() == serial.tobytes()


@pytest.mark.parametrize("arch", BUILDERS)
def test_a_batched_forward_is_not_row_separable(arch):
    """Why ``Linear`` stays per row: the whole-batch forward differs from
    the batch-1 calls somewhere, so a tail that ran it would fail above."""

    def batched_differs(boundary):
        program, ring, serial = _tail_case(arch, boundary)
        with nn.no_grad():
            batched = _MODELS[arch].forward_from(
                nn.Tensor(program.config.decode(ring)), boundary
            ).data
        return batched.tobytes() != serial.tobytes()

    # Stops at the first boundary that differs.
    assert any(batched_differs(b) for a, b in CASES if a == arch)
