"""Shared test utilities: numerical gradient checking and fixtures."""

from __future__ import annotations

import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from repro.nn.tensor import Tensor


def numerical_gradient(fn, arrays: list[np.ndarray], index: int, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*arrays)`` w.r.t. one input."""
    base = [a.astype(np.float64).copy() for a in arrays]
    grad = np.zeros_like(base[index])
    flat = base[index].reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*base))
        flat[i] = original - eps
        minus = float(fn(*base))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def assert_gradients_close(build_loss, arrays: list[np.ndarray], atol: float = 1e-3, rtol: float = 1e-2):
    """Check autograd gradients of ``build_loss`` against finite differences.

    ``build_loss`` maps a list of Tensors to a scalar Tensor; ``arrays`` are
    the leaf values. All leaves receive ``requires_grad=True``.
    """
    tensors = [Tensor(a.astype(np.float64), requires_grad=True, dtype=np.float64) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()

    def scalar_fn(*values):
        ts = [Tensor(v, dtype=np.float64) for v in values]
        return build_loss(*ts).data

    for i, tensor in enumerate(tensors):
        expected = numerical_gradient(scalar_fn, arrays, i)
        assert tensor.grad is not None, f"input {i} received no gradient"
        np.testing.assert_allclose(
            tensor.grad, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for input {i}",
        )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _version_2_container(items) -> bytes:
    """One party's rows in the version-2 party-bundle container: a JSON
    manifest naming every array's key, dtype, shape and offset, then the
    bodies — or, for seeded rows, the same manifest and the seed. What a
    peer or a dealer store of that version holds."""
    entries, bodies, offset = [], [], 0
    for request, material in items:
        arrays = []
        for field in fields(material):
            array = getattr(material, field.name)
            if array is None:
                continue
            if request.method != "linear_correlation":
                array = array[0]  # the party axis does not travel
            arrays.append([field.name, array.dtype.str, list(array.shape), offset])
            pad = -array.nbytes % 8
            bodies.append(array.tobytes() + bytes(pad))
            offset += array.nbytes + pad
        entries.append({"method": request.method, "arrays": arrays})
    manifest = {"items": entries, "bytes": offset}
    if items.seed is not None:
        manifest["seed"], bodies = len(items.seed), [items.seed]
    encoded = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    encoded += b" " * (-(16 + len(encoded)) % 8)
    return struct.pack("<4sIQ", b"C2PB", 2, len(encoded)) + encoded + b"".join(bodies)


@pytest.fixture
def version_2_container():
    """Writes one party's rows (``split_bundle`` / ``unpack_party_bundle``
    output) as a version-2 container."""
    return _version_2_container
