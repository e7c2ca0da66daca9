"""Dealer material is read-only, however it came.

A bundle is replayed when a request is retried, so no protocol may write
into its material. ``draw_bundle`` freezes every array it draws (a flags
flip, not a copy), as fused bundles and unpacked halves are, so an
in-place write raises instead of corrupting the retry. Here the online
primitives run over one frozen bundle twice: in process on a ``Channel``,
and as two parties over a ``QueueTransport`` pair, each on its own row
views of that same bundle. Both must return the same bytes and leave the
material as drawn.
"""

from dataclasses import fields

import numpy as np
import pytest
from placements import run_parties

from repro.mpc import Channel, FixedPointConfig, TrustedDealer
from repro.mpc.preprocessing import (
    MaterialRequest,
    RecordingDealer,
    ReplayDealer,
    draw_bundle,
    split_bundle,
)
from repro.mpc.program import ConvOp
from repro.mpc.protocols import secure_linear, secure_maximum, secure_relu, truncate_shares
from repro.mpc.sharing import share_additive

CFG = FixedPointConfig(frac_bits=12)
RNG = np.random.default_rng(29)
CONV = ConvOp(
    kind="conv",
    name="conv",
    in_shape=(3, 6, 6),
    out_shape=(4, 6, 6),
    in_channels=3,
    out_channels=4,
    kernel_size=3,
    stride=1,
    padding=1,
    dilation=1,
    weight_ring=CFG.encode(RNG.uniform(-1, 1, (4, 3, 3, 3))),
)
BIAS_2F = CFG.encode(RNG.uniform(-1, 1, (4, 1, 1)), frac_bits=24)


def _frozen_shares(shape):
    shares = share_additive(CFG.encode(RNG.uniform(-4, 4, shape)), RNG)
    shares.flags.writeable = False
    return shares


X, Y = _frozen_shares((2, 3, 6, 6)), _frozen_shares((2, 3, 6, 6))
PRODUCT = _frozen_shares((2, 4, 6, 6))


def _linear(rows, dealer, channel):
    serves = channel.row(1) is not None
    y = secure_linear(
        rows(X), CONV.ring_fn() if serves else None, BIAS_2F if serves else None,
        dealer, channel,
    )
    channel.flush_deferred()  # no later opening to carry the message
    return y


OPS = {
    "secure_relu": lambda rows, dealer, channel: secure_relu(rows(X), dealer, channel),
    "secure_maximum": lambda rows, dealer, channel: secure_maximum(
        rows(X), rows(Y), dealer, channel
    ),
    "secure_linear": _linear,
    "truncate_shares": lambda rows, dealer, channel: truncate_shares(
        rows(PRODUCT), CFG.frac_bits, channel
    ),
}


def _arrays(bundle):
    return [
        array
        for _, material in bundle
        for field in fields(material)
        if (array := getattr(material, field.name)) is not None
    ]


@pytest.mark.parametrize("name", OPS)
def test_frozen_material_same_bytes_in_process_and_over_a_transport(name):
    op = OPS[name]
    recorder = RecordingDealer(TrustedDealer(seed=7))
    op(lambda array: array, recorder, Channel())
    bundle = draw_bundle(TrustedDealer(seed=7), recorder.trace)
    arrays = _arrays(bundle)
    assert all(not array.flags.writeable for array in arrays)
    drawn = [array.tobytes() for array in arrays]

    joint = op(lambda array: array, ReplayDealer(bundle), Channel())
    out, _ = run_parties(
        *(
            lambda io, p=p: op(
                lambda array: array[p : p + 1], ReplayDealer(split_bundle(bundle, p)), io
            )
            for p in (0, 1)
        )
    )
    assert np.concatenate([out[0], out[1]]).tobytes() == joint.tobytes()
    assert [array.tobytes() for array in arrays] == drawn


def test_a_write_into_drawn_material_raises():
    bundle = draw_bundle(TrustedDealer(seed=1), [MaterialRequest("beaver_triples", (4,))])
    triple = bundle[0][1]
    with pytest.raises(ValueError, match="read-only"):
        triple.c += np.uint64(1)
    with pytest.raises(ValueError, match="read-only"):
        split_bundle(bundle, 1)[0][1].a[0] ^= np.uint64(1)
