"""Known-good secrecy fixture: the sanctioned masking idioms."""

import numpy as np


def masked_open(channel, x, y, triple):
    opening = channel.frame("beaver-open", (2, *x.shape[1:]))
    np.subtract(x, triple.a, out=opening[:, 0])
    np.subtract(y, triple.b, out=opening[:, 1])
    return channel.open_add(opening, "beaver-open")


def masked_expression(channel, b, dabit):
    return channel.open_bits(b ^ dabit.boolean, "b2a-open")


def handed_message(channel, x, correlation):
    return channel.hand(
        "linear-masked-input",
        x.shape[1:],
        lambda out: np.subtract(x[0], correlation.mask, out=out),
    )


def handed_fresh_share(channel, encoded, rng, shape):
    own = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    return channel.hand(
        "input-share", shape, lambda out: np.subtract(encoded, own, out=out)
    )


def staged_push(io, x, mask):
    masked = io.alloc_words("linear-masked-input", x.size).reshape(x.shape)
    np.subtract(x, mask.r, out=masked)
    io.push(memoryview(masked).cast("B"), "linear-masked-input")
