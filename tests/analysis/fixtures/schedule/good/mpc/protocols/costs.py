"""Known-good primitives: every consumed item opens its round."""

import numpy as np

__all__ = ["STEPS", "opened", "msb_like", "linear_like"]

STEPS = (1, 2, 4)


def opened(channel, value, label):
    # A pass-through label: traced under the caller's literal.
    return channel.open_xor(value, label)


def msb_like(x, dealer, channel):
    # One masked reveal, then one and-open per unrolled step — the
    # consumed material matches the opened rounds label for label.
    mask = dealer.comparison_masks(x.shape[1:])
    masked = channel.frame("masked-reveal", x.shape[1:])
    np.add(x, mask.r, out=masked)
    z = channel.open_add(masked, "masked-reveal")
    first = channel.row(0)
    for _step in STEPS:
        triple = dealer.bit_triples(x.shape[1:])
        z = opened(channel, z ^ triple.a, "and-open")
        if first is not None:  # row-local arithmetic: no communication
            z = z | 1
    return z


def linear_like(x, dealer, channel):
    # The one-directional message: both placements run the same call.
    correlation = dealer.linear_correlation(x.shape[1:], None)
    masked = channel.hand(
        "linear-masked-input",
        x.shape[1:],
        lambda out: np.subtract(x[0], correlation.mask, out=out),
    )
    channel.tick_round("linear")
    return masked
