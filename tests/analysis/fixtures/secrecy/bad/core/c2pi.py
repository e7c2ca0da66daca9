"""Known-bad secrecy fixture: the noised reveal without the noise."""

import numpy as np


def reveal_raw_share(channel, shares):
    # The client's boundary share handed over as it is.
    client = channel.row(0)
    return channel.hand(
        "noised-reveal", shares.shape[1:], lambda out: np.copyto(out, shares[client])
    )


def reveal_masked_not_noised(channel, shares, correlation):
    # A mask operand clears any other handed message, not the declassification.
    client = channel.row(0)
    return channel.hand(
        "noised-reveal",
        shares.shape[1:],
        lambda out: np.subtract(shares[client], correlation.mask, out=out),
    )


def reveal_one_group_raw(channel, shares, noise, config):
    # One row group perturbed, the other not.
    client = channel.row(0)
    return channel.hand(
        "noised-reveal",
        shares.shape[1:],
        lambda out: np.concatenate(
            [noise.perturb_share(shares[client][:1], config), shares[client][1:]],
            out=out,
        ),
    )
