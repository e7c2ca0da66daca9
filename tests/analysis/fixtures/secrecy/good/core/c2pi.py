"""Known-good secrecy fixture: the sanctioned noised reveal."""

import numpy as np


def noised_reveal(channel, shares, noises, config):
    client = channel.row(0)
    return channel.hand(
        "noised-reveal",
        shares.shape[1:],
        lambda out: np.concatenate(
            [
                mechanism.perturb_share(shares[client][rows], config)
                for mechanism, rows in noises
            ],
            out=out,
        ),
    )
