"""Known-bad secrecy fixture: raw shares reach the wire and the log."""

import numpy as np


def leak_raw_share(channel, x):
    # The local share is opened with no masking chain at all.
    return channel.open_add(x, "beaver-open")


def leak_unmasked_frame(channel, x, triple):
    # A pooled frame — but what is written into it carries no mask.
    opening = channel.frame("beaver-open", x.shape[1:])
    np.multiply(x, 2, out=opening)
    return channel.open_add(opening, "beaver-open")


def leak_handed_input(channel, x):
    # The client's raw share handed to the server.
    return channel.hand("linear-masked-input", x.shape[1:], lambda out: np.copyto(out, x[0]))


def leak_to_log(io, x):
    print("share payload:", x)
    io.push(io.stage(x, "and-open"), "and-open")
