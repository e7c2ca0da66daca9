"""Known-good taint flows: declassified metadata and sanctioned sends."""

__all__ = ["check_shape", "ship", "ship_direct", "open_masked"]


def check_shape(x):
    if x.ndim != 2:
        # Shapes are public metadata — interpolating them is fine.
        raise ValueError(f"expected a 2-D share, got shape {x.shape}")


def _staged(io, x, label):
    return io.stage(x, label)


def ship(io, x):
    # Sanctioned through a helper whose every return is a staging call.
    io.push(_staged(io, x, "open"), "open")


def ship_direct(io, x):
    io.push(io.stage(x, "open"), "open")


def open_masked(channel, b, dealer):
    # A dealer draw is a source, but the opened expression mixes it in as
    # the mask — blinded, hence sanctioned.
    dabit = dealer.dabits(b.shape[1:])
    return channel.open_bits(b ^ dabit.boolean, "b2a-open")
