"""Known-bad taint flows: log and wire leaks, one finding each."""

__all__ = ["log_material", "ship_raw"]


def log_material(io, triple):
    # Dealer material straight into the console.
    print(triple.a)


def _launder(value):
    return value


def ship_raw(channel, x):
    # The secret rides a helper's return value into an opening —
    # invisible to any per-function pass.
    return channel.open_add(_launder(x), "open")
