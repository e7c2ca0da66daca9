"""Known-bad primitives: each protocol schedule rule fires exactly once."""

__all__ = ["cost_drift", "unresolvable"]


def cost_drift(x, dealer, channel):
    # Consumes a bit triple but never opens its and-open round.
    triple = dealer.bit_triples(x.shape[1:])
    return x ^ triple.a


def unresolvable(x, channel, n):
    # Data-driven loop over communication: the schedule is unprovable.
    while n:
        x = channel.open_add(x, "open")
        n -= 1
    return x
