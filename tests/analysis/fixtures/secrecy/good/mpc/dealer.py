"""Known-good stream discipline: party 0's rows, and only they, are
draws from the bundle's client stream."""


def begin_bundle(self):
    seed = _random_ring(self._rng, 4).tobytes()
    self._client = client_stream(seed)
    return seed


def beaver_triples(self, shape):
    a = _random_ring(self._rng, shape)
    b = _random_ring(self._rng, shape)
    client = self._client
    return BeaverTriple(
        a=share_additive(a, client),
        b=share_additive(b, client),
        c=share_additive(a * b, self._client),
    )


def comparison_masks(self, shape):
    r = _random_ring(self._rng, shape)
    client = self._client
    return ComparisonMask(
        r=share_additive(r, client),
        low_bits=share_boolean_words(r & LOW63_MASK, client),
        msb=share_boolean((r >> 63).astype("u1"), client),
    )


def linear_correlation(self, input_shape, ring_linear_fn):
    client = self._client
    mask = _random_ring(client, input_shape)
    f_mask = ring_linear_fn(mask)
    client_offset = client.integers(0, 2**64, size=f_mask.shape, dtype="u8")
    return LinearCorrelation(
        mask=mask, client_offset=client_offset, server_offset=f_mask - client_offset
    )
