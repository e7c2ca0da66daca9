"""Known-bad stream discipline: each function mixes the dealer's two
streams in one of the ways the rule exists to catch."""


def secret_stream_in_the_client_half(self, shape):
    # Row 0 comes off the secret stream: the client's seed cannot redraw
    # it, and the stream that draws the secrets now also fills its half.
    a = _random_ring(self._rng, shape)
    return BeaverTriple(a=share_additive(a, self._rng))


def splitter_without_a_stream(self, shape):
    bits = random_bits(self._rng, shape)
    return DaBit(boolean=share_boolean(bits))


def client_field_off_the_secret_stream(self, input_shape, ring_linear_fn):
    client = self._client
    mask = _random_ring(self._rng, input_shape)
    client_offset = _random_ring(client, input_shape)
    return LinearCorrelation(
        mask=mask,
        client_offset=client_offset,
        server_offset=ring_linear_fn(mask) - client_offset,
    )


def client_field_that_is_a_correction(self, input_shape, ring_linear_fn):
    client = self._client
    mask = _random_ring(client, input_shape)
    server_offset = _random_ring(self._rng, input_shape)
    return LinearCorrelation(
        mask=mask,
        client_offset=ring_linear_fn(mask) - server_offset,
        server_offset=server_offset,
    )


def client_stream_in_the_server_half(self, input_shape):
    # The server's offset is a bare client-stream draw: whoever holds the
    # seed holds party 1's row.
    client = self._client
    mask = _random_ring(client, input_shape)
    client_offset = _random_ring(client, input_shape)
    return LinearCorrelation(
        mask=mask,
        client_offset=client_offset,
        server_offset=random_lanes(client, input_shape),
    )


def client_stream_draws_a_secret(self, shape):
    client = self._client
    r = client.integers(0, 2**64, size=shape, dtype="u8")
    return ComparisonMask(r=share_additive(r, client))
