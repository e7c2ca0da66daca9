"""Tests for the trusted dealer's correlations and the network accounting."""

import numpy as np
import pytest

from repro.mpc import LAN, WAN, Channel, NetworkModel, TrustedDealer
from repro.mpc.sharing import (
    reconstruct_additive,
    reconstruct_boolean,
    reconstruct_boolean_words,
)


class TestDealer:
    def test_beaver_triples_are_consistent(self):
        dealer = TrustedDealer(seed=0)
        triple = dealer.beaver_triples((128,))
        a = reconstruct_additive(*triple.a)
        b = reconstruct_additive(*triple.b)
        c = reconstruct_additive(*triple.c)
        np.testing.assert_array_equal(c, (a * b).astype(np.uint64))

    def test_bit_triples_are_consistent(self):
        """Packed words: c = a AND b must hold lane-wise in every word."""
        dealer = TrustedDealer(seed=1)
        triple = dealer.bit_triples((256,))
        a = reconstruct_boolean_words(*triple.a)
        b = reconstruct_boolean_words(*triple.b)
        c = reconstruct_boolean_words(*triple.c)
        assert a.dtype == np.uint64 and a.shape == (256,)
        np.testing.assert_array_equal(c, a & b)
        # Lane 63 is reserved (zero) in boolean material.
        assert not (a >> np.uint64(63)).any()
        assert not (b >> np.uint64(63)).any()

    def test_dabits_agree_across_domains(self):
        dealer = TrustedDealer(seed=2)
        dabit = dealer.dabits((512,))
        boolean = reconstruct_boolean(*dabit.boolean)
        arithmetic = reconstruct_additive(*dabit.arithmetic)
        np.testing.assert_array_equal(arithmetic, boolean.astype(np.uint64))

    def test_comparison_mask_bits_match_mask(self):
        dealer = TrustedDealer(seed=3)
        mask = dealer.comparison_masks((64,))
        r = reconstruct_additive(*mask.r)
        low = reconstruct_boolean_words(*mask.low_bits)  # packed low-63 word
        msb = reconstruct_boolean(*mask.msb)
        recomposed = (low | (msb.astype(np.uint64) << np.uint64(63))).astype(
            np.uint64
        )
        np.testing.assert_array_equal(recomposed, r)

    def test_linear_correlation_identity(self):
        dealer = TrustedDealer(seed=4)
        corr = dealer.linear_correlation((32,), lambda v: (v * np.uint64(3)).astype(np.uint64))
        expected = (corr.mask * np.uint64(3)).astype(np.uint64)
        total = (corr.client_offset + corr.server_offset).astype(np.uint64)
        np.testing.assert_array_equal(total, expected)

    def test_determinism_by_seed(self):
        a = TrustedDealer(seed=9).beaver_triples((16,))
        b = TrustedDealer(seed=9).beaver_triples((16,))
        np.testing.assert_array_equal(a.a[0], b.a[0])

    def test_each_draw_covers_its_element_shape(self):
        """One party-stacked word per element: a packed bit-triple word
        carries an element's 63 AND gates."""
        dealer = TrustedDealer(seed=0)
        assert dealer.beaver_triples((10,)).c.shape == (2, 10)
        assert dealer.bit_triples((20,)).c.shape == (2, 20)
        assert dealer.dabits((30,)).arithmetic.shape == (2, 30)
        assert dealer.comparison_masks((40,)).low_bits.shape == (2, 40)


class TestChannel:
    def test_directional_accounting(self):
        channel = Channel()
        channel.send(0, 100)
        channel.send(1, 40)
        assert channel.bytes_client_to_server == 100
        assert channel.bytes_server_to_client == 40
        assert channel.total_bytes == 140
        assert channel.messages == 2

    def test_exchange_counts_round(self):
        channel = Channel()
        channel.exchange(64)
        assert channel.rounds == 1
        assert channel.total_bytes == 128

    def test_invalid_sender_raises(self):
        with pytest.raises(ValueError):
            Channel().send(2, 10)

    def test_negative_bytes_raises(self):
        with pytest.raises(ValueError):
            Channel().send(0, -1)

    def test_snapshot_diff(self):
        channel = Channel()
        channel.exchange(10)
        before = channel.snapshot()
        channel.exchange(5)
        delta = channel.diff(before)
        assert delta.total_bytes == 10
        assert delta.rounds == 1

    def test_exchange_per_label_accounting(self):
        """Each exchange books one round and both directions on its label."""
        channel = Channel()
        channel.exchange(64, label="beaver-open")
        channel.exchange(32, label="beaver-open")
        channel.exchange(8, label="b2a-open")
        beaver = channel.by_label["beaver-open"]
        assert beaver.rounds == 2
        assert beaver.bytes_client_to_server == 96
        assert beaver.bytes_server_to_client == 96
        assert beaver.messages == 4
        b2a = channel.by_label["b2a-open"]
        assert b2a.rounds == 1
        assert b2a.total_bytes == 16
        # The per-label breakdown sums to the channel totals.
        breakdown = channel.label_breakdown()
        assert sum(s.total_bytes for s in breakdown.values()) == channel.total_bytes
        assert sum(s.rounds for s in breakdown.values()) == channel.rounds


class TestNetworkModel:
    def test_paper_settings(self):
        assert LAN.bandwidth_bytes_per_s == 384e6 and LAN.rtt_s == 0.3e-3
        assert WAN.bandwidth_bytes_per_s == 44e6 and WAN.rtt_s == 40e-3

    def test_latency_composition(self):
        """Full duplex: a direction-free total assumes a symmetric split,
        so 2 MB cost 1 s of serialisation at 1 MB/s, not 2 s."""
        net = NetworkModel("test", bandwidth_bytes_per_s=1e6, rtt_s=0.01)
        assert net.latency(2e6, 10, 1.0) == pytest.approx(1.0 + 1.0 + 0.1)

    def test_latency_charges_busier_direction(self):
        net = NetworkModel("test", bandwidth_bytes_per_s=1e6, rtt_s=0.01)
        asymmetric = net.latency(
            rounds=2, bytes_client_to_server=3e6, bytes_server_to_client=1e6
        )
        assert asymmetric == pytest.approx(3.0 + 0.02)
        # The busier direction governs: shrinking the idle direction
        # changes nothing, growing it past the max does.
        assert asymmetric == net.latency(
            rounds=2, bytes_client_to_server=3e6, bytes_server_to_client=0
        )
        assert net.latency(
            rounds=2, bytes_client_to_server=3e6, bytes_server_to_client=4e6
        ) == pytest.approx(4.0 + 0.02)

    def test_latency_of_snapshot(self):
        from repro.mpc import TrafficSnapshot

        net = NetworkModel("test", bandwidth_bytes_per_s=1e6, rtt_s=0.01)
        traffic = TrafficSnapshot(
            bytes_client_to_server=int(2e6),
            bytes_server_to_client=int(5e5),
            rounds=3,
        )
        assert net.latency_of(traffic, compute_s=0.5) == pytest.approx(
            0.5 + 2.0 + 0.03
        )

    def test_latency_requires_some_byte_count(self):
        with pytest.raises(ValueError):
            NetworkModel("test", 1e6, 0.01).latency(rounds=1)

    def test_wan_slower_than_lan(self):
        assert WAN.latency(1e8, 100) > LAN.latency(1e8, 100)

    def test_zero_traffic_costs_compute_only(self):
        assert LAN.latency(0, 0, 2.5) == 2.5
