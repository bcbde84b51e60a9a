import numpy as np
import numpy.testing as npt
import pytest

from qosf.channel import apply, draw_channel, frequency_response
from qosf.core import BPSK, QPSK
from qosf.decoder import DECOUPLED
from qosf.schemes import QosfScheme, alamouti_variant, p1_variant


def test_p1_variant_shape(small_config):
    cfg = p1_variant(small_config)
    assert cfg.num_states == 1
    assert cfg.pl == 2
    assert cfg.rotation_angles == (np.pi / 2,)
    assert cfg.delays_s == (small_config.delays_s[0],)
    assert cfg.path_powers == (small_config.path_powers[0],)
    # Everything else carries over.
    assert cfg.num_subcarriers == small_config.num_subcarriers
    assert cfg.master_seed == small_config.master_seed


def test_p1_variant_qpsk_angle(small_config):
    import dataclasses

    cfg = p1_variant(dataclasses.replace(small_config, constellation=QPSK))
    assert cfg.rotation_angles == (np.pi / 4,)


def test_alamouti_variant_shape(small_config):
    # Alamouti-SF is the single-state, depth-one code over the same 2-tap
    # channel: no rotation angle is left to set.
    cfg = alamouti_variant(small_config)
    assert cfg.num_states == 1
    assert cfg.code_paths == 1 and cfg.pl == 1
    assert cfg.rotation_angles == ()
    assert cfg.num_paths == small_config.num_paths
    assert cfg.delays_s == (small_config.delays_s[0],)
    assert cfg.path_powers == (small_config.path_powers[0],)
    assert cfg.num_groups == small_config.num_subcarriers // 2


def test_qosf_scheme_round_trip(small_config):
    scheme = QosfScheme(small_config)
    assert scheme.bits_per_block == 16
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = rng.integers(0, 2, scheme.bits_per_block)
        cw = scheme.encode_bits(bits)
        grid = frequency_response(draw_channel(small_config, rng), small_config)
        received = apply(cw, grid, 5.0, rng, noiseless=True)
        npt.assert_array_equal(scheme.decode_bits(received, grid), bits)


def test_qosf_scheme_decoupled_mode(small_config):
    scheme = QosfScheme(small_config, decoder_mode=DECOUPLED)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, scheme.bits_per_block)
    grid = frequency_response(draw_channel(small_config, rng), small_config)
    received = apply(scheme.encode_bits(bits), grid, 5.0, rng, noiseless=True)
    npt.assert_array_equal(scheme.decode_bits(received, grid), bits)


def test_alamouti_scheme_round_trip(small_config):
    cfg = alamouti_variant(small_config)
    scheme = QosfScheme(cfg)
    assert scheme.bits_per_block == 8
    rng = np.random.default_rng(2)
    for _ in range(20):
        bits = rng.integers(0, 2, scheme.bits_per_block)
        cw = scheme.encode_bits(bits)
        assert cw.states.shape == (1, 2, 8)
        grid = frequency_response(draw_channel(cfg, rng), cfg)
        received = apply(cw, grid, 5.0, rng, noiseless=True)
        npt.assert_array_equal(scheme.decode_bits(received, grid), bits)


def test_alamouti_pair_structure(small_config):
    # Subcarriers 2t and 2t+1 carry the Alamouti block of symbols 2t, 2t+1.
    cfg = alamouti_variant(small_config)
    scheme = QosfScheme(cfg)
    bits = np.array([0, 1, 1, 0, 0, 0, 1, 1])
    states = scheme.encode_bits(bits).states
    s = (1.0 - 2.0 * bits).astype(complex)
    npt.assert_allclose(states[0, 0, 0::2], s[0::2], atol=1e-15)
    npt.assert_allclose(states[0, 1, 0::2], s[1::2], atol=1e-15)
    npt.assert_allclose(states[0, 0, 1::2], -np.conj(s[1::2]), atol=1e-15)
    npt.assert_allclose(states[0, 1, 1::2], np.conj(s[0::2]), atol=1e-15)


def test_schemes_share_transmit_energy(small_config):
    # Fairness: both schemes put the same total energy on the air per state.
    rng = np.random.default_rng(3)
    qosf_cw = QosfScheme(small_config).encode_bits(rng.integers(0, 2, 16))
    al_cfg = alamouti_variant(small_config)
    al_cw = QosfScheme(al_cfg).encode_bits(rng.integers(0, 2, 8))
    per_state_qosf = np.sum(np.abs(qosf_cw.states) ** 2) / small_config.num_states
    per_state_al = np.sum(np.abs(al_cw.states) ** 2)
    assert per_state_qosf == pytest.approx(per_state_al, abs=1e-9)


def test_bpsk_bits_per_block_matches_rate_one(small_config):
    # One information symbol per tone and state is the rate-one bookkeeping.
    scheme = QosfScheme(small_config)
    expected = small_config.num_subcarriers * small_config.num_states
    assert scheme.bits_per_block == expected
