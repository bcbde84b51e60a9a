import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from oracles import NonIntegerDelayError, validate_against_time_domain
from qosf.channel import ChannelFrequencyGrid, apply, draw_channel, frequency_response
from qosf.codec import encode
from qosf.core import BPSK, modulate


def _block(cfg, rng):
    bits = rng.integers(0, 2, cfg.num_groups * cfg.symbols_per_group)
    return encode(modulate(bits, BPSK), cfg)


def test_draw_channel_shape_and_determinism(small_config):
    a = draw_channel(small_config, np.random.default_rng(3))
    b = draw_channel(small_config, np.random.default_rng(3))
    assert a.shape == (2, 1, 2, 2)
    npt.assert_array_equal(a, b)


def test_tap_power_profile(small_config):
    cfg = dataclasses.replace(small_config, path_powers=(0.8, 0.2))
    rng = np.random.default_rng(11)
    taps = np.stack([draw_channel(cfg, rng) for _ in range(4000)])
    var = np.mean(np.abs(taps) ** 2, axis=0)
    npt.assert_allclose(var[..., 0], 0.8, atol=0.05)
    npt.assert_allclose(var[..., 1], 0.2, atol=0.03)


def test_states_independent(small_config):
    rng = np.random.default_rng(12)
    taps = np.stack([draw_channel(small_config, rng) for _ in range(6000)])
    s0 = taps[:, 0].reshape(len(taps), -1)
    s1 = taps[:, 1].reshape(len(taps), -1)
    cross = np.mean(s0 * np.conj(s1), axis=0)
    assert np.max(np.abs(cross)) < 0.05


def test_flat_channel_when_single_tap_at_zero(tiny_config):
    real = draw_channel(tiny_config, np.random.default_rng(5))
    grid = frequency_response(real, tiny_config)
    # A single tap at delay zero is flat across tones.
    for n in range(tiny_config.num_subcarriers):
        npt.assert_allclose(grid.response[:, n], grid.response[:, 0], atol=1e-15)


def test_response_phase_slope(small_config):
    # With one tap two samples in, tone n picks up phase -2*pi*2*n/Nc.
    cfg = dataclasses.replace(
        small_config,
        num_paths=1,
        code_paths=1,
        delays_s=((3.2e-5,), (3.2e-5,)),
        path_powers=((1.0,), (1.0,)),
        rotation_angles=(np.pi / 2,),
        num_subcarriers=8,
    )
    real = draw_channel(cfg, np.random.default_rng(8))
    grid = frequency_response(real, cfg)
    n = np.arange(8)
    expected = real[:, :, :, 0][:, None] * np.exp(-2j * np.pi * 2 * n / 8)[None, :, None, None]
    npt.assert_allclose(grid.response, expected, atol=1e-12)


def test_unit_average_response_energy(small_config):
    rng = np.random.default_rng(21)
    acc = 0.0
    trials = 3000
    for _ in range(trials):
        grid = frequency_response(draw_channel(small_config, rng), small_config)
        acc += np.mean(np.abs(grid.response) ** 2)
    assert acc / trials == pytest.approx(1.0, abs=0.05)


def test_matches_time_domain_dft(small_config):
    rng = np.random.default_rng(31)
    for _ in range(10):
        real = draw_channel(small_config, rng)
        assert validate_against_time_domain(real, small_config) < 1e-9


def test_time_domain_check_needs_integer_delays(small_config):
    cfg = dataclasses.replace(small_config, delays_s=(0.0, 2.4e-5))
    real = draw_channel(cfg, np.random.default_rng(1))
    with pytest.raises(NonIntegerDelayError):
        validate_against_time_domain(real, cfg)


def test_apply_noiseless_matches_manual(small_config):
    rng = np.random.default_rng(41)
    cw = _block(small_config, rng)
    grid = frequency_response(draw_channel(small_config, rng), small_config)
    out = apply(cw, grid, snr_linear=4.0, rng=rng, noiseless=True)
    manual = np.sqrt(4.0 / 2) * np.einsum(
        "pnji,pin->pnj", grid.response, cw.states
    )
    npt.assert_allclose(out.samples, manual, atol=1e-13)
    assert out.snr_linear == 4.0


def test_apply_noise_is_unit_variance(small_config):
    rng = np.random.default_rng(51)
    cw = _block(small_config, rng)
    grid = frequency_response(draw_channel(small_config, rng), small_config)
    clean = apply(cw, grid, 1.0, np.random.default_rng(0), noiseless=True)
    noise = []
    for seed in range(400):
        noisy = apply(cw, grid, 1.0, np.random.default_rng(seed))
        noise.append((noisy.samples - clean.samples).ravel())
    noise = np.concatenate(noise)
    assert np.var(noise) == pytest.approx(1.0, abs=0.03)
    assert abs(np.mean(noise)) < 0.02


def test_apply_rejects_mismatched_shapes(small_config, tiny_config):
    rng = np.random.default_rng(61)
    cw = _block(tiny_config, rng)
    grid = frequency_response(draw_channel(small_config, rng), small_config)
    with pytest.raises(ValueError):
        apply(cw, grid, 1.0, rng)


@pytest.mark.parametrize("snr_linear, noise, name", [
    (0.0, True, "snr_linear"),
    # NaN ran into all-NaN samples, which decoded to all-zero bits without an
    # error; inf ran into non-finite samples; True ran as 1.
    (float("nan"), True, "snr_linear"), (float("inf"), True, "snr_linear"),
    (True, True, "snr_linear"),
    # A missing noise generator raised a TypeError from inside the draw.
    (1.0, False, "rng"),
], ids=["zero", "nan", "inf", "bool", "no-rng"])
def test_apply_rejects_bad_snr(small_config, snr_linear, noise, name):
    rng = np.random.default_rng(71)
    cw = _block(small_config, rng)
    grid = frequency_response(draw_channel(small_config, rng), small_config)
    with pytest.raises(ValueError, match=f"^{name} "):
        apply(cw, grid, snr_linear, rng if noise else None)


def test_grid_dataclass_holds_response():
    resp = np.zeros((1, 4, 1, 2), dtype=complex)
    assert ChannelFrequencyGrid(response=resp).response is resp
