"""Frequency-selective Rayleigh channel: tap draws, frequency response, noise.

The link is simulated directly per subcarrier; with quasi-static fading and a
cyclic prefix covering the delay spread this is exactly equivalent to the
time-domain CP/FFT chain (the tests check it against a DFT of the taps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import SfCodeword
from .config import SystemConfig
from .core import complex_normal


@dataclass
class ChannelFrequencyGrid:
    """Per-subcarrier response, shape (P, num_subcarriers, num_rx, num_tx)."""

    response: np.ndarray


@dataclass
class ReceivedBlock:
    """Post-FFT receive samples, shape (P, num_subcarriers, num_rx)."""

    samples: np.ndarray
    snr_linear: float


def draw_channel(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one quasi-static realization: complex taps, shape (P, num_rx, num_tx, L).

    Taps are independent zero-mean circular Gaussians across state, antenna
    pair and path, with per-path variance from the configured power profile.
    """
    shape = (config.num_states, config.num_rx, config.num_tx, config.num_paths)
    taps = complex_normal(rng, shape)
    sigma = np.sqrt(np.asarray(config.path_powers))  # [P, L]
    taps *= sigma[:, None, None, :]
    return taps


def frequency_response(taps: np.ndarray, config: SystemConfig) -> ChannelFrequencyGrid:
    """Evaluate H_p(n) = sum_l alpha_l * exp(-j 2 pi n df tau_l) on every tone,
    with the delays tau_l of the config's profile."""
    n = np.arange(config.num_subcarriers)
    delays = np.asarray(config.delays_s)  # [P, L]
    # [P, L, Nc] twiddle factors; delta_f * tau in units of cycles per tone.
    phase = np.exp(-2j * np.pi * config.subcarrier_spacing_hz * delays[:, :, None] * n)
    response = np.einsum("pjil,pln->pnji", taps, phase)
    return ChannelFrequencyGrid(response=response)


def apply(
    codeword: SfCodeword,
    grid: ChannelFrequencyGrid,
    snr_linear: float,
    rng: np.random.Generator,
    noiseless: bool = False,
) -> ReceivedBlock:
    """Pass a codeword through the channel at received SNR gamma.

    y_p^j(n) = sqrt(gamma / num_tx) * sum_i H_p^{i,j}(n) c_p^i(n) + z, with z
    unit-variance circular Gaussian per complex sample (or zero when
    noiseless).
    """
    h = grid.response
    c = codeword.states
    p, nc, num_rx, num_tx = h.shape
    if c.shape != (p, num_tx, nc):
        raise ValueError(f"codeword shape {c.shape} does not match channel {h.shape}")
    if snr_linear <= 0:
        raise ValueError("snr_linear must be positive")
    signal = np.sqrt(snr_linear / num_tx) * np.einsum("pnji,pin->pnj", h, c)
    if not noiseless:
        signal = signal + complex_normal(rng, signal.shape)
    return ReceivedBlock(samples=signal, snr_linear=float(snr_linear))
