"""Frequency-selective Rayleigh channel: tap draws, frequency response, noise.

The link is simulated directly per subcarrier; with quasi-static fading and a
cyclic prefix covering the delay spread this is exactly equivalent to the
time-domain CP/FFT chain (the tests check it against a DFT of the taps).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codec import SfCodeword
from .config import SystemConfig
from .core import complex_normal, is_real


@dataclass
class ChannelFrequencyGrid:
    """Per-subcarrier response, shape (P, num_subcarriers, num_rx, num_tx),
    with any leading block axes in front for a batch."""

    response: np.ndarray


@dataclass
class ReceivedBlock:
    """Post-FFT receive samples, shape (P, num_subcarriers, num_rx), with any
    leading block axes in front for a batch."""

    samples: np.ndarray
    snr_linear: float


def draw_channel(config: SystemConfig,
                 rng: np.random.Generator | Sequence[np.random.Generator]) -> np.ndarray:
    """Draw one quasi-static realization: complex taps, shape (P, num_rx, num_tx, L).

    Taps are independent zero-mean circular Gaussians across state, antenna
    pair and path, with per-path variance from the configured power profile.
    For a batch of blocks, rng is a sequence of generators, one per block,
    each drawing its block's taps as a single block would: [B, P, Mr, Mt, L].
    """
    shape = (config.num_states, config.num_rx, config.num_tx, config.num_paths)
    taps = complex_normal(rng, shape)
    sigma = np.sqrt(np.asarray(config.path_powers))  # [P, L]
    taps *= sigma[:, None, None, :]
    return taps


@functools.lru_cache(maxsize=16)
def _twiddles(delays_s: tuple, spacing_hz: float, num_subcarriers: int) -> np.ndarray:
    """[P, L, Nc] factors exp(-j 2 pi n df tau_l), df tau in cycles per tone,
    cached and shared read-only."""
    n = np.arange(num_subcarriers)
    delays = np.asarray(delays_s)  # [P, L]
    phase = np.exp(-2j * np.pi * spacing_hz * delays[:, :, None] * n)
    phase.flags.writeable = False
    return phase


def frequency_response(taps: np.ndarray, config: SystemConfig) -> ChannelFrequencyGrid:
    """Evaluate H_p(n) = sum_l alpha_l * exp(-j 2 pi n df tau_l) on every tone,
    with the delays tau_l of the config's profile.  Taps [..., P, Mr, Mt, L]
    of a batch of blocks give a [..., P, Nc, Mr, Mt] response."""
    phase = _twiddles(config.delays_s, config.subcarrier_spacing_hz, config.num_subcarriers)
    response = np.einsum("...pjil,pln->...pnji", taps, phase)
    return ChannelFrequencyGrid(response=response)


def apply(
    codeword: SfCodeword,
    grid: ChannelFrequencyGrid,
    snr_linear: float,
    rng: np.random.Generator | Sequence[np.random.Generator] | None,
    noiseless: bool = False,
) -> ReceivedBlock:
    """Pass a codeword through the channel at received SNR gamma.

    y_p^j(n) = sqrt(gamma / num_tx) * sum_i H_p^{i,j}(n) c_p^i(n) + z, with z
    unit-variance circular Gaussian per complex sample (or zero when
    noiseless).  rng is the noise generator of one block, or for a batch of
    blocks a sequence of generators, one per block in row-major order, each
    drawing its block's noise as a single block would.
    """
    h = grid.response
    c = codeword.states
    p, nc, num_rx, num_tx = h.shape[-4:]
    if c.shape != h.shape[:-4] + (p, num_tx, nc):
        raise ValueError(f"codeword shape {c.shape} does not match channel {h.shape}")
    if not is_real(snr_linear) or not 0 < snr_linear < np.inf:
        raise ValueError(f"snr_linear must be a finite number above 0, got {snr_linear!r}")
    if rng is None and not noiseless:
        raise ValueError("rng must be the noise generator(s) unless noiseless, got None")
    signal = np.einsum("...pnji,...pin->...pnj", h, c)
    signal *= np.sqrt(snr_linear / num_tx)
    if not noiseless:
        noise = complex_normal(rng, signal.shape[-3:])
        if noise.size != signal.size:
            block = p * nc * num_rx
            raise ValueError(f"{noise.size // block} noise generators for "
                             f"{signal.size // block} blocks")
        signal += noise.reshape(signal.shape)
    return ReceivedBlock(samples=signal, snr_linear=float(snr_linear))
