"""The transmission scheme the Monte Carlo harness sweeps, and its baselines.

``QosfScheme`` maps a bit block to per-state transmit amplitudes and back
with the rotated quasi-orthogonal code.  The baselines are configurations of
that same code over state 0's channel, so they keep the per-entry transmit
energy and the per-state rate and BER comparisons are like for like:

* ``p1_variant``: the single-state code at the config's depth, the classic
  quasi-orthogonal space-frequency baseline.
* ``alamouti_variant``: the single-state, depth-one code, which is
  Alamouti-SF (one Alamouti block per subcarrier pair, no rotation, no
  multipath stacking), so it has spatial diversity only.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .channel import ChannelFrequencyGrid, ReceivedBlock
from .codec import SfCodeword, encode
from .config import ConfigError, SystemConfig
from .core import BPSK, QPSK, bits_per_symbol, modulate
from .decoder import EXHAUSTIVE, decode

# Rotation for the single-state code: the classic angle for each
# constellation; both attain the optimizer's best product distance (the BPSK
# optimum is a plateau, pi/2 is its midpoint).
P1_ANGLES = {BPSK: np.pi / 2, QPSK: np.pi / 4}


class QosfScheme:
    """Rotated quasi-orthogonal space-frequency code, any state count and depth."""

    def __init__(self, config: SystemConfig, decoder_mode: str = EXHAUSTIVE):
        self.config = config
        self.decoder_mode = decoder_mode

    @property
    def bits_per_block(self) -> int:
        cfg = self.config
        return cfg.num_groups * cfg.symbols_per_group * bits_per_symbol(cfg.constellation)

    def encode_bits(self, bits: np.ndarray) -> SfCodeword:
        """Codeword of one block's bits, or of each row of a [..., bits] batch."""
        return encode(modulate(bits, self.config.constellation), self.config)

    def decode_bits(self, received: ReceivedBlock, grid: ChannelFrequencyGrid) -> np.ndarray:
        """Bits of one block, or of each block of a batch along its leading axes."""
        return decode(received, grid, self.config, mode=self.decoder_mode)


def _single_state(config: SystemConfig, depth: int) -> SystemConfig:
    """The single-state code of the given depth over state 0's delays and powers."""
    if depth > 2:
        raise ConfigError(
            f"the single-state baseline has rotation angles for code_paths 1 and 2 only, "
            f"got code_paths = {depth}"
        )
    angles = () if depth == 1 else (P1_ANGLES[config.constellation],)
    return dataclasses.replace(
        config,
        num_states=1,
        code_paths=depth,
        rotation_angles=angles,
        delays_s=(config.delays_s[0],),
        path_powers=(config.path_powers[0],),
    )


def p1_variant(config: SystemConfig) -> SystemConfig:
    """Single-state configuration of the same code at the config's depth.

    At depth 2 the rotation shrinks to the known-good angle for the
    constellation; at depth 1 it is Alamouti-SF's config.
    """
    return _single_state(config, config.code_paths)


def alamouti_variant(config: SystemConfig) -> SystemConfig:
    """Alamouti-SF: the single-state, depth-one code over state 0's channel.

    With P*L = 1 the combiner is the identity, so no rotation angle is left.
    """
    return _single_state(config, 1)
