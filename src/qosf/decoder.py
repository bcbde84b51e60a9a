"""Maximum-likelihood decoding of the space-frequency block code.

The code places each group of 2*P*L symbols on a disjoint window of L*Mt
subcarriers, and the frequency-domain channel acts independently per
subcarrier, so the ML metric separates over groups.  Decoding therefore runs
an exhaustive (or decoupled) search per group over the candidate codeword set,
for all groups of a block at once.
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import ChannelFrequencyGrid, ReceivedBlock
from .codec import NUM_TX, build_theta, group_codewords
from .config import SystemConfig
from .core import CapExceededError, constellation_points, demodulate

# Largest candidate set an exhaustive search will enumerate.  QPSK with
# P=2, L=2 has 2PL = 8 symbols per group and needs 4**8 = 2**16 candidates;
# the decoupled search visits 2 * 4**4.  QPSK with P*L = 8 would need
# 4**16 = 2**32, which is out of reach.
DEFAULT_SEARCH_CAP = 2 ** 20

EXHAUSTIVE = "exhaustive"
DECOUPLED = "decoupled"


def enumerate_symbol_tuples(constellation: str, length: int) -> np.ndarray:
    """All symbol tuples of the given length, lexicographic in symbol index.

    Row r spells r in base Q with the first symbol as the most significant
    digit, so ties resolved by np.argmin pick the lexicographically smallest
    candidate.
    """
    points = constellation_points(constellation)
    q = len(points)
    count = q ** length
    idx = np.arange(count)
    digits = np.empty((count, length), dtype=np.intp)
    for t in range(length):
        digits[:, t] = (idx // q ** (length - 1 - t)) % q
    return points[digits]


@functools.lru_cache(maxsize=16)
def _candidates(constellation: str, rotation_angles: tuple, num_states: int,
                code_paths: int, half: str):
    """Candidate (symbols, codewords, outer products), cached per code.

    half selects the search space: "full" enumerates all 2PL positions,
    "odd"/"even" enumerate only that sub-stream with the other one zeroed.
    The outer-product table conj(c_i) c_j per subcarrier feeds the batched
    decoder's energy term.
    """
    pl = num_states * code_paths
    if half == "full":
        symbols = enumerate_symbol_tuples(constellation, 2 * pl)
    else:
        active = enumerate_symbol_tuples(constellation, pl)
        symbols = np.zeros((active.shape[0], 2 * pl), dtype=complex)
        offset = 0 if half == "odd" else 1
        symbols[:, offset::2] = active
    theta = build_theta(rotation_angles, pl)
    codewords = group_codewords(symbols, theta, num_states, code_paths)
    outer = np.conj(codewords)[:, :, :, :, None] * codewords[:, :, :, None, :]
    # Every caller shares the cached arrays.
    for table in (symbols, codewords, outer):
        table.flags.writeable = False
    return symbols, codewords, outer


def _batched_argmin(received, grid, config, codewords, outer):
    """Index of the metric-minimizing candidate for every group at once.

    Minimizes the expanded metric |y|^2 - 2 Re<y, s H c> + s^2 c^H (H^H H) c
    with the candidate-independent |y|^2 dropped; the remaining terms reduce
    to two small matrix products over the cached candidate tables, which is
    far cheaper than forming every predicted observation.
    """
    m = config.num_groups
    span = config.group_span
    p = config.num_states
    num_rx = config.num_rx
    # [M, P, span, Mr] observations and [M, P, span, Mr, Mt] responses
    y = received.samples[:, : m * span, :].reshape(p, m, span, num_rx).transpose(1, 0, 2, 3)
    h = grid.response[:, : m * span, :, :].reshape(p, m, span, num_rx, NUM_TX).transpose(1, 0, 2, 3, 4)
    scale = np.sqrt(received.snr_linear / NUM_TX)
    matched = np.einsum("mpnji,mpnj->mpni", np.conj(h), y)
    gram = np.einsum("mpnji,mpnjk->mpnik", np.conj(h), h)
    k = codewords.shape[0]
    cross = (matched.reshape(m, -1) @ np.conj(codewords).reshape(k, -1).T).real
    energy = (gram.reshape(m, -1) @ outer.reshape(k, -1).T).real
    return np.argmin(scale * scale * energy - 2.0 * scale * cross, axis=1)


def decode(
    received: ReceivedBlock,
    grid: ChannelFrequencyGrid,
    config: SystemConfig,
    mode: str = EXHAUSTIVE,
    cap: int = DEFAULT_SEARCH_CAP,
) -> np.ndarray:
    """Recover the transmitted bit stream from one received OFDM block.

    Returns the bits in the original stream order (group by group, symbol by
    symbol).  mode selects "exhaustive" or "decoupled" per-group search; both
    process all groups in one vectorized pass.
    """
    if mode not in (EXHAUSTIVE, DECOUPLED):
        raise ValueError(f"unknown decoder mode {mode!r}")
    code = (config.constellation, config.rotation_angles, config.num_states, config.code_paths)
    q = len(constellation_points(config.constellation))
    decoded = np.empty((config.num_groups, config.symbols_per_group), dtype=complex)
    if mode == EXHAUSTIVE:
        if q ** config.symbols_per_group > cap:
            raise CapExceededError(
                f"exhaustive search needs {q ** config.symbols_per_group} "
                f"candidates per group, cap is {cap}"
            )
        symbols, codewords, outer = _candidates(*code, "full")
        decoded[:, :] = symbols[_batched_argmin(received, grid, config, codewords, outer)]
    else:
        if q ** config.pl > cap:
            raise CapExceededError(
                f"decoupled search needs {q ** config.pl} candidates per half, cap is {cap}"
            )
        for half, offset in (("odd", 0), ("even", 1)):
            symbols, codewords, outer = _candidates(*code, half)
            best = _batched_argmin(received, grid, config, codewords, outer)
            decoded[:, offset::2] = symbols[best][:, offset::2]
    return demodulate(decoded.ravel(), config.constellation)
