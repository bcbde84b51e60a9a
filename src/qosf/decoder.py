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
from .codec import NUM_TX, build_theta, group_codewords, group_windows
from .config import SystemConfig
from .core import CapExceededError, constellation_points, labels_to_bits, product_rows

# Largest candidate set an exhaustive search will enumerate.  QPSK with
# P=2, L=2 has 2PL = 8 symbols per group and needs 4**8 = 2**16 candidates;
# the decoupled search visits 2 * 4**4.  QPSK with P*L = 8 would need
# 4**16 = 2**32, which is out of reach.
DEFAULT_SEARCH_CAP = 2 ** 20

EXHAUSTIVE = "exhaustive"
DECOUPLED = "decoupled"
# Stride of the positions one search pass decides: the whole group, or one sub-stream.
_STEPS = {EXHAUSTIVE: 1, DECOUPLED: 2}


@functools.lru_cache(maxsize=16)
def _candidates(constellation: str, rotation_angles: tuple, num_states: int,
                code_paths: int, step: int, offset: int):
    """Candidate (labels, codewords, outer products), cached per code and pass.

    The pass searches positions offset, offset + step, ... of a group, the
    others zeroed; labels holds their point indices.  The outer-product table
    conj(c_i) c_j per subcarrier feeds the batched decoder's energy term.
    """
    pl = num_states * code_paths
    points = constellation_points(constellation)
    # One byte per label keeps the cached table an eighth of an index table.
    labels = product_rows(np.arange(points.size, dtype=np.uint8), 2 * pl // step)
    symbols = np.zeros((labels.shape[0], 2 * pl), dtype=complex)
    symbols[:, offset::step] = points[labels]
    codewords = group_codewords(symbols, build_theta(rotation_angles, pl), num_states, code_paths)
    outer = np.conj(codewords)[:, :, :, :, None] * codewords[:, :, :, None, :]
    # Every caller shares the cached arrays.
    for table in (labels, codewords, outer):
        table.flags.writeable = False
    return labels, codewords, outer


def _batched_argmin(received, grid, config, codewords, outer):
    """Index of the metric-minimizing candidate for every group at once.

    Minimizes the expanded metric |y|^2 - 2 Re<y, s H c> + s^2 c^H (H^H H) c
    with the candidate-independent |y|^2 dropped; the remaining terms reduce
    to two small matrix products over the cached candidate tables, which is
    far cheaper than forming every predicted observation.
    """
    m = config.num_groups
    # [M, P, span, Mr] observations and [M, P, span, Mr, Mt] responses
    y = group_windows(received.samples, config)
    h = group_windows(grid.response, config)
    scale = np.sqrt(received.snr_linear / NUM_TX)
    matched = np.einsum("mpnji,mpnj->mpni", np.conj(h), y)
    gram = np.einsum("mpnji,mpnjk->mpnik", np.conj(h), h)
    k = codewords.shape[0]
    # Built in place, so only one [M, K] complex product is alive at a time.
    metric = scale * scale * (gram.reshape(m, -1) @ outer.reshape(k, -1).T).real
    metric -= 2.0 * scale * (matched.reshape(m, -1) @ np.conj(codewords).reshape(k, -1).T).real
    return np.argmin(metric, axis=1)


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
    run one vectorized pass over all groups per searched set of positions.
    """
    if mode not in _STEPS:
        raise ValueError(f"unknown decoder mode {mode!r}")
    step = _STEPS[mode]
    size = len(constellation_points(config.constellation)) ** (config.symbols_per_group // step)
    if size > cap:
        raise CapExceededError(f"{mode} search needs {size} candidates per pass, cap is {cap}")
    code = (config.constellation, config.rotation_angles, config.num_states, config.code_paths)
    labels = np.empty((config.num_groups, config.symbols_per_group), dtype=np.intp)
    for offset in range(step):
        table, codewords, outer = _candidates(*code, step, offset)
        labels[:, offset::step] = table[_batched_argmin(received, grid, config, codewords, outer)]
    return labels_to_bits(labels, config.constellation)
