"""Maximum-likelihood decoding of the space-frequency block code.

The code places each group of 2*P*L symbols on a disjoint window of L*Mt
subcarriers, and the frequency-domain channel acts independently per
subcarrier, so the ML metric separates over groups.  Decoding runs an
exhaustive (or decoupled) search over all groups of a block at once: one real
matrix product per pass against a cached real feature table of the candidates.
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
    """Candidate (labels, features), cached per code and pass and shared read-only.

    The pass searches positions offset, offset + step, ... of a group, the
    others zeroed; labels holds their point indices, one byte each.  features
    is the real, C-contiguous [8*P*span, K] table of, per tone, |c0|^2, |c1|^2,
    2 Re(c0* c1), -2 Im(c0* c1), Re c0, Im c0, Re c1 and Im c1: 64 bytes per
    tone and candidate, 32 MiB for P=2 QPSK's 65,536.  Nothing else is kept.
    """
    pl = num_states * code_paths
    points = constellation_points(constellation)
    labels = product_rows(np.arange(points.size, dtype=np.uint8), 2 * pl // step)
    theta = build_theta(rotation_angles, pl)
    features = np.empty((8 * num_states * 2 * code_paths, labels.shape[0]))
    # The codewords, a chunk of candidates at a time so their transpose stays in cache.
    for start in range(0, labels.shape[0], 4096):
        part = slice(start, start + 4096)
        symbols = np.zeros((labels[part].shape[0], 2 * pl), dtype=complex)
        symbols[:, offset::step] = points[labels[part]]
        codewords = group_codewords(symbols, theta, num_states, code_paths)
        rows = features[:, part].reshape(num_states, 2 * code_paths, 8, -1)
        rows[:, :, 4:] = np.moveaxis(codewords.view(float), 0, -1)  # Re c0, Im c0, Re c1, Im c1
        r0, i0, r1, i1 = np.moveaxis(rows[:, :, 4:], 2, 0)
        rows[:, :, 0], rows[:, :, 1] = r0 * r0 + i0 * i0, r1 * r1 + i1 * i1
        rows[:, :, 2], rows[:, :, 3] = 2.0 * (r0 * r1 + i0 * i1), 2.0 * (i0 * r1 - r0 * i1)
    labels.flags.writeable = features.flags.writeable = False
    return labels, features


def _batched_argmin(received, grid, config, features):
    """Index of the metric-minimizing candidate for every group at once.

    Minimizes |y - s H c|^2 less |y|^2: c^H (s^2 H^H H) c - 2 Re(c^H s H^H y).
    The Gram matrix is Hermitian per tone, so the metric is a group's real
    coefficient row times a candidate's feature column, one real product for
    the whole search.  argmin keeps the first minimum, the smallest tuple.
    """
    # [M, P, span, Mr, Mt] scaled responses s H and [M, P, span, Mr] observations y
    h = np.sqrt(received.snr_linear / NUM_TX) * group_windows(grid.response, config)
    matched = np.einsum("mpnji,mpnj->mpni", np.conj(h), group_windows(received.samples, config))
    gram = np.einsum("mpnji,mpnjk->mpnik", np.conj(h), h)
    coeffs = np.empty(matched.shape[:3] + (8,))
    coeffs[..., 0:2] = np.diagonal(gram, axis1=-2, axis2=-1).real
    coeffs[..., 2], coeffs[..., 3] = gram[..., 0, 1].real, gram[..., 0, 1].imag
    coeffs[..., 4::2], coeffs[..., 5::2] = -2.0 * matched.real, -2.0 * matched.imag
    return np.argmin(coeffs.reshape(config.num_groups, -1) @ features, axis=1)


def decode(received: ReceivedBlock, grid: ChannelFrequencyGrid, config: SystemConfig,
           mode: str = EXHAUSTIVE, cap: int = DEFAULT_SEARCH_CAP) -> np.ndarray:
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
        table, features = _candidates(*code, step, offset)
        labels[:, offset::step] = table[_batched_argmin(received, grid, config, features)]
    return labels_to_bits(labels, config.constellation)
