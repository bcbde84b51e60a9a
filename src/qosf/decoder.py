"""Maximum-likelihood decoding of the space-frequency block code.

The code places each group of 2*P*L symbols on a disjoint window of L*Mt
subcarriers, and the frequency-domain channel acts independently per
subcarrier, so the ML metric separates over groups.  Decoding runs an
exhaustive (or decoupled) search over all groups of a batch of blocks at once:
one real matrix product per pass and slice of groups against a cached real
feature table of the candidates.
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

# Decode evaluates its [rows, K] metric in row slices of at most this many
# bytes, but never fewer rows than one block's groups, so a batch's metric
# never exceeds one block's or this.  On a 2-vCPU host, P=2 BPSK sweeps with
# 256 KiB slices (four blocks) ran at the same wall time but 1.8x the CPU per
# block, spent in OpenBLAS's second thread.
_METRIC_BYTES = 1 << 16

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


def _coefficients(samples, response, snr_linear, config):
    """The real metric coefficient row of every group of a batch of blocks.

    Minimizing |y - s H c|^2 less |y|^2 is minimizing c^H (s^2 H^H H) c -
    2 Re(c^H s H^H y).  The Gram matrix is Hermitian per tone, so the metric
    is a group's real row (G00, G11, Re G01, Im G01, then -2 Re m and -2 Im m
    of the matched filter m, per tone) times a candidate's feature column.
    samples [B, P, Nc, Mr] and response [B, P, Nc, Mr, Mt] give [B*M, 8*P*span].
    """
    # [B, M, P, span, Mr, Mt] scaled responses s H and [B, M, P, span, Mr] observations y
    h = np.sqrt(snr_linear / NUM_TX) * group_windows(response, config)
    h_conj = np.conj(h)
    matched = np.einsum("bmpnji,bmpnj->bmpni", h_conj, group_windows(samples, config))
    gram = np.einsum("bmpnji,bmpnjk->bmpnik", h_conj, h)
    del h, h_conj  # a chunk's working set peaks here; the rows need only gram and matched
    coeffs = np.empty(matched.shape[:4] + (8,))
    coeffs[..., 0:2] = np.diagonal(gram, axis1=-2, axis2=-1).real
    coeffs[..., 2], coeffs[..., 3] = gram[..., 0, 1].real, gram[..., 0, 1].imag
    np.multiply(matched.real, -2.0, out=coeffs[..., 4::2])
    np.multiply(matched.imag, -2.0, out=coeffs[..., 5::2])
    return coeffs.reshape(-1, 8 * config.num_states * config.group_span)


def metric_rows(num_groups: int, candidates: int) -> int:
    """Rows of one slice of the [rows, K] metric: as many as fit in
    _METRIC_BYTES, but never fewer than one block's groups."""
    return max(num_groups, _METRIC_BYTES // (8 * candidates))


def _argmin_rows(coeffs, features, num_groups: int):
    """Index of the metric-minimizing candidate for every row: one real
    product per slice of metric_rows rows, into one reused buffer.  argmin
    keeps the first minimum, the smallest tuple."""
    total = coeffs.shape[0]
    rows = metric_rows(num_groups, features.shape[1])
    metric = np.empty((min(rows, total), features.shape[1]))
    best = np.empty(total, dtype=np.intp)
    for r in range(0, total, rows):
        part = metric[: min(rows, total - r)]
        np.matmul(coeffs[r:r + rows], features, out=part)
        np.argmin(part, axis=1, out=best[r:r + rows])
    return best


def candidates_per_pass(config: SystemConfig, mode: str) -> int:
    """Candidates one search pass of the given mode scores per group: K."""
    if mode not in _STEPS:
        raise ValueError(f"unknown decoder mode {mode!r}")
    q = len(constellation_points(config.constellation))
    return q ** (config.symbols_per_group // _STEPS[mode])


def decode(received: ReceivedBlock, grid: ChannelFrequencyGrid, config: SystemConfig,
           mode: str = EXHAUSTIVE, cap: int = DEFAULT_SEARCH_CAP) -> np.ndarray:
    """Recover the transmitted bit stream from one received OFDM block.

    Returns the bits in the original stream order (group by group, symbol by
    symbol).  mode selects "exhaustive" or "decoupled" per-group search; both
    run one vectorized pass over all groups per searched set of positions.
    A batch of blocks (leading block axes on the samples and the response)
    gives the bits of each block along the same leading axes.
    """
    size = candidates_per_pass(config, mode)
    if size > cap:
        raise CapExceededError(f"{mode} search needs {size} candidates per pass, cap is {cap}")
    lead = received.samples.shape[:-3]
    coeffs = _coefficients(received.samples.reshape((-1,) + received.samples.shape[-3:]),
                           grid.response.reshape((-1,) + grid.response.shape[-4:]),
                           received.snr_linear, config)
    code = (config.constellation, config.rotation_angles, config.num_states, config.code_paths)
    labels = np.empty((coeffs.shape[0], config.symbols_per_group), dtype=np.intp)
    step = _STEPS[mode]
    for offset in range(step):
        table, features = _candidates(*code, step, offset)
        labels[:, offset::step] = table[_argmin_rows(coeffs, features, config.num_groups)]
    return labels_to_bits(labels, config.constellation).reshape(lead + (-1,))
