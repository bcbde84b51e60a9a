"""Maximum-likelihood decoding of the space-frequency block code.

The code places each group of 2*P*L symbols on a disjoint window of L*Mt
subcarriers, and the frequency-domain channel acts independently per
subcarrier, so the ML metric separates over groups.  Decoding runs an
exhaustive (or decoupled) search over all groups of a batch of blocks at once,
one pass per searched set of positions, on one model: the scaled responses and
observations of each group's window, formed once per call (or per search
slice).  Every candidate of a pass is a +-1 combination of the pass's basis
codewords (Viterbo & Boutros, IEEE Trans. IT 45(5), 1999), numbered by its
signs.  Each pass runs in slices of the groups, one loop for both searches.  A
pass of at most _PRODUCT_CANDIDATES candidates scores them through a cached
low-rank factor (left, right) of the real feature table of those combinations:
per slice, one product of its groups' metric coefficients with left, then one
with right.  A larger pass (P=2 QPSK exhaustive: 65,536) runs an exact sphere
search over the same model instead, with every group of a slice in lockstep,
and never builds a table of its candidates.  A candidate's index is its
points' Gray labels, so the bits are read straight off the winning indices.
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import ChannelFrequencyGrid, ReceivedBlock
from .codec import NUM_TX, build_theta, group_codewords, group_windows
from .config import SystemConfig
from .core import CapExceededError, bits_per_symbol, constellation_points

# Largest candidate set one search pass may cover.  QPSK with P=2, L=2 has
# 2PL = 8 symbols per group and 4**8 = 2**16 candidates; the decoupled search
# covers 2 * 4**4.  QPSK with P*L = 8 would cover 4**16 = 2**32, which is out
# of reach even for the sphere search: it can visit every candidate of a pass
# (all of them tie on a zero channel).  decode reads it at call time.
DEFAULT_SEARCH_CAP = 2 ** 20

# Passes with at most this many candidates score them all with one real
# product; larger ones run the sphere search.  On a 2-vCPU host, over 0-14 dB,
# decoding a 5-block chunk took 0.42 ms with the product and 2.1-2.2 ms with
# the search for P=2 BPSK exhaustive (256 candidates), and 0.63-0.71 against
# 3.2-3.5 ms for P=2 QPSK decoupled (two passes of 256).  One P=2 QPSK
# exhaustive block (65,536) took 6.5 ms with the product, 1.9-2.1 with the
# search; a harness chunk holds 32 such blocks, searched in slices of blocks.
_PRODUCT_CANDIDATES = 256

# The sphere search expands its tree in pieces of at most _PIECE_NODES nodes,
# deepest first, and decode runs it in slices of whole blocks, _SEARCH_GROUPS
# groups (3 blocks) or one block, scaling each slice's windows on its own, so a
# call's working set does not grow with its batch.
# tracemalloc read a P=2 QPSK exhaustive call of 1, 3 and 6 blocks at 1.9, 2.6
# and 2.6 MiB on a zero channel (every candidate ties), and 0.4-0.7, 1.2 and
# 1.4 MiB at 6 dB; pieces of 1,024 in one slice read 2.9, 4.2 and 5.1, and 0.9,
# 2.1 and 2.9.  On 2 vCPUs, pieces of 1,024 decoded 10-15% faster at +0.3 MiB
# (6 dB), and one slice of 6 blocks 20-35% faster at 2.0 MiB.
_PIECE_NODES = 512
_SEARCH_GROUPS = 96
# Real coordinates the sphere search fixes per level of its tree, so a level
# has 16 children per node.  On P=2 QPSK exhaustive (16 coordinates, 6-14 dB)
# a 2-vCPU host decoded a block in about 1.3 ms with 4 per level, 1.5-1.6 ms
# with 2 or 3, 1.7 ms with levels of 6, 6 and 2, and 4.0 ms with 8.
_LEVEL_COORDINATES = 4

# A product pass evaluates its [rows, K] metric in slices of at most this
# many bytes, but never fewer rows than one block's groups, so a call holds
# one block's metric or this, whatever its batch: 128 rows, four blocks, of P=2
# BPSK exhaustive.  On one OpenBLAS thread of a 2-vCPU host, its second product
# [rows, 19] @ [19, 256] took 12 us at 32 rows, 25-28 us at 128 and 37-46 us at
# 192; at 256 rows OpenBLAS took a second thread (349 us wall, 691 us CPU), so
# no shipped pass's slice product may pass 192 rows' 933,888 multiply-adds.
# Each slice forms its own product with left too, so no product grows with
# the batch.
_METRIC_BYTES = 1 << 18

EXHAUSTIVE = "exhaustive"
DECOUPLED = "decoupled"
# Stride of the positions one search pass decides: the whole group, or one sub-stream.
_STEPS = {EXHAUSTIVE: 1, DECOUPLED: 2}


def _signs(count: int) -> np.ndarray:
    """[2**count, count] +-1 rows: row r has -1 in column k where bit k of r is set."""
    return 1.0 - 2.0 * ((np.arange(1 << count)[:, None] >> np.arange(count)) & 1)


@functools.lru_cache(maxsize=16)
def _candidates(constellation: str, rotation_angles: tuple, num_states: int,
                code_paths: int, step: int, offset: int):
    """A factor (left, right) of the pass's candidate features, cached per
    code and pass and shared read-only.

    The feature table is real, [8*P*span, K]: per tone, |c0|^2, |c1|^2,
    2 Re(c0* c1), -2 Im(c0* c1), Re c0, Im c0, Re c1 and Im c1 of every
    candidate.  Column r is the candidate x_r @ _basis, x_r = _signs(n)[r]:
    the tuple the sphere search and decode's label step number r.  Every
    feature is a polynomial of degree <= 2 in those signs, so the table has
    low rank r: 19 for P=2 BPSK exhaustive's [64, 256], 12 for a P=2 QPSK
    decoupled pass, 7 for P=2 BPSK decoupled and P=1 BPSK exhaustive.  right
    [r, K] is an orthonormal basis of the table's rows, from Gram-Schmidt over
    them (each orthogonalized twice; a row left with less than 1e-8 of its
    norm adds nothing), and left [8*P*span, r] = table @ right^T, so left @
    right is the table to rounding.  Gram-Schmidt in numpy, not an SVD or QR:
    in a fresh interpreter the first LAPACK call (svd, qr or eigh of a
    [64, 256] array) raised the peak resident set by 6.6-8.6 MiB, this
    factor and its first products by 1.3.  Both are C-contiguous; the table
    itself is not kept, and passes past _PRODUCT_CANDIDATES never build one.
    """
    basis = _basis(constellation, rotation_angles, num_states, code_paths, step, offset)
    n = basis.shape[0]
    # [P*span*4, K] columns: Re c0, Im c0, Re c1 and Im c1 per tone.
    codewords = (_signs(n) @ basis.reshape(n, -1).view(float)).T
    features = np.empty((codewords.shape[0] // 4, 8, codewords.shape[1]))
    features[:, 4:] = codewords.reshape(-1, 4, codewords.shape[1])
    r0, i0, r1, i1 = np.moveaxis(features[:, 4:], 1, 0)
    features[:, 0], features[:, 1] = r0 * r0 + i0 * i0, r1 * r1 + i1 * i1
    features[:, 2], features[:, 3] = 2.0 * (r0 * r1 + i0 * i1), 2.0 * (i0 * r1 - r0 * i1)
    features = features.reshape(-1, codewords.shape[1])
    right = np.empty((0, features.shape[1]))
    for row in features:
        resid = row - (right @ row) @ right
        resid -= (right @ resid) @ right
        norm = np.sqrt(resid @ resid)
        if norm > 1e-8 * np.sqrt(row @ row):
            right = np.vstack((right, resid / norm))
    left = features @ right.T
    left.flags.writeable = right.flags.writeable = False
    return left, right


def _coefficients(h, y):
    """The real metric coefficient row of every group.

    Minimizing |y - H c|^2 less |y|^2 is minimizing c^H (H^H H) c -
    2 Re(c^H H^H y).  The Gram matrix is Hermitian per tone, so the metric
    is a group's real row (G00, G11, Re G01, Im G01, then -2 Re m and -2 Im m
    of the matched filter m, per tone) times a candidate's feature column.
    h [G, P, span, Mr, Mt] are the scaled responses and y [G, P, span, Mr]
    the observations; the rows are [G, 8*P*span].  Only the Gram entries the
    rows read are formed, each summed elementwise over the receive antennas.
    The diagonal and the matched filter add the antennas one by one, in
    order, as .sum over that middle axis would, at a quarter of its cost on
    two antennas.  G01's sum runs over the last axis, where numpy adds four
    or more complex terms pairwise.  The power is freed before G01 is formed,
    and the matched filter's -2 is applied as it is written to the rows.
    """
    coeffs = np.empty(h.shape[:3] + (8,))
    power = np.square(h.real)
    power += np.square(h.imag)
    for r in range(1, h.shape[-2]):
        power[..., 0, :] += power[..., r, :]
    coeffs[..., 0:2] = power[..., 0, :]
    del power
    coeffs[..., 2:4] = (np.conj(h[..., 0]) * h[..., 1]).sum(-1)[..., None].view(float)
    matched = np.conj(h)
    matched *= y[..., None]
    for r in range(1, h.shape[-2]):
        matched[..., 0, :] += matched[..., r, :]
    np.multiply(matched[..., 0, :].view(float), -2.0, out=coeffs[..., 4:])
    return coeffs.reshape(h.shape[0], -1)


@functools.lru_cache(maxsize=16)
def _basis(constellation: str, rotation_angles: tuple, num_states: int, code_paths: int,
           step: int, offset: int) -> np.ndarray:
    """[n, P, 2L, Mt] codewords of the pass's real coordinates, cached read-only.

    Every BPSK and QPSK point is a sum of +-a and +-ja, so a candidate of the
    pass is x_0 c_0 + ... + x_{n-1} c_{n-1} with every x_k = +-1, c_k the
    codeword of the unit a or ja at one searched position.  Column n-1 is the
    real part of the first position; each next column down is the next bit of
    the candidate's labels, so x_k = -1 is bit k of its tuple's index.
    """
    points = constellation_points(constellation)
    units = np.array([1.0, 1j])[: bits_per_symbol(constellation)] * abs(points[0].real)
    pl = num_states * code_paths
    positions = np.arange(offset, 2 * pl, step)
    n = positions.size * units.size
    symbols = np.zeros((n, 2 * pl), dtype=complex)
    coordinate = np.arange(n)[::-1]  # column k is coordinate n-1-k, counted from the first
    symbols[np.arange(n), positions[coordinate // units.size]] = units[coordinate % units.size]
    basis = group_codewords(symbols, build_theta(rotation_angles, pl), num_states, code_paths)
    basis.flags.writeable = False
    return basis


def _sphere_model(h, y, basis):
    """Per group: the lower Cholesky factor l of the pass's shifted real Gram
    matrix, and z with l z = H_eff^T y.

    h [G, P, span, Mr, Mt] are the scaled responses and y [G, P, span, Mr]
    the observations.  Then |y - H_eff x|^2 = |z - l^T x|^2 plus terms equal
    for every candidate: the shift adds eps |x|^2 = eps n, since every x_k is
    +-1, and it keeps a zero channel's Gram positive definite.  One Cholesky
    factor of the Gram matrix of [H_eff, y] holds both: its last row is z.
    """
    g, n = h.shape[0], basis.shape[0]
    heff = np.empty(h.shape[:-1] + (n + 1,), dtype=complex)
    np.matmul(h, np.moveaxis(basis, 0, -1), out=heff[..., :n])
    heff[..., n] = y
    heff = heff.reshape(g, -1, n + 1)
    # Re(A^H A) as one real product over the stacked real and imaginary parts.
    stacked = np.concatenate((heff.real, heff.imag), axis=1)
    gram = np.matmul(stacked.swapaxes(1, 2), stacked)
    diagonal = np.einsum("gkk->gk", gram)  # a writeable view
    diagonal[:, :n] += 1e-12 * diagonal[:, :n].mean(axis=1, keepdims=True) + 1e-300
    diagonal[:, n] = 2.0 * diagonal[:, n] + 1.0  # keeps the factor real: |z|^2 <= |y|^2
    low = np.linalg.cholesky(gram)
    return low[:, :n, :n], low[:, n, :n]


def _levels(low):
    """The search's levels, top first: (lo, hi, t, u) fixes coordinates lo..hi-1.

    Choice c of a level sets x_{lo+j} = -1 where bit j of c is set.  For
    every group, t[g, j, c] is row lo + j of l^T x and u[g, c] its rows below
    lo, from the level's coordinates alone.  Both are copies, coordinate-major
    t for _distances, so no [G, C, hi] product stays alive.
    """
    levels = []
    for hi in range(low.shape[-1], 0, -_LEVEL_COORDINATES):
        lo = max(0, hi - _LEVEL_COORDINATES)
        rows = _signs(hi - lo) @ low[:, lo:hi, :hi]
        levels.append((lo, hi, rows[..., lo:].transpose(0, 2, 1).copy(), rows[..., :lo].copy()))
    return levels


def _sphere_search(low, z) -> np.ndarray:
    """Index of the ML tuple of every group: the x in {-1, +1}^n minimizing
    |z - l^T x|^2, read as the bits of x = -1, the first minimum in tuple order.

    A descent that keeps each group's two best nodes at every level sets each
    group's starting radius and best leaf (K-best, K = 2: Guo & Nilsson, IEEE
    JSAC 24(3), 2006), by the tree's own _distances and _children arithmetic,
    so the tree meets that leaf again at the same distance.  It leaves the
    tree 15k, 5k and 2.5k child distances per P=2 QPSK exhaustive block at 6,
    10 and 14 dB (23k, 9k and 4.4k after a greedy descent), and costs 3.6k.
    The tree is expanded a few coordinates per level with every group's nodes
    in one array, each node keeping its residual z - l^T x on the rows not yet
    fixed, and nodes whose partial distance exceeds their group's radius are
    dropped.  Partial distances only grow, so the ML leaf always survives.
    Nodes stay sorted by (group, tuple), and the frontier runs in pieces of at
    most _PIECE_NODES, the first piece to the leaves first; each leaf found
    tightens its group's radius for the later pieces.
    """
    g = z.shape[0]
    levels = _levels(low)
    groups = np.arange(g)
    group, dist, code, resid = groups, np.zeros(g), np.zeros(g, dtype=np.int64), z
    for level in levels:
        per_group = _distances(level, group, dist, resid).reshape(g, -1)
        keep = (np.argpartition(per_group, 1, axis=1)[:, :2]
                + per_group.shape[1] * groups[:, None]).reshape(-1)
        dist = per_group.reshape(-1)[keep]
        group, code, resid = _children(level, keep, group, code, resid)
    start = np.argmin(dist.reshape(g, 2), axis=1) + 2 * groups
    best_dist, best_code = dist[start], code[start]
    stack = [(0, groups, np.zeros(g), np.zeros(g, dtype=np.int64), z)]
    while stack:
        depth, group, dist, code, resid = stack.pop()
        dist = _distances(levels[depth], group, dist, resid)
        keep = np.flatnonzero(dist <= best_dist[group, None])
        dist = dist.reshape(-1)[keep]
        group, code, resid = _children(levels[depth], keep, group, code, resid)
        if depth < len(levels) - 1:
            for start in reversed(range(0, keep.size, _PIECE_NODES)):
                part = slice(start, start + _PIECE_NODES)
                stack.append((depth + 1, group[part], dist[part], code[part], resid[part]))
        elif keep.size:
            # Each group's first minimum (leaves come in tuple order), if it beats the best.
            order = np.lexsort((dist, group))
            first = order[np.r_[True, group[order[1:]] != group[order[:-1]]]]
            gf, df, cf = group[first], dist[first], code[first]
            better = (df < best_dist[gf]) | ((df == best_dist[gf]) & (cf < best_code[gf]))
            best_dist[gf[better]], best_code[gf[better]] = df[better], cf[better]
    return best_code


def _distances(level, group, dist, resid):
    """[N, C] partial distances of the C children of each of N nodes.

    The c terms are summed as [N, C] planes in coordinate order: 89 us for a
    512-node piece, against 334 us for einsum over a gathered [N, C, c] copy.
    """
    lo, hi, t, _ = level
    diff = t[group]  # a gathered [N, c, C] copy, squared in place
    np.subtract(resid[:, lo:hi, None], diff, out=diff)
    diff *= diff
    total = diff[:, 0].copy()
    for j in range(1, hi - lo):
        total += diff[:, j]
    total += dist[:, None]
    return total


def _children(level, keep, group, code, resid):
    """Group, tuple index and residual of the children at flat indices keep
    of a level's [N, C] distances."""
    lo, hi, _, u = level
    parent, choice = np.divmod(keep, 1 << (hi - lo))
    group = group[parent]
    resid = resid[parent, :lo]
    resid -= u[group, choice]
    return group, (code[parent] << (hi - lo)) | choice, resid


def _model(windows, scale, blocks):
    """Scaled responses h [G, P, span, Mr, Mt], in C order so that no reshape
    copies them, and observations y [G, P, span, Mr] of the blocks' groups."""
    h = np.multiply(scale, windows[0][blocks], order="C")
    return h.reshape((-1,) + h.shape[2:]), windows[1][blocks].reshape((-1,) + h.shape[2:-1])


def candidates_per_pass(config: SystemConfig, mode: str) -> int:
    """Candidates one search pass of the given mode scores per group: K."""
    if mode not in _STEPS:
        raise ValueError(f"unknown decoder mode {mode!r}")
    q = len(constellation_points(config.constellation))
    return q ** (config.symbols_per_group // _STEPS[mode])


def decode(received: ReceivedBlock, grid: ChannelFrequencyGrid, config: SystemConfig,
           mode: str = EXHAUSTIVE) -> np.ndarray:
    """Recover the transmitted bit streams of a batch of received OFDM blocks.

    The samples and the response may carry leading block axes (none for one
    block); the bits of each block come back along the same leading axes, in
    the original stream order (group by group, symbol by symbol).  mode
    selects "exhaustive" or "decoupled" per-group search; both run one
    vectorized pass per searched set of positions, over slices of the groups:
    every candidate scored through the pass's factored feature table, or,
    past _PRODUCT_CANDIDATES, the exact sphere search.  Either way ties go to
    the smallest tuple.  A pass larger than DEFAULT_SEARCH_CAP is refused.
    """
    size = candidates_per_pass(config, mode)
    if size > DEFAULT_SEARCH_CAP:
        raise CapExceededError(
            f"{mode} search needs {size} candidates per pass, cap is {DEFAULT_SEARCH_CAP}")
    lead = received.samples.shape[:-3]
    response = grid.response.reshape((-1,) + grid.response.shape[-4:])
    samples = received.samples.reshape((-1,) + received.samples.shape[-3:])
    windows = (group_windows(response, config), group_windows(samples, config))
    scale = np.sqrt(received.snr_linear / NUM_TX)
    code = (config.constellation, config.rotation_angles, config.num_states, config.code_paths)
    step, g = _STEPS[mode], config.num_groups
    index = np.empty((response.shape[0] * g, step), dtype=np.int64)
    product = size <= _PRODUCT_CANDIDATES
    coeffs = _coefficients(*_model(windows, scale, slice(None))) if product else None
    rows = max(g, _METRIC_BYTES // (8 * size)) if product else max(1, _SEARCH_GROUPS // g) * g
    for offset in range(step):
        if product:
            left, right = _candidates(*code, step, offset)
        else:
            basis = _basis(*code, step, offset)
        for start in range(0, index.shape[0], rows):
            part = slice(start, start + rows)
            if product:  # argmin keeps the first minimum, the smallest tuple
                index[part, offset] = np.argmin((coeffs[part] @ left) @ right, axis=1)
            else:
                model = _model(windows, scale, slice(start // g, (start + rows) // g))
                index[part, offset] = _sphere_search(*_sphere_model(*model, basis))
    # Both searches number a pass's candidates by their +-1 basis signs, which
    # spell the Gray labels, first position most significant: bit b of the
    # point at group position offset + step*j is bit n-1 - (width*j + b) of the
    # n-bit index, so reading the index from its top bit gives [g, j, offset, b],
    # the stream order.
    width = bits_per_symbol(config.constellation)
    shifts = np.arange(width * config.symbols_per_group // step)[::-1].reshape(-1, 1, width)
    return ((index[:, None, :, None] >> shifts) & 1).reshape(lead + (-1,))
