"""Per-group reference implementations of the code, used as test oracles.

The program encodes and decodes every group of a block in one vectorized
pass.  These are the straightforward scalar versions: one group, one state,
one Alamouti block at a time, and a decoder that forms every predicted
observation.  Tests check the batched paths against them, check decode's
one real product against the two complex products it replaced and its
feature table against the one built from product-order labels, and check
the harness's chunked block loop against the one-block-at-a-time loop it
replaced, and the harness's windowed seed tree against numpy's SeedSequence,
which it reproduces.  The earlier forms of modulate, complex_normal and the
decoder's metric coefficient rows are kept too, as the tests' oracles for the
forms that replaced them.  The module also holds the inverses the program never
needs: a point-label-to-bits step, a nearest-point symbol demodulator, a
codeword-dump reader, and a time-domain check of the channel's frequency
response.
"""

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from qosf.channel import apply, draw_channel, frequency_response
from qosf.codec import build_theta, group_codewords, group_windows
from qosf.core import CapExceededError, bits_per_symbol, constellation_points, product_rows
from qosf.decoder import DECOUPLED, DEFAULT_SEARCH_CAP, EXHAUSTIVE
from qosf.harness import (
    _STREAM_BITS, _STREAM_CHANNEL, _STREAM_NOISE, BerPoint, build_scheme,
)

NUM_TX = 2


def labels_to_bits(labels, constellation: str) -> np.ndarray:
    """Bit stream of an array of point indices, most significant bit first."""
    shifts = np.arange(bits_per_symbol(constellation) - 1, -1, -1)
    return ((np.asarray(labels)[..., None] >> shifts) & 1).reshape(-1).astype(np.int64)


def label_table_modulate(bits, constellation: str) -> np.ndarray:
    """modulate as it was: each symbol's label is an integer product of its
    bits with their place values, looked up in the point table."""
    k = bits_per_symbol(constellation)
    labels = np.asarray(bits, dtype=np.int64).reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    return constellation_points(constellation)[labels]


def interleaved_complex_normal(rng, shape) -> np.ndarray:
    """core.complex_normal as it was: the interleaved real and imaginary
    draws summed as re + 1j*im, then scaled."""
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    raw = np.empty((len(rngs), *tuple(shape), 2))
    for row, row_rng in zip(raw, rngs):
        row_rng.standard_normal(out=row)
    samples = (raw[..., 0] + 1j * raw[..., 1]) * np.sqrt(0.5)
    return samples[0] if single else samples


def einsum_coefficients(h, y):
    """decoder._coefficients as it was: two complex einsums form each tone's
    whole Gram matrix and matched filter, and the rows read three entries of
    the one and both parts of the other."""
    h_conj = np.conj(h)
    matched = np.einsum("gpnji,gpnj->gpni", h_conj, y)
    gram = np.einsum("gpnji,gpnjk->gpnik", h_conj, h)
    coeffs = np.empty(matched.shape[:3] + (8,))
    coeffs[..., 0:2] = np.diagonal(gram, axis1=-2, axis2=-1).real
    coeffs[..., 2], coeffs[..., 3] = gram[..., 0, 1].real, gram[..., 0, 1].imag
    np.multiply(matched.real, -2.0, out=coeffs[..., 4::2])
    np.multiply(matched.imag, -2.0, out=coeffs[..., 5::2])
    return coeffs.reshape(h.shape[0], -1)


def axis_sum_coefficients(h, y):
    """decoder._coefficients as it was: the Gram diagonal and the matched
    filter summed over the receive antennas by .sum over that middle axis."""
    coeffs = np.empty(h.shape[:3] + (8,))
    coeffs[..., 0:2] = (h.real ** 2 + h.imag ** 2).sum(-2)
    coeffs[..., 2:4] = (np.conj(h[..., 0]) * h[..., 1]).sum(-1)[..., None].view(float)
    matched = (np.conj(h) * y[..., None]).sum(-2)
    np.multiply(matched.real, -2.0, out=coeffs[..., 4::2])
    np.multiply(matched.imag, -2.0, out=coeffs[..., 5::2])
    return coeffs.reshape(h.shape[0], -1)


def combine(group, theta: np.ndarray) -> np.ndarray:
    """Rotate-and-combine one symbol group, keeping unit average entry energy.

    Odd-position and even-position sub-streams are combined independently with
    the same matrix; the 1/sqrt(PL) factor makes each combined value unit
    energy for unit-energy inputs.
    """
    group = np.asarray(group, dtype=complex)
    pl = theta.shape[0]
    if theta.shape != (pl, pl):
        raise ValueError("theta must be square")
    if group.shape != (2 * pl,):
        raise ValueError(f"expected a group of {2 * pl} symbols, got {group.shape}")
    kappa = 1.0 / np.sqrt(pl)
    out = np.empty(2 * pl, dtype=complex)
    out[0::2] = kappa * (theta @ group[0::2])
    out[1::2] = kappa * (theta @ group[1::2])
    return out


def alamouti(x1: complex, x2: complex) -> np.ndarray:
    """The 2x2 orthogonal design [[x1, x2], [-x2*, x1*]]."""
    return np.array([[x1, x2], [-np.conj(x2), np.conj(x1)]], dtype=complex)


def encode_group(combined, state: int, code_paths: int) -> np.ndarray:
    """Stack the L Alamouti sub-blocks of one state from a combined group.

    state is 1-based; state p consumes combined values 2(p-1)L+1 .. 2pL
    (1-based), i.e. L consecutive (odd, even) pairs.
    """
    combined = np.asarray(combined, dtype=complex)
    num_states = combined.size // (2 * code_paths)
    if combined.size != num_states * 2 * code_paths:
        raise ValueError("combined group length must be 2 * states * depth")
    if not 1 <= state <= num_states:
        raise ValueError(f"state {state} out of range 1..{num_states}")
    base = 2 * (state - 1) * code_paths
    blocks = [
        alamouti(combined[base + 2 * k], combined[base + 2 * k + 1])
        for k in range(code_paths)
    ]
    return np.vstack(blocks)


@dataclass
class GroupObservation:
    """Received samples and channel gains for one code group.

    received : complex [P, L*Mt, Mr]
        Frequency-domain receive samples on the group's subcarrier window,
        one slice per antenna state.
    response : complex [P, L*Mt, Mr, Mt]
        Channel frequency response on the same window.
    snr_linear : float
        Per-subcarrier SNR used in the transmit scaling sqrt(snr / Mt).
    """

    received: np.ndarray
    response: np.ndarray
    snr_linear: float

    @property
    def num_states(self) -> int:
        return self.received.shape[0]

    @property
    def span(self) -> int:
        return self.received.shape[1]


def group_observation(received, grid, config, group_index: int) -> GroupObservation:
    """Slice out the window for one group (0-based index)."""
    if not 0 <= group_index < config.num_groups:
        raise ValueError(f"group_index {group_index} out of range [0, {config.num_groups})")
    span = config.group_span
    window = slice(group_index * span, (group_index + 1) * span)
    return GroupObservation(
        received=received.samples[:, window, :],
        response=grid.response[:, window, :, :],
        snr_linear=received.snr_linear,
    )


def _codewords(symbols, theta, num_states: int, code_paths: int) -> np.ndarray:
    """[K, P, 2L, Mt] codewords of candidate groups, built one group at a time."""
    return np.array([
        [encode_group(combine(group, theta), p, code_paths) for p in range(1, num_states + 1)]
        for group in symbols
    ])


def group_metric(obs: GroupObservation, codewords: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each candidate from the observation."""
    scale = np.sqrt(obs.snr_linear / NUM_TX)
    predicted = scale * np.einsum("pnji,kpni->kpnj", obs.response, codewords)
    diff = predicted - obs.received[None, :, :, :]
    return np.einsum("kpnj,kpnj->k", diff, np.conj(diff)).real


def ml_decode_group(obs: GroupObservation, theta, constellation: str,
                    cap: int = DEFAULT_SEARCH_CAP) -> np.ndarray:
    """Exhaustive ML search over all candidate groups; returns 2PL symbols."""
    num_states = obs.num_states
    code_paths = obs.span // NUM_TX
    q = len(constellation_points(constellation))
    count = q ** (2 * num_states * code_paths)
    if count > cap:
        raise CapExceededError(f"exhaustive search needs {count} candidates, cap is {cap}")
    symbols = product_rows(constellation_points(constellation), 2 * num_states * code_paths)
    codewords = _codewords(symbols, theta, num_states, code_paths)
    return symbols[int(np.argmin(group_metric(obs, codewords)))].copy()


def decoupled_ml_decode_group(obs: GroupObservation, theta, constellation: str,
                              cap: int = DEFAULT_SEARCH_CAP) -> np.ndarray:
    """Two independent half-searches over the odd and even sub-streams.

    Each codeword entry carries either odd-indexed or even-indexed symbols,
    never a mix, so the ML metric evaluated with the complementary sub-stream
    zeroed scores one half in isolation.  When the channel response is equal
    across each subcarrier pair the cross term between the halves vanishes and
    the combined result equals the exhaustive search.
    """
    num_states = obs.num_states
    code_paths = obs.span // NUM_TX
    pl = num_states * code_paths
    q = len(constellation_points(constellation))
    if q ** pl > cap:
        raise CapExceededError(f"decoupled search needs {q ** pl} candidates per half, cap is {cap}")
    active = product_rows(constellation_points(constellation), pl)
    out = np.empty(2 * pl, dtype=complex)
    for offset in (0, 1):
        symbols = np.zeros((active.shape[0], 2 * pl), dtype=complex)
        symbols[:, offset::2] = active
        codewords = _codewords(symbols, theta, num_states, code_paths)
        best = int(np.argmin(group_metric(obs, codewords)))
        out[offset::2] = symbols[best, offset::2]
    return out


GROUP_DECODERS = {
    EXHAUSTIVE: ml_decode_group,
    DECOUPLED: decoupled_ml_decode_group,
}


def two_product_decode(received, grid, config, mode: str = EXHAUSTIVE) -> np.ndarray:
    """decode() as it was before its single real product, for the same bits.

    Scores every candidate of a pass with the two products over codeword and
    outer-product tables, s^2 <H^H H, conj(c) c^T> - 2 s Re<H^H y, conj(c)>,
    written in real form: one real product of the stacked real and imaginary
    parts of [s^2 H^H H, -2 s H^H y] with those of the [outer, conj(c)]
    table, so only the real part is ever formed.  Keeps the first minimum.
    In exact arithmetic this is the metric decode() takes from its real
    feature table; only rounding differs.
    """
    step = {EXHAUSTIVE: 1, DECOUPLED: 2}[mode]
    pl, m = config.pl, config.num_groups
    y = group_windows(received.samples[None], config)[0]
    h = group_windows(grid.response[None], config)[0]
    scale = np.sqrt(received.snr_linear / NUM_TX)
    matched = np.einsum("mpnji,mpnj->mpni", np.conj(h), y).reshape(m, -1)
    gram = np.einsum("mpnji,mpnjk->mpnik", np.conj(h), h).reshape(m, -1)
    weights = np.concatenate((scale * scale * gram, -2.0 * scale * matched), axis=1)
    weights = np.concatenate((weights.real, -weights.imag), axis=1)
    labels = np.empty((m, 2 * pl), dtype=np.intp)
    for offset in range(step):
        table, columns = _two_product_tables(
            config.constellation, config.rotation_angles, config.num_states, config.code_paths,
            step, offset)
        labels[:, offset::step] = table[np.argmin(weights @ columns, axis=1)]
    return labels_to_bits(labels, config.constellation)


def _pass_codewords(constellation, rotation_angles, num_states, code_paths, step, offset):
    """[K, 2PL/step] labels of one pass in product_rows order, and the [K, P,
    span, Mt] codewords of those points at the pass's positions, others zero."""
    pl = num_states * code_paths
    points = constellation_points(constellation)
    labels = product_rows(np.arange(points.size), 2 * pl // step)
    symbols = np.zeros((labels.shape[0], 2 * pl), dtype=complex)
    symbols[:, offset::step] = points[labels]
    return labels, group_codewords(symbols, build_theta(rotation_angles, pl), num_states,
                                   code_paths)


@functools.lru_cache(maxsize=2)
def _two_product_tables(*code):
    """two_product_decode's [K] labels and the [2D, K] real and imaginary parts
    of one pass's stacked outer products conj(c) c^T and conjugate codewords
    conj(c), D = P*span*Mt*(Mt + 1), kept for the next call."""
    labels, codewords = _pass_codewords(*code)
    k = codewords.shape[0]
    outer = np.conj(codewords)[:, :, :, :, None] * codewords[:, :, :, None, :]
    stacked = np.concatenate((outer.reshape(k, -1), np.conj(codewords).reshape(k, -1)), axis=1)
    return labels, np.ascontiguousarray(np.concatenate((stacked.real, stacked.imag), axis=1).T)


def product_features(*code):
    """decoder._candidates as it was first written, for code (constellation,
    rotation_angles, num_states, code_paths, step, offset): the [8*P*span, K]
    feature table of one pass, from product_rows labels through group_codewords."""
    _, codewords = _pass_codewords(*code)
    k = codewords.shape[0]
    r0, i0, r1, i1 = np.moveaxis(codewords.view(float), 0, -1).reshape(-1, 4, k).swapaxes(0, 1)
    rows = [r0 * r0 + i0 * i0, r1 * r1 + i1 * i1, 2.0 * (r0 * r1 + i0 * i1),
            2.0 * (i0 * r1 - r0 * i1), r0, i0, r1, i1]
    return np.stack(rows, axis=1).reshape(-1, k)


def seed_tree_rng(master_seed: int, snr_index: int, block_index: int, stream: int,
                  scenario_key: int | None = None) -> np.random.Generator:
    """Generator for one (point, block, stream) node of the seed tree, built
    by numpy's own SeedSequence."""
    spawn = (snr_index, block_index, stream)
    if scenario_key is not None:
        spawn = (scenario_key,) + spawn
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=spawn))


def serial_point(spec, snr_db: float, snr_index: int):
    """run_point as it was before chunks: one block at a time, same stop rule.

    run_point must give the same BerPoint, block for block.  Its generators
    come from seed_tree_rng, not from the harness's seed words.
    """
    scheme = build_scheme(spec)
    key = zlib.crc32(spec.scenario_label.encode("utf-8")) if spec.independent_streams else None
    snr_linear = 10.0 ** (snr_db / 10.0)
    seed = spec.config.master_seed
    bits_total = 0
    errors = 0
    block = 0
    while errors < spec.min_bit_errors and block < spec.max_ofdm_blocks:
        bit_rng = seed_tree_rng(seed, snr_index, block, _STREAM_BITS, key)
        bits = bit_rng.integers(0, 2, size=scheme.bits_per_block, dtype=np.int64)
        codeword = scheme.encode_bits(bits)
        realization = draw_channel(spec.config,
                                   seed_tree_rng(seed, snr_index, block, _STREAM_CHANNEL, key))
        grid = frequency_response(realization, spec.config)
        received = apply(codeword, grid, snr_linear,
                         seed_tree_rng(seed, snr_index, block, _STREAM_NOISE, key),
                         noiseless=spec.noiseless)
        decoded = scheme.decode_bits(received, grid)
        errors += int(np.count_nonzero(decoded != bits))
        bits_total += bits.size
        block += 1
    return BerPoint(snr_db, bits_total, errors)


def demodulate(symbols, constellation: str) -> np.ndarray:
    """Nearest-point hard decision, inverse of modulate on exact points.

    Distance ties go to the point that comes first in the constellation's
    enumeration order, so the decision is deterministic.
    """
    symbols = np.asarray(symbols, dtype=complex)
    points = constellation_points(constellation)
    # argmin returns the first minimal index, which is the tie rule we want.
    return labels_to_bits(np.argmin(np.abs(symbols[:, None] - points[None, :]), axis=1),
                          constellation)


def read_codeword(path) -> np.ndarray:
    """Parse a write_codeword dump back into a (P, num_tx, Nc) array."""
    with open(path) as fh:
        rows = [
            np.array([complex(tok) for tok in line.split(",")])
            for line in fh
            if line.strip()
        ]
    if not rows or len(rows) % NUM_TX != 0:
        raise ValueError(f"expected a multiple of {NUM_TX} non-empty lines")
    widths = {row.size for row in rows}
    if len(widths) != 1:
        raise ValueError("all lines must have the same number of entries")
    return np.array(rows).reshape(len(rows) // NUM_TX, NUM_TX, rows[0].size)


class NonIntegerDelayError(ValueError):
    """A tap delay is not an integer number of sample periods."""


def validate_against_time_domain(taps: np.ndarray, config) -> float:
    """Max deviation between the tone-wise response and a DFT of the taps.

    Places each tap at its integer sample index in a length-Nc impulse
    response and compares the Nc-point DFT against frequency_response.
    Requires every delay to be an integer multiple of the sample period.
    """
    nc = config.num_subcarriers
    sample = config.sample_period_s
    delays = np.asarray(config.delays_s)
    positions = delays / sample
    rounded = np.rint(positions)
    if np.any(np.abs(positions - rounded) > 1e-6):
        raise NonIntegerDelayError(
            f"delays {delays.tolist()} are not integer multiples of {sample} s"
        )
    if np.any(rounded >= nc):
        raise NonIntegerDelayError("delay exceeds the OFDM symbol length")
    grid = frequency_response(taps, config)
    impulse = np.zeros((config.num_states, config.num_rx, config.num_tx, nc), dtype=complex)
    for p in range(config.num_states):
        for l, k in enumerate(rounded[p].astype(int)):
            impulse[p, :, :, k] += taps[p, :, :, l]
    dft = np.fft.fft(impulse, axis=-1)  # [P, Mr, Mt, Nc]
    return float(np.max(np.abs(np.moveaxis(dft, -1, 1) - grid.response)))
