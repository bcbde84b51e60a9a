"""Correctness checks of the program's outputs, made against reference.py.

Each check returns a list of problems; an empty list means it holds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import reference
from qosf import harness
from qosf.channel import apply, draw_channel, frequency_response

# run_point's sub-stream ids under each (point, block) node of the seed tree.
STREAM_BITS, STREAM_CHANNEL, STREAM_NOISE = 0, 1, 2

# Bound check: bits of one block share one channel draw, so errors cluster
# and the variance of an error count exceeds the binomial one by a design
# effect.  Per-block counts gave 2-10 on these configs; the check allows 16.
DESIGN_EFFECT = 16.0
Z = 4.0
MFB_DRAWS = 100_000
MFB_SEED = 20_150_811
MRC_DRAWS = 200_000
# Metric gap below which two candidates count as a floating-point tie.
TIE_TOL = 1e-9


def ref_code(spec) -> reference.RefCode:
    """The reference model of the code a spec runs, from its config fields."""
    cfg = spec.config
    if spec.scheme == harness.SCHEME_ALAMOUTI:
        states, depth, angles = 1, 1, ()
    else:
        states, depth, angles = cfg.num_states, cfg.num_paths, cfg.rotation_angles
    return reference.RefCode(
        num_states=states, code_paths=depth, angles=tuple(angles),
        constellation=cfg.constellation, delays_s=cfg.delays_s[:states],
        path_powers=cfg.path_powers[:states], spacing_hz=1.0 / cfg.symbol_duration_s,
        num_rx=cfg.num_rx, num_subcarriers=cfg.num_subcarriers)


def check_counts(spec, rows, bits_per_block: int):
    """Row per SNR point; bits whole blocks; errors <= bits; stop rule obeyed."""
    problems = []
    snrs = tuple(snr for snr, _, _ in rows)
    if snrs != spec.snr_db_points:
        problems.append(f"{spec.scenario_label}: rows at {snrs}, expected {spec.snr_db_points}")
    for snr, bits, errors in rows:
        where = f"{spec.scenario_label} at {snr} dB"
        blocks, rest = divmod(bits, bits_per_block)
        if bits <= 0 or rest:
            problems.append(f"{where}: {bits} bits is not a whole number of blocks")
        if not 0 <= errors <= bits:
            problems.append(f"{where}: {errors} errors in {bits} bits")
        if blocks > spec.max_ofdm_blocks:
            problems.append(f"{where}: {blocks} blocks over the cap {spec.max_ofdm_blocks}")
        elif errors < spec.min_bit_errors and blocks != spec.max_ofdm_blocks:
            problems.append(f"{where}: stopped at {blocks} blocks with {errors} errors")
    return problems


def check_bound(spec, rows):
    """No BPSK point's BER below its matched-filter bound by more than the slack.

    Slack: Z standard deviations of the bound's error count with the
    design effect above, plus Z standard errors of the bound itself.  Checked
    per point, and pooled over the spec's points, which has the power to
    catch a shift that 200-error points alone cannot show.
    """
    if spec.config.constellation != "bpsk":
        return []
    gains = ref_code(spec).unit_gains(MFB_DRAWS, MFB_SEED)
    problems = []
    expected = variance = bound_err = errors_total = 0.0
    for snr, bits, errors in rows:
        bound, stderr = reference.mfb_ber(gains, snr)
        spread = math.sqrt(DESIGN_EFFECT * bits * bound * (1 - bound))
        floor = bits * bound - Z * (spread + bits * stderr)
        if errors < floor:
            problems.append(
                f"{spec.scenario_label} at {snr} dB: {errors} errors in {bits} bits, "
                f"below the bound's {bits * bound:.1f} less slack ({floor:.1f})")
        expected += bits * bound
        variance += spread ** 2
        bound_err += bits * stderr
        errors_total += errors
    floor = expected - Z * (math.sqrt(variance) + bound_err)
    if errors_total < floor:
        problems.append(
            f"{spec.scenario_label}: {errors_total:.0f} errors over all points, below "
            f"the bound's {expected:.1f} less slack ({floor:.1f})")
    return problems


def production_block(spec, snr_index: int, block: int):
    """Bits, codeword, channel grid and received block exactly as run_point draws them."""
    cfg = spec.config
    seed = cfg.master_seed
    scheme = harness.build_scheme(spec)
    snr_linear = 10.0 ** (spec.snr_db_points[snr_index] / 10.0)
    bits = harness.block_rng(seed, snr_index, block, STREAM_BITS).integers(
        0, 2, size=scheme.bits_per_block, dtype=np.int64)
    codeword = scheme.encode_bits(bits)
    realization = draw_channel(cfg, harness.block_rng(seed, snr_index, block, STREAM_CHANNEL))
    grid = frequency_response(realization, cfg)
    received = apply(codeword, grid, snr_linear,
                     harness.block_rng(seed, snr_index, block, STREAM_NOISE),
                     noiseless=spec.noiseless)
    return scheme, bits, codeword, grid, received


def check_decoder(spec, rows, bits_per_block: int, samples: int, sample_seed):
    """On sampled production blocks: reference codeword == encode, and the
    reference exhaustive argmin == decode (up to floating-point ties).

    sample_seed picks which (SNR point, block) pairs are re-run.
    """
    ref = ref_code(spec)
    cands = ref.candidates()
    q = reference.constellation(ref.constellation).size
    weights = q ** np.arange(2 * ref.pl - 1, -1, -1)
    rng = np.random.default_rng(sample_seed)
    problems = []
    for _ in range(samples):
        i = int(rng.integers(len(rows)))
        b = int(rng.integers(rows[i][1] // bits_per_block))
        where = f"{spec.scenario_label} at {rows[i][0]} dB, block {b}"
        scheme, bits, codeword, grid, received = production_block(spec, i, b)
        if not np.allclose(codeword.states, ref.codeword(bits), rtol=0, atol=1e-12):
            problems.append(f"{where}: encode differs from the reference codeword")
        decoded = scheme.decode_bits(received, grid)
        labels, metrics = ref.ml_labels(received.samples, grid.response, received.snr_linear, cands)
        expected = reference.labels_to_bits(labels.ravel(), ref.constellation)
        if decoded.shape != expected.shape:
            problems.append(f"{where}: decode gave {decoded.shape} bits, expected {expected.shape}")
            continue
        if np.array_equal(decoded, expected):
            continue
        got = reference.bits_to_labels(decoded, ref.constellation).reshape(labels.shape) @ weights
        rows_idx = np.arange(metrics.shape[0])
        best = metrics.min(axis=1)
        gap = metrics[rows_idx, got] - best
        worse = np.flatnonzero(gap > TIE_TOL * np.maximum(1.0, best))
        if worse.size:
            problems.append(f"{where}: decode is not the ML decision in groups {worse.tolist()}")
    return problems


def check_noiseless(spec, blocks: int = 4):
    """Noiseless blocks through the production loop decode with zero errors."""
    quiet = dataclasses.replace(spec, noiseless=True, max_ofdm_blocks=blocks)
    problems = []
    for i, snr in enumerate(spec.snr_db_points):
        point = harness.run_point(quiet, snr, i)
        if point.bit_errors:
            problems.append(f"{spec.scenario_label} noiseless at {snr} dB: "
                            f"{point.bit_errors} errors in {point.bits_simulated} bits")
    return problems


def check_bound_helper():
    """The bound helper on a flat P=1, L=1 code is exact 2-branch MRC."""
    flat = reference.RefCode(
        num_states=1, code_paths=1, angles=(), constellation="bpsk",
        delays_s=((0.0,),), path_powers=((1.0,),), spacing_hz=1.0 / 128e-6,
        num_rx=1, num_subcarriers=2)
    gains = flat.unit_gains(MRC_DRAWS, MFB_SEED)
    problems = []
    for snr in (6.0, 10.0, 14.0):
        bound, stderr = reference.mfb_ber(gains, snr)
        exact = reference.mrc_two_branch_ber(snr)
        if abs(bound - exact) > Z * stderr:
            problems.append(f"bound helper at {snr} dB: {bound:.4e} vs closed-form MRC "
                            f"{exact:.4e} (stderr {stderr:.1e})")
    return problems
