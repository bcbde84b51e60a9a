"""End-to-end acceptance checks.

Every test prints a single PASS/FAIL line outside pytest's capture, so a full
run doubles as a checklist.  The Monte Carlo comparisons share module-scope
fixtures with fixed seeds; results are bit-for-bit reproducible.  The whole
module takes a few minutes on one core, dominated by the 14 dB delay-spread
point.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import optimize, special, stats

from oracles import two_product_decode
from qosf import SystemConfig
from qosf.channel import ChannelFrequencyGrid, ReceivedBlock, apply, draw_channel, frequency_response
from qosf.cli import main as cli_main
from qosf.codec import build_theta, encode, group_codewords
from qosf.config import config_to_dict
from qosf.core import BPSK, QPSK, constellation_points, modulate, product_rows
from qosf.decoder import DECOUPLED, EXHAUSTIVE, decode
from qosf.angleopt import coding_gain_metric, optimize_angles
from qosf.harness import SweepSpec, estimate_diversity_order, run_sweep, scenario_spec, snr_at_ber

REFERENCE_ANGLES = (np.pi / 4, np.pi / 2, 3 * np.pi / 4)

# Nc=8 system used by the exactness checks: two groups, 16 us samples,
# second tap exactly two samples in.
CFG8 = SystemConfig(num_subcarriers=8, cp_len=2, delays_s=(0.0, 3.2e-5))

# Single-pair system (one Alamouti block per state) whose 16-candidate
# search space can be enumerated against the decoder.
CFG_PAIR = SystemConfig(
    num_states=2,
    num_paths=1,
    num_subcarriers=2,
    cp_len=1,
    delays_s=((0.0,), (0.0,)),
    path_powers=((1.0,), (1.0,)),
    rotation_angles=(np.pi / 2,),
)


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# --- shared Monte Carlo fixtures ----------------------------------------


@pytest.fixture(scope="module")
def comparison_sweeps():
    """BER curves for the three schemes under common random numbers.

    All grids start at 0 dB in 1 dB steps so a given SNR lands on the same
    stream index in every scenario.  Each code is swept until its curve
    falls below 1e-4 (the slope window ends there) or, for the weakest
    baseline, until its 1e-3 crossing is bracketed.
    """
    def sweep(name, top):
        spec = scenario_spec(
            name,
            SystemConfig(),
            snr_db_points=tuple(float(s) for s in range(top + 1)),
            min_bit_errors=200,
            max_ofdm_blocks=100_000,
        )
        return run_sweep(spec, workers=1)

    start = time.perf_counter()
    out = {name: sweep(name, top) for name, top in
           (("proposed", 12), ("qosf-p1", 15), ("alamouti-sf", 16))}
    out["wall_s"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def delay_spread_points():
    """Proposed-code BER at 14 dB for 20 us and 5 us delay spreads."""
    base = SystemConfig()
    short = dataclasses.replace(base, delays_s=(0.0, 5e-6))

    def point(cfg, label):
        spec = SweepSpec(
            config=cfg,
            snr_db_points=(14.0,),
            min_bit_errors=200,
            max_ofdm_blocks=400_000,
            scenario_label=label,
        )
        return run_sweep(spec, workers=1).points[0]

    return {"tau20": point(base, "tau20"), "tau5": point(short, "tau5")}


# --- exact algebraic checks ---------------------------------------------


def _hand_codeword(sym, angles, kappa):
    """Spell out every matrix entry of the two per-state blocks by hand."""
    e1, e2, e3 = [np.exp(1j * t) for t in angles]
    out = np.zeros((2, 2, 8), dtype=complex)
    for g in range(2):
        s1, s2, s3, s4, s5, s6, s7, s8 = sym[8 * g : 8 * g + 8]
        combined = [
            kappa * (s1 + e1 * s3 + e2 * s5 + e3 * s7),
            kappa * (s2 + e1 * s4 + e2 * s6 + e3 * s8),
            kappa * (s1 - e1 * s3 + e2 * s5 - e3 * s7),
            kappa * (s2 - e1 * s4 + e2 * s6 - e3 * s8),
            kappa * (s1 + e1 * s3 - e2 * s5 - e3 * s7),
            kappa * (s2 + e1 * s4 - e2 * s6 - e3 * s8),
            kappa * (s1 - e1 * s3 - e2 * s5 + e3 * s7),
            kappa * (s2 - e1 * s4 - e2 * s6 + e3 * s8),
        ]
        col = 4 * g
        for p in range(2):
            a, b = combined[4 * p], combined[4 * p + 1]
            c, d = combined[4 * p + 2], combined[4 * p + 3]
            out[p, 0, col + 0] = a
            out[p, 1, col + 0] = b
            out[p, 0, col + 1] = -np.conj(b)
            out[p, 1, col + 1] = np.conj(a)
            out[p, 0, col + 2] = c
            out[p, 1, col + 2] = d
            out[p, 0, col + 3] = -np.conj(d)
            out[p, 1, col + 3] = np.conj(c)
    return out


def test_criterion_01_codeword_exactness(capsys):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for name in (BPSK, QPSK):
        cfg = dataclasses.replace(CFG8, constellation=name)
        bits_per = 16 * (1 if name == BPSK else 2)
        for _ in range(100):
            sym = modulate(rng.integers(0, 2, bits_per), name)
            got = encode(sym, cfg).states
            want = _hand_codeword(sym, cfg.rotation_angles, 0.5)
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(
        capsys, 1, "codeword exactness",
        ok, f"max |encoder - hand-coded| = {worst:.2e} over 200 blocks in {elapsed:.2f} s",
    )


def test_criterion_02_rate_one(capsys):
    cfg = SystemConfig()
    symbols = modulate(np.arange(256) % 2, BPSK)
    states = encode(symbols, cfg).states
    slots = cfg.num_states * cfg.num_subcarriers
    filled = int(np.count_nonzero(np.abs(states).sum(axis=1) > 1e-9))
    ok = (
        symbols.size == 256
        and slots == 256
        and states.shape == (2, 2, 128)
        and filled == slots
        and cfg.num_groups * cfg.group_span == cfg.num_subcarriers
    )
    _verdict(
        capsys, 2, "rate one",
        ok, f"256 symbols -> {filled}/{slots} tone-state slots carry energy, no padding",
    )


def test_criterion_03_theta_properties(capsys):
    theta = build_theta(REFERENCE_ANGLES, 4)
    gram_dev = float(np.max(np.abs(theta.conj().T @ theta - 4 * np.eye(4))))
    worst = 0.0
    count = 0
    for pattern in np.ndindex(*(2,) * 8):
        d = 2.0 * np.array(pattern, dtype=float)
        if not d.any():
            continue
        count += 1
        rotated = np.concatenate([theta @ d[0::2], theta @ d[1::2]])
        worst = max(worst, abs(np.linalg.norm(rotated) - 2.0 * np.linalg.norm(d)))
    ok = gram_dev <= 1e-12 and worst <= 1e-12 and count == 255
    _verdict(
        capsys, 3, "combiner properties",
        ok, f"|theta^H theta - 4I| = {gram_dev:.2e}; norm deviation {worst:.2e} on {count} difference vectors",
    )


def test_criterion_04_noiseless_end_to_end(capsys):
    cfg = SystemConfig()
    start = time.perf_counter()
    errors = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        bits = rng.integers(0, 2, 256)
        grid = frequency_response(draw_channel(cfg, rng), cfg)
        received = apply(encode(modulate(bits, BPSK), cfg), grid, 10.0, rng, noiseless=True)
        errors += int(np.sum(decode(received, grid, cfg) != bits))
    elapsed = time.perf_counter() - start
    ok = errors == 0 and elapsed < 30.0
    _verdict(
        capsys, 4, "noiseless end to end",
        ok, f"{errors} bit errors over 1000 random channels in {elapsed:.1f} s",
    )


def test_criterion_05_ml_optimality(capsys):
    # Brute force outside the decoder: push every candidate block through
    # the channel model and keep the smallest residual.
    trials = 10_000
    rng = np.random.default_rng(99)
    tuples = product_rows(constellation_points(BPSK), 4)
    cands = np.stack(
        [encode(t, CFG_PAIR).states for t in tuples]
    )  # [16, P, num_tx, Nc]
    snr = 1.0
    scale = np.sqrt(snr / 2)

    taps = (rng.standard_normal((trials, 2, 1, 2)) + 1j * rng.standard_normal((trials, 2, 1, 2))) / np.sqrt(2)
    response = np.repeat(taps[:, :, None, :, :], 2, axis=2)  # flat across both tones
    true_idx = rng.integers(0, 16, size=trials)
    sent = cands[true_idx]
    clean = scale * np.einsum("tpnji,tpin->tpnj", response, sent)
    noise = (rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)) / np.sqrt(2)
    received = clean + noise

    predicted = scale * np.einsum("tpnji,kpin->tkpnj", response, cands)
    metrics = np.sum(np.abs(received[:, None] - predicted) ** 2, axis=(2, 3, 4))
    brute = np.argmin(metrics, axis=1)

    violations = 0
    weights = 1 << np.arange(3, -1, -1)
    for t in range(trials):
        bits = decode(
            ReceivedBlock(samples=received[t], snr_linear=snr),
            ChannelFrequencyGrid(response=response[t]),
            CFG_PAIR,
        )
        if int(bits @ weights) != brute[t]:
            violations += 1
    ok = violations == 0
    _verdict(
        capsys, 5, "ML optimality",
        ok, f"{violations} argmin mismatches over {trials} noisy blocks",
    )


def test_sphere_search_matches_the_two_product_oracle_at_size():
    # Criterion 5 checks the product path.  Here the sphere search decides
    # 1,000 P=2 QPSK exhaustive blocks (65,536 candidates per group) from -3
    # to 18 dB, batched five to a call as the harness batches them, exactly
    # as the oracle's argmin over every candidate does.
    cfg = SystemConfig(constellation=QPSK)
    rng = np.random.default_rng(1000)
    batch, count = 5, cfg.num_groups * cfg.symbols_per_group * 2
    mismatches = blocks = 0
    for snr_db in (-3.0, 0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0):
        snr = 10 ** (snr_db / 10)
        for _ in range(125 // batch):
            symbols = modulate(rng.integers(0, 2, batch * count), QPSK).reshape(batch, -1)
            grid = frequency_response(draw_channel(cfg, [rng] * batch), cfg)
            received = apply(encode(symbols, cfg), grid, snr, [rng] * batch)
            decoded = decode(received, grid, cfg)
            for b in range(batch):
                oracle = two_product_decode(ReceivedBlock(received.samples[b], snr),
                                            ChannelFrequencyGrid(grid.response[b]), cfg)
                mismatches += not np.array_equal(decoded[b], oracle)
                blocks += 1
    assert (blocks, mismatches) == (1000, 0)


def test_criterion_06_decoupled_equals_exhaustive(capsys):
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(1000):
        half = (rng.standard_normal((2, 4, 1, 2)) + 1j * rng.standard_normal((2, 4, 1, 2))) / np.sqrt(2)
        grid = ChannelFrequencyGrid(response=np.repeat(half, 2, axis=1))
        bits = rng.integers(0, 2, 16)
        received = apply(encode(modulate(bits, BPSK), CFG8), grid, 4.0, rng)
        a = decode(received, grid, CFG8, mode=EXHAUSTIVE)
        b = decode(received, grid, CFG8, mode=DECOUPLED)
        mismatches += int(np.any(a != b))
    ok = mismatches == 0
    _verdict(
        capsys, 6, "decoupled equals exhaustive",
        ok, f"{mismatches} differing blocks over 1000 pairwise-equal channels",
    )


# --- Monte Carlo comparisons --------------------------------------------


# Channel draws per code for the matched-filter bound; at BER 1e-3 the bound's
# crossing then carries about 0.01-0.02 dB of Monte Carlo error.
MFB_DRAWS = 200_000


def _unit_symbol_gains(config, draws, seed):
    """Per-draw ||H c(e_k)||^2 / num_tx for every symbol position k of a group.

    c(e_k) is the group codeword carrying a unit symbol at position k and
    zeros elsewhere; L is the code's depth (code_paths).  Taps, num_paths per
    state, are drawn here from the configured profile, apart from the
    program's channel module, and evaluated on the group's 2L tones only: the
    response is wide-sense stationary across tones, so every group sees the
    same statistics.  Returns an array of shape [draws, 2PL].
    BPSK only: a real symbol scales c(e_k), a complex one does not (the
    Alamouti layout conjugates half the entries).
    """
    assert config.constellation == BPSK
    theta = build_theta(config.rotation_angles, config.pl)
    unit = group_codewords(
        np.eye(config.symbols_per_group), theta, config.num_states, config.code_paths
    )  # [K, P, 2L, num_tx]
    tones = np.arange(config.group_span)
    delays = np.asarray(config.delays_s)[:, :, None]  # [P, taps, 1]
    twiddle = np.exp(-2j * np.pi * config.subcarrier_spacing_hz * delays * tones)
    sigma = np.sqrt(np.asarray(config.path_powers) / 2)[:, None, None, :]  # per real part
    rng = np.random.default_rng(seed)
    chunk = 25_000  # keeps the [chunk, 2PL, P, 2L, num_rx] product near 25 MB
    gains = []
    for start in range(0, draws, chunk):
        shape = (min(chunk, draws - start), config.num_states, config.num_rx,
                 config.num_tx, config.num_paths)
        taps = sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        response = np.einsum("dpjil,pln->dpnji", taps, twiddle)
        rx = np.einsum("dpnji,kpni->dkpnj", response, unit)
        gains.append(np.sum(np.abs(rx) ** 2, axis=(2, 3, 4)) / config.num_tx)
    return np.concatenate(gains)


def _mfb_ber(gains, snr_db):
    """Matched-filter bound on BPSK BER at one SNR, and its standard error.

    A genie reveals every symbol but s_k.  Deciding s_k = +-1 from
    y = sqrt(gamma / num_tx) H c + z, with z unit-variance circular Gaussian,
    then errs with probability Q(sqrt(2 gamma g_k)), g_k = ||H c(e_k)||^2 / num_tx,
    and no detector without the genie does better.  The bound averages that
    over symbol positions and channel draws.
    """
    per_draw = special.ndtr(-np.sqrt(2 * 10 ** (snr_db / 10) * gains)).mean(axis=1)
    return float(per_draw.mean()), float(per_draw.std(ddof=1) / np.sqrt(per_draw.size))


def _mfb_crossing(gains, target):
    """SNR in dB where the bound reaches target, and its 1-sigma error in dB."""
    snr = optimize.brentq(lambda s: _mfb_ber(gains, s)[0] - target, -10.0, 40.0, xtol=1e-6)
    slope = (_mfb_ber(gains, snr + 0.05)[0] - _mfb_ber(gains, snr - 0.05)[0]) / 0.1
    return snr, _mfb_ber(gains, snr)[1] / abs(slope)


def _crossing_sigma(points, target):
    """1-sigma Monte Carlo error of snr_at_ber(points, target), in dB.

    A point with e errors has a binomial error of sqrt((1 - ber) / e) / ln 10
    in log10 BER.  snr_at_ber interpolates linearly in log10 BER between the
    two points that bracket the target, so their errors, weighted by the
    interpolation fraction, divide by the local slope in decades per dB.
    """
    snr = snr_at_ber(points, target)
    usable = [p for p in points if p.ber > 0]
    a, b = next((a, b) for a, b in zip(usable, usable[1:]) if a.snr_db <= snr <= b.snr_db)
    frac = (snr - a.snr_db) / (b.snr_db - a.snr_db)
    slope = np.log10(b.ber / a.ber) / (b.snr_db - a.snr_db)
    sigma_a, sigma_b = (np.sqrt((1 - p.ber) / p.bit_errors) / np.log(10) for p in (a, b))
    return float(np.hypot((1 - frac) * sigma_a, frac * sigma_b) / abs(slope))


def test_criterion_07_relative_gain(capsys, comparison_sweeps):
    # The paper claims the gain over earlier SF codes without a dB figure.
    # The P=1 gap is held to the gap between the two codes' matched-filter
    # bounds on this channel (no detector crosses 1e-3 left of its code's
    # bound), less twice the combined Monte Carlo error of the four crossings.
    target = 1e-3
    coded = ("proposed", "qosf-p1")
    crossings = {
        label: snr_at_ber(comparison_sweeps[label].points, target)
        for label in coded + ("alamouti-sf",)
    }
    bounds, sigmas = {}, {}
    for seed, label in enumerate(coded, start=71):
        gains = _unit_symbol_gains(comparison_sweeps[label].spec.config, MFB_DRAWS, seed)
        bounds[label], bound_sigma = _mfb_crossing(gains, target)
        sigmas[label] = np.hypot(_crossing_sigma(comparison_sweeps[label].points, target), bound_sigma)
    gap_p1 = crossings["qosf-p1"] - crossings["proposed"]
    gap_al = crossings["alamouti-sf"] - crossings["proposed"]
    bound_gap = bounds["qosf-p1"] - bounds["proposed"]
    gap_slack = 2 * np.hypot(sigmas["proposed"], sigmas["qosf-p1"])
    enough = all(
        p.bit_errors >= 200
        for label in coded + ("alamouti-sf",)
        for p in comparison_sweeps[label].points
    )
    failures = {
        "gap to P=1 below bound gap - slack": gap_p1 < bound_gap - gap_slack,
        "P=2 crossing left of its bound - slack":
            crossings["proposed"] < bounds["proposed"] - 2 * sigmas["proposed"],
        "P=1 crossing left of its bound - slack":
            crossings["qosf-p1"] < bounds["qosf-p1"] - 2 * sigmas["qosf-p1"],
        "gap to Alamouti below 4 dB": gap_al < 4.0,
        "a point has fewer than 200 errors": not enough,
        "sweeps took over 900 s": comparison_sweeps["wall_s"] > 900,
    }
    failed = [name for name, hit in failures.items() if hit]
    _verdict(
        capsys, 7, "relative gain at 1e-3",
        not failed,
        f"P=2 crosses at {crossings['proposed']:.2f} dB (bound {bounds['proposed']:.2f}, "
        f"slack {2 * sigmas['proposed']:.2f}), P=1 at {crossings['qosf-p1']:.2f} dB "
        f"(bound {bounds['qosf-p1']:.2f}, slack {2 * sigmas['qosf-p1']:.2f}); "
        f"gap to P=1 {gap_p1:.2f} dB (need >= bound gap {bound_gap:.2f} - slack "
        f"{gap_slack:.2f} = {bound_gap - gap_slack:.2f}), to Alamouti {gap_al:.2f} dB "
        f"(need >= 4); " + ("failed: " + ", ".join(failed) if failed else "every clause holds"),
    )


def test_criterion_08_delay_spread_ordering(capsys, delay_spread_points):
    long_p = delay_spread_points["tau20"]
    short_p = delay_spread_points["tau5"]
    test = stats.binomtest(
        long_p.bit_errors, long_p.bits_simulated, short_p.ber, alternative="less"
    )
    ok = (
        long_p.ber < short_p.ber
        and test.pvalue < 0.05
        and long_p.bit_errors >= 200
        and short_p.bit_errors >= 200
    )
    _verdict(
        capsys, 8, "delay-spread ordering",
        ok,
        f"BER at 14 dB: tau20 {long_p.ber:.3e} vs tau5 {short_p.ber:.3e} "
        f"(one-sided p = {test.pvalue:.1e})",
    )


def test_criterion_09_diversity_slope(capsys, comparison_sweeps):
    def window(result):
        return [p for p in result.points if p.ber >= 1e-4][-3:]

    w2 = window(comparison_sweeps["proposed"])
    w1 = window(comparison_sweeps["qosf-p1"])
    order2 = estimate_diversity_order(w2, window=3)
    order1 = estimate_diversity_order(w1, window=3)
    ratio = order2 / order1
    ok = len(w2) == 3 and len(w1) == 3 and ratio >= 1.5
    _verdict(
        capsys, 9, "diversity slope",
        ok,
        f"P=2 order {order2:.2f} over {[p.snr_db for p in w2]} dB vs "
        f"P=1 order {order1:.2f} over {[p.snr_db for p in w1]} dB; ratio {ratio:.2f} (need >= 1.5)",
    )


def test_criterion_10_angle_optimizer(capsys):
    start = time.perf_counter()
    report = optimize_angles(BPSK, 4, resolution=np.pi / 36)
    elapsed = time.perf_counter() - start
    reference = coding_gain_metric(REFERENCE_ANGLES, BPSK, 4)
    ok = report.metric_value >= reference - 1e-12 and elapsed <= 120.0
    _verdict(
        capsys, 10, "angle optimizer",
        ok,
        f"search metric {report.metric_value:.6f} vs reference angles {reference:.6f} "
        f"in {elapsed:.1f} s",
    )


def test_criterion_11_byte_identical_reproducibility(capsys, tmp_path):
    cfg_path = tmp_path / "system.json"
    cfg_path.write_text(json.dumps(config_to_dict(SystemConfig())))
    outputs = []
    for workers, name in ((1, "a.csv"), (2, "b.csv")):
        out = tmp_path / name
        result = CliRunner().invoke(
            cli_main,
            [
                "simulate", "--config", str(cfg_path), "--snr", "0,2,4",
                "--out", str(out), "--min-errors", "50", "--max-blocks", "500",
                "--workers", str(workers),
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _verdict(
        capsys, 11, "byte-identical reproducibility",
        ok, f"worker counts 1 and 2 produced {'identical' if ok else 'different'} files "
        f"({len(outputs[0])} bytes)",
    )


# --- cross-scheme sanity under shared randomness -------------------------


def test_baseline_ordering_under_shared_randomness(comparison_sweeps):
    # With matched seeds each extra diversity mechanism can only help: the
    # proposed code upper-bounds neither baseline anywhere at or above 8 dB.
    by_snr = {}
    for label in ("proposed", "qosf-p1", "alamouti-sf"):
        for p in comparison_sweeps[label].points:
            by_snr.setdefault(p.snr_db, {})[label] = p.ber
    checked = 0
    for snr, bers in sorted(by_snr.items()):
        if snr < 8.0 or len(bers) < 3:
            continue
        checked += 1
        assert bers["proposed"] <= bers["qosf-p1"] <= bers["alamouti-sf"], (snr, bers)
    assert checked >= 4


def test_matched_filter_bound_matches_two_branch_mrc():
    # On a flat channel the P=1, L=1 code is plain Alamouti, which is exact
    # 2-branch maximal-ratio combining at gamma/2 per branch.  Its BPSK BER
    # has the closed form ((1 - mu) / 2)^2 * (1 + 2 (1 + mu) / 2) with
    # mu = sqrt(g / (1 + g)) (Proakis, Digital Communications, L-branch MRC).
    flat = SystemConfig(
        num_states=1,
        num_paths=1,
        num_subcarriers=2,
        cp_len=1,
        delays_s=((0.0,),),
        path_powers=((1.0,),),
        rotation_angles=(),
    )
    gains = _unit_symbol_gains(flat, MFB_DRAWS, seed=73)
    for snr_db in (6.0, 10.0, 14.0):
        branch = 10 ** (snr_db / 10) / 2
        mu = np.sqrt(branch / (1 + branch))
        exact = ((1 - mu) / 2) ** 2 * (1 + 2 * (1 + mu) / 2)
        bound, stderr = _mfb_ber(gains, snr_db)
        assert abs(bound - exact) <= 4 * stderr, (snr_db, bound, exact, stderr)
