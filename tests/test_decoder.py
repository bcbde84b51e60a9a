import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qosf.channel import (
    ChannelFrequencyGrid, ReceivedBlock, apply, draw_channel, frequency_response,
)
from qosf.codec import build_theta, encode
from qosf.core import (
    BPSK, QPSK, CapExceededError, bits_per_symbol, constellation_points, modulate, product_rows,
)
from oracles import (
    GROUP_DECODERS, axis_sum_coefficients, decoupled_ml_decode_group, demodulate,
    einsum_coefficients, group_observation,
    labels_to_bits, ml_decode_group, product_features, two_product_decode,
)
from qosf import SystemConfig
from qosf.config import TONE_BYTES
from qosf import decoder
from qosf.decoder import DECOUPLED, EXHAUSTIVE, candidates_per_pass, decode
from qosf import harness
from qosf.harness import SCENARIOS, SweepSpec, _chunk_cap, scenario_spec
from qosf.schemes import alamouti_variant, p1_variant


def _transmit(cfg, rng, snr_linear=10.0, noiseless=False, grid=None):
    count = cfg.num_groups * cfg.symbols_per_group * bits_per_symbol(cfg.constellation)
    bits = rng.integers(0, 2, count)
    cw = encode(modulate(bits, cfg.constellation), cfg)
    if grid is None:
        grid = frequency_response(draw_channel(cfg, rng), cfg)
    received = apply(cw, grid, snr_linear, rng, noiseless=noiseless)
    return bits, received, grid


def test_enumerate_symbol_tuples_lexicographic():
    # The decoder's candidate order: every tuple of constellation points,
    # first position most significant.
    tuples = product_rows(constellation_points(BPSK), 2)
    npt.assert_array_equal(tuples, [[1, 1], [1, -1], [-1, 1], [-1, -1]])
    assert product_rows(constellation_points(QPSK), 3).shape == (64, 3)


def test_noiseless_recovery(small_config):
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits, received, grid = _transmit(small_config, rng, noiseless=True)
        npt.assert_array_equal(decode(received, grid, small_config), bits)


def test_noiseless_recovery_decoupled(small_config):
    rng = np.random.default_rng(1)
    for _ in range(50):
        bits, received, grid = _transmit(small_config, rng, noiseless=True)
        npt.assert_array_equal(
            decode(received, grid, small_config, mode=DECOUPLED), bits
        )


def test_group_observation_slices_window(small_config):
    rng = np.random.default_rng(2)
    _, received, grid = _transmit(small_config, rng)
    obs = group_observation(received, grid, small_config, 1)
    npt.assert_array_equal(obs.received, received.samples[:, 4:8])
    npt.assert_array_equal(obs.response, grid.response[:, 4:8])
    assert obs.span == 4 and obs.num_states == 2
    with pytest.raises(ValueError):
        group_observation(received, grid, small_config, 2)


def test_batched_decode_matches_group_decoder(small_config):
    # decode() runs one vectorized search over all groups; it must agree
    # bit for bit with the straightforward per-group routine, also for the
    # depth-one code (Alamouti-SF) over the two-tap channel, for QPSK and
    # with two receive antennas.  The per-group exhaustive search of P=2 QPSK
    # (65,536 candidates built one at a time) is too slow to run here.
    rng = np.random.default_rng(3)
    qpsk = dataclasses.replace(small_config, constellation=QPSK)
    cases = [(small_config, GROUP_DECODERS), (alamouti_variant(small_config), GROUP_DECODERS),
             (qpsk, {DECOUPLED: decoupled_ml_decode_group}),
             (p1_variant(qpsk), GROUP_DECODERS), (alamouti_variant(qpsk), GROUP_DECODERS),
             (dataclasses.replace(small_config, num_rx=2), GROUP_DECODERS),
             (p1_variant(dataclasses.replace(qpsk, num_rx=2)), GROUP_DECODERS)]
    for cfg, group_decoders in cases:
        theta = build_theta(cfg.rotation_angles, cfg.pl)
        for mode, group_fn in group_decoders.items():
            for _ in range(20):
                bits, received, grid = _transmit(cfg, rng, snr_linear=3.0)
                fast = decode(received, grid, cfg, mode=mode)
                slow = []
                for g in range(cfg.num_groups):
                    obs = group_observation(received, grid, cfg, g)
                    symbols = group_fn(obs, theta, cfg.constellation)
                    slow.append(demodulate(symbols, cfg.constellation))
                npt.assert_array_equal(fast, np.concatenate(slow))


@pytest.mark.parametrize("constellation", [BPSK, QPSK])
@pytest.mark.parametrize("num_rx", [1, 2])
def test_decode_matches_two_product_metric(constellation, num_rx):
    # decode() scores candidates with one real product over a real feature
    # table; its decisions must equal the two complex products it replaced,
    # on every scenario's code and in both modes.  Blocks per case are few
    # for P=2 QPSK's exhaustive search, whose oracle rebuilds 65,536-entry
    # complex tables on each call.
    rng = np.random.default_rng(10 + num_rx)
    base = SystemConfig(constellation=constellation, num_rx=num_rx)
    for variant, _ in SCENARIOS.values():
        cfg = variant(base)
        for mode in (EXHAUSTIVE, DECOUPLED):
            large = len(constellation_points(constellation)) ** cfg.symbols_per_group > 2 ** 12
            for _ in range(2 if large and mode == EXHAUSTIVE else 10):
                _, received, grid = _transmit(cfg, rng, snr_linear=rng.uniform(0.5, 20.0))
                npt.assert_array_equal(decode(received, grid, cfg, mode=mode),
                                       two_product_decode(received, grid, cfg, mode=mode))


@pytest.mark.parametrize("mode", [EXHAUSTIVE, DECOUPLED])
def test_decode_ties_go_to_the_smallest_tuple(small_config, mode):
    # Over a zero channel every candidate scores exactly 0, so the decision
    # is the tie rule alone: the first tuple, point 0 at every position.
    rng = np.random.default_rng(12)
    for cfg in (small_config, dataclasses.replace(small_config, constellation=QPSK)):
        zero = ChannelFrequencyGrid(response=np.zeros((2, 8, 1, 2), dtype=complex))
        _, received, _ = _transmit(cfg, rng, grid=zero)
        first = labels_to_bits(np.zeros((cfg.num_groups, cfg.symbols_per_group), dtype=int),
                               cfg.constellation)
        npt.assert_array_equal(decode(received, zero, cfg, mode=mode), first)
        npt.assert_array_equal(two_product_decode(received, zero, cfg, mode=mode), first)


def test_ml_matches_brute_force(tiny_config):
    # Independent brute force: enumerate every candidate block, apply the
    # channel by hand, pick the smallest residual.
    rng = np.random.default_rng(4)
    theta = build_theta(tiny_config.rotation_angles, tiny_config.pl)
    tuples = product_rows(constellation_points(BPSK), 4)
    for _ in range(100):
        bits, received, grid = _transmit(tiny_config, rng, snr_linear=2.0)
        obs = group_observation(received, grid, tiny_config, 0)
        symbols = ml_decode_group(obs, theta, BPSK)
        best = None
        for cand in tuples:
            cw = encode(np.concatenate([cand, [1, 1, 1, 1]]), tiny_config)
            pred = np.sqrt(2.0 / 2) * np.einsum(
                "pnji,pin->pnj", grid.response[:, :2], cw.states[:, :, :2]
            )
            m = float(np.sum(np.abs(received.samples[:, :2] - pred) ** 2))
            if best is None or m < best[1]:
                best = (cand, m)
        npt.assert_array_equal(symbols, best[0])


def test_decoupled_equals_exhaustive_on_pairwise_equal_channel(small_config):
    rng = np.random.default_rng(5)
    for _ in range(100):
        half = (rng.standard_normal((2, 4, 1, 2)) + 1j * rng.standard_normal((2, 4, 1, 2))) / np.sqrt(2)
        grid = ChannelFrequencyGrid(response=np.repeat(half, 2, axis=1))
        bits, received, _ = _transmit(small_config, rng, snr_linear=4.0, grid=grid)
        npt.assert_array_equal(
            decode(received, grid, small_config, mode=EXHAUSTIVE),
            decode(received, grid, small_config, mode=DECOUPLED),
        )


def test_decoupled_differs_in_general(small_config):
    # On a generic frequency-selective draw the two search rules are not
    # required to agree; over many noisy trials at low SNR they eventually
    # pick different candidates, which is what makes the previous test
    # meaningful.
    rng = np.random.default_rng(6)
    diffs = 0
    for _ in range(200):
        bits, received, grid = _transmit(small_config, rng, snr_linear=0.5)
        a = decode(received, grid, small_config, mode=EXHAUSTIVE)
        b = decode(received, grid, small_config, mode=DECOUPLED)
        diffs += int(np.any(a != b))
    assert diffs > 0


def test_search_cap(small_config, monkeypatch):
    rng = np.random.default_rng(7)
    _, received, grid = _transmit(small_config, rng)
    monkeypatch.setattr(decoder, "DEFAULT_SEARCH_CAP", 10)
    with pytest.raises(CapExceededError, match="cap is 10$"):
        decode(received, grid, small_config)
    monkeypatch.setattr(decoder, "DEFAULT_SEARCH_CAP", 15)
    with pytest.raises(CapExceededError, match="needs 16 candidates per pass, cap is 15$"):
        decode(received, grid, small_config, mode=DECOUPLED)
    monkeypatch.setattr(decoder, "DEFAULT_SEARCH_CAP", 16)
    decode(received, grid, small_config, mode=DECOUPLED)
    theta = build_theta(small_config.rotation_angles, small_config.pl)
    obs = group_observation(received, grid, small_config, 0)
    with pytest.raises(CapExceededError):
        ml_decode_group(obs, theta, BPSK, cap=255)
    with pytest.raises(CapExceededError):
        decoupled_ml_decode_group(obs, theta, BPSK, cap=15)
    # The decoupled search only ever visits 2 * Q^PL candidates.
    decoupled_ml_decode_group(obs, theta, BPSK, cap=16)


def test_decode_rejects_unknown_mode(small_config):
    rng = np.random.default_rng(8)
    _, received, grid = _transmit(small_config, rng)
    with pytest.raises(ValueError, match="mode"):
        decode(received, grid, small_config, mode="sphere")


def test_decode_output_dtype(small_config):
    rng = np.random.default_rng(9)
    bits, received, grid = _transmit(small_config, rng, noiseless=True)
    out = decode(received, grid, small_config)
    assert out.dtype == np.int64 and out.shape == bits.shape


_FOUR_TAPS = SystemConfig(num_states=1, num_paths=4, num_subcarriers=16, cp_len=6,
                          delays_s=(0.0, 16e-6, 32e-6, 48e-6), path_powers=(0.25,) * 4,
                          rotation_angles=(0.3, 1.1, 2.0))


@pytest.mark.parametrize("which", ["small", "small-rx2", "default", "four-taps"])
@pytest.mark.parametrize("constellation", [BPSK, QPSK])
def test_batch_of_blocks_matches_single_blocks(small_config, which, constellation):
    # B stacked blocks through each stage give the B single-block results
    # bit for bit, each block drawing its taps and noise from its own generators.
    base = {"small": small_config, "small-rx2": dataclasses.replace(small_config, num_rx=2),
            "default": SystemConfig(), "four-taps": _FOUR_TAPS}[which]
    cfg = dataclasses.replace(base, constellation=constellation)
    count = cfg.num_groups * cfg.symbols_per_group * bits_per_symbol(constellation)
    rng = np.random.default_rng(5)
    blocks = 5
    bits = rng.integers(0, 2, (blocks, count))
    taps = draw_channel(cfg, [np.random.default_rng([8, b]) for b in range(blocks)])
    symbols = modulate(bits.reshape(-1), constellation).reshape(blocks, -1)
    cw = encode(symbols, cfg)
    grid = frequency_response(taps, cfg)
    received = apply(cw, grid, 3.0, [np.random.default_rng([9, b]) for b in range(blocks)])
    modes = [DECOUPLED] if (which, constellation) == ("default", QPSK) else [EXHAUSTIVE, DECOUPLED]
    decoded = {mode: decode(received, grid, cfg, mode=mode) for mode in modes}
    for b in range(blocks):
        one_cw = encode(symbols[b], cfg)
        one_taps = draw_channel(cfg, np.random.default_rng([8, b]))
        one_grid = frequency_response(one_taps, cfg)
        one = apply(one_cw, one_grid, 3.0, np.random.default_rng([9, b]))
        npt.assert_array_equal(taps[b], one_taps)
        npt.assert_array_equal(cw.states[b], one_cw.states)
        npt.assert_array_equal(grid.response[b], one_grid.response)
        npt.assert_array_equal(received.samples[b], one.samples)
        for mode in modes:
            npt.assert_array_equal(decoded[mode][b], decode(one, one_grid, cfg, mode=mode))


def test_apply_needs_one_noise_generator_per_block(small_config):
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, (3, 16))
    cw = encode(modulate(bits.reshape(-1), BPSK).reshape(3, -1), small_config)
    grid = frequency_response(np.stack([draw_channel(small_config, rng) for _ in range(3)]),
                              small_config)
    with pytest.raises(ValueError, match="2 noise generators for 3 blocks"):
        apply(cw, grid, 3.0, [np.random.default_rng(b) for b in range(2)])


_PL8_BPSK = SystemConfig(num_paths=4, num_subcarriers=16, cp_len=6,
                         delays_s=(0.0, 16e-6, 32e-6, 48e-6), path_powers=(0.25,) * 4,
                         rotation_angles=(0.3, 1.1, 2.0, 0.7, 2.9, 1.6, 0.4))


@pytest.mark.parametrize("which", ["qpsk", "qpsk-rx2", "bpsk-pl8"])
def test_sphere_search_matches_exhaustive_oracle(which):
    # Passes of 65,536 candidates run the sphere search; its decisions must
    # equal the argmin over every candidate, on noisy blocks from -3 to 18 dB
    # and on noiseless ones.
    cfg = {"qpsk": SystemConfig(constellation=QPSK),
           "qpsk-rx2": SystemConfig(constellation=QPSK, num_rx=2),
           "bpsk-pl8": _PL8_BPSK}[which]
    assert candidates_per_pass(cfg, EXHAUSTIVE) == 2 ** 16
    rng = np.random.default_rng(13)
    for snr_db in (-3, 0, 3, 6, 9, 12, 15, 18, None):
        bits, received, grid = _transmit(cfg, rng, snr_linear=10 ** ((snr_db or 6) / 10),
                                         noiseless=snr_db is None)
        decoded = decode(received, grid, cfg)
        npt.assert_array_equal(decoded, two_product_decode(received, grid, cfg))
        if snr_db is None:
            npt.assert_array_equal(decoded, bits)


@pytest.mark.parametrize("constellation", [BPSK, QPSK])
@pytest.mark.parametrize("num_rx", [1, 2])
def test_sphere_search_matches_product_on_every_small_pass(monkeypatch, small_config,
                                                          constellation, num_rx):
    # Forced onto passes the product runs, the sphere search decides as the
    # product does: every scenario's code, both modes, noisy blocks, and a
    # zero channel, where every candidate ties.
    rng = np.random.default_rng(14 + num_rx)
    base = dataclasses.replace(small_config, constellation=constellation, num_rx=num_rx)
    for variant, _ in SCENARIOS.values():
        cfg = variant(base)
        zero = ChannelFrequencyGrid(
            response=np.zeros((cfg.num_states, 8, num_rx, 2), dtype=complex))
        for mode in (EXHAUSTIVE, DECOUPLED):
            if candidates_per_pass(cfg, mode) > 256:
                continue
            for grid in [zero] + [None] * 8:
                _, received, grid = _transmit(cfg, rng, snr_linear=rng.uniform(0.5, 60.0),
                                              grid=grid)
                product = decode(received, grid, cfg, mode=mode)
                with monkeypatch.context() as patch:
                    patch.setattr(decoder, "_PRODUCT_CANDIDATES", 0)
                    npt.assert_array_equal(decode(received, grid, cfg, mode=mode), product)


def test_sphere_search_ties_past_the_start_leaf_go_to_the_smallest_tuple():
    # Two levels: x1..x4 on top, x0 below, coupled to x4 by l[4, 0].  On top,
    # x1 = x2 = +1 cost nothing, x3 = -1 costs 1 more than +1, and x4 = +1
    # costs 2 more than -1.  So the two best top nodes are tuples 16 (0.8125)
    # and 24 (1.8125), not tuple 0 (2.8125), and the 2-best start reaches
    # leaf 16, which ties with leaf 0 at 3.0625, exactly in binary.  Only a
    # search that keeps nodes at the best distance and compares tuples on
    # equal distances returns 0.
    low = np.eye(5)
    low[4, 0] = 0.5
    z = np.array([2.0, 1.0, 1.0, 0.25, -0.5])
    x = 1.0 - 2.0 * ((np.arange(32)[:, None] >> np.arange(5)) & 1)
    dist = np.sum((z - x @ low) ** 2, axis=1)
    assert np.flatnonzero(dist == dist.min()).tolist() == [0, 16]
    top = np.sum((z[1:] - x[::2, 1:]) ** 2, axis=1)  # tuple 2i's top node is row i
    assert (2 * np.argsort(top)[:3]).tolist() == [16, 24, 0]
    assert decoder._LEVEL_COORDINATES == 4
    assert decoder._sphere_search(low[None], z[None]).tolist() == [0]


def test_batched_sphere_search_matches_single_blocks():
    # One call decodes four P=2 QPSK exhaustive blocks, so the frontier's
    # pieces straddle blocks: a zero channel, where every candidate ties, and
    # channels scaled to 0, 7.5 and 15 dB.  Each block decodes as it does
    # alone, and as the two-product oracle scores it.
    cfg = SystemConfig(constellation=QPSK)
    rng = np.random.default_rng(17)
    blocks = []
    for snr_db in (None, 0.0, 7.5, 15.0):
        grid = frequency_response(draw_channel(cfg, rng), cfg)
        gain = 0.0 if snr_db is None else 10 ** ((snr_db - 10.0) / 20)
        blocks.append(_transmit(cfg, rng, grid=ChannelFrequencyGrid(gain * grid.response))[1:])
    received = ReceivedBlock(np.stack([r.samples for r, _ in blocks]), 10.0)
    grid = ChannelFrequencyGrid(np.stack([g.response for _, g in blocks]))
    decoded = decode(received, grid, cfg)
    for b, (one, one_grid) in enumerate(blocks):
        npt.assert_array_equal(decoded[b], decode(one, one_grid, cfg))
        npt.assert_array_equal(decoded[b], two_product_decode(one, one_grid, cfg))


def test_sphere_search_memory_is_bounded():
    # A P=2 QPSK exhaustive decode of one block, three, and as many as the
    # harness puts in one chunk holds at most 16 MiB, also on a zero channel,
    # where every candidate ties and no node can be pruned, and it caches no
    # table of its 65,536 candidates.  The search runs in slices of groups,
    # so at 6 dB a whole chunk peaks within 25% of three blocks.
    cfg = SystemConfig(constellation=QPSK)
    rng = np.random.default_rng(16)
    decoder._candidates.cache_clear()
    noisy_peaks, cap = {}, _chunk_cap(SweepSpec(config=cfg))
    for count in (1, 3, cap):
        zero = ChannelFrequencyGrid(response=np.zeros((count, 2, 128, 1, 2), dtype=complex))
        noisy = frequency_response(draw_channel(cfg, [rng] * count), cfg)
        first = labels_to_bits(np.zeros((count, cfg.num_groups, cfg.symbols_per_group),
                                        dtype=int), QPSK).reshape(count, -1)
        for grid in (zero, noisy):
            bits = rng.integers(0, 2, (count, first.shape[1]))
            symbols = modulate(bits.reshape(-1), QPSK).reshape(count, -1)
            received = apply(encode(symbols, cfg), grid, 10 ** 0.6, [rng] * count)
            tracemalloc.start()
            try:
                decoded = decode(received, grid, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2 ** 20, (count, peak)
            if grid is zero:
                npt.assert_array_equal(decoded, first)
            else:
                noisy_peaks[count] = peak
    assert max(noisy_peaks) == cap
    assert noisy_peaks[cap] <= 1.25 * noisy_peaks[3], noisy_peaks
    assert decoder._candidates.cache_info().currsize == 0


# Largest metric product, in multiply-adds, timed on one OpenBLAS thread on a
# 2-vCPU host: [192, 19] @ [19, 256], P=2 BPSK exhaustive's second product on
# a 192-row slice, at 37-46 us.  At 256 rows (1,245,184 multiply-adds)
# OpenBLAS took a second thread: 349 us wall and 691 us CPU per product.
_ONE_THREAD_MULADDS = 192 * 19 * 256


@pytest.mark.parametrize("scenario,constellation,mode,num_rx", [
    (scenario, constellation, mode, num_rx)
    for scenario in SCENARIOS for constellation in (BPSK, QPSK)
    for mode in (EXHAUSTIVE, DECOUPLED) for num_rx in (1, 2)
    if scenario != "alamouti-sf" or mode == EXHAUSTIVE])
def test_metric_products_stay_on_one_blas_thread(monkeypatch, scenario, constellation, mode,
                                                 num_rx):
    # Both products of every metric slice of a whole-chunk decode, in every
    # product pass a shipped scenario reaches, stay within the largest size
    # measured on one thread, whatever _METRIC_BYTES and the chunk budget say.
    products = []

    class Counted(np.ndarray):  # a factor that records each product it enters
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            a, b = (np.asarray(x) for x in inputs)
            products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return ufunc(a, b, **kwargs)

    candidates = decoder._candidates
    monkeypatch.setattr(decoder, "_candidates",
                        lambda *code: tuple(f.view(Counted) for f in candidates(*code)))
    config = SystemConfig(constellation=constellation, num_rx=num_rx)
    spec = scenario_spec(scenario, config, decoder_mode=mode)
    words = harness.seed_words(spec.config.master_seed, 0, 0, _chunk_cap(spec))
    harness._chunk_errors(spec, harness.build_scheme(spec), 10.0, words)
    assert products or candidates_per_pass(spec.config, mode) > decoder._PRODUCT_CANDIDATES
    assert max(products, default=0) <= _ONE_THREAD_MULADDS, sorted(set(products))


# Rank of each pass's feature table, exhaustive and both decoupled offsets
# (None: the pass runs the sphere search): every feature is a polynomial of
# degree <= 2 in the pass's +-1 signs.
_TABLE_RANKS = {(BPSK, 2): (19, 7, 7), (BPSK, 1): (7, 3, 3), (QPSK, 2): (None, 12, 12),
                (QPSK, 1): (15, 6, 6)}


@pytest.mark.parametrize("constellation", [BPSK, QPSK])
@pytest.mark.parametrize("num_states", [1, 2])
def test_candidate_table_follows_the_label_numbering(constellation, num_states):
    # _candidates factors the table whose column r is the +-1 combination of
    # the pass's basis codewords whose signs spell r.  The table from the
    # labels product_rows spells as row r, through group_codewords, must be
    # left @ right, in every product pass: exhaustive and both decoupled
    # offsets, at the pinned rank (P=2 QPSK exhaustive runs the sphere search).
    base = SystemConfig(constellation=constellation)
    cfg = base if num_states == 2 else p1_variant(base)
    code = (constellation, cfg.rotation_angles, cfg.num_states, cfg.code_paths)
    ranks = _TABLE_RANKS[constellation, num_states]
    try:
        for (step, offset), rank in zip(((1, 0), (2, 0), (2, 1)), ranks):
            if rank is None:
                assert candidates_per_pass(cfg, EXHAUSTIVE) > decoder._PRODUCT_CANDIDATES
                continue
            left, right = decoder._candidates(*code, step, offset)
            table = product_features(*code, step, offset)
            assert left.shape == (table.shape[0], rank) and right.shape == (rank, table.shape[1])
            for factor in (left, right):
                assert factor.flags.c_contiguous and not factor.flags.writeable
            npt.assert_allclose(left @ right, table, rtol=0, atol=1e-12)
    finally:
        decoder._candidates.cache_clear()


@pytest.mark.parametrize("constellation,variant,mode", [
    (BPSK, None, EXHAUSTIVE), (QPSK, None, DECOUPLED),
    (BPSK, p1_variant, EXHAUSTIVE), (BPSK, p1_variant, DECOUPLED),
], ids=["p2-bpsk-exhaustive", "p2-qpsk-decoupled", "p1-bpsk-exhaustive", "p1-bpsk-decoupled"])
def test_factored_metric_decides_as_the_full_table(monkeypatch, constellation, variant, mode):
    # Over at least 30k groups at -3 to 18 dB, decode through the factor
    # decides every group as argmin(coeffs @ product_features(...)) does: the
    # same decode with (table, identity) in place of the factor, whose second
    # product is exact.
    base = SystemConfig(constellation=constellation)
    cfg = base if variant is None else variant(base)
    rng = np.random.default_rng(19)
    snrs = np.arange(-3.0, 19.0)
    count = -(-30_000 // (cfg.num_groups * snrs.size))
    nbits = cfg.num_groups * cfg.symbols_per_group * bits_per_symbol(constellation)
    decoded, full = [], []
    for snr_db in snrs:
        bits = rng.integers(0, 2, (count, nbits))
        grid = frequency_response(draw_channel(cfg, [rng] * count), cfg)
        symbols = modulate(bits.reshape(-1), constellation).reshape(count, -1)
        received = apply(encode(symbols, cfg), grid, 10 ** (snr_db / 10), [rng] * count)
        decoded.append(decode(received, grid, cfg, mode=mode))
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "_candidates", lambda *code: (
                product_features(*code), np.eye(candidates_per_pass(cfg, mode))))
            full.append(decode(received, grid, cfg, mode=mode))
    assert count * snrs.size * cfg.num_groups >= 30_000
    npt.assert_array_equal(np.concatenate(decoded), np.concatenate(full))


@pytest.mark.parametrize("constellation,variant,mode,num_rx", [
    (BPSK, None, EXHAUSTIVE, 1), (BPSK, None, EXHAUSTIVE, 2), (QPSK, None, DECOUPLED, 1),
    (QPSK, None, DECOUPLED, 2), (BPSK, p1_variant, EXHAUSTIVE, 1),
], ids=["p2-bpsk-exhaustive", "p2-bpsk-exhaustive-rx2", "p2-qpsk-decoupled",
        "p2-qpsk-decoupled-rx2", "p1-bpsk-exhaustive"])
def test_elementwise_rows_decide_as_the_einsum_rows(monkeypatch, constellation, variant, mode,
                                                   num_rx):
    # _coefficients sums the Gram entries and matched filter elementwise; the
    # einsums it replaced round the rows differently (up to about 2e-15).  Over
    # at least 30k groups at -3 to 18 dB, not one decision may differ.
    base = SystemConfig(constellation=constellation, num_rx=num_rx)
    cfg = base if variant is None else variant(base)
    rng = np.random.default_rng(23)
    snrs = np.arange(-3.0, 19.0)
    count = -(-30_000 // (cfg.num_groups * snrs.size))
    nbits = cfg.num_groups * cfg.symbols_per_group * bits_per_symbol(constellation)
    decoded, einsum = [], []
    for snr_db in snrs:
        bits = rng.integers(0, 2, (count, nbits))
        grid = frequency_response(draw_channel(cfg, [rng] * count), cfg)
        symbols = modulate(bits.reshape(-1), constellation).reshape(count, -1)
        received = apply(encode(symbols, cfg), grid, 10 ** (snr_db / 10), [rng] * count)
        decoded.append(decode(received, grid, cfg, mode=mode))
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "_coefficients", einsum_coefficients)
            einsum.append(decode(received, grid, cfg, mode=mode))
    assert count * snrs.size * cfg.num_groups >= 30_000
    npt.assert_array_equal(np.concatenate(decoded), np.concatenate(einsum))
    h = rng.standard_normal((64, 2, 4, num_rx, 2, 2)).view(complex)[..., 0]
    y = rng.standard_normal((64, 2, 4, num_rx, 2)).view(complex)[..., 0]
    want = einsum_coefficients(h, y)
    npt.assert_allclose(decoder._coefficients(h, y), want, rtol=0,
                        atol=16 * np.finfo(float).eps * np.abs(want).max())


@pytest.mark.parametrize("num_rx", [1, 2, 3, 4])
def test_coefficient_rows_equal_the_axis_sums(num_rx):
    # _coefficients adds the receive antennas one by one, and its rows are
    # bit-equal to the .sum(-2) form it replaced.  Entries spread over 16
    # decades, so another order of the adds shows in the rounding.
    rng = np.random.default_rng(24)
    h, y = ((rng.standard_normal(shape + (2,)) * 10.0 ** rng.integers(-8, 8, shape + (2,)))
            .view(complex)[..., 0] for shape in ((256, 2, 4, num_rx, 2), (256, 2, 4, num_rx)))
    h = np.ascontiguousarray(h)
    npt.assert_array_equal(decoder._coefficients(h, y), axis_sum_coefficients(h, y))


def test_product_decode_holds_its_metric_once_per_call():
    # A P=2 BPSK exhaustive call holds one metric slice of at most four
    # blocks whatever its batch, so a 32-block chunk peaks at most one
    # block's peak plus the 31 further blocks' TONE_BYTES per tone, state and
    # receive antenna, what the harness charges them.  An unsliced metric
    # would add 64 KiB a block.
    cfg = SystemConfig()
    rng = np.random.default_rng(18)
    per_block = TONE_BYTES * cfg.num_states * cfg.num_subcarriers * cfg.num_rx
    cap = _chunk_cap(SweepSpec(config=cfg))
    assert cap == 32
    peaks = {}
    for count in (1, cap):
        bits = rng.integers(0, 2, (count, cfg.num_groups * cfg.symbols_per_group))
        grid = frequency_response(draw_channel(cfg, [rng] * count), cfg)
        received = apply(encode(modulate(bits.reshape(-1), BPSK).reshape(count, -1), cfg),
                          grid, 10.0, [rng] * count)
        decode(received, grid, cfg)  # the factor is cached, not counted
        tracemalloc.start()
        try:
            decode(received, grid, cfg)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[cap] <= peaks[1] + (cap - 1) * per_block, (peaks, per_block)
