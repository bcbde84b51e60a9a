import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from oracles import seed_tree_rng, serial_point
from qosf import SystemConfig, harness
from qosf.core import BPSK, QPSK
from qosf.decoder import DECOUPLED, EXHAUSTIVE
from qosf.harness import (
    SCHEME_ALAMOUTI,
    BerPoint,
    InsufficientDataError,
    InvalidSpecError,
    SweepResult,
    SweepSpec,
    block_rng,
    build_scheme,
    default_worker_count,
    emit_plot_data,
    estimate_diversity_order,
    format_results,
    read_results,
    run_point,
    run_sweep,
    scenario_spec,
    snr_at_ber,
    write_results,
)
from qosf.schemes import QosfScheme, alamouti_variant, p1_variant


def _tiny_spec(cfg, **kw):
    defaults = dict(snr_db_points=(0.0, 2.0), min_bit_errors=10, max_ofdm_blocks=60)
    defaults.update(kw)
    return SweepSpec(config=cfg, **defaults)


def _synthetic(pairs):
    return [BerPoint(s, 100_000, round(100_000 * b)) for s, b in pairs]


# --- spec validation -----------------------------------------------------


def test_spec_normalizes_points(small_config):
    spec = SweepSpec(config=small_config, snr_db_points=[0, 2, 4])
    assert spec.snr_db_points == (0.0, 2.0, 4.0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(snr_db_points=()),
        dict(snr_db_points=(4.0, 2.0)),
        dict(snr_db_points=(2.0, 2.0)),
        dict(min_bit_errors=0),
        dict(max_ofdm_blocks=0),
        dict(decoder_mode="genie"),
        dict(scheme="vblast"),
        dict(scenario_label=""),
        dict(scenario_label="two\nlines"),
        # Labels the results file would not read back as written.
        dict(scenario_label=" proposed"),
        dict(scenario_label="proposed\x0b"),
        dict(scenario_label="prop\rosed"),
        # The alamouti-sf label needs the single-state, depth-one code and
        # the exhaustive decoder; "variant" maps small_config to the config.
        dict(scheme=SCHEME_ALAMOUTI),
        dict(variant=p1_variant, scheme=SCHEME_ALAMOUTI),
        dict(variant=alamouti_variant, scheme=SCHEME_ALAMOUTI, decoder_mode=DECOUPLED),
        # Non-finite SNR points, which the strictly-increasing check lets through.
        dict(snr_db_points=(float("nan"),)),
        dict(snr_db_points=(0.0, float("nan"))),
        dict(snr_db_points=(float("-inf"), 0.0)),
        dict(snr_db_points=(0.0, float("inf"))),
    ],
)
def test_spec_rejects_bad_values(small_config, kw):
    kw = dict(kw)
    config = kw.pop("variant", lambda cfg: cfg)(small_config)
    with pytest.raises(InvalidSpecError):
        SweepSpec(config=config, **kw)


@pytest.mark.parametrize("field, value, kind", [
    # "no" used to run a noiseless sweep; these flags wrote results files
    # that do not read back, and the label raised AttributeError.
    ("noiseless", "no", "a bool"),
    ("noiseless", None, "a bool"),
    ("independent_streams", 1, "a bool"),
    ("scenario_label", 5, "a string"),
    # A config dict built, and run_point then raised AttributeError.
    ("config", {"constellation": "qpsk"}, "a SystemConfig"),
])
def test_spec_rejects_flags_and_labels_of_the_wrong_type(small_config, field, value, kind):
    with pytest.raises(InvalidSpecError,
                       match=f"^{field} must be {kind}, got {re.escape(repr(value))}$"):
        SweepSpec(**{"config": small_config, field: value})


def test_spec_takes_numpy_bool_flags(small_config):
    spec = SweepSpec(config=small_config, noiseless=np.True_, independent_streams=np.False_)
    assert spec.noiseless is True and spec.independent_streams is False


@pytest.mark.parametrize("field", ["min_bit_errors", "max_ofdm_blocks"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "20", None])
def test_spec_rejects_non_integer_stop_rule(small_config, field, value):
    with pytest.raises(InvalidSpecError, match=f"{field} must be an integer, got {value!r}"):
        SweepSpec(config=small_config, **{field: value})


@pytest.mark.parametrize("points, message", [
    # A string used to be read one character at a time: "48" ran at 4 and 8 dB.
    ("48", "snr_db_points must be a sequence of numbers, not the string '48'"),
    (b"48", "snr_db_points must be a sequence of numbers, not the string b'48'"),
    ("0,2", "snr_db_points must be a sequence of numbers, not the string '0,2'"),
    (4.0, "snr_db_points must be a sequence of numbers, got 4.0"),
    (("0", "2"), "snr_db_points entry '0' is not a number"),
    ((0.0, ","), "snr_db_points entry ',' is not a number"),
    ((0.0, None), "snr_db_points entry None is not a number"),
    ((True, 2.0), "snr_db_points entry True is not a number"),
])
def test_spec_rejects_snr_points_that_are_not_numbers(small_config, points, message):
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        SweepSpec(config=small_config, snr_db_points=points)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 3080.0, 1000.5, -1000.5])
def test_spec_bounds_snr_points(small_config, snr_db):
    # 4000 dB overflowed 10**(dB/10), -4000 dB underflowed it to 0 and 3080 dB
    # overflowed decode's metric into a silent BER of about one half.
    with pytest.raises(InvalidSpecError,
                       match=re.escape(f"SNR point {snr_db!r} dB is outside [-1000, 1000] dB")):
        SweepSpec(config=small_config, snr_db_points=(snr_db,))
    assert SweepSpec(config=small_config, snr_db_points=(-1000, 1000)).snr_db_points == (
        -harness.MAX_ABS_SNR_DB, harness.MAX_ABS_SNR_DB)


def test_spec_takes_any_sequence_of_real_snr_points(small_config):
    for points in ([0, 2], np.array([0.0, 2.0]), (np.int64(0), np.float32(2.0)),
                   (x for x in (0, 2.0))):
        spec = SweepSpec(config=small_config, snr_db_points=points)
        assert spec.snr_db_points == (0.0, 2.0)
        assert all(type(s) is float for s in spec.snr_db_points)


def test_spec_bounds_max_ofdm_blocks(small_config):
    # seed_words takes block indices below 2**32.
    assert SweepSpec(config=small_config, max_ofdm_blocks=2**32).max_ofdm_blocks == 2**32
    with pytest.raises(InvalidSpecError, match=r"^max_ofdm_blocks must be at most 2\*\*32$"):
        SweepSpec(config=small_config, max_ofdm_blocks=2**32 + 1)


def test_spec_takes_numpy_integers_as_int(small_config):
    spec = SweepSpec(config=small_config, snr_db_points=(0.0,), min_bit_errors=np.int64(7),
                     max_ofdm_blocks=np.int32(9))
    assert type(spec.min_bit_errors) is int and type(spec.max_ofdm_blocks) is int
    point = BerPoint(0.0, 9 * build_scheme(spec).bits_per_block, 3)  # the cap ended it
    assert "# max_ofdm_blocks: 9\n" in format_results(SweepResult(spec, [point], "x"))


def test_build_scheme_dispatch(small_config):
    # Every label runs the one code; the config selects the scenario.
    assert isinstance(build_scheme(SweepSpec(config=small_config)), QosfScheme)
    al = SweepSpec(config=alamouti_variant(small_config), scheme=SCHEME_ALAMOUTI)
    scheme = build_scheme(al)
    assert isinstance(scheme, QosfScheme)
    assert scheme.config.code_paths == 1 and scheme.config.num_paths == 2
    assert scheme.bits_per_block == small_config.num_subcarriers


@pytest.mark.parametrize("bits, errors, field", [
    # 256.0 bits were written as "256.0", which read_results then refused.
    (256.0, 3, "bits_simulated"), ("256", 3, "bits_simulated"),
    (256, 3.0, "bit_errors"), (256, True, "bit_errors"),
])
def test_ber_point_needs_integer_counts(bits, errors, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        BerPoint(0.0, bits, errors)


@pytest.mark.parametrize("snr_db, message", [
    # Each was accepted, though SweepSpec refuses it as a grid point.
    (float("nan"), "snr_db nan dB is not finite"),
    (float("inf"), "snr_db inf dB is not finite"),
    ("3", "snr_db must be a number, got '3'"),
    (True, "snr_db must be a number, got True"),
])
def test_ber_point_checks_snr_db(snr_db, message):
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        BerPoint(snr_db, 100, 1)


def test_ber_point_validation():
    p = BerPoint(6.0, 2000, 3)
    assert p.ber == pytest.approx(0.0015)
    with pytest.raises(ValueError):
        BerPoint(snr_db=0.0, bits_simulated=0, bit_errors=0)
    with pytest.raises(ValueError):
        BerPoint(0.0, 100, 200)


# --- seed tree -----------------------------------------------------------


def test_block_rng_deterministic():
    a = block_rng(7, 1, 2, 0).integers(0, 2, 32)
    b = block_rng(7, 1, 2, 0).integers(0, 2, 32)
    assert np.array_equal(a, b)


def test_block_rng_streams_differ():
    draws = [block_rng(7, 1, 2, s).integers(0, 2, 64) for s in (0, 1, 2)]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])


def test_block_rng_scenario_key_changes_draws():
    shared = block_rng(7, 0, 0, 0).integers(0, 2, 64)
    keyed = block_rng(7, 0, 0, 0, scenario_key=99).integers(0, 2, 64)
    assert not np.array_equal(shared, keyed)


@pytest.mark.parametrize("stream", [-1, 3, True, 1.0, "0"])
def test_block_rng_refuses_streams_outside_the_tree(stream):
    # -1 returned the noise node's generator and 3 raised a bare IndexError.
    with pytest.raises(ValueError, match=re.escape(f"stream must be 0 (bits), 1 (channel) or "
                                                   f"2 (noise), got {stream!r}")):
        block_rng(7, 0, 0, stream)


@pytest.mark.parametrize("block", [2.5, True])
def test_block_rng_takes_whole_block_indices(block):
    # A window of two indices must not round 2.5 to block 2 or take True as 1.
    with pytest.raises(ValueError, match=re.escape("seed tree node (7, (0,), blocks ")):
        block_rng(7, 0, block, 0)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("key", [None, zlib.crc32(b"proposed"), 2**32 - 1])
def test_seed_tree_matches_seed_sequence(seed, key):
    # The tree's edges: seed 2**64 - 1, and key, snr_index and block 2**32 - 1,
    # the last that SeedSequence takes as one 32-bit word.
    windows = (range(0, 0), range(0, 2), range(255, 257), range(2**32 - 2, 2**32))
    for snr_index in (0, 1, 10, 2**32 - 1):
        for blocks in windows:
            words = harness.seed_words(seed, snr_index, blocks.start, blocks.stop, key)
            assert words.shape == (len(blocks), 3, 4) and words.flags.c_contiguous
            for row, block in zip(words, blocks):
                for stream in range(3):
                    want = seed_tree_rng(seed, snr_index, block, stream, key).bit_generator.state
                    assert harness._bit_generators()(row[stream]).state == want
                    got = block_rng(seed, snr_index, block, stream, key).bit_generator.state
                    assert got == want, (snr_index, block, stream)


@pytest.mark.parametrize("seed, snr_index, blocks, key", [
    (2**64, 0, range(0, 1), None), (-1, 0, range(0, 1), None), (0, 2**32, range(0, 1), None),
    (0, -1, range(0, 1), None), (0, 0, range(0, 1), 2**32),
    (0, 0, range(2**32 - 1, 2**32 + 1), None), (0, 0, range(-1, 1), None),
    (0, 0, range(5, 0), None),  # first 5, stop 0: a reversed window
])
def test_seed_words_refuses_nodes_outside_its_range(seed, snr_index, blocks, key):
    with pytest.raises(ValueError, match=re.escape(f"seed tree node ({seed}, ")):
        harness.seed_words(seed, snr_index, blocks.start, blocks.stop, key)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**63 + 5])
@pytest.mark.parametrize("independent", [False, True])
@pytest.mark.parametrize("constellation", [BPSK, QPSK])
def test_chunk_bits_are_the_bits_nodes_integers(monkeypatch, small_config, seed, independent,
                                                constellation):
    # The chunk loop reads each block's bits off its bits node's raw PCG64
    # words.  They must be that node's Generator.integers(0, 2), which
    # serial_point and the benchmark's production_block draw, for every block
    # of a point whose blocks cross a _WINDOW_BLOCKS boundary.
    seen = []

    class Recording(QosfScheme):
        def encode_bits(self, bits):
            seen.append(bits.copy())
            return super().encode_bits(bits)

    monkeypatch.setattr(harness, "QosfScheme", Recording)
    cfg = dataclasses.replace(small_config, master_seed=seed, constellation=constellation)
    spec = SweepSpec(config=cfg, snr_db_points=(0.0, 4.0), min_bit_errors=10**9,
                     max_ofdm_blocks=harness._WINDOW_BLOCKS + 20, independent_streams=independent)
    run_point(spec, 4.0, 1)
    per_block, key = build_scheme(spec).bits_per_block, harness._scenario_key(spec)
    bits = np.concatenate(seen)
    assert bits.shape == (spec.max_ofdm_blocks, per_block) and bits.dtype == np.int64
    for block, row in enumerate(bits):
        want = block_rng(seed, 1, block, harness._STREAM_BITS, key).integers(
            0, 2, size=per_block, dtype=np.int64)
        assert np.array_equal(row, want), block


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # The benchmark's peak_rss_mib moved by 0.83 MiB on the QPSK workload
    # when numpy.random was loaded at import time, so qosf loads it only
    # when it first draws.
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    code = "import sys, qosf.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


# --- running points and sweeps ------------------------------------------


def test_run_point_deterministic(small_config):
    spec = _tiny_spec(small_config)
    a = run_point(spec, 0.0, 0)
    b = run_point(spec, 0.0, 0)
    assert a == b
    assert a.bit_errors >= 10 or a.bits_simulated == 60 * 16


def test_run_point_noiseless_is_error_free(small_config):
    spec = _tiny_spec(small_config, noiseless=True, max_ofdm_blocks=20)
    point = run_point(spec, 0.0, 0)
    assert point.bit_errors == 0
    assert point.bits_simulated == 20 * 16
    assert point.ber == 0.0


def test_run_point_label_does_not_change_shared_streams(small_config):
    # Common random numbers: scenarios are paired through identical draws
    # unless independent_streams is set.
    a = run_point(_tiny_spec(small_config, scenario_label="proposed"), 2.0, 1)
    b = run_point(_tiny_spec(small_config, scenario_label="other"), 2.0, 1)
    assert a == b
    c = run_point(
        _tiny_spec(small_config, scenario_label="other", independent_streams=True),
        2.0,
        1,
    )
    assert c != b


@pytest.mark.parametrize("snr_db, message", [
    # NaN and inf ran all five blocks on NaN metrics; 1e6 dB raised OverflowError.
    (float("nan"), "snr_db nan dB is not finite"),
    (float("inf"), "snr_db inf dB is not finite"),
    (1e6, "snr_db 1000000.0 dB is outside [-1000, 1000] dB"),
    ("6", "snr_db must be a number, got '6'"),
])
def test_run_point_checks_snr_db(small_config, snr_db, message):
    spec = _tiny_spec(small_config, snr_db_points=(6.0,), max_ofdm_blocks=5)
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        run_point(spec, snr_db, 0)


@pytest.mark.parametrize("snr_index", [True, -1, 2.5, "0"])
def test_run_point_checks_snr_index(small_config, snr_index):
    # True ran as index 1; -1 and 2.5 failed inside SeedSequence.
    spec = _tiny_spec(small_config, snr_db_points=(6.0,), max_ofdm_blocks=5)
    message = f"snr_index must be a non-negative integer, got {snr_index!r}"
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        run_point(spec, 6.0, snr_index)


def test_run_sweep_matches_run_point(small_config):
    spec = _tiny_spec(small_config)
    result = run_sweep(spec, workers=1)
    assert [p.snr_db for p in result.points] == [0.0, 2.0]
    assert result.points[0] == run_point(spec, 0.0, 0)
    assert result.points[1] == run_point(spec, 2.0, 1)
    assert result.spec.config.master_seed == small_config.master_seed


def test_run_sweep_worker_count_invariance(small_config):
    spec = _tiny_spec(small_config, snr_db_points=(0.0, 2.0, 4.0))
    seq = run_sweep(spec, workers=1)
    par = run_sweep(spec, workers=2)
    # wall_time_s is excluded from equality on purpose.
    assert seq == par


# --- chunked block loop --------------------------------------------------

# (scenario, decoder, constellation): every combination `qosf simulate` runs.
_RUNS = [(scenario, decoder, constellation)
         for scenario in harness.SCENARIOS
         for decoder in (EXHAUSTIVE, DECOUPLED)
         for constellation in (BPSK, QPSK)
         if not (scenario == "alamouti-sf" and decoder == DECOUPLED)]
# Stop on the first error; in the middle of a chunk; after one block; and at
# a block cap of 10 that the chunk sizes 1, 2, 4 do not sum to.
_STOPS = [dict(min_bit_errors=1, max_ofdm_blocks=12),
          dict(min_bit_errors=25, max_ofdm_blocks=40),
          dict(max_ofdm_blocks=1),
          dict(min_bit_errors=10**9, max_ofdm_blocks=10)]


@pytest.mark.parametrize("streams", ["shared", "independent", "noiseless"])
@pytest.mark.parametrize("scenario,decoder,constellation", _RUNS,
                         ids=["-".join(run) for run in _RUNS])
@pytest.mark.parametrize("which", ["small", "default"])
def test_run_point_matches_serial_loop(small_config, which, scenario, decoder, constellation,
                                       streams):
    base = small_config if which == "small" else SystemConfig()
    config = dataclasses.replace(base, constellation=constellation, master_seed=11)
    for stop in _STOPS:
        spec = scenario_spec(scenario, config, snr_db_points=(0.0, 6.0), decoder_mode=decoder,
                             independent_streams=streams == "independent",
                             noiseless=streams == "noiseless", **stop)
        for i, snr in enumerate(spec.snr_db_points):
            assert run_point(spec, snr, i) == serial_point(spec, snr, i), (stop, snr)


@pytest.mark.parametrize("window", [1, 3])
def test_run_point_matches_serial_loop_across_windows(small_config, monkeypatch, window):
    windows = []
    seed_words = harness.seed_words

    def recording(master_seed, snr_index, first, stop, scenario_key=None):
        windows.append(range(first, stop))
        return seed_words(master_seed, snr_index, first, stop, scenario_key)

    monkeypatch.setattr(harness, "_WINDOW_BLOCKS", window)
    monkeypatch.setattr(harness, "seed_words", recording)
    for independent in (False, True):
        for stop in _STOPS:
            spec = _tiny_spec(small_config, independent_streams=independent, **stop)
            for i, snr in enumerate(spec.snr_db_points):
                windows.clear()
                point = run_point(spec, snr, i)
                assert point == serial_point(spec, snr, i), (stop, snr)
                used = point.bits_simulated // build_scheme(spec).bits_per_block
                assert windows[0].start == 0 and windows[-1].stop >= used
                assert all(len(w) <= window and w.stop <= spec.max_ofdm_blocks for w in windows)
                assert all(a.start < b.start <= a.stop for a, b in zip(windows, windows[1:]))
                assert len(windows) >= -(-used // window)


def test_run_point_cuts_the_last_chunk_at_the_stop(small_config, monkeypatch):
    # No chunk is smaller than the blocks the stop rule needs for certain,
    # ceil(errors still needed / bits_per_block), within the cap and budget.
    chunks, counts = _record_chunks(monkeypatch)
    spec = _tiny_spec(small_config, min_bit_errors=40, max_ofdm_blocks=1000)
    point = run_point(spec, 6.0, 1)
    assert point == serial_point(spec, 6.0, 1)
    bits = build_scheme(spec).bits_per_block
    cap = min(harness._chunk_cap(spec), harness._WINDOW_BLOCKS)
    floors = [-(-(spec.min_bit_errors - sum(counts[:i])) // bits) for i in range(len(chunks))]
    sizes = [len(c) for c in chunks]
    assert floors[0] > 1
    assert sizes[0] == max(1, min(floors[0], cap, spec.max_ofdm_blocks))
    assert all(b <= max(2 * a, f) for a, b, f in zip(sizes, sizes[1:], floors[1:]))
    assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
    used = point.bits_simulated // bits
    # The stop fell inside the last chunk, whose later blocks were dropped.
    assert chunks[-1].start < used < chunks[-1].stop


def _record_chunks(monkeypatch):
    """Record the block range and the error count of every chunk run_point runs.
    A chunk's range is where its seed-word rows sit in the last window of seed
    words run_point computed, and those rows must be the window's rows there."""
    chunks, counts, windows = [], [], []
    seed_words, chunk_errors = harness.seed_words, harness._chunk_errors

    def window(master_seed, snr_index, first, stop, scenario_key=None):
        windows.append((first, seed_words(master_seed, snr_index, first, stop, scenario_key)))
        return windows[-1][1]

    def recording(spec, scheme, snr_linear, words):
        first, rows = windows[-1]
        offset = int(np.flatnonzero((rows == words[0]).all(axis=(1, 2)))[0])
        assert np.array_equal(words, rows[offset:offset + len(words)]), (first, offset)
        chunks.append(range(first + offset, first + offset + len(words)))
        errors = chunk_errors(spec, scheme, snr_linear, words)
        counts.append(int(errors.sum()))
        return errors

    monkeypatch.setattr(harness, "seed_words", window)
    monkeypatch.setattr(harness, "_chunk_errors", recording)
    return chunks, counts


def test_run_point_runs_fixed_budgets_in_whole_chunks(monkeypatch, small_config):
    # A min_bit_errors no budget can reach puts every block past the floor:
    # a 65-block P=2 QPSK exhaustive point runs as 32 + 32 + 1.  A stop rule
    # that one block could meet still starts at one block.
    chunks, _ = _record_chunks(monkeypatch)
    fixed = SweepSpec(config=SystemConfig(constellation=QPSK), snr_db_points=(6.0,),
                      min_bit_errors=10 ** 9, max_ofdm_blocks=65)
    cap = harness._chunk_cap(fixed)
    assert run_point(fixed, 6.0, 0) == serial_point(fixed, 6.0, 0)
    assert len(chunks) == -(-fixed.max_ofdm_blocks // cap) == 3
    assert [len(c) for c in chunks] == [cap, cap, 1]
    chunks.clear()
    bits = build_scheme(_tiny_spec(small_config)).bits_per_block
    stop = _tiny_spec(small_config, min_bit_errors=bits, max_ofdm_blocks=1000)
    assert run_point(stop, 2.0, 0) == serial_point(stop, 2.0, 0)
    assert len(chunks[0]) == 1


def test_run_point_chunks_the_sphere_search(monkeypatch):
    # P=2 QPSK exhaustive decodes several blocks per call: at 6 dB the error
    # target ends the point, at 10 dB the 40-block cap does.
    chunks, _ = _record_chunks(monkeypatch)
    spec = SweepSpec(config=SystemConfig(constellation=QPSK), snr_db_points=(6.0, 10.0),
                     max_ofdm_blocks=40)
    for i, snr in enumerate(spec.snr_db_points):
        chunks.clear()
        assert run_point(spec, snr, i) == serial_point(spec, snr, i), snr
        assert max(len(c) for c in chunks) >= 3, snr


# (scenario, spec fields) of the chunk-budget check: a P=2 BPSK stop-rule
# point, a P=1 stop-rule point and a P=2 QPSK exhaustive fixed-budget point,
# whose passes run the sphere search and whose budget outlasts a 4 MiB chunk.
_BUDGET_RUNS = [("proposed", dict(min_bit_errors=200, max_ofdm_blocks=400)),
                ("qosf-p1", dict(min_bit_errors=200, max_ofdm_blocks=400)),
                ("proposed", dict(constellation=QPSK, min_bit_errors=10**9, max_ofdm_blocks=67))]


@pytest.mark.parametrize("scale", [1 / 32, 1, 2], ids=["64KiB", "default", "4MiB"])
@pytest.mark.parametrize("scenario,fields", _BUDGET_RUNS, ids=["p2-bpsk", "p1-bpsk", "p2-qpsk"])
def test_run_point_does_not_depend_on_the_chunk_budget(monkeypatch, scale, scenario, fields):
    # _CHUNK_BYTES at 64 KiB, 2 MiB or 4 MiB each returns the
    # one-block-at-a-time point.
    monkeypatch.setattr(harness, "_CHUNK_BYTES", int(harness._CHUNK_BYTES * scale))
    chunks, _ = _record_chunks(monkeypatch)
    fields = dict(fields)
    config = SystemConfig(constellation=fields.pop("constellation", BPSK), master_seed=5)
    spec = scenario_spec(scenario, config, snr_db_points=(6.0,), **fields)
    assert run_point(spec, 6.0, 0) == serial_point(spec, 6.0, 0)
    longest, cap = max(len(c) for c in chunks), harness._chunk_cap(spec)
    assert longest == cap if spec.min_bit_errors == 10**9 else longest <= cap


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


@pytest.mark.skipif(not _glibc(), reason="sets glibc's heap; the fault count is Linux's")
def test_block_loop_keeps_its_heap_between_chunks():
    # Without _keep_heap glibc handed the top of the heap back after each
    # 16-block chunk and faulted it in again on the next, 6-14 minor faults
    # per block of a second 10 dB point.  With it, the second point runs its
    # blocks on pages the first one left mapped.
    code = """if True:
        import resource
        from qosf import SystemConfig
        from qosf.harness import SweepSpec, run_point
        spec = SweepSpec(config=SystemConfig(), snr_db_points=(10.0,))
        run_point(spec, 10.0, 0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        point = run_point(spec, 10.0, 0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(point.bits_simulated // 256, faults)
    """
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    blocks, faults = map(int, done.stdout.split())
    assert blocks > 1000
    assert faults < 0.5 * blocks, (faults, blocks)


def test_keep_heap_leaves_other_allocators_alone(monkeypatch):
    # Where libc is not glibc, _keep_heap looks for no mallopt.
    def no_such_name(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def cdll(*args):
        raise AssertionError("looked for mallopt")

    monkeypatch.setattr(os, "confstr", no_such_name)
    monkeypatch.setattr(harness.ctypes, "CDLL", cdll)
    harness._keep_heap.__wrapped__()


def test_chunk_cap_counts_only_blocks():
    # A chunk is charged TONE_BYTES per tone, state and receive antenna of
    # each block and nothing else: what a decode call holds once whatever its
    # batch (the product path's metric slice, the sphere search's frontier)
    # sits beside the budget, whichever search a pass runs.  curve-p2's P=2
    # BPSK code runs 32 blocks per chunk, as do qpsk-ml's P=2 QPSK exhaustive
    # code and its decoupled form; two receive antennas halve that to 16.  The
    # default P=1 scenarios run 64, and a P=1 QPSK code on 512 tones 16.
    qpsk = SystemConfig(constellation=QPSK)
    assert harness._chunk_cap(SweepSpec(config=SystemConfig())) == 32
    assert harness._chunk_cap(SweepSpec(config=qpsk)) == 32
    assert harness._chunk_cap(SweepSpec(config=qpsk, decoder_mode=DECOUPLED)) == 32
    assert harness._chunk_cap(SweepSpec(config=SystemConfig(constellation=QPSK, num_rx=2))) == 16
    for scenario in ("qosf-p1", "alamouti-sf"):
        assert harness._chunk_cap(scenario_spec(scenario, SystemConfig())) == 64
    wide = SystemConfig(constellation=QPSK, num_subcarriers=512, cp_len=256)
    assert harness._chunk_cap(scenario_spec("qosf-p1", wide)) == 16


def test_default_worker_count_env(monkeypatch):
    monkeypatch.setenv("QOSF_WORKERS", "3")
    assert default_worker_count() == 3
    monkeypatch.setenv("QOSF_WORKERS", "0")
    with pytest.raises(ValueError):
        default_worker_count()
    monkeypatch.delenv("QOSF_WORKERS")
    assert default_worker_count() >= 1


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


def test_run_sweep_clamps_pool_to_point_count(small_config, recording_pool):
    spec = _tiny_spec(small_config, snr_db_points=tuple(range(11)), max_ofdm_blocks=1)
    result = run_sweep(spec, workers=5000)
    assert recording_pool.created == [11]
    assert result == run_sweep(spec, workers=1)
    assert recording_pool.created == [11]
    with pytest.raises(ValueError, match="workers"):
        run_sweep(spec, workers=0)


def test_run_sweep_rejects_non_integer_env(small_config, recording_pool, monkeypatch):
    monkeypatch.setenv("QOSF_WORKERS", "two")
    with pytest.raises(ValueError, match="QOSF_WORKERS"):
        run_sweep(_tiny_spec(small_config))
    assert recording_pool.created == []


@pytest.mark.parametrize("workers,points", [(2.5, 3), (2.5, 1), ("2", 3), (True, 3)],
                         ids=["float", "float-one-point", "string", "bool"])
def test_run_sweep_rejects_non_integer_workers(small_config, recording_pool, workers, points):
    # Checked before any pool starts, whatever the point count.
    spec = _tiny_spec(small_config, snr_db_points=tuple(range(points)), max_ofdm_blocks=1)
    with pytest.raises(ValueError, match=f"workers must be an integer, got {workers!r}"):
        run_sweep(spec, workers=workers)
    assert recording_pool.created == []


def test_scenario_spec_rejects_unknown_scenario(small_config):
    with pytest.raises(InvalidSpecError, match="'nope'; one of proposed, qosf-p1, alamouti-sf"):
        scenario_spec("nope", small_config)


# --- curve analysis ------------------------------------------------------


def test_diversity_order_exact_slope():
    points = _synthetic([(10, 1e-2), (12, 1e-3), (14, 1e-4)])
    assert estimate_diversity_order(points) == pytest.approx(5.0, abs=1e-9)


def test_diversity_order_ignores_zero_points():
    points = _synthetic([(10, 1e-2), (12, 1e-3), (14, 1e-4)])
    points.append(BerPoint(snr_db=16.0, bits_simulated=1000, bit_errors=0))
    assert estimate_diversity_order(points) == pytest.approx(5.0, abs=1e-9)


def test_diversity_order_window():
    points = _synthetic([(0, 1e-1), (10, 1e-2), (12, 1e-3), (14, 1e-4)])
    # Shallow early segment is outside the default window of three.
    assert estimate_diversity_order(points) == pytest.approx(5.0, abs=1e-9)
    assert estimate_diversity_order(points, window=4) < 5.0


@pytest.mark.parametrize("window", [1, 0, -1])
def test_diversity_order_rejects_window_below_two(window):
    # Slicing the last `window` points, 0 would fit every point and -1 would
    # drop the lowest-SNR one.
    points = _synthetic([(0, 1e-1), (10, 1e-2), (12, 1e-3), (14, 1e-4)])
    with pytest.raises(ValueError, match=f"window {window} is too small"):
        estimate_diversity_order(points, window=window)


@pytest.mark.parametrize("window", [2.5, 3.0, "3", True])
def test_diversity_order_needs_an_integer_window(window):
    # 2.5 and "3" raised TypeError from a slice and a comparison; True ran as 1.
    points = _synthetic([(0, 1e-1), (10, 1e-2), (12, 1e-3), (14, 1e-4)])
    message = f"window must be an integer, got {window!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        estimate_diversity_order(points, window=window)


def test_diversity_order_needs_two_points():
    with pytest.raises(InsufficientDataError):
        estimate_diversity_order(_synthetic([(10, 1e-2)]))


def test_snr_at_ber_interpolates_in_log_domain():
    points = _synthetic([(10, 1e-2), (12, 1e-3), (14, 1e-4)])
    assert snr_at_ber(points, 10 ** -3.5) == pytest.approx(13.0, abs=1e-9)
    assert snr_at_ber(points, 1e-3) == pytest.approx(12.0, abs=1e-9)
    assert snr_at_ber(points, 1e-2) == pytest.approx(10.0, abs=1e-9)


def test_snr_at_ber_takes_the_first_snr_of_a_flat_pair_at_the_target():
    points = _synthetic([(10, 1e-2), (12, 1e-3), (14, 1e-3), (16, 1e-4)])
    assert snr_at_ber(points, 1e-3) == 12.0
    assert snr_at_ber(points[1:], 1e-3) == 12.0


def test_snr_at_ber_errors():
    points = _synthetic([(10, 1e-2), (12, 1e-3)])
    with pytest.raises(InsufficientDataError):
        snr_at_ber(points, 1e-6)
    with pytest.raises(ValueError):
        snr_at_ber(points, 0.0)


@pytest.mark.parametrize("target", ["1e-3", float("nan"), float("inf"), True, 0.0, -1e-3, 1.5])
def test_snr_at_ber_checks_its_target(target):
    # "1e-3" raised a TypeError from a comparison; nan, inf and True ran and
    # reported that the curve never crosses BER nan, inf or 1.
    points = _synthetic([(10, 1e-2), (12, 1e-3)])
    message = re.escape(f"target must be a BER in (0, 1], got {target!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        snr_at_ber(points, target)
    assert snr_at_ber(_synthetic([(10, 1.0), (12, 1e-3)]), 1) == 10.0


# --- results files -------------------------------------------------------


def test_results_round_trip(tmp_path, small_config):
    result = run_sweep(_tiny_spec(small_config), workers=1)
    path = tmp_path / "run.csv"
    write_results(result, path)
    again = read_results(path)
    assert again == result
    assert again.spec.config == small_config
    # Re-serializing the parsed result reproduces the file byte for byte.
    assert format_results(again) == path.read_text()


def test_sweep_result_takes_only_what_read_results_takes(tmp_path, small_config):
    # A one-point result on a (0, 2) dB spec was written, and the file was
    # refused on reading; a result now holds its points to the reader's rules.
    spec = _tiny_spec(small_config)  # 10 errors or 60 blocks of 16 bits
    with pytest.raises(InvalidSpecError, match=re.escape(
            "header 'snr_db_points': 0.0,2.0 disagrees with the SNRs of the data rows")):
        SweepResult(spec, [BerPoint(0.0, 256, 3)], "x")
    capped, stopped = BerPoint(0.0, 960, 3), BerPoint(2.0, 64, 10)
    write_results(SweepResult(spec, [capped, stopped], "x"), tmp_path / "run.csv")
    assert read_results(tmp_path / "run.csv").points == [capped, stopped]
    for points, message in [
        ([capped, BerPoint(2.0, 65, 10)], "point 1: 65 bits is not a whole number of 16-bit blocks"),
        ([capped, BerPoint(2.0, 976, 10)], "point 1: 61 blocks exceed the max_ofdm_blocks "
                                           "header's 60"),
        ([BerPoint(0.0, 320, 3), stopped], "point 0: 3 errors in 20 blocks stop short of both "
                                           "the min_bit_errors header's 10 and the "
                                           "max_ofdm_blocks header's 60"),
        ([capped, BerPoint(2.0, 64, 26)], "point 1: 26 errors reach the min_bit_errors header's "
                                          "10 plus a whole 16-bit block"),
        ([capped, (2.0, 64, 10)], "points must be BerPoints, got "),
    ]:
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}"):
            SweepResult(spec, points, "x")


def test_results_text_shape(small_config):
    text = format_results(run_sweep(_tiny_spec(small_config), workers=1))
    lines = text.strip().split("\n")
    headers = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# scenario:") for l in headers)
    assert any(l.startswith("# master_seed:") for l in headers)
    assert "snr_db,bits,errors,ber" in lines
    assert "wall" not in text  # timing would break byte-level reproducibility


def test_read_results_reports_line_numbers(tmp_path, small_config):
    result = run_sweep(_tiny_spec(small_config), workers=1)
    text = format_results(result)
    lines = text.strip().split("\n")

    bad = "\n".join(lines + ["5.0,100,not-a-number,0.1"]) + "\n"
    path = tmp_path / "bad.csv"
    path.write_text(bad)
    with pytest.raises(ValueError, match=f"line {len(lines) + 1}"):
        read_results(path)


def test_read_results_rejects_wrong_column_count(tmp_path, small_config):
    result = run_sweep(_tiny_spec(small_config), workers=1)
    lines = format_results(result).strip().split("\n")
    lines.append("5.0,100,2")
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_results(path)


def test_read_results_rejects_missing_header(tmp_path, small_config):
    result = run_sweep(_tiny_spec(small_config), workers=1)
    lines = [
        l
        for l in format_results(result).strip().split("\n")
        if not l.startswith("# master_seed:")
    ]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="master_seed"):
        read_results(path)


def test_read_results_rejects_truncated_file(tmp_path, small_config):
    result = run_sweep(_tiny_spec(small_config), workers=1)
    text = format_results(result)
    path = tmp_path / "bad.csv"
    path.write_text(text[: text.rindex(",")])
    with pytest.raises(ValueError):
        read_results(path)


def test_read_results_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_results(tmp_path / "nope.csv")


# --- plot data -----------------------------------------------------------


def test_emit_plot_data(tmp_path, small_config):
    r1 = run_sweep(_tiny_spec(small_config), workers=1)
    r2 = run_sweep(
        _tiny_spec(small_config, snr_db_points=(2.0, 4.0), scenario_label="variant"),
        workers=1,
    )
    path = tmp_path / "plot.tsv"
    emit_plot_data([r1, r2], path)
    rows = [line.split("\t") for line in path.read_text().strip().split("\n")]
    assert rows[0] == ["snr_db", "proposed", "variant"]
    assert [r[0] for r in rows[1:]] == ["0.0", "2.0", "4.0"]
    # Grids only partially overlap; the gaps are explicit.
    assert rows[1][2] == "NA"
    assert rows[3][1] == "NA"
    assert "e-" in rows[2][1] or "e+" in rows[2][1]


def test_emit_plot_data_rejects_no_results(tmp_path):
    with pytest.raises(ValueError, match="at least one result"):
        emit_plot_data([], tmp_path / "plot.tsv")
    assert not (tmp_path / "plot.tsv").exists()


def test_emit_plot_data_rejects_duplicate_labels(tmp_path, small_config):
    r1 = run_sweep(_tiny_spec(small_config), workers=1)
    with pytest.raises(ValueError, match="label"):
        emit_plot_data([r1, r1], tmp_path / "plot.tsv")


def test_sweep_result_equality_ignores_wall_time(small_config):
    spec = _tiny_spec(small_config)
    a = run_sweep(spec, workers=1)
    b = dataclasses.replace(a, wall_time_s=a.wall_time_s + 5.0)
    assert a == b


# SHA-256 of format_results for every scenario and decoder on the default
# config, on QPSK, and on QPSK with two receive antennas: 0-16 dB in 4 dB
# steps, a 100-error stop and a 300-block cap.  alamouti-sf takes only the
# exhaustive decoder.
PINNED_TEXT_SHA256 = {
    ("bpsk", "proposed", EXHAUSTIVE):
        "a272a70e74adb8d36566fce584c561111c5e5d788524ce759bb9e0d34a8b4435",
    ("bpsk", "proposed", DECOUPLED):
        "45dcd3bc330fb645e596c018a0e3eaae290e7f9325d8fc15d383a6da0a70a466",
    ("bpsk", "qosf-p1", EXHAUSTIVE):
        "ce402c6cd5485cc833abffee9c0c68b2bad9b79a2b33d7280c7500dd441ccbc2",
    ("bpsk", "qosf-p1", DECOUPLED):
        "024f22278e527777136b14c2f4b0563531ae00514fb84e693a1f9df60797b20c",
    ("bpsk", "alamouti-sf", EXHAUSTIVE):
        "957eba3163e25f8c6407dc4acb36dd594b23540a13fbeaf912843f190edbec33",
    ("qpsk", "proposed", EXHAUSTIVE):
        "624548f30b117cc332235521a5634ebf047b649e93f81c2701c927d7d594768e",
    ("qpsk", "proposed", DECOUPLED):
        "ce1ee9ae1e248e0211e41c8c8a2a46a02588a512478940788a3b1d806e0d5370",
    ("qpsk", "qosf-p1", EXHAUSTIVE):
        "22fb5307e706c43bc2dbe0d372b482a454723c47f03a318e2613e3fc30d38819",
    ("qpsk", "qosf-p1", DECOUPLED):
        "49c24f204491f3cb59f47c3e3d6723647dd639cccca7a5fe8429e2e98a80a15a",
    ("qpsk", "alamouti-sf", EXHAUSTIVE):
        "1e54c506162ee94719eb943aa7cea826beb21d60120da2138fd4fbb12eddaa0a",
    ("qpsk-rx2", "proposed", EXHAUSTIVE):
        "9b491ea10c28ca326fd1cfe42957025c99aea9b36d9fbe59ed47e2b41152e1ad",
    ("qpsk-rx2", "proposed", DECOUPLED):
        "b12d9102c4852b8053ee2e105d37c170e9b8dbd365bd68cb01df100c71ba48af",
    ("qpsk-rx2", "qosf-p1", EXHAUSTIVE):
        "2f8f3b21a5aeb371097e1dd1edc60965e6452182c83065f6bebecc81133f1397",
    ("qpsk-rx2", "qosf-p1", DECOUPLED):
        "f49d4d030c6cb277481fe6ecad4a4b8c531ab9ef6753f56adf3cbdae2ddeb312",
    ("qpsk-rx2", "alamouti-sf", EXHAUSTIVE):
        "87a7087704abf673cf21fecc57f3cf6ba536ad6faf3f05a620ba915b20faa0f7",
}


def test_results_texts_pinned():
    """Results files stay byte-identical for a given (config, seed).

    A change that keeps every results byte leaves these digests as they are.
    Re-pin them only in a change that alters results bytes on purpose, and
    say there why the bytes changed.
    """
    configs = {"bpsk": {}, "qpsk": {"constellation": QPSK},
               "qpsk-rx2": {"constellation": QPSK, "num_rx": 2}}
    got = {}
    for name, scenario, decoder in PINNED_TEXT_SHA256:
        spec = scenario_spec(scenario, SystemConfig(**configs[name]), decoder_mode=decoder,
                             snr_db_points=(0.0, 4.0, 8.0, 12.0, 16.0), min_bit_errors=100,
                             max_ofdm_blocks=300)
        text = format_results(run_sweep(spec, workers=1))
        got[name, scenario, decoder] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got == PINNED_TEXT_SHA256


def test_results_texts_pinned_under_another_blas_kernel():
    # numpy's OpenBLAS picks its kernel at run time; Prescott is an old
    # generic one.  decode's products must give the same bytes under it.
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_results_texts_pinned"],
        env=env, cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
