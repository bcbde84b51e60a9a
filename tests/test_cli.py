import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner

from qosf import harness
from qosf.cli import main
from oracles import read_codeword
from qosf.codec import encode
from qosf.config import SystemConfig, config_to_dict
from qosf.core import BPSK, QPSK, modulate
from qosf.decoder import DECOUPLED, EXHAUSTIVE
from qosf.harness import read_results


def _write_config(tmp_path, cfg):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def test_encode_round_trip(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    bits = "0110 1001\n0101 0011\n"
    (tmp_path / "bits.txt").write_text(bits)
    out = tmp_path / "codeword.txt"

    result = CliRunner().invoke(
        main,
        ["encode", "--config", cfg_path, "--bits", str(tmp_path / "bits.txt"), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output

    flat = [int(c) for c in bits if c in "01"]
    expected = encode(modulate(np.array(flat), BPSK), small_config)
    npt.assert_allclose(read_codeword(out), expected.states, atol=1e-15)


def test_encode_rejects_garbage_bits(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    (tmp_path / "bits.txt").write_text("01x1")
    result = CliRunner().invoke(
        main,
        ["encode", "--config", cfg_path, "--bits", str(tmp_path / "bits.txt"), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


def test_encode_rejects_wrong_bit_count(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    (tmp_path / "bits.txt").write_text("0101")
    result = CliRunner().invoke(
        main,
        ["encode", "--config", cfg_path, "--bits", str(tmp_path / "bits.txt"), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


# Bit strings and the exact `qosf encode` dumps they give on small_config,
# one line per (state, antenna) pair and one "re+imj" entry per tone.
ENCODE_BITS = {BPSK: "0110100101010011", QPSK: "01101001010100111100100001110101"}
PINNED_DUMPS = {
    BPSK: [
        ("-0.20710678118654754-0.49999999999999994j,-0.20710678118654754+0.49999999999999994j,"
         "1.2071067811865475-0.5j,1.2071067811865475+0.5j,"
         "1.2071067811865475+0.49999999999999994j,0.5-0.20710678118654752j,"
         "-0.2071067811865475+0.5j,0.4999999999999999+1.2071067811865475j"),
        ("0.20710678118654754+0.49999999999999994j,-0.20710678118654754+0.49999999999999994j,"
         "-1.2071067811865475+0.5j,1.2071067811865475+0.5j,"
         "-0.5-0.20710678118654752j,1.2071067811865475-0.49999999999999994j,"
         "-0.4999999999999999+1.2071067811865475j,-0.2071067811865475-0.5j"),
        ("0.5-0.20710678118654752j,0.5+0.20710678118654752j,"
         "0.5+1.2071067811865475j,0.5-1.2071067811865475j,"
         "0.5+0.20710678118654752j,1.2071067811865475-0.49999999999999994j,"
         "0.4999999999999999-1.2071067811865475j,-0.2071067811865475-0.5j"),
        ("-0.5+0.20710678118654752j,0.5+0.20710678118654752j,"
         "-0.5-1.2071067811865475j,0.5-1.2071067811865475j,"
         "-1.2071067811865475-0.49999999999999994j,0.5-0.20710678118654752j,"
         "0.2071067811865475-0.5j,0.4999999999999999+1.2071067811865475j"),
    ],
    QPSK: [
        ("-0.2928932188134524+5.551115123125783e-17j,-1.0+0.7071067811865475j,"
         "1.7071067811865475-5.551115123125783e-17j,1.0+0.7071067811865476j,"
         "-0.49999999999999994+0.5j,-0.7071067811865476+1.0j,"
         "0.5-0.5j,-0.7071067811865475-1.0j"),
        ("1.0+0.7071067811865475j,-0.2928932188134524-5.551115123125783e-17j,"
         "-1.0+0.7071067811865476j,1.7071067811865475+5.551115123125783e-17j,"
         "0.7071067811865476+1.0j,-0.49999999999999994-0.5j,"
         "0.7071067811865475-1.0j,0.5+0.5j"),
        ("-5.551115123125783e-17-0.7071067811865475j,0.7071067811865475+2.7755575615628914e-17j,"
         "0.0-0.7071067811865475j,0.7071067811865475+0.0j,"
         "-1.2071067811865475-1.2071067811865475j,-0.0+0.7071067811865475j,"
         "-0.20710678118654752-0.20710678118654757j,-2.7755575615628914e-17+0.7071067811865475j"),
        ("-0.7071067811865475+2.7755575615628914e-17j,-5.551115123125783e-17+0.7071067811865475j,"
         "-0.7071067811865475+0.0j,0.0+0.7071067811865475j,"
         "0.0+0.7071067811865475j,-1.2071067811865475+1.2071067811865475j,"
         "2.7755575615628914e-17+0.7071067811865475j,-0.20710678118654752+0.20710678118654757j"),
    ],
}


@pytest.mark.parametrize("constellation", [BPSK, QPSK])
def test_encode_dump_pinned(tmp_path, small_config, constellation):
    cfg_path = _write_config(tmp_path, dataclasses.replace(small_config, constellation=constellation))
    (tmp_path / "bits.txt").write_text(ENCODE_BITS[constellation])
    out = tmp_path / "codeword.txt"
    result = CliRunner().invoke(
        main,
        ["encode", "--config", cfg_path, "--bits", str(tmp_path / "bits.txt"), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote 2 states x 8 tones to {out}\n"
    assert out.read_bytes() == "".join(line + "\n" for line in PINNED_DUMPS[constellation]).encode()


def test_encode_missing_config(tmp_path):
    result = CliRunner().invoke(
        main,
        ["encode", "--config", str(tmp_path / "none.json"), "--bits", str(tmp_path / "b"), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


def test_simulate_writes_parsable_results(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    out = tmp_path / "run.csv"
    result = CliRunner().invoke(
        main,
        [
            "simulate", "--config", cfg_path, "--snr", "0,2", "--out", str(out),
            "--min-errors", "5", "--max-blocks", "20",
        ],
    )
    assert result.exit_code == 0, result.output
    parsed = read_results(out)
    assert [p.snr_db for p in parsed.points] == [0.0, 2.0]
    assert parsed.spec.scenario_label == "proposed"
    assert parsed.spec.config.master_seed == small_config.master_seed


def test_simulate_scenario_and_seed_override(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    out = tmp_path / "p1.csv"
    result = CliRunner().invoke(
        main,
        [
            "simulate", "--config", cfg_path, "--snr", "0", "--out", str(out),
            "--scenario", "qosf-p1", "--seed", "123",
            "--min-errors", "5", "--max-blocks", "20",
        ],
    )
    assert result.exit_code == 0, result.output
    parsed = read_results(out)
    assert parsed.spec.config.num_states == 1
    assert parsed.spec.config.master_seed == 123
    assert parsed.spec.scenario_label == "qosf-p1"


def test_simulate_noiseless(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    out = tmp_path / "clean.csv"
    result = CliRunner().invoke(
        main,
        [
            "simulate", "--config", cfg_path, "--snr", "0", "--out", str(out),
            "--noiseless", "--min-errors", "5", "--max-blocks", "4",
        ],
    )
    assert result.exit_code == 0, result.output
    assert all(p.bit_errors == 0 for p in read_results(out).points)


def test_simulate_rejects_bad_snr_list(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    result = CliRunner().invoke(
        main,
        ["simulate", "--config", cfg_path, "--snr", "0,up,4", "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("snr_text,bad", [("nan", "nan"), ("inf", "inf"), ("0,nan", "nan"),
                                          ("-inf", "-inf")])
def test_simulate_rejects_non_finite_snr(tmp_path, small_config, snr_text, bad):
    cfg_path = _write_config(tmp_path, small_config)
    out = tmp_path / "o"
    result = CliRunner().invoke(
        main, ["simulate", "--config", cfg_path, "--snr", snr_text, "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert f"SNR point {bad} dB is not finite" in result.output
    assert not out.exists()


@pytest.mark.parametrize("snr_text,bad", [("4000", "4000.0"), ("-4000", "-4000.0"),
                                          ("3080", "3080.0")])
def test_simulate_rejects_snr_outside_the_bound(tmp_path, small_config, snr_text, bad):
    cfg_path = _write_config(tmp_path, small_config)
    out = tmp_path / "o"
    result = CliRunner().invoke(
        main, ["simulate", "--config", cfg_path, f"--snr={snr_text}", "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert f"SNR point {bad} dB is outside [-1000, 1000] dB" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("changes", [{}, {"constellation": QPSK},
                                     {"constellation": QPSK, "num_rx": 2}])
def test_simulate_runs_clean_at_the_snr_bound(tmp_path, changes):
    # Any overflow, invalid value or division by zero on the way fails the run.
    cfg_path = _write_config(tmp_path, dataclasses.replace(SystemConfig(), **changes))
    out = tmp_path / "o"
    result = CliRunner().invoke(main, [
        "simulate", "--config", cfg_path, "--snr=-1000,1000", "--out", str(out),
        "--min-errors", "1", "--max-blocks", "2",
    ])
    assert result.exit_code == 0, result.output
    low, high = read_results(out).points
    assert low.bit_errors > 0 and high.bit_errors == 0


def test_simulate_scenario_choices_are_the_harness_table():
    option = next(p for p in main.commands["simulate"].params if p.name == "scenario")
    assert tuple(option.type.choices) == tuple(harness.SCENARIOS)


@pytest.mark.parametrize(
    "key,value",
    [("num_subcarriers", 8.0), ("num_rx", 1.5), ("master_seed", 1.5), ("master_seed", True),
     ("cp_len", 2.5), ("num_states", "2"), ("constellation", ["bpsk"]),
     ("symbol_duration_s", "128e-6"),
     # Entries of the list fields: non-numeric, boolean or non-finite, and a non-list.
     ("delays_s", [0.0, float("nan")]), ("path_powers", [float("nan"), 0.5]),
     ("symbol_duration_s", float("nan")), ("symbol_duration_s", float("inf")),
     ("delays_s", [0.0, "2e-5"]), ("delays_s", [True, 2e-5]), ("delays_s", ["0.0", "2e-5"]),
     ("path_powers", [[0.5, 0.5], [False, 1.0]]), ("rotation_angles", 5),
     ("rotation_angles", ["x", 1, 2]), ("rotation_angles", [float("-inf"), 1, 2]),
     # Sizes too large for the float delay-vs-prefix check.
     pytest.param("cp_len", 10**400, id="cp_len-10**400"),
     pytest.param("num_subcarriers", 10**400, id="num_subcarriers-10**400")],
)
def test_simulate_rejects_mistyped_config_value(tmp_path, small_config, key, value):
    data = config_to_dict(small_config)
    data[key] = value
    cfg_path = tmp_path / "system.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o"
    result = CliRunner().invoke(
        main, ["simulate", "--config", str(cfg_path), "--snr", "0", "--max-blocks", "1",
               "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: {key} must be")
    assert "Traceback" not in result.output and not out.exists()


def test_simulate_rejects_huge_num_states_before_expanding_lists(tmp_path, monkeypatch):
    # A million states with flat delay and power lists: the angle count
    # refuses it before each list is copied once per state.
    def expand(*args):
        raise AssertionError("per-state lists expanded")

    monkeypatch.setattr("qosf.config._per_state", expand)
    cfg_path = tmp_path / "system.json"
    cfg_path.write_text(json.dumps(
        {"num_states": 10**6, "delays_s": [0.0, 2e-5], "path_powers": [0.5, 0.5]}))
    out = tmp_path / "o"
    result = CliRunner().invoke(
        main, ["simulate", "--config", str(cfg_path), "--snr", "0", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output == "error: num_states * code_paths must be a power of two, got 2000000\n"
    assert not out.exists()


def test_simulate_reports_memory_error(tmp_path, small_config, monkeypatch):
    def out_of_memory(spec, workers=None):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(harness, "run_sweep", out_of_memory)
    cfg_path = _write_config(tmp_path, small_config)
    result = CliRunner().invoke(
        main, ["simulate", "--config", cfg_path, "--snr", "0", "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2, result.output
    assert result.output == "error: Unable to allocate 8.00 TiB for an array\n"


def test_simulate_rejects_unknown_scenario(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    result = CliRunner().invoke(
        main,
        ["simulate", "--config", cfg_path, "--scenario", "mrc", "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


def test_optimize_angles_output():
    result = CliRunner().invoke(
        main, ["optimize-angles", "--pl", "2", "--resolution", str(np.pi / 18)]
    )
    assert result.exit_code == 0, result.output
    assert "metric_name: min_product_distance" in result.output
    assert "best_angles:" in result.output


def test_optimize_angles_cap_exit_code():
    result = CliRunner().invoke(
        main, ["optimize-angles", "--pl", "4", "--resolution", str(np.pi / 300)]
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("pl", ["2048", "4096", str(2 ** 22)])
def test_optimize_angles_cap_with_huge_pl(pl):
    # The grid would hold 36 ** (pl - 1) points; the cap check must not
    # spell that number out.
    result = CliRunner().invoke(main, ["optimize-angles", "--pl", pl])
    assert result.exit_code == 3, result.output
    assert result.output == f"error: grid search needs 36**{int(pl) - 1} evaluations, cap is 10000000\n"


def test_optimize_angles_refuses_huge_difference_tables():
    # One grid point per axis passes the grid cap; the difference table must
    # be refused before it is built, and its size never spelled out.
    result = CliRunner().invoke(
        main, ["optimize-angles", "--pl", "16384", "--resolution", str(np.pi)]
    )
    assert result.exit_code == 2, result.output
    assert "needs 3**16384 vectors; not supported" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("resolution", ["1.0", "0", "-0.0", "nan", "inf"])
def test_optimize_angles_bad_resolution(resolution):
    result = CliRunner().invoke(
        main, ["optimize-angles", "--pl", "2", "--resolution", resolution]
    )
    assert result.exit_code == 2
    assert "resolution" in result.output and "Traceback" not in result.output


# Reports of `qosf optimize-angles`, pinned byte for byte.  The BPSK ones
# run at the default resolution of pi/36.  The QPSK one, at pi/12, is a
# near-tie case, where computing the rotated differences in another product
# order lands on a different optimum.
PINNED_REPORTS = {
    "bpsk-pl2": (["--pl", "2"], """\
metric_name: min_product_distance
metric_value: 4.0
best_angles: 0.5323254218582705
grid_resolution: 0.08726646259971647
evaluations: 57
"""),
    "bpsk-pl4": (["--pl", "4"], """\
metric_name: min_product_distance
metric_value: 16.0
best_angles: 0.5323254218582705, 1.1431906600562858, 1.8500490071139892
grid_resolution: 0.08726646259971647
evaluations: 46719
"""),
    "qpsk-pl4": (["--pl", "4", "--constellation", "qpsk", "--resolution", str(np.pi / 12)], """\
metric_name: min_product_distance
metric_value: 1.2906354564366056
best_angles: 1.0995574287564274, 2.38237442897226, 1.8587756533739608
grid_resolution: 0.2617993877991494
evaluations: 1791
"""),
}


@pytest.mark.parametrize("args, report", PINNED_REPORTS.values(), ids=PINNED_REPORTS)
def test_optimize_angles_pinned(args, report):
    result = CliRunner().invoke(main, ["optimize-angles", *args])
    assert result.exit_code == 0, result.output
    assert result.output == report


def _make_results(tmp_path, small_config, label, name):
    cfg_path = _write_config(tmp_path, small_config)
    out = tmp_path / name
    args = [
        "simulate", "--config", cfg_path, "--snr", "0,2,4", "--out", str(out),
        "--min-errors", "5", "--max-blocks", "40",
    ]
    if label != "proposed":
        args += ["--scenario", label]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return out


def test_report_summarizes_and_plots(tmp_path, small_config):
    a = _make_results(tmp_path, small_config, "proposed", "a.csv")
    b = _make_results(tmp_path, small_config, "qosf-p1", "b.csv")
    plot = tmp_path / "plot.tsv"
    result = CliRunner().invoke(
        main, ["report", str(a), str(b), "--plot-out", str(plot), "--window", "2"]
    )
    assert result.exit_code == 0, result.output
    assert "proposed:" in result.output
    assert "qosf-p1:" in result.output
    header = plot.read_text().split("\n", 1)[0]
    assert header.split("\t") == ["snr_db", "proposed", "qosf-p1"]


@pytest.mark.parametrize("window", ["0", "-1", "1"])
def test_report_rejects_window_below_two(tmp_path, small_config, window):
    a = _make_results(tmp_path, small_config, "proposed", "a.csv")
    result = CliRunner().invoke(
        main, ["report", str(a), "--plot-out", str(tmp_path / "p.tsv"), "--window", window]
    )
    assert result.exit_code == 2, result.output
    assert f"window {window} is too small" in result.output
    assert not (tmp_path / "p.tsv").exists()


def test_report_rejects_duplicate_labels(tmp_path, small_config):
    a = _make_results(tmp_path, small_config, "proposed", "a.csv")
    result = CliRunner().invoke(
        main, ["report", str(a), str(a), "--plot-out", str(tmp_path / "p.tsv")]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda text: text.replace("snr_db,bits,errors,ber", "who,knows"), "column header"),
        # The last data row (line 15) with no bits, negative errors, or more
        # errors than bits.
        (lambda text: _replace_last_row(text, "4.0,0,0,0.00000e+00"), "line 15"),
        (lambda text: _replace_last_row(text, "4.0,320,-1,0.00000e+00"), "line 15"),
        (lambda text: _replace_last_row(text, "4.0,320,375,1.17188e+00"), "line 15"),
        (lambda text: re.sub("(?m)^# config: .*$", "# config: [1, 2]", text), "config header"),
        (lambda text: re.sub("(?m)^# config: .*$", '# config: {"num_paths": 2', text),
         "config header"),
        # Header values that do not parse, and booleans other than true/false.
        (lambda text: re.sub("(?m)^# master_seed: .*$", "# master_seed: abc", text),
         "header 'master_seed'"),
        (lambda text: re.sub("(?m)^# snr_db_points: .*$", "# snr_db_points: 0.0,x", text),
         "header 'snr_db_points'"),
        (lambda text: re.sub("(?m)^# noiseless: .*$", "# noiseless: yes", text),
         "header 'noiseless'"),
        (lambda text: re.sub("(?m)^# independent_streams: .*$", "# independent_streams: 1", text),
         "header 'independent_streams'"),
        # Headers that parse but disagree with the config header or the rows.
        (lambda text: re.sub("(?m)^# master_seed: .*$", "# master_seed: 5", text),
         "header 'master_seed': 5 disagrees with the config header's 0"),
        (lambda text: re.sub("(?m)^# snr_db_points: .*$", "# snr_db_points: 0.0,2.0", text),
         "header 'snr_db_points': 0.0,2.0 disagrees with the SNRs of the data rows"),
        # Rows that parse but cannot come from the header's run: bits that are
        # not whole 16-bit blocks, more blocks than the cap of 40, a ber cell
        # that is not errors/bits, and a row of 3,200 blocks under a cap of 20
        # whose ber is ten times its counts'.
        (lambda text: _replace_last_row(text, "4.0,328,3,9.14634e-03"),
         "line 15: 328 bits is not a whole number of 16-bit blocks"),
        (lambda text: _replace_last_row(text, "4.0,800,3,3.75000e-03"),
         "line 15: 50 blocks exceed the max_ofdm_blocks header's 40"),
        (lambda text: _replace_last_row(text, "4.0,320,3,9.37500e-02"),
         "line 15: ber 0.09375 is not errors/bits = 9.37500e-03"),
        (lambda text: _replace_last_row(text, "4.0,320,3,9.37501e-03"),
         "line 15: ber 0.00937501 is not errors/bits = 9.37500e-03"),
        (lambda text: _replace_last_row(
            re.sub("(?m)^# max_ofdm_blocks: .*$", "# max_ofdm_blocks: 20", text),
            "4.0,51200,91,1.77734e-02"),
         "line 15: 3200 blocks exceed the max_ofdm_blocks header's 20"),
        # A row that breaks its header's stop rule: 3 errors in 20 blocks, so
        # the run would have gone on towards 5 errors or 40 blocks.
        (lambda text: _replace_last_row(text, "4.0,320,3,9.37500e-03"),
         "line 15: 3 errors in 20 blocks stop short of both the min_bit_errors header's 5 "
         "and the max_ofdm_blocks header's 40"),
        # A row past the stop rule: a point stops at the first block that
        # reaches 5 errors, so it ends with at most 4 + 16 of them.
        (lambda text: _replace_last_row(text, "4.0,320,300,9.37500e-01"),
         "line 15: 300 errors reach the min_bit_errors header's 5 plus a whole 16-bit block"),
        # A header key given twice, which used to let the later value win.
        (lambda text: text.replace("# scheme:", "# scenario: other\n# scheme:"),
         "line 2: repeated header 'scenario'"),
        # Header lines out of place or malformed, and a file of headers only.
        (lambda text: text + "# note: late\n", "line 16: header after data rows"),
        (lambda text: text.replace("# scheme: ", "# scheme "), "line 2: expected '# key: value'"),
        (lambda text: text[:text.index("snr_db,bits")], "truncated file, no column header"),
    ],
    ids=["column-header", "zero-bits", "negative-errors", "errors-over-bits",
         "config-not-object", "config-not-json", "seed-not-int", "snr-not-float",
         "noiseless-not-bool", "independent-not-bool", "seed-not-config", "snr-not-rows",
         "bits-not-blocks", "blocks-over-cap", "ber-not-counts",
         "ber-off-in-last-digit", "ber-and-blocks-off", "stops-short", "too-many-errors",
         "repeated-header", "header-after-rows", "header-without-colon", "no-column-header"],
)
def test_report_rejects_corrupt_file(tmp_path, small_config, corrupt, message):
    a = _make_results(tmp_path, small_config, "proposed", "a.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text(corrupt(a.read_text()))
    result = CliRunner().invoke(
        main, ["report", str(bad), "--plot-out", str(tmp_path / "p.tsv")]
    )
    assert result.exit_code == 2, result.output
    assert message in result.output


def _replace_last_row(text, row):
    lines = text.rstrip("\n").split("\n")
    return "\n".join(lines[:-1] + [row]) + "\n"


# Data rows of `qosf simulate --snr 0,4,8 --max-blocks 40` on small_config for
# every scenario, decoder and constellation; alamouti-sf takes only the
# exhaustive decoder.  The alamouti-sf rows were written by the former
# separate Alamouti scheme, and the depth-one code must reproduce them exactly.
PINNED_ROWS = {
    ("proposed", EXHAUSTIVE, BPSK):
        ["0.0,640,83,1.29688e-01", "4.0,640,9,1.40625e-02", "8.0,640,0,0.00000e+00"],
    ("proposed", EXHAUSTIVE, QPSK):
        ["0.0,1056,204,1.93182e-01", "4.0,1280,129,1.00781e-01", "8.0,1280,28,2.18750e-02"],
    ("proposed", DECOUPLED, BPSK):
        ["0.0,640,101,1.57812e-01", "4.0,640,21,3.28125e-02", "8.0,640,9,1.40625e-02"],
    ("proposed", DECOUPLED, QPSK):
        ["0.0,1056,204,1.93182e-01", "4.0,1280,177,1.38281e-01", "8.0,1280,95,7.42188e-02"],
    ("qosf-p1", EXHAUSTIVE, BPSK):
        ["0.0,320,33,1.03125e-01", "4.0,320,8,2.50000e-02", "8.0,320,3,9.37500e-03"],
    ("qosf-p1", EXHAUSTIVE, QPSK):
        ["0.0,640,134,2.09375e-01", "4.0,640,84,1.31250e-01", "8.0,640,15,2.34375e-02"],
    ("qosf-p1", DECOUPLED, BPSK):
        ["0.0,320,35,1.09375e-01", "4.0,320,14,4.37500e-02", "8.0,320,6,1.87500e-02"],
    ("qosf-p1", DECOUPLED, QPSK):
        ["0.0,640,137,2.14062e-01", "4.0,640,90,1.40625e-01", "8.0,640,49,7.65625e-02"],
    ("alamouti-sf", EXHAUSTIVE, BPSK):
        ["0.0,320,47,1.46875e-01", "4.0,320,22,6.87500e-02", "8.0,320,3,9.37500e-03"],
    ("alamouti-sf", EXHAUSTIVE, QPSK):
        ["0.0,640,135,2.10938e-01", "4.0,640,83,1.29688e-01", "8.0,640,29,4.53125e-02"],
}

# A whole alamouti-sf results file in the format written before the config
# had code_paths: the depth-one code is implied by the scheme, and the unused
# rotation angle is present.
OLD_ALAMOUTI_FILE = """\
# scenario: alamouti-sf
# scheme: alamouti-sf
# decoder_mode: exhaustive
# snr_db_points: 0.0,4.0,8.0
# min_bit_errors: 200
# max_ofdm_blocks: 40
# noiseless: false
# independent_streams: false
# master_seed: 0
# code_version: 0.1.0
# config: {"constellation": "bpsk", "cp_len": 2, "delays_s": [[0.0, 3.2e-05]], \
"master_seed": 0, "num_paths": 2, "num_rx": 1, "num_states": 1, "num_subcarriers": 8, \
"num_tx": 2, "path_powers": [[0.5, 0.5]], "rotation_angles": [0.0], \
"symbol_duration_s": 0.000128}
snr_db,bits,errors,ber
0.0,320,47,1.46875e-01
4.0,320,22,6.87500e-02
8.0,320,3,9.37500e-03
"""


@pytest.mark.parametrize("scenario,decoder,constellation", list(PINNED_ROWS),
                         ids=["-".join(key) for key in PINNED_ROWS])
def test_simulate_rows_pinned(tmp_path, small_config, scenario, decoder, constellation):
    cfg = dataclasses.replace(small_config, constellation=constellation)
    cfg_path = _write_config(tmp_path, cfg)
    out = tmp_path / "rows.csv"
    result = CliRunner().invoke(
        main,
        ["simulate", "--config", cfg_path, "--scenario", scenario, "--decoder", decoder,
         "--snr", "0,4,8", "--max-blocks", "40", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert text.split("snr_db,bits,errors,ber\n")[1].splitlines() == PINNED_ROWS[
        scenario, decoder, constellation]
    if scenario == "alamouti-sf":
        config = read_results(out).spec.config
        assert (config.num_states, config.code_paths, config.num_paths) == (1, 1, 2)
        assert config.rotation_angles == ()


@pytest.mark.parametrize("decoder", [EXHAUSTIVE, DECOUPLED])
def test_old_alamouti_results_file_loads(tmp_path, decoder):
    # The former scheme ran exhaustive ML whatever the decoder flag said, so
    # an old file labelled decoupled loads as what actually produced it.
    path = tmp_path / "old.csv"
    path.write_text(OLD_ALAMOUTI_FILE.replace("decoder_mode: exhaustive", f"decoder_mode: {decoder}"))
    result = read_results(path)
    config = result.spec.config
    assert (config.num_states, config.code_paths, config.num_paths) == (1, 1, 2)
    assert config.rotation_angles == ()
    assert result.spec.scheme == "alamouti-sf"
    assert result.spec.decoder_mode == EXHAUSTIVE
    assert [(p.snr_db, p.bits_simulated, p.bit_errors) for p in result.points] == [
        (0.0, 320, 47), (4.0, 320, 22), (8.0, 320, 3)]

    plot = tmp_path / "plot.tsv"
    report = CliRunner().invoke(main, ["report", str(path), "--plot-out", str(plot)])
    assert report.exit_code == 0, report.output
    assert "alamouti-sf: diversity_order=1.494 snr_at_ber_1e-3=NA" in report.output
    assert plot.read_text().splitlines()[1:] == [
        "0.0\t1.46875e-01", "4.0\t6.87500e-02", "8.0\t9.37500e-03"]


def test_simulate_p1_at_depth_one_is_alamouti(tmp_path, small_config):
    cfg = dataclasses.replace(small_config, code_paths=1, rotation_angles=(np.pi / 2,))
    cfg_path = _write_config(tmp_path, cfg)
    for scenario in ("qosf-p1", "alamouti-sf"):
        out = tmp_path / f"{scenario}.csv"
        result = CliRunner().invoke(
            main,
            ["simulate", "--config", cfg_path, "--scenario", scenario,
             "--snr", "0,4,8", "--max-blocks", "40", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = out.read_text().split("snr_db,bits,errors,ber\n")[1].splitlines()
        assert rows == PINNED_ROWS["alamouti-sf", EXHAUSTIVE, BPSK]


def test_simulate_p1_rejects_depth_above_two(tmp_path):
    cfg = SystemConfig(num_paths=4, num_subcarriers=8, cp_len=3,
                       delays_s=(0.0, 1.6e-5, 3.2e-5, 4.8e-5), path_powers=(0.25,) * 4,
                       rotation_angles=(np.pi / 4,) * 7)
    cfg_path = _write_config(tmp_path, cfg)
    out = tmp_path / "p1.csv"
    result = CliRunner().invoke(
        main, ["simulate", "--config", cfg_path, "--scenario", "qosf-p1", "--snr", "0",
               "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "code_paths = 4" in result.output and not out.exists()


def test_simulate_rejects_alamouti_with_decoupled_decoder(tmp_path, small_config):
    cfg_path = _write_config(tmp_path, small_config)
    out = tmp_path / "al.csv"
    result = CliRunner().invoke(
        main,
        ["simulate", "--config", cfg_path, "--scenario", "alamouti-sf",
         "--decoder", "decoupled", "--snr", "0", "--out", str(out)],
    )
    assert result.exit_code == 2
    assert "alamouti-sf" in result.output and "exhaustive" in result.output
    assert not out.exists()


def test_simulate_rejects_non_integer_workers_env(tmp_path, small_config, monkeypatch):
    monkeypatch.setenv("QOSF_WORKERS", "2.5")
    cfg_path = _write_config(tmp_path, small_config)
    result = CliRunner().invoke(
        main, ["simulate", "--config", cfg_path, "--snr", "0", "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "QOSF_WORKERS" in result.output
