"""The benchmark's workloads: their inputs, set-up and one round of work.

Importing this module imports qosf, so the set-up probe times it.  A round
is one fixed set of operations: the same specs, the same seed, the same SNR
points every time, so every round of a run does identical work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from qosf import harness, schemes
from qosf.config import load_config
from qosf.decoder import EXHAUSTIVE

# Stopping-rule curve: the top point holds about three quarters of the blocks.
SNR_CURVE = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
CURVE_MIN_ERRORS = 200
CURVE_MAX_BLOCKS = 20_000
# Fixed budgets: min_bit_errors is set past any reachable error count, so
# every point runs exactly its block budget.
SNR_BASELINES = (0.0, 4.0, 8.0, 12.0)
BASELINE_BLOCKS = 250
SNR_QPSK = (6.0, 10.0, 14.0)
QPSK_BLOCKS = 6
NEVER = 10 ** 9

NAMES = ("curve-p2", "baselines-fixed", "qpsk-ml")


@dataclass
class Round:
    """What one round produced: the results text of each spec, and counts."""

    texts: list
    blocks: int
    attempted: int
    failed: int
    cli_output: str = ""
    results: list = dataclasses.field(default_factory=list)


def parse_rows(text: str):
    """(snr_db, bits, errors) of every data row of a results file's text."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("snr_db"):
            continue
        snr, bits, errors, _ = line.split(",")
        rows.append((float(snr), int(bits), int(errors)))
    return rows


class Workload:
    """One named workload for one seed, with its files under outdir."""

    def __init__(self, name: str, seed: int, outdir: Path):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
        self.name = name
        self.seed = seed
        self.outdir = Path(outdir)
        self.config_path = self.outdir / "config.json"
        self.uses_cli = name == "curve-p2"
        self.specs = []

    def write_config(self) -> None:
        """The user's config file: the paper's defaults, seeded from --seed."""
        data = {"master_seed": self.seed}
        if self.name == "qpsk-ml":
            data["constellation"] = "qpsk"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(data, sort_keys=True) + "\n")

    def build_specs(self, config):
        if self.uses_cli:
            # The spec `qosf simulate --scenario proposed` builds from these flags.
            return [harness.SweepSpec(
                config=config, snr_db_points=SNR_CURVE, min_bit_errors=CURVE_MIN_ERRORS,
                max_ofdm_blocks=CURVE_MAX_BLOCKS, decoder_mode=EXHAUSTIVE,
                scenario_label="proposed")]
        if self.name == "baselines-fixed":
            fixed = dict(snr_db_points=SNR_BASELINES, min_bit_errors=NEVER,
                         max_ofdm_blocks=BASELINE_BLOCKS)
            return [
                harness.SweepSpec(config=schemes.p1_variant(config),
                                  scenario_label="qosf-p1", **fixed),
                harness.SweepSpec(config=schemes.alamouti_variant(config),
                                  scenario_label="alamouti-sf",
                                  scheme=harness.SCHEME_ALAMOUTI, **fixed),
            ]
        return [harness.SweepSpec(config=config, snr_db_points=SNR_QPSK,
                                  min_bit_errors=NEVER, max_ofdm_blocks=QPSK_BLOCKS)]

    def setup(self) -> dict:
        """Everything before the first timed block; returns its parts in ms.

        Loads and validates the config, builds the specs, and runs one
        warm-up block per spec twice: the first call builds the decoder's
        candidate tables, the second shows what a warm block costs.
        """
        times = {}
        t0 = time.perf_counter()
        if self.uses_cli:
            importlib.import_module("qosf.cli")
        t1 = time.perf_counter()
        config = load_config(self.config_path)
        self.specs = self.build_specs(config)
        t2 = time.perf_counter()
        first = warm = 0.0
        for spec in self.specs:
            one = dataclasses.replace(spec, max_ofdm_blocks=1)
            for attempt in range(2):
                t = time.perf_counter()
                harness.run_point(one, spec.snr_db_points[0], 0)
                dt = time.perf_counter() - t
                if attempt == 0:
                    first += dt
                else:
                    warm += dt
        times["cli_import_ms"] = 1e3 * (t1 - t0)
        times["config_ms"] = 1e3 * (t2 - t1)
        times["first_call_ms"] = 1e3 * (first - warm)
        return times

    def bits_per_block(self, spec) -> int:
        return harness.build_scheme(spec).bits_per_block

    def round(self) -> Round:
        if self.uses_cli:
            return self._cli_round()
        texts = []
        results = []
        blocks = 0
        for spec in self.specs:
            result = harness.run_sweep(spec, workers=1)
            results.append(result)
            texts.append(harness.format_results(result))
            blocks += sum(p.bits_simulated for p in result.points) // self.bits_per_block(spec)
        points = sum(len(spec.snr_db_points) for spec in self.specs)
        return Round(texts=texts, blocks=blocks, attempted=points, failed=0, results=results)

    def cli_simulate_args(self, out: Path, workers: int):
        return ["simulate", "--config", str(self.config_path),
                "--snr", ",".join(repr(s) for s in SNR_CURVE),
                "--scenario", "proposed", "--decoder", EXHAUSTIVE,
                "--min-errors", str(CURVE_MIN_ERRORS), "--max-blocks", str(CURVE_MAX_BLOCKS),
                "--workers", str(workers), "--out", str(out)]

    def _cli_round(self) -> Round:
        out = self.outdir / "results.csv"
        plot = self.outdir / "plot_data.tsv"
        ok_sim, text_sim = run_cli(self.cli_simulate_args(out, 1))
        ok_rep, text_rep = run_cli(["report", str(out), "--plot-out", str(plot)]) if ok_sim else (False, "")
        points = len(SNR_CURVE)
        if not ok_sim:
            return Round(texts=[], blocks=0, attempted=points + 2, failed=points + 2,
                         cli_output=text_sim)
        text = out.read_text()
        rows = parse_rows(text)
        blocks = sum(bits for _, bits, _ in rows) // self.bits_per_block(self.specs[0])
        return Round(texts=[text], blocks=blocks, attempted=points + 2,
                     failed=0 if ok_rep else 1, cli_output=text_sim + text_rep)


def run_cli(args):
    """Run one `qosf` command in this process; (exited 0, its output)."""
    from qosf import cli
    import click

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code in (0, None), buf.getvalue()
    except click.ClickException as exc:
        return False, buf.getvalue() + exc.format_message()
    return True, buf.getvalue()
