"""Command line front end: encode, simulate, optimize-angles, report.

Exit codes: 0 on success, 2 on configuration or input errors (including a
run too large to allocate), 3 when a configured search or evaluation cap is
exceeded.
"""

from __future__ import annotations

import dataclasses
import functools
import sys

import click
import numpy as np

from . import angleopt, harness
from .codec import encode, write_codeword
from .config import ConfigError, load_config
from .core import BPSK, CapExceededError, QPSK, modulate
from .decoder import DECOUPLED, EXHAUSTIVE


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CapExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (ValueError, OSError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


@click.group()
def main():
    """Space-frequency code simulator for reconfigurable-antenna MIMO-OFDM."""


@main.command("encode")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="JSON system configuration.")
@click.option("--bits", "bits_path", required=True, type=click.Path(exists=True),
              help="Text file of 0/1 characters (whitespace ignored).")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Codeword dump destination.")
@_handle_errors
def encode_cmd(config_path, bits_path, out_path):
    """Encode a bit file into the per-state codeword dump."""
    config = load_config(config_path)
    with open(bits_path, "r", encoding="utf-8", errors="replace") as fh:
        text = "".join(fh.read().split())
    if not text or set(text) - {"0", "1"}:
        raise ConfigError(f"{bits_path}: expected only 0/1 characters")
    bits = np.fromiter((int(c) for c in text), dtype=np.int64)
    symbols = modulate(bits, config.constellation)
    codeword = encode(symbols, config)
    write_codeword(codeword, out_path)
    states, _, tones = codeword.states.shape
    click.echo(f"wrote {states} states x {tones} tones to {out_path}")


def _parse_snr(text: str) -> tuple:
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"bad SNR list {text!r}; expected comma-separated dB values") from None


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--snr", "snr_text", default=",".join(f"{s:g}" for s in harness.DEFAULT_SNR_DB),
              show_default=True, help="Comma-separated SNR points in dB.")
@click.option("--scenario", type=click.Choice(list(harness.SCENARIOS)),
              default=harness.SweepSpec.scenario_label, show_default=True)
@click.option("--decoder", type=click.Choice([EXHAUSTIVE, DECOUPLED]),
              default=harness.SweepSpec.decoder_mode, show_default=True)
@click.option("--seed", type=int, default=None, help="Override the configured master seed.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--min-errors", type=int, default=harness.SweepSpec.min_bit_errors,
              show_default=True)
@click.option("--max-blocks", type=int, default=harness.SweepSpec.max_ofdm_blocks,
              show_default=True)
@click.option("--noiseless", is_flag=True, help="Disable receiver noise (sanity runs).")
@click.option("--independent", is_flag=True,
              help="Use scenario-specific random streams instead of common random numbers.")
@click.option("--workers", type=int, default=None,
              help="Worker processes; default 1 or $QOSF_WORKERS.")
@_handle_errors
def simulate_cmd(config_path, snr_text, scenario, decoder, seed, out_path,
                 min_errors, max_blocks, noiseless, independent, workers):
    """Monte Carlo BER sweep; writes a results file."""
    config = load_config(config_path)
    if seed is not None:
        config = dataclasses.replace(config, master_seed=seed)
    spec = harness.scenario_spec(
        scenario,
        config,
        snr_db_points=_parse_snr(snr_text),
        min_bit_errors=min_errors,
        max_ofdm_blocks=max_blocks,
        decoder_mode=decoder,
        noiseless=noiseless,
        independent_streams=independent,
    )
    result = harness.run_sweep(spec, workers=workers)
    harness.write_results(result, out_path)
    click.echo(f"wrote {len(result.points)} points to {out_path} "
               f"({result.wall_time_s:.1f} s)")


@main.command("optimize-angles")
@click.option("--pl", type=int, required=True, help="Combined block length P*L.")
@click.option("--resolution", type=float, default=np.pi / 36,
              help="Grid step in radians; must divide pi.  [default: pi/36]")
@click.option("--constellation", type=click.Choice([BPSK, QPSK]), default=BPSK,
              show_default=True)
@_handle_errors
def optimize_angles_cmd(pl, resolution, constellation):
    """Search rotation angles maximizing the minimum product distance."""
    report = angleopt.optimize_angles(constellation, pl, resolution)
    click.echo(angleopt.format_report(report), nl=False)


@main.command("report")
@click.argument("results", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--plot-out", type=click.Path(), default="plot_data.tsv", show_default=True)
@click.option("--window", type=int, default=3, show_default=True,
              help="Points in the diversity-order fit.")
@_handle_errors
def report_cmd(results, plot_out, window):
    """Merge results files into plot data and print per-scenario summaries."""
    loaded = [harness.read_results(path) for path in results]
    # Summaries first, so a bad --window fails before the plot file is written.
    summaries = []
    for result in loaded:
        label = result.spec.scenario_label
        try:
            order = f"{harness.estimate_diversity_order(result.points, window):.3f}"
        except harness.InsufficientDataError:
            order = "NA"
        try:
            crossing = f"{harness.snr_at_ber(result.points, 1e-3):.2f} dB"
        except harness.InsufficientDataError:
            crossing = "NA"
        summaries.append(f"{label}: diversity_order={order} snr_at_ber_1e-3={crossing}")
    harness.emit_plot_data(loaded, plot_out)
    click.echo(f"wrote plot data for {len(loaded)} scenarios to {plot_out}")
    click.echo("\n".join(summaries))


if __name__ == "__main__":
    main()
