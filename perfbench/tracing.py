"""Per-layer timings: the production loop next to a traced copy of it.

A traced round runs every SNR point of every spec twice, back to back.
First run_point itself, untraced and timed.  Then a copy of run_point's loop that calls the same
public functions in the same order, with a timer around each call into a
layer; inside the scheme wrappers, the module attributes schemes.py calls
(modulate, encode, decode) are swapped for timed wrappers for the length of
the round.  The copy's per-point counts must equal run_point's, so the trace
cannot drift from the production loop, and the difference between the two
passes is the tracing overhead.  The harness's self time is the traced
loop's time less its child spans: the untraced pass less the child spans is
a difference of two passes whose noise (a few % of a block) exceeds it.  CLI workloads then run their `qosf`
commands with the harness and config calls the CLI makes timed the same way.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

from qosf import cli, config as config_mod, harness, schemes
from qosf.channel import apply, draw_channel, frequency_response

from checks import STREAM_BITS, STREAM_CHANNEL, STREAM_NOISE

now = time.perf_counter


class Spans:
    """Summed durations (s) and counts per span name."""

    def __init__(self):
        self.total = defaultdict(float)
        self.count = defaultdict(int)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        self.total[name] += seconds
        self.count[name] += count

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            t = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, now() - t)
        return timed


@contextlib.contextmanager
def patched(spans: Spans, targets):
    """Swap module attributes for timed wrappers; restore them on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for (module, attr, name), (_, _, original) in zip(targets, saved):
            setattr(module, attr, spans.wrap(name, original))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


SCHEME_CALLS = [
    (schemes, "modulate", "core.modulate"),
    (schemes, "encode", "codec.encode"),
    (schemes, "decode", "decoder.decode"),
]
CLI_CALLS = [
    (cli, "load_config", "config.load"),
    (harness, "run_sweep", "harness.run_sweep"),
    (harness, "write_results", "harness.write_results"),
    (harness, "read_results", "harness.read_results"),
    (harness, "emit_plot_data", "harness.emit_plot_data"),
    (harness, "estimate_diversity_order", "harness.fit"),
    (harness, "snr_at_ber", "harness.crossing"),
]


def traced_point(spec, snr_db: float, snr_index: int, spans: Spans):
    """run_point's loop with a span around every call into a layer."""
    if spec.independent_streams:
        raise ValueError("the traced loop follows the shared seed tree only")
    cfg = spec.config
    scheme = harness.build_scheme(spec)
    snr_linear = 10.0 ** (snr_db / 10.0)
    seed = cfg.master_seed
    bits_total = errors = block = 0
    while errors < spec.min_bit_errors and block < spec.max_ofdm_blocks:
        t0 = now()
        bit_rng = harness.block_rng(seed, snr_index, block, STREAM_BITS)
        bits = bit_rng.integers(0, 2, size=scheme.bits_per_block, dtype=np.int64)
        t1 = now()
        codeword = scheme.encode_bits(bits)
        t2 = now()
        channel_rng = harness.block_rng(seed, snr_index, block, STREAM_CHANNEL)
        t3 = now()
        realization = draw_channel(cfg, channel_rng)
        t4 = now()
        grid = frequency_response(realization, cfg)
        t5 = now()
        noise_rng = harness.block_rng(seed, snr_index, block, STREAM_NOISE)
        t6 = now()
        received = apply(codeword, grid, snr_linear, noise_rng, noiseless=spec.noiseless)
        t7 = now()
        decoded = scheme.decode_bits(received, grid)
        t8 = now()
        errors += int(np.count_nonzero(decoded != bits))
        bits_total += bits.size
        block += 1
        spans.add("harness.seed", (t1 - t0) + (t3 - t2) + (t6 - t5))
        spans.add("schemes.encode_bits", t2 - t1)
        spans.add("channel.draw", t4 - t3)
        spans.add("channel.response", t5 - t4)
        spans.add("channel.apply", t7 - t6)
        spans.add("schemes.decode_bits", t8 - t7)
        groups = (cfg.num_subcarriers // 2 if spec.scheme == harness.SCHEME_ALAMOUTI
                  else cfg.num_groups)
        spans.add("decoder.groups", 0.0, groups)
    return bits_total, errors, block


def traced_round(wl):
    """One traced round: (per-layer values of this round, problems, round)."""
    problems = []
    spans = Spans()
    point_times = []
    traced_s = 0.0
    blocks = 0
    for spec in wl.specs:
        for i, snr in enumerate(spec.snr_db_points):
            # Alternate which pass goes first, so that what the first pass
            # leaves warm does not show up as tracing overhead.
            for traced_pass in ((False, True) if len(point_times) % 2 else (True, False)):
                t = now()
                if traced_pass:
                    with patched(spans, SCHEME_CALLS):
                        bits, errors, n = traced_point(spec, snr, i, spans)
                    traced_s += now() - t
                else:
                    point = harness.run_point(spec, snr, i)
                    point_times.append(now() - t)
            blocks += n
            if (bits, errors) != (point.bits_simulated, point.bit_errors):
                problems.append(
                    f"{spec.scenario_label} at {snr} dB: traced loop counted {errors} errors "
                    f"in {bits} bits, run_point {point.bit_errors} in {point.bits_simulated}")
    production_s = sum(point_times)

    io = Spans()
    if wl.uses_cli:
        t = now()
        with patched(io, CLI_CALLS):
            round_ = wl.round()
        cli_s = now() - t
        inner = sum(io.total.values())
    else:
        cli_s = inner = 0.0
        t = now()
        config_mod.load_config(wl.config_path)
        io.add("config.load", now() - t)
        round_ = wl.round()
        for result in round_.results:
            path = wl.outdir / f"{result.spec.scenario_label}.csv"
            t = now()
            harness.write_results(result, path)
            io.add("harness.write_results", now() - t)
            t = now()
            back = harness.read_results(path)
            io.add("harness.read_results", now() - t)
            if back.points != result.points:
                problems.append(f"{path.name}: points read back differ from those written")
    # The process-pool path of run_sweep: its results must not depend on the
    # worker count, and its rate shows what a second worker buys.
    t = now()
    pooled = [harness.run_sweep(spec, workers=2) for spec in wl.specs]
    pool_s = now() - t
    if [harness.format_results(r) for r in pooled] != round_.texts:
        problems.append("run_sweep with 2 workers wrote different results than with 1")

    per_block = lambda s: 1e6 * s / blocks
    stages = ("harness.seed", "schemes.encode_bits", "channel.draw", "channel.response",
              "channel.apply", "schemes.decode_bits")
    values = {
        "harness.seed_us": per_block(spans.total["harness.seed"]),
        "harness.self_us": per_block(traced_s - sum(spans.total[s] for s in stages)),
        "harness.point_max_s": max(point_times),
        "harness.write_results_ms": 1e3 * io.total["harness.write_results"],
        "harness.read_results_ms": 1e3 * io.total["harness.read_results"],
        "schemes.encode_us": per_block(spans.total["schemes.encode_bits"]
                                       - spans.total["core.modulate"] - spans.total["codec.encode"]),
        "schemes.decode_us": per_block(spans.total["schemes.decode_bits"]
                                       - spans.total["decoder.decode"]),
        "core.modulate_us": per_block(spans.total["core.modulate"]),
        "codec.encode_us": per_block(spans.total["codec.encode"]),
        "channel.draw_us": per_block(spans.total["channel.draw"]),
        "channel.response_us": per_block(spans.total["channel.response"]),
        "channel.apply_us": per_block(spans.total["channel.apply"]),
        "decoder.decode_us": per_block(spans.total["decoder.decode"]),
        "decoder.groups": spans.count["decoder.groups"],
        "harness.pool_blocks_per_s": blocks / pool_s,
        "config.load_ms": 1e3 * io.total["config.load"],
        "cli.overhead_ms": 1e3 * (cli_s - inner),
        "trace.overhead_pct": 100.0 * (traced_s - production_s) / production_s,
    }
    return values, problems, round_
