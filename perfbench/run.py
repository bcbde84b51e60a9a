"""qosf benchmark: one workload, one seed, timed for a fixed number of seconds.

Usage, from the repository root:

    python3 perfbench/run.py --workload curve-p2 --seed 1 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics (setup_s, blocks_per_s,
cpu_ms_per_block, peak_rss_mib); with --trace 1 the per-layer ones.  It runs
qosf from the source tree next to this directory, checks the outputs
against perfbench/reference.py, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}.  Problems go to stderr, and a
run record (environment, rounds, probes, problems) to perfbench/out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
# The benchmark unsets them: thread use is the program's own behaviour.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
             "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# Production blocks per spec re-run against the reference ML search.
DECODER_SAMPLES = {"bpsk": 8, "qpsk": 2}

now = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User + system CPU of this process and of its children that have ended."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def environment(inherited: dict) -> dict:
    import numpy as np
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_vars_unset": inherited,
        "QOSF_WORKERS": os.environ.get("QOSF_WORKERS"),
    }


def probe_setup(wl, count: int):
    """Set-up timings of `count` fresh interpreters, one after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probes = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), wl.name, str(wl.seed), str(wl.outdir)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def check_outputs(wl, rounds):
    """Every correctness check of the workload, on the rounds it ran."""
    import checks
    import workloads

    problems = []
    good = [r for r in rounds if r.texts]
    if not good:
        return ["no round produced results"]
    first = good[0].texts
    if any(r.texts != first for r in good):
        problems.append("rounds with identical inputs wrote different results")
    problems += checks.check_bound_helper()
    for index, (spec, text) in enumerate(zip(wl.specs, first)):
        rows = workloads.parse_rows(text)
        per_block = wl.bits_per_block(spec)
        problems += checks.check_counts(spec, rows, per_block)
        problems += checks.check_bound(spec, rows)
        samples = DECODER_SAMPLES[spec.config.constellation]
        problems += checks.check_decoder(spec, rows, per_block, samples, [wl.seed, index])
        if spec.config.constellation == "qpsk":
            problems += checks.check_noiseless(spec)
    if wl.uses_cli:
        from qosf import harness

        if harness.read_results(wl.outdir / "results.csv").spec != wl.specs[0]:
            problems.append("the CLI's results header does not describe the expected spec")
        if "proposed: diversity_order=" not in good[-1].cli_output:
            problems.append(f"qosf report printed no summary: {good[-1].cli_output!r}")
        parallel = wl.outdir / "results-workers2.csv"
        ok, text = workloads.run_cli(wl.cli_simulate_args(parallel, 2))
        if not ok or parallel.read_bytes() != first[0].encode():
            problems.append(f"--workers 2 results differ from --workers 1: {text}")
    return problems


def timed_run(wl, seconds: float):
    rounds, walls, cpus = [], [], []
    start = now()
    while True:
        c0, t0 = cpu_seconds(), now()
        rounds.append(wl.round())
        walls.append(now() - t0)
        cpus.append(cpu_seconds() - c0)
        if now() - start >= seconds:
            break
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ok = [i for i, r in enumerate(rounds) if r.blocks]
    if not ok:
        raise SystemExit("error: no round simulated a block")
    metrics = {
        "blocks_per_s": (statistics.median(rounds[i].blocks / walls[i] for i in ok), "blocks/s"),
        "cpu_ms_per_block": (statistics.median(1e3 * cpus[i] / rounds[i].blocks for i in ok), "ms"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    record = [{"blocks": r.blocks, "wall_s": w, "cpu_s": c} for r, w, c in zip(rounds, walls, cpus)]
    return rounds, metrics, record


PER_LAYER_UNITS = {
    "harness.seed_us": "us", "harness.self_us": "us", "harness.point_max_s": "s",
    "harness.write_results_ms": "ms", "harness.read_results_ms": "ms",
    "schemes.encode_us": "us", "schemes.decode_us": "us", "core.modulate_us": "us",
    "codec.encode_us": "us", "channel.draw_us": "us", "channel.response_us": "us",
    "channel.apply_us": "us", "decoder.decode_us": "us", "decoder.groups": "count",
    "config.load_ms": "ms", "cli.overhead_ms": "ms", "trace.overhead_pct": "%",
    "decoder.first_call_ms": "ms", "harness.pool_blocks_per_s": "blocks/s",
}


def traced_run(wl, seconds: float):
    import tracing

    rounds, values, problems = [], [], []
    start = now()
    while True:
        v, p, r = tracing.traced_round(wl)
        rounds.append(r)
        values.append(v)
        problems += p
        if now() - start >= seconds:
            break
    metrics = {name: (statistics.median(v[name] for v in values), unit)
               for name, unit in PER_LAYER_UNITS.items() if name in values[0]}
    groups = {v["decoder.groups"] for v in values}
    if len(groups) != 1:
        problems.append(f"rounds with identical inputs searched {sorted(groups)} groups")
    metrics["decoder.groups"] = (groups.pop(), "count")
    return rounds, metrics, values, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qosf" / "__init__.py").is_file():
        print(f"error: no qosf source tree at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    inherited = {k: os.environ.pop(k) for k in BLAS_VARS if k in os.environ}
    sys.path.insert(0, str(SRC))
    import qosf

    if Path(qosf.__file__).resolve().parent != SRC / "qosf":
        print(f"error: imported qosf from {qosf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.Workload(args.workload, args.seed, outdir)
    wl.write_config()
    wl.setup()

    if args.trace:
        rounds, metrics, detail, problems = traced_run(wl, args.seconds)
    else:
        rounds, metrics, detail = timed_run(wl, args.seconds)
        problems = []
    probes = probe_setup(wl, SETUP_PROBES)
    if args.trace:
        metrics["decoder.first_call_ms"] = (
            statistics.median(p["first_call_ms"] for p in probes), "ms")
    else:
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in probes), "s")
    problems += check_outputs(wl, rounds)

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    record = {"args": vars(args), "environment": environment(inherited), "rounds": detail,
              "probes": probes, "problems": problems, "result": result}
    (outdir / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
