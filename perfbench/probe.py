"""Set-up probe: one fresh interpreter's time to its first timed block.

Usage: python3 perfbench/probe.py <workload> <seed> <outdir>

Times importing qosf, loading and validating the workload's config file
(written by run.py into outdir), building its specs and the warm-up blocks
that build the decoder's candidate tables.  Prints one JSON object.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and qosf)

imported = time.perf_counter()
wl = workloads.Workload(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
parts = wl.setup()
parts["setup_s"] = time.perf_counter() - start
parts["import_ms"] = 1e3 * (imported - start)
print(json.dumps(parts))
