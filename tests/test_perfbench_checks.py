"""The benchmark's correctness checks hold on small sweeps of the program.

perfbench/checks.py reads attributes off the objects qosf returns (a
codeword's .states, a grid's .response, a received block's .samples), which
test_perfbench_names cannot see: it looks up module-level names only.  So
this runs check_counts, check_decoder and check_noiseless on 2-block BPSK
and QPSK sweeps.  perfbench/ is imported read-only: no bytecode is written
there, and its modules leave sys.modules again.
"""

import sys
from pathlib import Path

import pytest

from qosf import SystemConfig
from qosf.core import BPSK, QPSK
from qosf.harness import SweepSpec, build_scheme, run_sweep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def checks():
    saved = sys.dont_write_bytecode, list(sys.path), set(sys.modules)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved[0], saved[1]
        for name in set(sys.modules) - saved[2]:
            if name in ("checks", "reference"):
                del sys.modules[name]
    return checks


@pytest.mark.parametrize("constellation", [BPSK, QPSK])
def test_perfbench_checks_hold_on_a_two_block_sweep(checks, constellation):
    spec = SweepSpec(config=SystemConfig(constellation=constellation, master_seed=5),
                     snr_db_points=(4.0, 12.0), min_bit_errors=10 ** 9, max_ofdm_blocks=2)
    rows = [(p.snr_db, p.bits_simulated, p.bit_errors) for p in run_sweep(spec, workers=1).points]
    per_block = build_scheme(spec).bits_per_block
    assert all(bits == 2 * per_block for _, bits, _ in rows)
    assert checks.check_counts(spec, rows, per_block) == []
    assert checks.check_decoder(spec, rows, per_block, 2, [5, 0]) == []
    assert checks.check_noiseless(spec, blocks=2) == []
