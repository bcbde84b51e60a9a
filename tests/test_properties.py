"""Property-based checks for the algebraic helpers and the results format."""

import pathlib
import tempfile

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings, strategies as st

from qosf import SystemConfig
from qosf.codec import build_theta
from oracles import demodulate
from qosf.core import BPSK, QPSK, hadamard, modulate
from qosf.decoder import DECOUPLED, EXHAUSTIVE
from qosf.harness import (SCHEME_ALAMOUTI, SCHEME_QOSF, BerPoint, SweepResult, SweepSpec,
                          format_results, read_results)
from qosf.schemes import alamouti_variant


@given(st.lists(st.integers(0, 1), min_size=2, max_size=80).filter(lambda b: len(b) % 2 == 0))
def test_round_trip_any_bits(bits):
    bits = np.asarray(bits)
    for name in (BPSK, QPSK):
        npt.assert_array_equal(demodulate(modulate(bits, name), name), bits)


@given(st.sampled_from([1, 2, 4, 8, 16]))
def test_hadamard_is_orthogonal(order):
    h = hadamard(order)
    npt.assert_array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
    assert set(np.unique(h)) <= {-1, 1}


@given(st.lists(st.floats(0.0, float(np.pi) - 1e-9), min_size=3, max_size=3))
def test_theta_always_scaled_unitary(angles):
    theta = build_theta(angles, 4)
    npt.assert_allclose(theta.conj().T @ theta, 4 * np.eye(4), atol=1e-10)


@st.composite
def _sweep_results(draw):
    snrs = draw(
        st.lists(
            st.floats(-20.0, 40.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    snrs = sorted(snrs)
    max_blocks = draw(st.integers(1, 10**6))
    min_errors = draw(st.integers(1, 10**6))
    config = SystemConfig(master_seed=draw(st.integers(0, 2**32)))
    # alamouti-sf takes only its one-state, depth-one code and the exhaustive decoder.
    alamouti = draw(st.booleans())
    spec = SweepSpec(
        config=alamouti_variant(config) if alamouti else config,
        snr_db_points=tuple(snrs),
        min_bit_errors=min_errors,
        max_ofdm_blocks=max_blocks,
        decoder_mode=EXHAUSTIVE if alamouti else draw(st.sampled_from([EXHAUSTIVE, DECOUPLED])),
        scenario_label=draw(st.sampled_from(["proposed", "qosf-p1", "a b c"])),
        scheme=SCHEME_ALAMOUTI if alamouti else SCHEME_QOSF,
        noiseless=draw(st.booleans()),
        independent_streams=draw(st.booleans()),
    )
    # The reader accepts only rows a run could write: whole blocks of the
    # code's bits (one per BPSK symbol), at most max_ofdm_blocks of them,
    # fewer only once the errors reach min_bit_errors, and errors short of
    # that plus a whole block, where the point stops.
    per_block = spec.config.num_groups * spec.config.symbols_per_group
    points = []
    for s in snrs:
        blocks = draw(st.integers(1, max_blocks))
        errors = draw(st.integers(0, min(per_block * blocks, min_errors - 1 + per_block)))
        if errors < min_errors:
            blocks = max_blocks
        points.append(BerPoint(s, per_block * blocks, errors))
    return SweepResult(
        spec=spec,
        points=points,
        code_version=draw(st.sampled_from(["0.1.0", "9.9.9"])),
    )


@settings(max_examples=40, deadline=None)
@given(_sweep_results())
def test_results_format_round_trip(result):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "run.csv"
        path.write_text(format_results(result))
        again = read_results(path)
    assert again == result
    assert format_results(again) == format_results(result)
