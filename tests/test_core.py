import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from oracles import demodulate, interleaved_complex_normal, label_table_modulate, labels_to_bits
from qosf.core import (
    BPSK,
    QPSK,
    NotPowerOfTwoError,
    OddBitCountError,
    bits_per_symbol,
    complex_normal,
    constellation_points,
    hadamard,
    is_power_of_two,
    modulate,
)


def test_is_power_of_two():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)


@pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 32])
def test_hadamard_matches_scipy(order):
    npt.assert_array_equal(hadamard(order), scipy.linalg.hadamard(order))


def test_hadamard_rejects_other_orders():
    for bad in (0, 3, 6, 12):
        with pytest.raises(NotPowerOfTwoError):
            hadamard(bad)


def test_hadamard_orthogonality():
    h = hadamard(8)
    npt.assert_array_equal(h @ h.T, 8 * np.eye(8, dtype=np.int64))


def test_constellations_unit_energy():
    for name in (BPSK, QPSK):
        pts = constellation_points(name)
        assert pts.size == 2 ** bits_per_symbol(name)
        assert len(set(pts.tolist())) == pts.size
        npt.assert_allclose(np.abs(pts), 1.0, atol=1e-15)


def test_unknown_constellation():
    with pytest.raises(ValueError, match="unknown constellation"):
        constellation_points("8psk")


def test_bpsk_mapping():
    npt.assert_array_equal(modulate([0, 1], BPSK), [1.0 + 0j, -1.0 + 0j])


def test_qpsk_gray_mapping():
    # First bit selects the real sign, second the imaginary sign.
    s = modulate([0, 0, 0, 1, 1, 0, 1, 1], QPSK) * np.sqrt(2)
    npt.assert_allclose(s, [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], atol=1e-15)


@pytest.mark.parametrize("name", [BPSK, QPSK])
def test_modulate_demodulate_round_trip(name):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=600)
    npt.assert_array_equal(demodulate(modulate(bits, name), name), bits)


def test_modulate_rejects_bad_input():
    with pytest.raises(ValueError):
        modulate([0, 2, 1], BPSK)
    for name in (BPSK, QPSK):
        with pytest.raises(ValueError, match="only 0 and 1"):
            modulate([-1, 0], name)
    with pytest.raises(OddBitCountError):
        modulate([0, 1, 1], QPSK)
    with pytest.raises(ValueError):
        modulate([[0, 1]], BPSK)


@pytest.mark.parametrize("name", [BPSK, QPSK])
def test_modulate_matches_the_label_table(name):
    # Labels come from shifts and adds, not an integer product with the
    # place values: every label, then a random stream, gives the same points.
    k = bits_per_symbol(name)
    every = labels_to_bits(np.arange(1 << k), name)
    stream = np.random.default_rng(8).integers(0, 2, size=600)
    for bits in (every, stream, every[:0]):
        got = modulate(bits, name)
        assert got.dtype == np.complex128
        assert np.array_equal(got, label_table_modulate(bits, name))


def test_demodulate_tie_goes_to_first_point():
    # 0 is equidistant from every point; the first enumerated point wins.
    assert demodulate([0.0], BPSK).tolist() == [0]
    assert demodulate([0.0], QPSK).tolist() == [0, 0]


def test_demodulate_noisy_nearest():
    npt.assert_array_equal(demodulate([0.9 + 0.2j, -1.2 - 0.3j], BPSK), [0, 1])


def test_complex_normal_moments():
    rng = np.random.default_rng(42)
    z = complex_normal(rng, (200_000,))
    assert z.dtype == np.complex128
    assert abs(np.mean(z)) < 0.01
    assert abs(np.var(z) - 1.0) < 0.01
    # Real and imaginary parts split the variance evenly.
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01


def test_complex_normal_prefix_property():
    # Drawing fewer samples from the same stream yields a prefix of the
    # longer draw; sweep comparisons rely on this to share randomness.
    a = complex_normal(np.random.default_rng(11), (6,))
    b = complex_normal(np.random.default_rng(11), (2, 2))
    npt.assert_array_equal(a[:4], b.reshape(-1))


@pytest.mark.parametrize("shape", [(), (5,), (2, 1, 2, 3)])
def test_complex_normal_is_the_interleaved_sum(shape):
    # The draws are read as complex through a view, not summed as re + 1j*im:
    # the same values, for one generator and for a batch.
    one = complex_normal(np.random.default_rng(11), shape)
    assert np.array_equal(one, interleaved_complex_normal(np.random.default_rng(11), shape))
    batch = complex_normal([np.random.default_rng(s) for s in range(4)], shape)
    want = interleaved_complex_normal([np.random.default_rng(s) for s in range(4)], shape)
    assert batch.shape == (4, *shape) and batch.dtype == np.complex128
    assert np.array_equal(batch, want)
