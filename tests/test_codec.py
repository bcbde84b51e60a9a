import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

from oracles import alamouti, combine, encode_group, read_codeword
from qosf.codec import (
    SfCodeword,
    build_theta,
    encode,
    group_codewords,
    write_codeword,
)
from qosf.core import BPSK, QPSK, hadamard, modulate

REFERENCE_ANGLES = (np.pi / 4, np.pi / 2, 3 * np.pi / 4)


def test_build_theta_zero_angles_is_hadamard():
    npt.assert_allclose(build_theta((0.0, 0.0, 0.0), 4), hadamard(4), atol=1e-15)


def test_build_theta_pl2():
    npt.assert_allclose(build_theta((np.pi / 2,), 2), [[1, 1j], [1, -1j]], atol=1e-15)


@pytest.mark.parametrize("pl,angles", [(2, (0.7,)), (4, REFERENCE_ANGLES), (8, tuple(np.linspace(0.1, 2.0, 7)))])
def test_theta_scaled_unitary(pl, angles):
    theta = build_theta(angles, pl)
    npt.assert_allclose(theta.conj().T @ theta, pl * np.eye(pl), atol=1e-12)


def test_build_theta_wrong_count():
    with pytest.raises(ValueError):
        build_theta((0.1, 0.2), 4)


def test_combine_reference_value():
    # All-ones input: first combined value is
    # (1 + e^{j pi/4} + e^{j pi/2} + e^{j 3pi/4}) / 2.
    out = combine(np.ones(8), build_theta(REFERENCE_ANGLES, 4))
    assert out[0] == pytest.approx(0.5 + 1.2071067811865475j, abs=1e-14)
    assert out[1] == pytest.approx(out[0], abs=1e-14)


def test_combine_preserves_group_energy():
    rng = np.random.default_rng(2)
    theta = build_theta(REFERENCE_ANGLES, 4)
    for _ in range(20):
        group = modulate(rng.integers(0, 2, 16), QPSK)
        out = combine(group, theta)
        # theta/sqrt(PL) is unitary on each sub-stream.
        assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(group) ** 2), abs=1e-12)


def test_combine_distance_invariance():
    # Norms of rotated difference vectors match the raw ones; this is what
    # keeps the squared Euclidean distance spectrum intact.
    theta = build_theta(REFERENCE_ANGLES, 4)
    for d in np.ndindex(3, 3, 3, 3):
        vec = 2.0 * (np.array(d) - 1)
        npt.assert_allclose(
            np.linalg.norm(theta @ vec), 2 * np.linalg.norm(vec), atol=1e-12
        )


def test_alamouti_block():
    x1, x2 = 1 + 2j, 3 - 1j
    npt.assert_array_equal(
        alamouti(x1, x2), [[1 + 2j, 3 - 1j], [-3 - 1j, 1 - 2j]]
    )


def test_encode_group_state_slicing():
    combined = np.arange(8, dtype=complex) + 1  # values 1..8
    s1 = encode_group(combined, 1, 2)
    s2 = encode_group(combined, 2, 2)
    npt.assert_array_equal(s1[0], [1, 2])
    npt.assert_array_equal(s1[2], [3, 4])
    npt.assert_array_equal(s2[0], [5, 6])
    npt.assert_array_equal(s2[2], [7, 8])
    assert s1.shape == (4, 2)


def test_group_codewords_matches_scalar_path():
    rng = np.random.default_rng(5)
    theta = build_theta(REFERENCE_ANGLES, 4)
    groups = modulate(rng.integers(0, 2, 32), BPSK).reshape(4, 8)
    batch = group_codewords(groups, theta, 2, 2)
    for g in range(4):
        combined = combine(groups[g], theta)
        for p in (1, 2):
            npt.assert_allclose(batch[g, p - 1], encode_group(combined, p, 2), atol=1e-13)


def test_encode_shapes_and_energy(small_config):
    rng = np.random.default_rng(0)
    for name in (BPSK, QPSK):
        cfg = dataclasses.replace(small_config, constellation=name)
        symbols = modulate(rng.integers(0, 2, 16 * (1 if name == BPSK else 2)), name)
        cw = encode(symbols, cfg)
        assert cw.states.shape == (2, 2, 8)
        # Unit-modulus inputs give exactly one unit of energy per tone-state
        # slot across the antenna pair.
        total = np.sum(np.abs(cw.states) ** 2)
        assert total == pytest.approx(2 * 2 * 8, abs=1e-9)


def test_encode_alamouti_structure(small_config):
    rng = np.random.default_rng(1)
    cw = encode(modulate(rng.integers(0, 2, 16), BPSK), small_config).states
    npt.assert_allclose(cw[:, 0, 1::2], -np.conj(cw[:, 1, 0::2]), atol=1e-13)
    npt.assert_allclose(cw[:, 1, 1::2], np.conj(cw[:, 0, 0::2]), atol=1e-13)


def test_encode_fills_every_tone(small_config):
    cw = encode(modulate(np.zeros(16, dtype=int), BPSK), small_config).states
    assert np.all(np.abs(cw) > 1e-6)


def test_encode_rejects_wrong_symbol_count(small_config):
    with pytest.raises(ValueError):
        encode(np.ones(15, dtype=complex), small_config)


def test_codeword_file_round_trip(tmp_path, small_config):
    rng = np.random.default_rng(9)
    cw = encode(modulate(rng.integers(0, 2, 32), QPSK), small_config)
    path = tmp_path / "codeword.txt"
    write_codeword(cw, path)
    npt.assert_array_equal(read_codeword(path), cw.states)


def test_write_codeword_refuses_a_batch(tmp_path, small_config):
    # A batch of two blocks truncated the file, then raised a TypeError.
    rng = np.random.default_rng(9)
    cw = encode(modulate(rng.integers(0, 2, 32), BPSK).reshape(2, -1), small_config)
    path = tmp_path / "codeword.txt"
    with pytest.raises(ValueError, match=re.escape(f"got shape {cw.states.shape}")):
        write_codeword(cw, path)
    assert not path.exists()


def test_read_codeword_rejects_ragged_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1+0j,2+0j\n1+0j\n")
    with pytest.raises(ValueError):
        read_codeword(path)
