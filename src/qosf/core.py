"""Shared primitives: Hadamard matrices, constellations, bit labels, tuple order.

Everything here is a pure function of its inputs; callers may use these
concurrently without synchronization.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

BPSK = "bpsk"
QPSK = "qpsk"

# Point order is the fixed enumeration order used for nearest-point
# tie-breaking and for lexicographic candidate ordering in the ML search.
# Index equals the integer value of the Gray-coded bit label.
_CONSTELLATIONS = {
    BPSK: np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    QPSK: np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0),
}


class CapExceededError(RuntimeError):
    """A configured work cap (search space, grid size) would be exceeded."""


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def constellation_points(constellation: str) -> np.ndarray:
    """Unit-average-energy points of a named constellation, in enumeration order."""
    try:
        return _CONSTELLATIONS[constellation]
    except KeyError:
        raise ValueError(f"unknown constellation {constellation!r}") from None


def bits_per_symbol(constellation: str) -> int:
    return constellation_points(constellation).size.bit_length() - 1


def product_rows(values, length: int) -> np.ndarray:
    """Every length-tuple over values, one per row, in lexicographic order.

    Row r spells r in base len(values) with the first position as the most
    significant digit, so ties resolved by np.argmin pick the smallest tuple.
    """
    values = np.asarray(values)
    q = values.size
    weights = q ** np.arange(length - 1, -1, -1)
    return values[(np.arange(q ** length)[:, None] // weights) % q]


def hadamard(order: int) -> np.ndarray:
    """Sylvester-ordered +-1 Hadamard matrix of the given power-of-two order.

    Satisfies H @ H.T == order * I exactly (integer entries).  The natural
    Sylvester ordering matters: it fixes the sign pattern of the combined
    symbols across radiation states, so a row-permuted Hadamard matrix would
    produce a different (and untested) codeword layout.  Entry (i, j) of
    Sylvester's recursion H_2n = [[H_n, H_n], [H_n, -H_n]] is (-1) to the
    number of bits i and j share, which is how it is computed here.
    """
    if not is_power_of_two(order):
        raise ValueError(f"Hadamard order must be a power of two, got {order}")
    index = np.arange(order, dtype=np.int64)
    shared = index[:, None] & index
    parity = np.zeros_like(shared)
    while shared.any():
        parity ^= shared & 1
        shared >>= 1
    return 1 - 2 * parity


def modulate(bits, constellation: str) -> np.ndarray:
    """Map a 0/1 bit sequence to unit-energy symbols.

    BPSK: bit 0 -> +1, bit 1 -> -1.  QPSK: Gray-coded bit pairs, first bit
    selects the real sign, second the imaginary sign (0 -> +, 1 -> -).
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if (bits & ~1).any():
        raise ValueError("bits must contain only 0 and 1")
    points = constellation_points(constellation)
    k = bits_per_symbol(constellation)
    if bits.size % k != 0:
        raise ValueError(f"{constellation} needs a multiple of {k} bits, got {bits.size}")
    return points[bits if k == 1 else 2 * bits[0::2] + bits[1::2]]


def complex_normal(rng: np.random.Generator | Sequence[np.random.Generator],
                   shape) -> np.ndarray:
    """Zero-mean circular complex Gaussian samples of unit variance.

    Real and imaginary parts are interleaved in the underlying draw so that a
    leading-dimension prefix of a larger request reproduces the smaller
    request exactly (used for common-random-number pairing across scenarios).
    rng is one generator, or a sequence of generators for a batch: then the
    result is [len(rng), *shape], row i drawn by generator i as it would
    draw shape alone.
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    raw = np.empty((len(rngs), *tuple(shape), 2))
    for row, row_rng in zip(raw, rngs):
        row_rng.standard_normal(out=row)
    samples = raw.view(complex)[..., 0] * np.sqrt(0.5)
    return samples[0] if single else samples
