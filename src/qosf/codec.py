"""Quasi-orthogonal space-frequency codeword construction.

A block of 2*P*L source symbols per group is phase-rotated and Hadamard
combined, then laid out as L stacked Alamouti sub-blocks per radiation state.
Each state's matrix spans all subcarriers of the group, giving one symbol per
tone per state (rate one) while spreading every source symbol across space,
frequency and radiation state.  With P=1 and L=1 the combiner is the identity
and the code is Alamouti-SF: one Alamouti block per subcarrier pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .core import hadamard

NUM_TX = 2  # Alamouti sub-block size; the construction is specific to two antennas


@dataclass
class SfCodeword:
    """Per-state transmit matrices, one row per antenna, one column per tone.

    states has shape (P, num_tx, num_subcarriers) for one block, with any
    leading block axes in front for a batch.
    """

    states: np.ndarray


def rotation_phases(angles, pl: int) -> np.ndarray:
    """Theta's diagonal (1, e^{j*a1}, ..., e^{j*a_{pl-1}}) for one tuple of
    pl - 1 angles, or for a batch [..., pl - 1] of them as [..., pl]."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1:] != (pl - 1,):
        raise ValueError(f"expected {pl - 1} rotation angles, got {angles.shape}")
    return np.concatenate([np.ones(angles.shape[:-1] + (1,)), np.exp(1j * angles)], axis=-1)


def build_theta(angles, pl: int) -> np.ndarray:
    """Combining matrix: Hadamard times a diagonal of unit phasors.

    theta = H(pl) @ diag(rotation_phases(angles, pl)), so that
    theta^H @ theta = pl * I for any angle choice.
    """
    return hadamard(pl) * rotation_phases(angles, pl)[..., None, :]


@functools.lru_cache(maxsize=16)
def _theta(rotation_angles: tuple, pl: int) -> np.ndarray:
    """build_theta of a config's angles, cached and shared read-only."""
    theta = build_theta(rotation_angles, pl)
    theta.flags.writeable = False
    return theta


def group_windows(per_tone: np.ndarray, config: SystemConfig) -> np.ndarray:
    """[B, M, P, 2L, ...] view of a [B, P, Nc, ...] per-tone array of B blocks:
    group m's window is tones [m*2L, (m+1)*2L) of every state."""
    m, span = config.num_groups, config.group_span
    b, p = per_tone.shape[:2]
    windows = per_tone.reshape(b, p, m, span, *per_tone.shape[3:])
    return windows.swapaxes(1, 2)


def group_codewords(groups, theta: np.ndarray, num_states: int, code_paths: int) -> np.ndarray:
    """Per-state transmit blocks for a batch of symbol groups.

    Each group is rotated and combined, odd- and even-position sub-streams
    separately, by theta / sqrt(PL); state p (0-based) then stacks the L
    Alamouti blocks [[x1, x2], [-x2*, x1*]] of combined values 2pL .. 2(p+1)L - 1.

    groups has shape [G, 2*P*L]; the result has shape [G, P, 2L, num_tx],
    indexed (group, state, local subcarrier, antenna).  Used both by
    :func:`encode` and by the ML decoder's candidate enumeration so the layout
    has a single source of truth.
    """
    groups = np.atleast_2d(np.asarray(groups, dtype=complex))
    kappa = 1.0 / np.sqrt(num_states * code_paths)
    g = groups.shape[0]
    odd = (kappa * (groups[:, 0::2] @ theta.T)).reshape(g, num_states, code_paths)
    even = (kappa * (groups[:, 1::2] @ theta.T)).reshape(g, num_states, code_paths)
    out = np.empty((g, num_states, 2 * code_paths, NUM_TX), dtype=complex)
    out[:, :, 0::2, 0] = odd
    out[:, :, 0::2, 1] = even
    out[:, :, 1::2, 0] = -np.conj(even)
    out[:, :, 1::2, 1] = np.conj(odd)
    return out


def encode(symbols, config: SystemConfig) -> SfCodeword:
    """Build the full per-state codeword set from a symbol stream.

    The stream is split into num_groups consecutive groups of 2*P*L symbols;
    group m occupies subcarriers [m*2L, (m+1)*2L) in every state.  A batch of
    blocks is a [..., symbols] array and gives [..., P, num_tx, Nc] states.
    """
    symbols = np.asarray(symbols, dtype=complex)
    p, el, m = config.num_states, config.code_paths, config.num_groups
    expected = m * config.symbols_per_group
    if symbols.shape[-1:] != (expected,):
        raise ValueError(
            f"expected {expected} symbols ({m} groups of {config.symbols_per_group}), "
            f"got {symbols.shape}"
        )
    lead = symbols.shape[:-1]
    groups = symbols.reshape(-1, config.symbols_per_group)
    theta = _theta(config.rotation_angles, config.pl)
    states = np.zeros((groups.shape[0] // m, p, NUM_TX, config.num_subcarriers), dtype=complex)
    group_windows(states.swapaxes(2, 3), config)[...] = group_codewords(
        groups, theta, p, el
    ).reshape(-1, m, p, 2 * el, NUM_TX)
    return SfCodeword(states=states.reshape(lead + states.shape[1:]))


# Text serialization --------------------------------------------------------


def _format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}j"


def write_codeword(codeword: SfCodeword, path) -> None:
    """One line per (state, antenna) pair, comma-separated "re+imj" entries,
    for one block's [P, 2, Nc] states."""
    if codeword.states.ndim != 3 or codeword.states.shape[1] != NUM_TX:
        raise ValueError(f"write_codeword takes one block's [P, {NUM_TX}, Nc] states, "
                         f"got shape {codeword.states.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for state in codeword.states:
            for row in state:
                fh.write(",".join(_format_complex(z) for z in row) + "\n")
