"""Reference model of the code and the channel, written from their definitions.

Nothing here imports qosf: the checks compare the program against this file.

* The code: each group of 2PL symbols splits into its odd-position stream a
  and even-position stream b.  Both go through theta = H(PL) diag(1, e^{j w_1},
  ..., e^{j w_{PL-1}}), H the Sylvester Hadamard matrix, scaled by 1/sqrt(PL).
  State p carries combined values p*L .. p*L+L-1 of each stream as L stacked
  Alamouti blocks [[u, v], [-v*, u*]] (rows are tones, columns antennas) on
  the group's 2L consecutive tones.
* The channel: per state, receive and transmit antenna, L taps with variance
  from the configured power profile and delays from the configured delay
  profile; the received tone is sqrt(gamma / 2) H c + z, z unit-variance.
* The genie-aided matched-filter bound (MFB): a genie reveals every symbol
  but one BPSK symbol s_k, which the receiver then decides with error
  probability Q(sqrt(2 gamma g_k)), g_k = ||H c(e_k)||^2 / 2.  No detector
  without the genie does better, so no measured BER may sit below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NUM_TX = 2


def constellation(name: str) -> np.ndarray:
    """Points in label order: BPSK 0 -> +1; QPSK Gray, first bit the real sign."""
    if name == "bpsk":
        return np.array([1.0, -1.0], dtype=complex)
    if name == "qpsk":
        r = 1 / math.sqrt(2)
        return np.array([r + 1j * r, r - 1j * r, -r + 1j * r, -r - 1j * r])
    raise ValueError(f"unknown constellation {name!r}")


def bits_to_labels(bits: np.ndarray, name: str) -> np.ndarray:
    k = 1 if name == "bpsk" else 2
    labels = np.zeros(bits.size // k, dtype=np.int64)
    for i in range(k):
        labels = 2 * labels + bits[i::k]
    return labels


def labels_to_bits(labels: np.ndarray, name: str) -> np.ndarray:
    k = 1 if name == "bpsk" else 2
    return np.stack([(labels >> (k - 1 - i)) & 1 for i in range(k)], axis=1).ravel()


def sylvester(order: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), h)
    if h.shape[0] != order:
        raise ValueError(f"Hadamard order {order} is not a power of two")
    return h


@dataclass(frozen=True)
class RefCode:
    """One space-frequency code and the channel it rides on.

    code_paths is the code's stacking depth L; it may be less than the
    channel's tap count (the Alamouti baseline is P = 1, L = 1 over two taps).
    """

    num_states: int
    code_paths: int
    angles: tuple
    constellation: str
    delays_s: tuple  # per state, per tap
    path_powers: tuple  # per state, per tap
    spacing_hz: float
    num_rx: int
    num_subcarriers: int

    @property
    def pl(self) -> int:
        return self.num_states * self.code_paths

    @property
    def span(self) -> int:
        return 2 * self.code_paths

    @property
    def num_groups(self) -> int:
        return self.num_subcarriers // self.span

    def theta(self) -> np.ndarray:
        phases = np.exp(1j * np.concatenate(([0.0], np.asarray(self.angles, dtype=float))))
        return sylvester(self.pl) * phases[None, :]

    def group_codewords(self, groups: np.ndarray) -> np.ndarray:
        """[G, 2PL] symbols -> [G, P, 2L tones, 2 antennas] transmit entries."""
        groups = np.asarray(groups, dtype=complex)
        theta = self.theta() / math.sqrt(self.pl)
        out = np.zeros((groups.shape[0], self.num_states, self.span, NUM_TX), dtype=complex)
        for row in range(self.pl):
            u = groups[:, 0::2] @ theta[row]
            v = groups[:, 1::2] @ theta[row]
            p, k = divmod(row, self.code_paths)
            out[:, p, 2 * k, 0] = u
            out[:, p, 2 * k, 1] = v
            out[:, p, 2 * k + 1, 0] = -np.conj(v)
            out[:, p, 2 * k + 1, 1] = np.conj(u)
        return out

    def codeword(self, bits: np.ndarray) -> np.ndarray:
        """Bit block -> [P, 2 antennas, num_subcarriers], zero past the last group."""
        symbols = constellation(self.constellation)[bits_to_labels(bits, self.constellation)]
        blocks = self.group_codewords(symbols.reshape(self.num_groups, 2 * self.pl))
        states = np.zeros((self.num_states, NUM_TX, self.num_subcarriers), dtype=complex)
        for m in range(self.num_groups):
            states[:, :, m * self.span:(m + 1) * self.span] = blocks[m].transpose(0, 2, 1)
        return states

    def candidates(self):
        """Every group symbol tuple, first symbol most significant, and its codeword."""
        points = constellation(self.constellation)
        q, n = points.size, 2 * self.pl
        index = np.arange(q ** n)
        digits = np.stack([(index // q ** (n - 1 - t)) % q for t in range(n)], axis=1)
        return digits, self.group_codewords(points[digits])

    def ml_labels(self, samples, response, snr_linear, cands=None):
        """Exhaustive ML per group: argmin ||y - sqrt(gamma/2) H c||^2.

        samples [P, Nc, Mr], response [P, Nc, Mr, 2].  Returns the chosen
        labels [G, 2PL] and, per group, the metric of every candidate [G, K],
        so a caller can tell a floating-point tie from a wrong decision.
        """
        digits, cw = cands if cands is not None else self.candidates()
        scale = math.sqrt(snr_linear / NUM_TX)
        metrics = np.empty((self.num_groups, digits.shape[0]))
        for m in range(self.num_groups):
            tones = slice(m * self.span, (m + 1) * self.span)
            h = response[:, tones]  # [P, 2L, Mr, 2]
            y = samples[:, tones]  # [P, 2L, Mr]
            diff = scale * np.einsum("pnji,kpni->kpnj", h, cw) - y[None]
            metrics[m] = np.sum(np.abs(diff) ** 2, axis=(1, 2, 3))
        return digits[np.argmin(metrics, axis=1)], metrics

    def unit_gains(self, draws: int, seed: int) -> np.ndarray:
        """g_k = ||H c(e_k)||^2 / 2 per draw and symbol position, [draws, 2PL].

        Taps are drawn here from the configured profile.  Only the first
        group's tones are evaluated: the response is wide-sense stationary
        across tones, so every group sees the same statistics.  BPSK only.
        """
        unit = self.group_codewords(np.eye(2 * self.pl))  # [K, P, 2L, 2]
        tones = np.arange(self.span)
        taps_per_state = len(self.delays_s[0])
        delays = np.asarray(self.delays_s)[:, :, None]
        twiddle = np.exp(-2j * np.pi * self.spacing_hz * delays * tones)  # [P, Lch, 2L]
        sigma = np.sqrt(np.asarray(self.path_powers) / 2)[:, None, None, :]
        rng = np.random.default_rng(seed)
        gains = []
        for start in range(0, draws, 20_000):  # keeps the products near 20 MB
            shape = (min(20_000, draws - start), self.num_states, self.num_rx, NUM_TX,
                     taps_per_state)
            taps = sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            response = np.einsum("dpjil,pln->dpnji", taps, twiddle)
            rx = np.einsum("dpnji,kpni->dkpnj", response, unit)
            gains.append(np.sum(np.abs(rx) ** 2, axis=(2, 3, 4)) / NUM_TX)
        return np.concatenate(gains)


def erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function for x >= 0, fractional error below 1.2e-7.

    The Chebyshev-fitted form of Press et al., Numerical Recipes, 2nd ed.,
    section 6.2 (erfcc); numpy has no erfc and scipy is not a dependency.
    """
    t = 1.0 / (1.0 + 0.5 * x)
    poly = 0.17087277
    for c in (-0.82215223, 1.48851587, -1.13520398, 0.27886807, -0.18628806,
              0.09678418, 0.37409196, 1.00002368, -1.26551223):
        poly = c + t * poly
    return t * np.exp(-x * x + poly)


def mfb_ber(gains: np.ndarray, snr_db: float):
    """MFB on BPSK BER at one SNR, and its standard error over the draws."""
    gamma = 10 ** (snr_db / 10)
    per_draw = (0.5 * erfc(np.sqrt(gamma * gains))).mean(axis=1)
    return float(per_draw.mean()), float(per_draw.std(ddof=1) / math.sqrt(per_draw.size))


def mrc_two_branch_ber(snr_db: float) -> float:
    """Closed-form BPSK BER of 2-branch MRC at gamma/2 per branch (Proakis)."""
    g = 10 ** (snr_db / 10) / 2
    mu = math.sqrt(g / (1 + g))
    return ((1 - mu) / 2) ** 2 * (1 + 2 * (1 + mu) / 2)
