"""Scenario configuration: every knob of the link in one validated object.

Configs load from a flat JSON file whose keys match the field names below.
Unknown keys are rejected so typos fail loudly instead of silently falling
back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from dataclasses import dataclass

from .core import BPSK, constellation_points, is_power_of_two


# Bytes one OFDM block holds per tone, state and receive antenna while it runs:
# its bits, response and samples, and decode's per-tone arrays (scaled
# response, Gram matrices, matched filter, coefficient rows and their product
# with the factor).  The harness sizes its chunks of blocks by it.
TONE_BYTES = 256
# Most bytes one block may hold: 16,384 times the default block's 64 KiB.
# Every stage takes a block whole, so a larger one could not run at all, and
# its sizes could pass every other check yet not be array dimensions.
MAX_BLOCK_BYTES = 1 << 30


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters of the reconfigurable MIMO-OFDM link.

    num_tx / num_rx        transmit / receive antenna counts (num_tx must be 2)
    num_states             radiation pattern states P of the transmit antennas
    num_paths              channel taps per state
    code_paths             stacking depth L of the code, 1..num_paths; defaults
                           to num_paths (1 with P=1 gives Alamouti-SF)
    num_subcarriers        OFDM tones, a multiple of code_paths * num_tx
    cp_len                 cyclic prefix length in samples
    symbol_duration_s      OFDM symbol duration; subcarrier spacing is its inverse
    delays_s               per-state tap delays in seconds, non-decreasing
    path_powers            per-state tap variances, summing to 1 in each state
    constellation          "bpsk" or "qpsk"
    rotation_angles        P*L - 1 combiner rotation angles in [0, 2*pi)
    master_seed            root seed for all randomness
    """

    num_tx: int = 2
    num_rx: int = 1
    num_states: int = 2
    num_paths: int = 2
    code_paths: int | None = None
    num_subcarriers: int = 128
    cp_len: int = 21
    symbol_duration_s: float = 128e-6
    delays_s: tuple[tuple[float, ...], ...] = ((0.0, 20e-6), (0.0, 20e-6))
    path_powers: tuple[tuple[float, ...], ...] = ((0.5, 0.5), (0.5, 0.5))
    constellation: str = BPSK
    rotation_angles: tuple[float, ...] = (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    master_seed: int = 0

    def __post_init__(self):
        if self.code_paths is None:
            object.__setattr__(self, "code_paths", self.num_paths)
        # One ordered pass: types, so a bad value is named here and not by a
        # later use; scalar sizes; P*L and its angles, given one by one, whose
        # count bounds num_states; and only then the per-state lists, which a
        # flat list expands to num_states copies of.
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not _is_finite_number(self.symbol_duration_s):
            raise ConfigError(
                f"symbol_duration_s must be a finite number, got {self.symbol_duration_s!r}"
            )
        if not isinstance(self.constellation, str):
            raise ConfigError(f"constellation must be a string, got {self.constellation!r}")
        object.__setattr__(self, "rotation_angles", _numbers(self.rotation_angles, "rotation_angles"))
        for name in ("num_tx", "num_rx", "num_states", "num_paths", "code_paths",
                     "num_subcarriers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.code_paths > self.num_paths:
            raise ConfigError(
                f"code_paths ({self.code_paths}) must lie in 1..num_paths ({self.num_paths})"
            )
        if self.num_tx != 2:
            raise ConfigError("only num_tx = 2 is supported (Alamouti sub-blocks)")
        if self.cp_len < 0:
            raise ConfigError("cp_len must be non-negative")
        for name in ("num_subcarriers", "cp_len"):  # the prefix check reads both as floats
            if getattr(self, name) > sys.float_info.max:
                raise ConfigError(f"{name} must be at most {sys.float_info.max!r}")
        if self.symbol_duration_s <= 0:
            raise ConfigError("symbol_duration_s must be positive")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in an unsigned 64-bit integer")
        constellation_points(self.constellation)
        if self.num_subcarriers % self.group_span != 0:
            raise ConfigError(
                f"num_subcarriers ({self.num_subcarriers}) must be a multiple of "
                f"code_paths * num_tx ({self.group_span})"
            )
        if not is_power_of_two(self.pl):
            raise ConfigError(
                f"num_states * code_paths must be a power of two, got {self.pl}"
            )
        if len(self.rotation_angles) != self.pl - 1:
            raise ConfigError(
                f"expected {self.pl - 1} rotation angles, got {len(self.rotation_angles)}"
            )
        for a in self.rotation_angles:
            if not 0.0 <= a < 2 * math.pi:
                raise ConfigError(f"rotation angle {a} outside [0, 2*pi)")
        if self.block_bytes > MAX_BLOCK_BYTES:  # name the largest of the sizes it multiplies
            sizes = {"num_subcarriers": self.num_subcarriers, "num_rx": self.num_rx,
                     "num_states": self.num_states}
            name = max(sizes, key=sizes.get)
            raise ConfigError(
                f"{name} must be at most {MAX_BLOCK_BYTES * sizes[name] // self.block_bytes} "
                f"with the other sizes given: one block holds {TONE_BYTES} bytes per tone, "
                f"state and receive antenna, and at most {MAX_BLOCK_BYTES} in all"
            )
        for name in ("delays_s", "path_powers"):
            object.__setattr__(self, name, _per_state(getattr(self, name), self.num_states, name))
        max_delay = 0.0
        for p, (delays, powers) in enumerate(zip(self.delays_s, self.path_powers)):
            if len(delays) != self.num_paths or len(powers) != self.num_paths:
                raise ConfigError(
                    f"state {p}: expected {self.num_paths} delays and path powers"
                )
            if any(d < 0 for d in delays):
                raise ConfigError(f"state {p}: delays must be non-negative")
            if any(b < a for a, b in zip(delays, delays[1:])):
                raise ConfigError(f"state {p}: delays must be non-decreasing")
            if any(v <= 0 for v in powers):
                raise ConfigError(f"state {p}: path powers must be positive")
            total = math.fsum(powers)
            if abs(total - 1.0) > 1e-12:
                raise ConfigError(
                    f"state {p}: path powers must sum to 1 (got {total!r})"
                )
            max_delay = max(max_delay, max(delays))
        if max_delay > self.cp_len * self.sample_period_s + 1e-15:
            raise ConfigError(
                f"max delay {max_delay} s exceeds cyclic prefix "
                f"({self.cp_len} samples = {self.cp_len * self.sample_period_s} s)"
            )

    # Derived quantities ---------------------------------------------------

    @property
    def pl(self) -> int:
        """Combiner size: states times code depth."""
        return self.num_states * self.code_paths

    @property
    def group_span(self) -> int:
        """Subcarriers occupied by one symbol group."""
        return self.code_paths * self.num_tx

    @property
    def num_groups(self) -> int:
        return self.num_subcarriers // self.group_span

    @property
    def symbols_per_group(self) -> int:
        return 2 * self.pl

    @property
    def block_bytes(self) -> int:
        """Bytes one OFDM block holds while it runs, at TONE_BYTES per tone,
        state and receive antenna."""
        return TONE_BYTES * self.num_states * self.num_subcarriers * self.num_rx

    @property
    def subcarrier_spacing_hz(self) -> float:
        return 1.0 / self.symbol_duration_s

    @property
    def sample_period_s(self) -> float:
        return self.symbol_duration_s / self.num_subcarriers


_INTEGER_FIELDS = ("num_tx", "num_rx", "num_states", "num_paths", "code_paths",
                   "num_subcarriers", "cp_len", "master_seed")


def is_integer(value) -> bool:
    """An integer; a bool, a float or a numeric string is not one."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def is_real(value) -> bool:
    """A real number; a bool or a numeric string is not one."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _is_finite_number(value) -> bool:
    """A finite real number; a bool or a numeric string is not one."""
    return is_real(value) and math.isfinite(value)


def _list(value, name: str) -> list:
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return list(value)


def _numbers(value, name: str) -> tuple[float, ...]:
    """A list of finite numbers as a tuple of floats."""
    items = _list(value, name)
    for x in items:
        if not _is_finite_number(x):
            raise ConfigError(f"{name} must be a list of finite numbers, got {x!r} in it")
    return tuple(float(x) for x in items)


def _per_state(value, num_states: int, name: str) -> tuple[tuple[float, ...], ...]:
    """Normalize a per-state list; a flat list is broadcast to every state."""
    seq = _list(value, name)
    if seq and not hasattr(seq[0], "__len__"):
        seq = [seq] * num_states
    if len(seq) != num_states:
        raise ConfigError(f"{name} must have one entry per radiation state")
    return tuple(_numbers(state, name) for state in seq)


_FIELD_NAMES = {f.name for f in dataclasses.fields(SystemConfig)}


def config_from_dict(data: dict) -> SystemConfig:
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return SystemConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> SystemConfig:
    """Read a SystemConfig from a flat JSON file (delays in seconds, angles in radians)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config file must contain a JSON object")
    return config_from_dict(data)


def config_to_dict(config: SystemConfig) -> dict:
    """Plain-JSON representation; inverse of :func:`config_from_dict`."""
    out = dataclasses.asdict(config)
    out["delays_s"] = [list(s) for s in config.delays_s]
    out["path_powers"] = [list(s) for s in config.path_powers]
    out["rotation_angles"] = list(config.rotation_angles)
    return out
