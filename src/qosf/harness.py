"""Seeded Monte Carlo BER engine: sweep SNR, persist results, fit slopes.

Every random draw comes from its own PCG64 generator, seeded as a SeedSequence
whose spawn key is (snr_index, block_index, stream) under the master seed would
seed it, with the scenario's key in front for independent streams; seed_words
computes that tree for a window of blocks at once.  A block's bits are what its
bits node's Generator.integers(0, 2) would draw, read off the node's raw PCG64
words.  So results do not depend on worker count, scheduling or how blocks are
grouped, and schemes sharing a master seed see the same channel and noise per
block (common random numbers).

A point runs its blocks in chunks that pass through every stage in one call
each.  The error counts of a chunk's blocks are summed in block order, and
the point stops at the exact block where one-at-a-time running would have
stopped, so a chunk's later blocks never reach the results.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import itertools
import json
import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .channel import apply, draw_channel, frequency_response
from .config import SystemConfig, config_from_dict, config_to_dict
from .core import is_integer, is_real
from .decoder import DECOUPLED, EXHAUSTIVE
from .schemes import QosfScheme, alamouti_variant, p1_variant
from .version import __version__

SCHEME_QOSF = "qosf"
SCHEME_ALAMOUTI = "alamouti-sf"
_SCHEMES = (SCHEME_QOSF, SCHEME_ALAMOUTI)

# Sub-stream ids under each (snr point, block) seed node.
_STREAM_BITS = 0
_STREAM_CHANNEL = 1
_STREAM_NOISE = 2

# numpy's SeedSequence hash of a pool of four 32-bit words.  Its i-th hash
# constant is INIT * MULT**i mod 2**32, whatever the data being mixed.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Blocks whose seed words run_point computes at once: 70 us + 0.4 us/block on 2 vCPUs.
_WINDOW_BLOCKS = 256

# Byte budget of the arrays one chunk of blocks holds at once, beside what a
# decode call holds once whatever its batch: the product path's metric slice
# or the sphere search's frontier.  It sets how much a sweep's peak resident
# set grows, heap fragmentation included.  On a 2-vCPU host a P=2 BPSK chunk
# cost about 120 us plus 55 us per block, and alternating curve-p2 rounds
# (default code, 0-10 dB, 200-error stop) ran 32-block chunks 1.045x faster
# than 16 and 64-block ones 0.99x as fast as 32 (1.8 and 3.4 MiB chunk peaks).
# Without the heap settings (_keep_heap), 16-block chunks took 11.6 minor
# faults per block and ran 1.28x slower.
_CHUNK_BYTES = 2 * 1024 * 1024

DEFAULT_SNR_DB = tuple(float(s) for s in range(0, 21, 2))
# Largest |SNR| in dB a point may ask for.  10**(SNR/10) must stay a normal
# float, and decode squares its square root into Gram matrices and metrics.
MAX_ABS_SNR_DB = 1000.0


class InvalidSpecError(ValueError):
    """Sweep description fails validation."""


class InsufficientDataError(ValueError):
    """Too few usable points for a slope fit."""


def _check_snr_db(snr_db, name: str) -> float:
    """snr_db as a float; refuse one that is not a real number, is not finite or
    is past MAX_ABS_SNR_DB, naming the input."""
    if not is_real(snr_db):
        raise InvalidSpecError(f"{name} must be a number, got {snr_db!r}")
    if not np.isfinite(snr_db):
        raise InvalidSpecError(f"{name} {snr_db!r} dB is not finite")
    if abs(snr_db) > MAX_ABS_SNR_DB:
        raise InvalidSpecError(f"{name} {snr_db!r} dB is outside [-{MAX_ABS_SNR_DB:g}, "
                               f"{MAX_ABS_SNR_DB:g}] dB")
    return float(snr_db)


@dataclass(frozen=True)
class SweepSpec:
    """Everything run_sweep needs: scenario, stopping rule, decoder choice.

    The config alone selects the code; scheme is a label that is checked
    against it: "alamouti-sf" needs the single-state, depth-one code and the
    exhaustive decoder.  independent_streams breaks the common-random-numbers
    pairing by folding the scenario label into the seed tree, for runs that
    must not share channel draws with other scenarios.
    """

    config: SystemConfig
    snr_db_points: tuple = DEFAULT_SNR_DB
    min_bit_errors: int = 200
    max_ofdm_blocks: int = 20_000
    decoder_mode: str = EXHAUSTIVE
    scenario_label: str = "proposed"
    scheme: str = SCHEME_QOSF
    noiseless: bool = False
    independent_streams: bool = False

    def __post_init__(self):
        if not isinstance(self.config, SystemConfig):
            raise InvalidSpecError(f"config must be a SystemConfig, got {self.config!r}")
        points = self.snr_db_points
        if isinstance(points, (str, bytes)):
            raise InvalidSpecError(f"snr_db_points must be a sequence of numbers, "
                                   f"not the string {points!r}")
        try:
            points = tuple(points)
        except TypeError:
            raise InvalidSpecError(
                f"snr_db_points must be a sequence of numbers, got {points!r}") from None
        for s in points:
            if not is_real(s):
                raise InvalidSpecError(f"snr_db_points entry {s!r} is not a number")
        points = tuple(_check_snr_db(s, "SNR point") for s in points)
        object.__setattr__(self, "snr_db_points", points)
        if not points:
            raise InvalidSpecError("need at least one SNR point")
        if any(later <= earlier for earlier, later in zip(points, points[1:])):
            raise InvalidSpecError("SNR points must be strictly increasing")
        for name in ("min_bit_errors", "max_ofdm_blocks"):
            value = getattr(self, name)
            if not is_integer(value):
                raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise InvalidSpecError(f"{name} must be at least 1")
            object.__setattr__(self, name, int(value))
        if self.max_ofdm_blocks > 1 << 32:  # seed_words takes block indices below 2**32
            raise InvalidSpecError("max_ofdm_blocks must be at most 2**32")
        if self.scheme not in _SCHEMES:
            raise InvalidSpecError(f"unknown scheme {self.scheme!r}")
        if self.decoder_mode not in (EXHAUSTIVE, DECOUPLED):
            raise InvalidSpecError(f"unknown decoder mode {self.decoder_mode!r}")
        cfg = self.config
        if self.scheme == SCHEME_ALAMOUTI and (
            cfg.num_states, cfg.code_paths, self.decoder_mode
        ) != (1, 1, EXHAUSTIVE):
            raise InvalidSpecError(
                "scheme alamouti-sf needs num_states = 1, code_paths = 1 and the "
                f"exhaustive decoder, got {cfg.num_states}, {cfg.code_paths} and "
                f"{self.decoder_mode}"
            )
        for name in ("noiseless", "independent_streams"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise InvalidSpecError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        # The results header stores the label on one line and strips it when read.
        label = self.scenario_label
        if not isinstance(label, str):
            raise InvalidSpecError(f"scenario_label must be a string, got {label!r}")
        if not label or label != label.strip() or any(c in label for c in "\t\n\r"):
            raise InvalidSpecError(f"scenario_label {label!r} must be one non-empty line, unpadded")


@dataclass
class BerPoint:
    snr_db: float
    bits_simulated: int
    bit_errors: int

    def __post_init__(self):
        self.snr_db = _check_snr_db(self.snr_db, "snr_db")
        for name in ("bits_simulated", "bit_errors"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.bits_simulated <= 0 or not 0 <= self.bit_errors <= self.bits_simulated:
            raise ValueError(
                f"{self.bit_errors} errors in {self.bits_simulated} bits; need bits > 0 "
                "and 0 <= errors <= bits"
            )

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_simulated


@dataclass
class SweepResult:
    """A finished sweep; the master seed is spec.config.master_seed."""

    spec: SweepSpec
    points: list
    code_version: str
    wall_time_s: float = field(default=0.0, compare=False)

    def __post_init__(self):
        _check_points(self.spec, self.points)


def _check_points(spec: SweepSpec, points, names=None, bers=None) -> None:
    """Refuse points that a run of spec could not have made, by the rules its
    results file is read back with: one BerPoint per grid SNR, in order, each a
    whole number of blocks, at most max_ofdm_blocks of them, and stopped where
    the stop rule stops.  names[i] (default "point i") starts each message about
    points[i], and bers[i], if given, is the ber it was read with."""
    if not all(isinstance(p, BerPoint) for p in points):
        raise InvalidSpecError(f"points must be BerPoints, got {points!r}")
    if spec.snr_db_points != tuple(p.snr_db for p in points):
        raise InvalidSpecError(
            f"header 'snr_db_points': {','.join(map(repr, spec.snr_db_points))} disagrees "
            "with the SNRs of the data rows")
    per_block = build_scheme(spec).bits_per_block
    for i, point in enumerate(points):
        where = names[i] if names else f"point {i}"
        blocks, rest = divmod(point.bits_simulated, per_block)
        if rest:
            raise InvalidSpecError(
                f"{where}: {point.bits_simulated} bits is not a whole number of "
                f"{per_block}-bit blocks"
            )
        if blocks > spec.max_ofdm_blocks:
            raise InvalidSpecError(
                f"{where}: {blocks} blocks exceed the max_ofdm_blocks header's "
                f"{spec.max_ofdm_blocks}"
            )
        if bers and bers[i] != float(f"{point.ber:.5e}"):
            raise InvalidSpecError(
                f"{where}: ber {bers[i]!r} is not errors/bits = {point.ber:.5e}")
        if point.bit_errors >= spec.min_bit_errors + per_block:  # past the stop's last block
            raise InvalidSpecError(
                f"{where}: {point.bit_errors} errors reach the min_bit_errors header's "
                f"{spec.min_bit_errors} plus a whole {per_block}-bit block")
        if point.bit_errors < spec.min_bit_errors and blocks < spec.max_ofdm_blocks:
            raise InvalidSpecError(
                f"{where}: {point.bit_errors} errors in {blocks} blocks stop short of "
                f"both the min_bit_errors header's {spec.min_bit_errors} and the "
                f"max_ofdm_blocks header's {spec.max_ofdm_blocks}"
            )


# Each named scenario: the config variant it sweeps and the scheme label it
# writes.  The baselines are configurations of the one code.
SCENARIOS = {
    "proposed": (lambda config: config, SCHEME_QOSF),
    "qosf-p1": (p1_variant, SCHEME_QOSF),
    "alamouti-sf": (alamouti_variant, SCHEME_ALAMOUTI),
}


def scenario_spec(name: str, config: SystemConfig, **fields) -> SweepSpec:
    """SweepSpec for the named scenario run on (a variant of) config."""
    if name not in SCENARIOS:
        raise InvalidSpecError(f"unknown scenario {name!r}; one of {', '.join(SCENARIOS)}")
    variant, scheme = SCENARIOS[name]
    return SweepSpec(config=variant(config), scheme=scheme, scenario_label=name, **fields)


def build_scheme(spec: SweepSpec) -> QosfScheme:
    return QosfScheme(spec.config, decoder_mode=spec.decoder_mode)


def seed_words(master_seed: int, snr_index: int, first: int, stop: int,
               scenario_key: int | None = None) -> np.ndarray:
    """[B, 3, 4] uint64 PCG64 seed words of the bits, channel and noise nodes of
    blocks first..stop - 1 at once: row [b, s] is SeedSequence(master_seed, spawn_key=
    (key, snr_index, first + b, s)).generate_state(4, np.uint64), key left out if
    None.  Each is an integer, not a bool: the seed below 2**64 and each spawn-key
    entry below 2**32, one word each."""
    spawn = (snr_index,) if scenario_key is None else (scenario_key, snr_index)
    if not (all(map(is_integer, (master_seed, *spawn, first, stop)))
            and 0 <= master_seed < 1 << 64 and all(0 <= v < 1 << 32 for v in spawn)
            and 0 <= first <= stop <= 1 << 32):
        raise ValueError(f"seed tree node ({master_seed}, {spawn}, blocks {first}.."
                         f"{stop - 1}) is outside seed < 2**64, entries < 2**32")
    pool = np.random.SeedSequence(master_seed, spawn_key=spawn).pool
    words = (np.arange(first, stop, dtype=np.uint32)[:, None],
             np.arange(3, dtype=np.uint32))
    a = np.cumprod([_INIT_A] + [_MULT_A] * 4 * (6 + len(spawn)), dtype=np.uint32)
    b = np.cumprod([_INIT_B] + [_MULT_B] * 8, dtype=np.uint32)
    with np.errstate(over="ignore"):
        for k, word in enumerate(words, start=4 + len(spawn)):  # hashed once per pool word
            hashed = (word[..., None] ^ a[4 * k:4 * k + 4]) * a[4 * k + 1:4 * k + 5]
            pool = _MIX_L * pool - _MIX_R * (hashed ^ hashed >> 16)
            pool ^= pool >> 16
        # generate_state: eight 32-bit outputs, cycling through the pool.
        out = (np.concatenate([pool, pool], axis=-1) ^ b[:-1]) * b[1:]
        out = (out ^ out >> 16).astype(np.uint64)
    # PCG64 reads a row's memory as four consecutive words.
    return np.ascontiguousarray(out[..., 0::2] | out[..., 1::2] << np.uint64(32))


@functools.cache
def _bit_generators():
    """The seed tree's one node maker: a node's PCG64 from its row of seed_words,
    built on first use so that importing qosf does not load numpy.random.  Its
    Generator is np.random.Generator of that PCG64."""
    from numpy.random import PCG64, bit_generator

    @dataclass
    class SeedWords(bit_generator.ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: PCG64(SeedWords(words))


def block_rng(master_seed: int, snr_index: int, block_index: int, stream: int,
              scenario_key: int | None = None) -> np.random.Generator:
    """Generator for one (point, block, stream) node of the seed tree."""
    if not is_integer(stream) or not 0 <= stream <= _STREAM_NOISE:
        raise ValueError(f"stream must be 0 (bits), 1 (channel) or 2 (noise), got {stream!r}")
    words = seed_words(master_seed, snr_index, block_index, block_index + 1, scenario_key)
    return np.random.Generator(_bit_generators()(words[0, stream]))


def _chunk_cap(spec: SweepSpec) -> int:
    """Most blocks one chunk may hold within _CHUNK_BYTES at a block's
    block_bytes: 32 for the default P=2 code on 128 tones, in BPSK or QPSK,
    and 64 for P=1.  What a decode call holds once is not charged."""
    return max(1, _CHUNK_BYTES // spec.config.block_bytes)


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_heap() -> None:
    """Keep the block loop's arrays on glibc's heap, once per process.

    By default glibc maps an array past its mmap threshold (128 KiB, rising
    with what is freed) on its own, and hands the top of the heap back once
    more than twice that is free, so every chunk faults its pages in anew.  An
    array below 16 MiB, more than a chunk or a decode call holds, now comes
    from the heap, and up to 64 MiB of free top stays mapped.  Both are set:
    setting either freezes the other where glibc's dynamic rule has left it.
    Elsewhere than glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, OSError, ValueError):  # no confstr, or no such name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _chunk_errors(spec: SweepSpec, scheme: QosfScheme, snr_linear: float,
                  words: np.ndarray) -> np.ndarray:
    """Bit errors of each block of a chunk, every stage run once on the whole chunk.

    words holds the chunk's rows of seed_words, one per block.  Each block
    draws from its own generators as a lone block would, whatever its chunk.
    """
    # Generator.integers(0, 2) is Lemire's bounded method on 32-bit draws, the
    # low half of each PCG64 word first; it never rejects a range of 2 and
    # returns a draw's top bit.  bits_per_block is even: two bits per word.
    pcg64, words_per_block = _bit_generators(), scheme.bits_per_block // 2
    raw = np.stack([pcg64(w[_STREAM_BITS]).random_raw(words_per_block) for w in words])
    bits = (raw.astype("<u8", copy=False).view("<u4") >> 31).astype(np.int64)
    generator = np.random.Generator
    channels = [generator(pcg64(w[_STREAM_CHANNEL])) for w in words]
    grid = frequency_response(draw_channel(spec.config, channels), spec.config)
    noise = None if spec.noiseless else [generator(pcg64(w[_STREAM_NOISE])) for w in words]
    received = apply(scheme.encode_bits(bits), grid, snr_linear, noise, noiseless=spec.noiseless)
    return np.count_nonzero(scheme.decode_bits(received, grid) != bits, axis=1)


def run_point(spec: SweepSpec, snr_db: float, snr_index: int) -> BerPoint:
    """Simulate one SNR point until min_bit_errors or the block cap.

    snr_index is the point's position in the sweep grid; it selects the
    random stream, so sweeps whose grids share a common prefix draw the same
    channels and noise at the same SNR.

    Blocks run in chunks of at most _chunk_cap (_CHUNK_BYTES of blocks), the
    budget left and the _WINDOW_BLOCKS whose seed words are computed at once.
    Within that, no chunk is smaller than the blocks still needed for certain
    (a block has at most bits_per_block errors); past that floor, the first is
    one block and each later one at most twice the last and the blocks the
    error rate so far predicts.  The point ends at the first block whose
    running error count reaches min_bit_errors, as if the blocks had run one
    at a time.
    """
    _check_snr_db(snr_db, "snr_db")
    if not is_integer(snr_index) or snr_index < 0:
        raise InvalidSpecError(f"snr_index must be a non-negative integer, got {snr_index!r}")
    _keep_heap()
    scheme = build_scheme(spec)
    snr_linear = 10.0 ** (snr_db / 10.0)
    cap = min(_chunk_cap(spec), _WINDOW_BLOCKS)
    errors = blocks = 0
    size = 1
    key = zlib.crc32(spec.scenario_label.encode("utf-8")) if spec.independent_streams else None
    first, words = 0, ()  # no seed words yet
    while errors < spec.min_bit_errors and blocks < spec.max_ofdm_blocks:
        floor = -(-(spec.min_bit_errors - errors) // scheme.bits_per_block)
        size = min(max(size, floor), cap, spec.max_ofdm_blocks - blocks)
        if blocks + size > first + len(words):
            first, stop = blocks, min(blocks + _WINDOW_BLOCKS, spec.max_ofdm_blocks)
            words = seed_words(spec.config.master_seed, snr_index, first, stop, key)
        counts = _chunk_errors(spec, scheme, snr_linear, words[blocks - first:blocks - first + size])
        running = errors + np.cumsum(counts)
        used = min(size, int(np.searchsorted(running, spec.min_bit_errors)) + 1)
        errors, blocks = int(running[used - 1]), blocks + used
        # Blocks still needed at the error rate so far, rounded up.
        needed = -(-(spec.min_bit_errors - errors) * blocks // errors) if errors else 2 * size
        size = max(1, min(2 * size, needed, cap))
    return BerPoint(snr_db, blocks * scheme.bits_per_block, errors)


def default_worker_count() -> int:
    env = os.environ.get("QOSF_WORKERS")
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"QOSF_WORKERS must be an integer, got {env!r}") from None
        if count < 1:
            raise ValueError("QOSF_WORKERS must be at least 1")
        return count
    return 1


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Run every SNR point, possibly in parallel; output is worker-invariant.

    The pool never holds more processes than there are points.
    """
    if workers is None:
        workers = default_worker_count()
    if not is_integer(workers):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.perf_counter()
    snrs = spec.snr_db_points
    workers = min(workers, len(snrs))
    if workers == 1:
        points = [run_point(spec, snr, i) for i, snr in enumerate(snrs)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(run_point, itertools.repeat(spec), snrs, range(len(snrs))))
    return SweepResult(
        spec=spec,
        points=points,
        code_version=__version__,
        wall_time_s=time.perf_counter() - start,
    )


def estimate_diversity_order(points, window: int = 3) -> float:
    """Negative slope of log10(BER) vs SNR, in decades per 10 dB.

    Fits the highest-SNR `window` points that have nonzero BER; steeper decay
    means higher diversity order.
    """
    if not is_integer(window):
        raise ValueError(f"window must be an integer, got {window!r}")
    if window < 2:
        raise ValueError(f"window {window} is too small; a slope fit needs at least 2 points")
    usable = [p for p in points if p.ber > 0]
    usable = usable[-window:]
    if len(usable) < 2:
        raise InsufficientDataError(
            f"need at least 2 points with nonzero BER, have {len(usable)}"
        )
    snr = np.array([p.snr_db for p in usable])
    log_ber = np.log10([p.ber for p in usable])
    slope = np.polyfit(snr, log_ber, 1)[0]
    return float(-10.0 * slope)


def snr_at_ber(points, target: float) -> float:
    """SNR in dB where the measured curve crosses the target BER.

    Linear interpolation in (snr_db, log10 ber) between the first adjacent
    pair of nonzero-BER points bracketing the target.
    """
    if not is_real(target) or not 0 < target <= 1:
        raise ValueError(f"target must be a BER in (0, 1], got {target!r}")
    usable = [p for p in points if p.ber > 0]
    log_t = np.log10(target)
    for a, b in zip(usable, usable[1:]):
        la, lb = np.log10(a.ber), np.log10(b.ber)
        if (la - log_t) * (lb - log_t) <= 0:
            if la == lb:
                return float(a.snr_db)
            frac = (log_t - la) / (lb - la)
            return float(a.snr_db + frac * (b.snr_db - a.snr_db))
    raise InsufficientDataError(f"curve never crosses BER {target:g}")


# --- persistence ---------------------------------------------------------

_CSV_HEADER = "snr_db,bits,errors,ber"
_FLAG = {"true": True, "false": False}.__getitem__

# The header's SweepSpec lines in file order: (key, field, writer, reader).
_SPEC_HEADERS = (
    ("scenario", "scenario_label", str, str),
    ("scheme", "scheme", str, str),
    ("decoder_mode", "decoder_mode", str, str),
    ("snr_db_points", "snr_db_points", lambda v: ",".join(map(repr, v)),
     lambda text: tuple(map(float, text.split(",")))),
    ("min_bit_errors", "min_bit_errors", str, int),
    ("max_ofdm_blocks", "max_ofdm_blocks", str, int),
    ("noiseless", "noiseless", lambda v: str(v).lower(), _FLAG),
    ("independent_streams", "independent_streams", lambda v: str(v).lower(), _FLAG),
)


def format_results(result: SweepResult) -> str:
    spec = result.spec
    lines = [f"# {key}: {write(getattr(spec, name))}" for key, name, write, _ in _SPEC_HEADERS]
    lines += [
        f"# master_seed: {spec.config.master_seed}",
        f"# code_version: {result.code_version}",
        f"# config: {json.dumps(config_to_dict(spec.config), sort_keys=True)}",
        _CSV_HEADER,
    ]
    for p in result.points:
        lines.append(f"{p.snr_db!r},{p.bits_simulated},{p.bit_errors},{p.ber:.5e}")
    return "\n".join(lines) + "\n"


def write_results(result: SweepResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_results(result))


def read_results(path) -> SweepResult:
    """Parse a results file back into a SweepResult (wall time not stored)."""
    headers = {}
    rows = []
    saw_csv_header = False
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not UTF-8 ({exc})") from None
            if not line:
                continue
            if line.startswith("#"):
                if saw_csv_header:
                    raise ValueError(f"line {lineno}: header after data rows")
                key, sep, value = line[1:].partition(":")
                if not sep:
                    raise ValueError(f"line {lineno}: expected '# key: value'")
                key = key.strip()
                if key in headers:
                    raise ValueError(f"line {lineno}: repeated header {key!r}")
                headers[key] = value.strip()
                continue
            if not saw_csv_header:
                if line != _CSV_HEADER:
                    raise ValueError(
                        f"line {lineno}: expected column header {_CSV_HEADER!r}"
                    )
                saw_csv_header = True
                continue
            cells = line.split(",")
            if len(cells) != 4:
                raise ValueError(f"line {lineno}: expected 4 columns, got {len(cells)}")
            try:
                ber = float(cells[3])
                rows.append((lineno, BerPoint(float(cells[0]), int(cells[1]), int(cells[2])), ber))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if not saw_csv_header:
        raise ValueError("line 0: truncated file, no column header")
    try:
        try:
            config_data = json.loads(headers["config"])
        except json.JSONDecodeError as exc:
            raise ValueError(f"config header is not valid JSON ({exc})") from None
        if not isinstance(config_data, dict):
            raise ValueError("config header must be a JSON object")
        config = config_from_dict(config_data)
        if headers["scheme"] == SCHEME_ALAMOUTI and "code_paths" not in config_data:
            # Files from before code_paths: alamouti-sf meant the depth-one
            # code, run with exhaustive ML whatever the decoder flag said.
            config = alamouti_variant(config)
            headers["decoder_mode"] = EXHAUSTIVE

        def parse(key, convert):
            value = headers[key]
            try:
                return convert(value)
            except (KeyError, ValueError):
                raise ValueError(f"header {key!r}: bad value {value!r}") from None

        spec = SweepSpec(config=config, **{name: parse(key, read)
                                           for key, name, _, read in _SPEC_HEADERS})
        version = headers["code_version"]
        seed = parse("master_seed", int)
    except KeyError as exc:
        raise ValueError(f"missing header {exc.args[0]!r}") from None
    if seed != config.master_seed:
        raise ValueError(
            f"header 'master_seed': {seed} disagrees with the config header's {config.master_seed}"
        )
    points = [point for _, point, _ in rows]
    _check_points(spec, points, [f"line {n}" for n, _, _ in rows], [ber for _, _, ber in rows])
    return SweepResult(spec=spec, points=points, code_version=version)


def emit_plot_data(results, path) -> None:
    """Tab-separated BER table, one column per scenario, NA for gaps."""
    if not results:
        raise ValueError("need at least one result")
    labels = [r.spec.scenario_label for r in results]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate scenario labels: {labels}")
    series = [{p.snr_db: p.ber for p in r.points} for r in results]
    grid = sorted({snr for s in series for snr in s})
    lines = ["\t".join(["snr_db"] + labels)]
    for snr in grid:
        cells = [repr(snr)]
        for s in series:
            cells.append(f"{s[snr]:.5e}" if snr in s else "NA")
        lines.append("\t".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
