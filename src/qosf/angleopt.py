"""The coding-gain metric for rotation angles and a grid search over them.

The rotated-combining matrix Theta determines how far apart two distinct
symbol groups land after spreading.  The minimum product distance of the
rotated difference vectors is the coding-gain criterion the search
maximizes (the determinant criterion of Tarokh, Seshadri and Calderbank,
1998).  A per-component Euclidean distance would be no criterion: for a
unit-modulus spreading matrix it is the same at every angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import rotation_phases
from .core import CapExceededError, constellation_points, hadamard, is_power_of_two, product_rows

MIN_PRODUCT_DISTANCE = "min_product_distance"

DEFAULT_EVAL_CAP = 10 ** 7

# Largest difference-vector table we will enumerate exhaustively; QPSK with
# pl=4 needs 9**4 = 6561 rows, the next power of two would need 9**8.
_MAX_DIFF_VECTORS = 10 ** 6

# Complex entries of the rotated-difference product in one metric chunk.
# _MAX_DIFF_VECTORS keeps the difference-vector table inside it at every
# power-of-two pl.
_CHUNK_ENTRIES = 4_000_000


@dataclass
class AngleSearchReport:
    best_angles: tuple
    metric_value: float
    grid_resolution: float
    evaluations: int


@lru_cache(maxsize=8)
def component_differences(constellation: str) -> np.ndarray:
    """Distinct values of a - b over all constellation point pairs."""
    points = constellation_points(constellation)
    diffs = np.unique((points[:, None] - points[None, :]).ravel())
    diffs.flags.writeable = False
    return diffs

@lru_cache(maxsize=8)
def difference_vectors(constellation: str, pl: int) -> np.ndarray:
    """All nonzero length-pl difference vectors, one row per vector.

    Every pair of distinct symbol vectors s != s' produces one of these rows
    as s - s', and every row is realized by some pair, so minimizing over the
    rows is the same as minimizing over pairs.
    """
    comp = component_differences(constellation)
    # A power of at most cap.bit_length() decides the cap for any base >= 2.
    if len(comp) ** min(pl, _MAX_DIFF_VECTORS.bit_length()) > _MAX_DIFF_VECTORS:
        raise ValueError(
            f"difference enumeration for {constellation} at pl={pl} needs "
            f"{len(comp)}**{pl} vectors; not supported"
        )
    vecs = product_rows(comp, pl)
    vecs = vecs[np.any(vecs != 0, axis=1)]
    vecs.flags.writeable = False
    return vecs


def _batch_metric(angle_rows: np.ndarray, constellation: str, pl: int) -> np.ndarray:
    """Metric value for each row of angle tuples, vectorized and chunked."""
    diffs = difference_vectors(constellation, pl)
    n = angle_rows.shape[0]
    out = np.empty(n)
    chunk = _CHUNK_ENTRIES // (diffs.shape[0] * pl)
    for start in range(0, n, chunk):
        phases = rotation_phases(angle_rows[start : start + chunk], pl)
        # v[n, d, k] = sum_m H[k, m] * phases[n, m] * diffs[d, m]
        v = (diffs[None, :, :] * phases[:, None, :]) @ hadamard(pl).T
        out[start : start + chunk] = np.abs(v).prod(axis=2).min(axis=1)
    return out


def coding_gain_metric(angles, constellation: str, pl: int) -> float:
    """Worst-case separation of the combined constellation under Theta.

    The minimum over all distinct vector pairs of the product of component
    magnitudes of Theta(s - s').  Zero whenever some rotated difference has
    a vanishing component.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if not is_power_of_two(pl):
        raise ValueError(f"pl must be a power of two, got {pl}")
    if angles.shape != (pl - 1,):
        raise ValueError(f"expected {pl - 1} angles, got {angles.shape}")
    return float(_batch_metric(angles[None, :], constellation, pl)[0])


def optimize_angles(
    constellation: str,
    pl: int,
    resolution: float = np.pi / 36,
    cap: int = DEFAULT_EVAL_CAP,
) -> AngleSearchReport:
    """Exhaustive grid search over [0, pi)^(pl-1) plus one refinement pass.

    The refinement is a single round of coordinate descent scanning each
    angle over +/- resolution around the grid optimum in steps of
    resolution/10.  Ties always go to the lexicographically smallest angle
    tuple, so results are deterministic regardless of evaluation order.
    """
    if not is_power_of_two(pl):
        raise ValueError(f"pl must be a power of two, got {pl}")
    # Any step that is not a positive angle of at most pi becomes nan here.
    steps = np.pi / resolution if 0 < resolution <= np.pi else np.nan
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"resolution {resolution} must be positive and divide pi")
    n = int(round(steps))
    num_axes = pl - 1
    # n ** num_axes can run to thousands of digits.  Any n >= 2 passes the
    # cap within cap.bit_length() axes, so a power that small decides it.
    if n ** min(num_axes, cap.bit_length()) > cap:
        raise CapExceededError(f"grid search needs {n}**{num_axes} evaluations, cap is {cap}")
    # An oversized difference table is refused here, before the grid is built.
    difference_vectors(constellation, pl)
    total = n ** num_axes
    rows = product_rows(np.arange(n) * resolution, num_axes)
    metrics = _batch_metric(rows, constellation, pl)
    best_idx = int(np.argmax(metrics))
    best = rows[best_idx].copy()
    best_value = float(metrics[best_idx])
    evaluations = total

    fine = resolution / 10.0
    offsets = np.arange(-10, 11) * fine
    for k in range(num_axes):
        cands = np.repeat(best[None, :], len(offsets), axis=0)
        cands[:, k] = np.mod(best[k] + offsets, np.pi)
        cands = cands[np.argsort(cands[:, k], kind="stable")]
        values = _batch_metric(cands, constellation, pl)
        evaluations += len(cands)
        j = int(np.argmax(values))
        if values[j] > best_value or (values[j] == best_value and cands[j, k] < best[k]):
            best_value = float(values[j])
            best = cands[j].copy()
    return AngleSearchReport(
        best_angles=tuple(float(a) for a in best),
        metric_value=best_value,
        grid_resolution=float(resolution),
        evaluations=evaluations,
    )


def format_report(report: AngleSearchReport) -> str:
    """Render a search report as key: value lines."""
    angles = ", ".join(repr(a) for a in report.best_angles)
    lines = [
        f"metric_name: {MIN_PRODUCT_DISTANCE}",
        f"metric_value: {report.metric_value!r}",
        f"best_angles: {angles}",
        f"grid_resolution: {report.grid_resolution!r}",
        f"evaluations: {report.evaluations}",
    ]
    return "\n".join(lines) + "\n"
