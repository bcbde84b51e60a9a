import numpy as np
import numpy.testing as npt
import pytest

from qosf import angleopt
from qosf.angleopt import (
    AngleSearchReport,
    coding_gain_metric,
    component_differences,
    difference_vectors,
    format_report,
    optimize_angles,
)
from qosf.core import BPSK, QPSK, CapExceededError

REFERENCE_ANGLES = (np.pi / 4, np.pi / 2, 3 * np.pi / 4)


def closed_form_pl2(theta):
    """Product-distance of the 2-point combiner, worked out by hand.

    BPSK differences per component are {-2, 0, 2}.  Single-position vectors
    contribute |d|^2 = 4; double-position ones give |4 - 4 e^{2j t}| =
    8 |sin t|.
    """
    return min(4.0, 8.0 * abs(np.sin(theta)))


def test_component_differences_bpsk():
    npt.assert_allclose(component_differences(BPSK), [-2, 0, 2], atol=1e-15)


def test_difference_vectors_counts():
    assert difference_vectors(BPSK, 4).shape == (3 ** 4 - 1, 4)
    assert difference_vectors(QPSK, 2).shape == (9 ** 2 - 1, 2)


def test_difference_vectors_refuses_huge_sets():
    with pytest.raises(ValueError):
        difference_vectors(QPSK, 8)


def test_reference_angles_metric_value():
    # The grid optimum for this code size; also the value attained by the
    # default configuration angles.
    assert coding_gain_metric(REFERENCE_ANGLES, BPSK, 4) == pytest.approx(16.0, abs=1e-9)


def test_zero_angles_collapse_product_distance():
    # Without rotation the Hadamard combiner maps some differences onto a
    # zero component, wiping out the product distance.
    assert coding_gain_metric((0.0, 0.0, 0.0), BPSK, 4) < 1e-12


def test_metric_against_closed_form_pl2():
    for theta in np.linspace(0.0, np.pi, 25):
        got = coding_gain_metric((theta,), BPSK, 2)
        assert got == pytest.approx(closed_form_pl2(theta), abs=1e-9)


def test_metric_pi_periodic():
    rng = np.random.default_rng(1)
    for _ in range(10):
        angles = rng.uniform(0, np.pi, 3)
        shifted = angles.copy()
        shifted[rng.integers(0, 3)] += np.pi
        assert coding_gain_metric(angles, BPSK, 4) == pytest.approx(
            coding_gain_metric(shifted, BPSK, 4), abs=1e-9
        )


def test_metric_validates_arguments():
    with pytest.raises(ValueError):
        coding_gain_metric((0.1, 0.2), BPSK, 4)
    with pytest.raises(ValueError):
        coding_gain_metric((0.1, 0.2), BPSK, 3)


def test_optimize_pl2_finds_plateau():
    report = optimize_angles(BPSK, 2, resolution=np.pi / 36)
    assert report.metric_value == pytest.approx(4.0, abs=1e-9)
    # Any returned angle must actually attain the oracle optimum.
    assert closed_form_pl2(report.best_angles[0]) >= 4.0 - 1e-9
    assert report.evaluations == 36 + 21


def test_optimize_deterministic():
    a = optimize_angles(BPSK, 2, resolution=np.pi / 18)
    b = optimize_angles(BPSK, 2, resolution=np.pi / 18)
    assert a == b


def test_optimize_report_is_self_consistent():
    report = optimize_angles(BPSK, 4, resolution=np.pi / 6)
    assert isinstance(report, AngleSearchReport)
    assert len(report.best_angles) == 3
    assert all(0.0 <= a < np.pi for a in report.best_angles)
    assert report.metric_value == pytest.approx(
        coding_gain_metric(report.best_angles, BPSK, 4), abs=1e-12
    )
    assert report.evaluations == 6 ** 3 + 3 * 21


def test_optimize_rejects_bad_resolution():
    with pytest.raises(ValueError, match="divide pi"):
        optimize_angles(BPSK, 2, resolution=1.0)


def test_optimize_rejects_pl_not_power_of_two():
    with pytest.raises(ValueError, match="pl must be a power of two, got 3"):
        optimize_angles(BPSK, 3)


def test_optimize_eval_cap():
    with pytest.raises(CapExceededError):
        optimize_angles(BPSK, 4, resolution=np.pi / 300)


def test_optimize_eval_cap_is_exact(monkeypatch):
    # The pl=4 grid holds exactly 36 ** 3 points: a cap one below stops the
    # search and the cap itself admits it.
    monkeypatch.setattr(angleopt, "DEFAULT_EVAL_CAP", 36 ** 3 - 1)
    with pytest.raises(CapExceededError, match=r"needs 36\*\*3 evaluations, cap is 46655$"):
        optimize_angles(BPSK, 4)
    monkeypatch.setattr(angleopt, "DEFAULT_EVAL_CAP", 36 ** 3)
    assert optimize_angles(BPSK, 4).evaluations == 36 ** 3 + 3 * 21


def test_optimize_refuses_huge_table_before_the_grid(monkeypatch):
    # One grid point per axis passes the grid cap, but at pl = 2**30 even
    # that one row would take gigabytes: the table check must come first.
    def no_grid(values, length):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(angleopt, "product_rows", no_grid)
    with pytest.raises(ValueError, match="not supported"):
        optimize_angles(BPSK, 2 ** 30, resolution=np.pi)


def test_format_report_fields():
    report = optimize_angles(BPSK, 2, resolution=np.pi / 4)
    text = format_report(report)
    lines = text.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "metric_name: min_product_distance"
    assert text.endswith("\n")
