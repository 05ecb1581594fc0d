"""The Student-t quantile behind every batch-means interval.

``t_quantile`` is pure standard library, so these tests need no scipy:
the pinned values were computed once with mpmath at 50 significant
digits (the regularized incomplete beta function, root-solved), and
scipy, when installed, only serves as a second oracle.
"""

import math
import os
import subprocess
import sys

import pytest

import repro
from repro.errors import StatisticsError
from repro.stats.batch_means import t_quantile

PROBABILITIES = (0.9, 0.95, 0.975, 0.995)

#: t_{p, df} from mpmath, rounded to 17 significant digits.
PINNED = {
    0.9: {
        1: 3.0776835371752541,
        2: 1.885618083164127,
        3: 1.6377443536962103,
        9: 1.3830287383966325,
        10: 1.3721836411103358,
        30: 1.3104150253913957,
        120: 1.288646233656378,
        121: 1.2885872726485814,
        200: 1.2857987939948012,
        1000: 1.2823987214609246,
        10000: 1.2816362297304777,
    },
    0.95: {
        1: 6.3137515146750374,
        2: 2.9199855803537242,
        3: 2.3533634348018229,
        9: 1.8331129326562366,
        10: 1.8124611228116759,
        30: 1.6972608865939574,
        120: 1.6576508993552352,
        121: 1.6575443190874723,
        200: 1.6525081009108771,
        1000: 1.6463788172854643,
        10000: 1.6450060180692425,
    },
    0.975: {
        1: 12.706204736174693,
        2: 4.3026527297494618,
        3: 3.1824463052837084,
        9: 2.262157162798205,
        10: 2.2281388519862742,
        30: 2.0422724563012379,
        120: 1.9799304050824405,
        121: 1.9797637625053867,
        200: 1.971896223633909,
        1000: 1.9623390808264081,
        10000: 1.9602012398906259,
    },
    0.995: {
        1: 63.656741162871524,
        2: 9.9248432009182886,
        3: 5.8409093097333554,
        9: 3.2498355415921257,
        10: 3.1692726726169507,
        30: 2.749995653567225,
        120: 2.6174211451068657,
        121: 2.6170722661708641,
        200: 2.6006344361915576,
        1000: 2.5807546980659508,
        10000: 2.5763210466685286,
    },
}

#: Every df from 1 to 200, then a log-spaced sample up to 10⁴.
DEGREES = tuple(range(1, 201)) + tuple(
    sorted({round(10 ** (2.4 + 0.2 * step)) for step in range(9)})
)


@pytest.mark.parametrize(
    "p, df, expected",
    [(p, df, value) for p, row in PINNED.items() for df, value in row.items()],
)
def test_matches_pinned_mpmath_values(p, df, expected):
    assert t_quantile(p, df) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("df", [1, 2, 3, 9, 10, 30, 121, 1000])
@pytest.mark.parametrize("p", PROBABILITIES + (0.6, 0.75))
def test_symmetric_about_the_median(p, df):
    assert t_quantile(1.0 - p, df) == -t_quantile(p, df)


@pytest.mark.parametrize("df", [1, 2, 3, 9, 200, 10000])
def test_median_is_zero(df):
    assert t_quantile(0.5, df) == 0.0


@pytest.mark.parametrize("p", PROBABILITIES)
def test_strictly_decreasing_in_degrees_of_freedom(p):
    values = [t_quantile(p, df) for df in DEGREES]
    assert all(later < earlier for earlier, later in zip(values, values[1:]))
    assert values[-1] > t_quantile(p, 10**4 + 1)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_probability_outside_the_open_unit_interval_rejected(p):
    with pytest.raises(StatisticsError, match="probability"):
        t_quantile(p, 9)


@pytest.mark.parametrize("df", [0, -1])
def test_fewer_than_one_degree_of_freedom_rejected(df):
    with pytest.raises(StatisticsError, match="degrees of freedom"):
        t_quantile(0.95, df)


def test_every_confidence_level_is_served():
    # Any two-sided level in (0, 1) maps to a finite positive quantile,
    # widening with the level.
    levels = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
    values = [t_quantile(0.5 + level / 2.0, 9) for level in levels]
    assert all(math.isfinite(value) and value > 0.0 for value in values)
    assert values == sorted(values)


def test_matches_scipy_over_the_full_grid():
    student_t = pytest.importorskip("scipy.stats").t
    for p in PROBABILITIES:
        for df in DEGREES:
            expected = float(student_t.ppf(p, df))
            assert t_quantile(p, df) == pytest.approx(expected, rel=1e-10, abs=0.0), (p, df)


def test_rendering_a_table_imports_neither_scipy_nor_numpy():
    script = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "from repro.stats.batch_means import batch_means\n"
        "batch_means([1.0, 2.0, 4.0], confidence=0.99)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert main(['--scale', 'smoke', 'table', '4.5']) == 0\n"
        "assert ' ± ' in out.getvalue()\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] in ('scipy', 'numpy')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
