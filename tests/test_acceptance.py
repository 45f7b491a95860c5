"""Acceptance gate: run every numbered criterion at full strength.

One test per criterion so the -v listing reads as a scoreboard; the suite
itself runs once per session.  Each test prints its [PASS]/[FAIL] line.
"""

import pytest

from polyens.verify import CRITERIA, run_all

# generous wall-clock ceilings per criterion, seconds
TIME_LIMITS = {1: 30, 2: 20, 3: 20, 4: 30, 5: 120, 6: 180, 7: 30, 8: 240, 9: 240, 10: 20, 11: 120}


@pytest.fixture(scope="module")
def results():
    out = run_all(quick=False)
    return {r.number: r for r in out}


def _ident(item):
    number, name, _ = item
    return f"{number:02d}-{name.replace(' ', '-')}"


@pytest.mark.parametrize("criterion", CRITERIA, ids=_ident)
def test_criterion(criterion, results):
    number, name, _ = criterion
    r = results[number]
    print(r.line())
    assert r.passed, r.detail
    assert r.seconds < TIME_LIMITS[number], f"criterion {number} took {r.seconds:.1f}s"


def test_all_eleven_reported(results):
    assert sorted(results) == list(range(1, 12))


@pytest.mark.parametrize("number, seed", [(5, 5), (11, 0)])
def test_quick_sampler_laws_pass_where_2000_draws_failed_by_chance(number, seed):
    # at 2000 draws these seeds read TV 0.0227 (criterion 5) and 0.0285
    # (criterion 11) from an exact sampler, over the tolerance of 0.02
    (result,) = run_all(quick=True, seed=seed, only=[number])
    assert result.passed, result.detail
