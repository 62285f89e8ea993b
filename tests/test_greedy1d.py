from bisect import bisect_left, bisect_right
from itertools import combinations
from operator import itemgetter

import pytest

from rectstab import greedy1d
from rectstab.core import Axis, Instance, Rect
from rectstab.rng import Xoshiro256StarStar

from oracles import Infeasible, stab_1d


def min_piercing_size(intervals, points):
    """Exhaustive subset-enumeration oracle; None when unpierceable."""
    for size in range(len(points) + 1):
        for combo in combinations(points, size):
            if all(any(lo <= p <= hi for p in combo) for lo, hi in intervals):
                return size
    return None


def test_frozen_example():
    # oracle: min_piercing_size([(0,2),(1,3),(5,6)], range(7)) == 2
    got = stab_1d([(0, 2), (1, 3), (5, 6)], range(7))
    assert got == [2, 6]
    assert min_piercing_size([(0, 2), (1, 3), (5, 6)], list(range(7))) == 2


def test_empty_intervals():
    assert stab_1d([], [1, 2, 3]) == []


def test_infeasible_carries_witness():
    with pytest.raises(Infeasible) as exc:
        stab_1d([(0, 1)], [5])
    assert exc.value.witness == (0, 1)


def test_optimal_on_exhaustive_suite():
    rng = Xoshiro256StarStar(101)
    for _ in range(500):
        n_iv = rng.randint(0, 10)
        n_pt = rng.randint(0, 12)
        intervals = []
        for _ in range(n_iv):
            lo = rng.randint(-15, 15)
            intervals.append((lo, lo + rng.randint(0, 10)))
        points = sorted({rng.randint(-15, 15) for _ in range(n_pt)})
        oracle = min_piercing_size(intervals, points)
        try:
            got = stab_1d(intervals, points)
        except Infeasible:
            assert oracle is None
            continue
        assert oracle == len(got)
        # output is drawn from the candidates and pierces everything
        assert set(got) <= set(points)
        assert all(any(lo <= p <= hi for p in got) for lo, hi in intervals)


def test_monotone_in_intervals():
    rng = Xoshiro256StarStar(102)
    for _ in range(100):
        points = sorted({rng.randint(0, 20) for _ in range(8)})
        intervals = []
        last = 0
        for _ in range(6):
            lo = rng.randint(0, 18)
            intervals.append((lo, lo + rng.randint(0, 6)))
            size = min_piercing_size(intervals, points)
            if size is None:
                break
            assert size >= last
            last = size


def test_determinism():
    intervals, points = [(0, 4), (2, 9), (7, 8)], [0, 2, 4, 6, 8]
    assert stab_1d(intervals, points) == stab_1d(intervals, points)


def test_unsorted_points():
    assert stab_1d([(0, 4), (2, 9), (7, 8)], [8, 0, 6, 2, 4]) == [4, 8]


def _extents(rects, axis):
    return [r.interval(axis) for r in rects]


def test_projected_extents_example():
    inst = Instance([Rect(0, 1, 0, 9), Rect(0, 1, 20, 30)], hlines=[], vlines=[0, 1])
    assert stab_1d(_extents(inst.rects, Axis.VERTICAL), inst.line_positions(Axis.VERTICAL)) == [1]


def test_projected_extents_empty():
    inst = Instance([], hlines=[1], vlines=[2])
    assert stab_1d(_extents([], Axis.HORIZONTAL), inst.line_positions(Axis.HORIZONTAL)) == []


def test_projected_extents_infeasible():
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[], vlines=[9])
    with pytest.raises(Infeasible):
        stab_1d(_extents(inst.rects, Axis.VERTICAL), inst.line_positions(Axis.VERTICAL))


def test_malformed_interval_rejected():
    with pytest.raises(ValueError):
        stab_1d([(3, 1)], [])


def test_index_ranges_match_exhaustive_minimum():
    """The library helper on random intervals turned into index ranges over
    sorted random points: the exhaustive minimum's size, the coordinate
    greedy's points, and None exactly when some interval holds no point."""
    rng = Xoshiro256StarStar(103)
    for _ in range(500):
        intervals = []
        for _ in range(rng.randint(0, 10)):
            lo = rng.randint(-15, 15)
            intervals.append((lo, lo + rng.randint(0, 10)))
        points = sorted({rng.randint(-15, 15) for _ in range(rng.randint(0, 12))})
        # each interval as the range [start, end) of the sorted points it holds
        ranges = [(bisect_left(points, lo), bisect_right(points, hi)) for lo, hi in intervals]
        ranges.sort(key=itemgetter(1, 0))
        oracle = min_piercing_size(intervals, points)
        got = greedy1d.stab_1d(ranges)
        assert (got is None) == any(start == end for start, end in ranges) == (oracle is None)
        if got is not None:
            assert len(got) == oracle
            # the coordinate greedy's picks: the rightmost point of each trigger
            assert [points[t] for t in got] == stab_1d(intervals, points)
