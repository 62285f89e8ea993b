"""Known answers for the fixture generator: every seed quoted in tests,
demos and perfbench regenerates its data only while these hold."""

from itertools import islice

from rectstab.rng import Xoshiro256StarStar, _splitmix64_stream


def test_splitmix64_matches_published_values():
    assert list(islice(_splitmix64_stream(0), 4)) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_xoshiro256starstar_first_words():
    rng = Xoshiro256StarStar(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0x99EC5F36CB75F2B4,
        0xBF6E1F784956452A,
        0x1A5F849D4933E6E0,
    ]


def test_draw_helpers_pinned():
    rng = Xoshiro256StarStar(7)
    assert [rng.randint(-10, 10) for _ in range(8)] == [-10, 10, 5, -9, 10, -5, -9, 6]
    rng = Xoshiro256StarStar(7)
    assert [rng.chance(1, 3) for _ in range(12)] == [True, False, True] + [False] * 9
    rng = Xoshiro256StarStar(7)
    assert rng.sample_distinct(0, 9, 6) == [4, 8, 1, 6, 9, 3]
