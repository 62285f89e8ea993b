from itertools import product

from rectstab.rng import Xoshiro256StarStar
from rectstab.twosat import Formula, solve


def truth_table_sat(f: Formula) -> bool:
    for values in product([False, True], repeat=f.num_vars):
        if all(
            (values[a[0]] != a[1]) or (values[b[0]] != b[1])
            for a, b in f.clauses
        ):
            return True
    return False


def satisfies(values, f: Formula) -> bool:
    return all((values[a[0]] != a[1]) or (values[b[0]] != b[1]) for a, b in f.clauses)


def test_add_clause_appends():
    f = Formula(num_vars=2)
    f.add_clause((0, False), (1, False))
    assert len(f.clauses) == 1


def test_unit_forces_value():
    f = Formula(num_vars=1)
    f.add_unit((0, False))
    assert solve(f) == [True]


def test_contradicting_units_unsat():
    f = Formula(num_vars=1)
    f.add_unit((0, False))
    f.add_unit((0, True))
    assert solve(f) is None


def test_simple_sat():
    f = Formula(num_vars=2)
    f.add_clause((0, False), (1, False))   # x or y
    f.add_clause((0, True), (1, False))    # not-x or y
    values = solve(f)
    assert values is not None and values[1] is True


def test_index_out_of_range():
    f = Formula(num_vars=1)
    try:
        f.add_clause((1, False), (0, False))
    except IndexError:
        pass
    else:
        raise AssertionError("expected IndexError")


def test_unit_literal_checked():
    f = Formula(num_vars=1)
    for bad, error in (((1, False), IndexError), ((0, 0), TypeError)):
        try:
            f.add_unit(bad)
        except error:
            pass
        else:
            raise AssertionError(f"expected {error.__name__}")
    assert f.clauses == []


def rand_formula(rng) -> Formula:
    n = rng.randint(1, 12)
    f = Formula(num_vars=n)
    for _ in range(rng.randint(0, 40)):
        a = (rng.randint(0, n - 1), rng.chance(1, 2))
        b = (rng.randint(0, n - 1), rng.chance(1, 2))
        f.add_clause(a, b)
    return f


def test_verdict_matches_truth_table_oracle():
    rng = Xoshiro256StarStar(2024)
    for _ in range(1000):
        f = rand_formula(rng)
        got = solve(f)
        expected_sat = truth_table_sat(f)
        assert (got is not None) == expected_sat
        if got is not None:
            assert satisfies(got, f)


def test_determinism():
    rng = Xoshiro256StarStar(77)
    for _ in range(50):
        f = rand_formula(rng)
        assert solve(f) == solve(f)


def test_large_chain_does_not_recurse():
    # implication chain x0 -> x1 -> ... -> x_{n-1}, unit x0
    n = 60000
    f = Formula(num_vars=n)
    for i in range(n - 1):
        f.add_clause((i, True), (i + 1, False))
    f.add_unit((0, False))
    values = solve(f)
    assert values is not None and all(values)
