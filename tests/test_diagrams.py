"""Diagram enumeration, regularity, and Gaussian product moments."""

import itertools
import math
import time

import numpy as np
import pytest

from harmreg import (
    Diagram,
    count_regular,
    distinct_arrangements,
    enumerate_diagrams,
    hermite_product_moment,
    is_regular,
    diagrams,
    regular_census,
)
from harmreg.errors import SizeLimitError, ValidationError

from oracles import isserlis_hermite_moment


def _random_correlation(p: int, rng) -> np.ndarray:
    a = rng.standard_normal((p, p + 2))
    c = a @ a.T
    d = 1.0 / np.sqrt(np.diag(c))
    return d[:, None] * c * d[None, :]


def _even_tuples(max_p=4, max_sum=8):
    for p in range(1, max_p + 1):
        for orders in itertools.product(range(1, max_sum + 1), repeat=p):
            if sum(orders) <= max_sum and sum(orders) % 2 == 0:
                yield orders


# ---------------------------------------------------------------------------
# Diagram type


def test_diagram_validation():
    ok = Diagram((2, 2), frozenset({((0, 0), (1, 0)), ((0, 1), (1, 1))}))
    assert len(ok.edges) == 2
    with pytest.raises(ValidationError):
        Diagram((2, 2), frozenset({((0, 0), (0, 1)), ((1, 0), (1, 1))}))
    with pytest.raises(ValidationError):
        Diagram((2, 2), frozenset({((0, 0), (1, 0)), ((0, 0), (1, 1))}))
    with pytest.raises(ValidationError):
        Diagram((2, 2), frozenset({((0, 0), (1, 0))}))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_small_counts():
    assert len(enumerate_diagrams((1, 1))) == 1
    assert len(enumerate_diagrams((2, 2))) == 2
    assert len(enumerate_diagrams((3, 3))) == 6
    assert len(enumerate_diagrams((1, 1, 1, 1))) == 3
    assert enumerate_diagrams((1, 1, 1)) == []
    assert enumerate_diagrams((2,)) == []


def test_enumerate_validates_orders():
    with pytest.raises(ValidationError):
        enumerate_diagrams((0, 2))
    # non-integer and bool orders are refused, not truncated
    for orders in ((2.9, 2.2), (2, 2.0), (True, 1)):
        with pytest.raises(ValidationError, match="^level cardinality must be an integer"):
            enumerate_diagrams(orders)
    with pytest.raises(SizeLimitError):
        enumerate_diagrams((13, 13))


def test_enumerated_diagrams_are_distinct():
    diagrams = enumerate_diagrams((2, 2, 2))
    assert len({d.edges for d in diagrams}) == len(diagrams)
    # each diagram passes the Diagram invariants by construction
    for d in diagrams:
        assert 2 * len(d.edges) == 6


# ---------------------------------------------------------------------------
# regularity


def test_two_level_diagrams_regular():
    assert all(is_regular(d) for d in enumerate_diagrams((2, 2)))
    assert all(is_regular(d) for d in enumerate_diagrams((3, 3)))


def test_four_cycle_not_regular():
    edges = frozenset(
        {
            ((0, 0), (1, 0)),
            ((1, 1), (2, 0)),
            ((2, 1), (3, 0)),
            ((0, 1), (3, 1)),
        }
    )
    assert not is_regular(Diagram((2, 2, 2, 2), edges))


def test_odd_level_count_never_regular():
    for d in enumerate_diagrams((1, 1, 2)):
        assert not is_regular(d)


# ---------------------------------------------------------------------------
# regular census and the closed-form count


def test_count_regular_single_pair():
    for k in range(1, 6):
        assert count_regular([(k, 1)]) == math.factorial(k)


def test_count_regular_two_pairs_same_cardinality():
    assert count_regular([(2, 2)]) == 12
    assert regular_census((2, 2, 2, 2)) == 12
    assert distinct_arrangements((2, 2, 2, 2)) == 1


@pytest.mark.parametrize(
    "orders", [(1,), (2, 2), (1, 2), (3, 1, 3), (2, 1, 2, 1), (1, 2, 3, 4), (2, 2, 1, 2, 3, 2)]
)
def test_distinct_arrangements_count_the_permutations(orders):
    # the distinct permutations of the tuple are the oracle of the formula
    assert distinct_arrangements(orders) == len(set(itertools.permutations(orders)))


def test_distinct_arrangements_run_to_the_enumeration_bound():
    # permuting 24 levels runs through 24! tuples, which would never
    # finish; the formula takes one factorial per multiplicity
    assert distinct_arrangements((1,) * 24) == 1
    assert distinct_arrangements((1, 2) * 8) == math.comb(16, 8)
    assert distinct_arrangements(range(1, 7)) == math.factorial(6)


def test_matching_bound_refuses_at_once():
    # (1,) * 24 admits 23!! ~ 3.2e11 matchings and (12, 12) is bounded by the
    # same count; both are refused before any is walked
    for orders in ((1,) * 24, (12, 12), (1,) * 16):
        for call in (enumerate_diagrams, regular_census,
                     lambda o: hermite_product_moment(o, np.eye(len(o)))):
            start = time.perf_counter()
            with pytest.raises(SizeLimitError, match="matchings, above the bound 135135$"):
                call(orders)
            assert time.perf_counter() - start < 0.05
    # every tuple the tests enumerate is admitted (each sum of at most 8 over
    # up to four levels, and the census tuples), up to the largest, (1,) * 14
    admitted = [o for p in range(1, 5) for o in itertools.product(range(1, 9), repeat=p)
                if sum(o) <= 8]
    admitted += [(2, 2, 3, 3), (2, 2, 1, 1, 1, 1), (1,) * 14, (7, 7)]
    for orders in admitted:
        assert diagrams._level_matchings(orders)[0] == orders


def test_distinct_arrangements_validates_orders():
    for orders in ((2.5, 1), (True, 0, -3), (0, 2), (2, 2.0)):
        with pytest.raises(ValidationError, match="^level cardinality must be"):
            distinct_arrangements(orders)
    with pytest.raises(SizeLimitError):
        distinct_arrangements((13, 13))


@pytest.mark.parametrize(
    "orders,groups",
    [
        ((2, 2), [(2, 1)]),
        ((3, 3), [(3, 1)]),
        ((2, 2, 2, 2), [(2, 2)]),
        ((2, 2, 3, 3), [(2, 1), (3, 1)]),
        ((1, 1, 2, 2), [(1, 1), (2, 1)]),
        ((1, 1, 1, 1), [(1, 2)]),
    ],
)
def test_count_regular_matches_census_with_arrangements(orders, groups):
    # the closed form counts over level arrangements of the multiset; the
    # census fixes one ordering, and regularity is ordering-invariant
    expected = regular_census(orders) * distinct_arrangements(orders)
    assert count_regular(groups) == expected


def test_count_regular_validation():
    with pytest.raises(ValidationError):
        count_regular([(2, 0)])
    with pytest.raises(ValidationError):
        count_regular([(0, 1)])
    with pytest.raises(ValidationError):
        count_regular([(2, 1), (2, 1)])
    # non-integer and bool counts are refused, not truncated
    for groups in ([(2.5, 1)], [(2, 1.0)], [(True, 1)], [(2, True)]):
        with pytest.raises(ValidationError, match="must be an integer"):
            count_regular(groups)


# ---------------------------------------------------------------------------
# product moments


def test_moment_two_levels_closed_form():
    r = 0.7
    corr = np.array([[1.0, r], [r, 1.0]])
    assert abs(hermite_product_moment((2, 2), corr) - 2.0 * r**2) < 1e-12
    assert abs(hermite_product_moment((3, 3), corr) - 6.0 * r**3) < 1e-12
    assert hermite_product_moment((2, 3), corr) == 0.0
    assert abs(hermite_product_moment((1, 1), corr) - r) < 1e-15


def test_moment_perfect_correlation_fourth_power():
    corr = np.ones((4, 4))
    assert abs(hermite_product_moment((1, 1, 1, 1), corr) - 3.0) < 1e-12


def test_moment_one_one_two():
    corr = np.array(
        [
            [1.0, 0.2, 0.5],
            [0.2, 1.0, -0.4],
            [0.5, -0.4, 1.0],
        ]
    )
    expected = 2.0 * corr[0, 2] * corr[1, 2]
    assert abs(hermite_product_moment((1, 1, 2), corr) - expected) < 1e-12


def test_moment_validation():
    corr = np.eye(3)
    with pytest.raises(ValidationError):
        hermite_product_moment((1, 1), corr)
    bad = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValidationError):
        hermite_product_moment((1, 1), bad)
    bad = np.array([[1.0, 1.5], [1.5, 1.0]])
    with pytest.raises(ValidationError):
        hermite_product_moment((1, 1), bad)
    bad = np.array([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValidationError):
        hermite_product_moment((1, 1), bad)
    with pytest.raises(SizeLimitError):
        hermite_product_moment((13, 13), np.eye(2))
    with pytest.raises(ValidationError, match="^level cardinality must be an integer"):
        hermite_product_moment((1.7, 1.2), np.eye(2))


def test_moment_odd_total_is_zero():
    corr = _random_correlation(3, np.random.default_rng(3))
    assert hermite_product_moment((1, 1, 1), corr) == 0.0


def test_moment_permutation_invariance():
    rng = np.random.default_rng(9)
    corr = _random_correlation(4, rng)
    orders = (1, 2, 2, 3)
    base = hermite_product_moment(orders, corr)
    for perm in itertools.permutations(range(4)):
        p_orders = tuple(orders[i] for i in perm)
        p_corr = corr[np.ix_(perm, perm)]
        assert abs(hermite_product_moment(p_orders, p_corr) - base) < 1e-10


def test_moment_matches_isserlis_oracle():
    rng = np.random.default_rng(17)
    tuples = list(_even_tuples())
    for _ in range(6):
        for orders in tuples:
            corr = _random_correlation(len(orders), rng)
            got = hermite_product_moment(orders, corr)
            want = isserlis_hermite_moment(orders, corr)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
