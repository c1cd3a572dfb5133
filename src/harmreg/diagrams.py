"""Diagram formula for moments of products of Hermite polynomials.

Exactness over speed: this is the combinatorial oracle used to validate
the covariance machinery, bounded to small orders.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, ValidationError, require_count

ENUMERATION_BOUND = 24
# the most perfect matchings, (sum - 1)!!, an enumeration may walk: 13!!,
# so (1,) * 14, the largest admitted request, lists its 135135 diagrams in
# about 2 s on one Xeon core, and every two more unit levels multiply the
# count by 15 or more
MATCHING_BOUND = 135135


@dataclass(frozen=True)
class Diagram:
    """A perfect matching of level vertices with no intra-level edges.

    Vertices are (level, index) pairs; edges are ordered with the lower
    level first.
    """

    levels: tuple[int, ...]
    edges: frozenset

    def __post_init__(self):
        degree = {}
        for (j1, a), (j2, b) in self.edges:
            if j1 == j2:
                raise ValidationError("edge within one level")
            for v in ((j1, a), (j2, b)):
                degree[v] = degree.get(v, 0) + 1
        n_vertices = sum(self.levels)
        if len(degree) != n_vertices or any(d != 1 for d in degree.values()):
            raise ValidationError("every vertex must have degree exactly 1")
        if 2 * len(self.edges) != n_vertices:
            raise ValidationError("edge count must be half the vertex count")


def _check_orders(orders) -> tuple[int, ...]:
    orders = tuple(orders)
    for l in orders:
        require_count("level cardinality", l, 1)
    orders = tuple(map(int, orders))
    if sum(orders) > ENUMERATION_BOUND:
        raise SizeLimitError(
            f"sum of orders {sum(orders)} exceeds enumeration bound {ENUMERATION_BOUND}"
        )
    return orders


def _level_matchings(orders):
    """The checked orders, and a generator of the perfect matchings of their
    levels' vertices with no edge inside a level, empty when the total is
    odd; SizeLimitError when (sum - 1)!!, the bound on their number,
    exceeds MATCHING_BOUND."""
    orders = _check_orders(orders)
    bound = math.prod(range(sum(orders) - 1, 0, -2))
    if bound > MATCHING_BOUND:
        raise SizeLimitError(
            f"orders {orders} admit up to {bound} matchings, above the bound {MATCHING_BOUND}"
        )
    vertices = [(j, a) for j, l in enumerate(orders) for a in range(l)]
    return orders, iter(()) if sum(orders) % 2 else _matchings(vertices)


def _matchings(vertices):
    # recursive canonical enumeration: always match the first free vertex
    if not vertices:
        yield []
        return
    first = vertices[0]
    rest = vertices[1:]
    for i, other in enumerate(rest):
        if other[0] == first[0]:
            continue
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, other)] + tail


def enumerate_diagrams(orders) -> list[Diagram]:
    """All diagrams over levels of the given cardinalities; [] when the
    total is odd."""
    orders, matchings = _level_matchings(orders)
    return [Diagram(orders, frozenset(edges)) for edges in matchings]


def _regular(p: int, edges) -> bool:
    """True iff the p levels split into pairs with no edge crossing pairs:
    every level meets exactly one other level, and that one only it."""
    if p % 2:
        return False
    partner = {}
    for (j1, _), (j2, _) in edges:
        # each level keeps the first level it meets and may meet no other
        if partner.setdefault(j1, j2) != j2 or partner.setdefault(j2, j1) != j1:
            return False
    return partner.keys() == set(range(p))


def is_regular(d: Diagram) -> bool:
    """True iff the levels split into pairs with no edge crossing pairs."""
    return _regular(len(d.levels), d.edges)


def count_regular(groups) -> int:
    """Closed-form count of regular diagrams over level arrangements.

    ``groups`` lists (cardinality r_j, pair multiplicity m_j): the level
    multiset has 2*m_j levels of cardinality r_j, p = 2*nu in total. The
    count is (2nu-1)!! * nu! / prod(m_j!) * prod((r_j!)^m_j) and includes
    the arrangements of the level multiset: it equals the enumerated
    regular-diagram census summed over the distinct orderings of the
    levels (for a single group there is one ordering and the formula
    matches the per-tuple census directly).
    """
    groups = list(groups)
    for r, m in groups:
        require_count("group cardinality", r, 1)
        require_count("pair multiplicity", m, 1)
    groups = [(int(r), int(m)) for r, m in groups]
    if len({r for r, _ in groups}) != len(groups):
        raise ValidationError("group cardinalities must be distinct")
    nu = sum(m for _, m in groups)
    out = math.factorial(2 * nu) // (2**nu * math.factorial(nu))  # (2nu-1)!!
    out *= math.factorial(nu)
    for r, m in groups:
        out //= math.factorial(m)
        out *= math.factorial(r) ** m
    return out


def regular_census(orders) -> int:
    """|{regular diagrams}| for one fixed ordering of the levels."""
    orders, matchings = _level_matchings(orders)
    return sum(_regular(len(orders), edges) for edges in matchings)


def distinct_arrangements(orders) -> int:
    """Number of distinct orderings of the level multiset: the multinomial
    p! / prod(m_j!) over the multiplicities m_j of its p levels."""
    orders = _check_orders(orders)
    out = math.factorial(len(orders))
    for m in Counter(orders).values():
        out //= math.factorial(m)
    return out


def hermite_product_moment(orders, corr) -> float:
    """E[prod_j H_{l_j}(zeta_j)] for jointly standard Gaussian zeta with
    correlation matrix corr: the sum over diagrams of the edge products.
    """
    orders, matchings = _level_matchings(orders)
    corr = np.asarray(corr, dtype=float)
    p = len(orders)
    if corr.shape != (p, p):
        raise ValidationError(f"correlation matrix must be {p}x{p}")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise ValidationError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise ValidationError("correlation matrix must have unit diagonal")
    if np.any(np.abs(corr) > 1.0 + 1e-12):
        raise ValidationError("correlations must lie in [-1, 1]")
    total = 0.0
    for edges in matchings:
        prod = 1.0
        for (j1, _), (j2, _) in edges:
            prod *= corr[j1, j2]
        total += prod
    return total
