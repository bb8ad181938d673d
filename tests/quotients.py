"""Every two-generator 2-group of class two and order 2^n, as a quotient of
the free class-two group, matched against the presentation list and
against the family iv off it.

Each such group is F/N, F free of class two on a and b.  By the argument in
:class:`capable2.class2.Class2Group`, the coordinates (a, b, [a,b]) of N
form a lattice that contains (0, 0, g), g the gcd of its a and b entries,
and each such lattice of index 2^n is an N.  In canonical form its rows are
(d1, x, y), (0, d2, z), (0, 0, d3) with d1 d2 d3 = 2^n, 0 <= x < d2,
0 <= y, z < d3 and d3 | gcd(d1, x, d2); F/N has class exactly two iff
d3 > 1.  :func:`check` builds each lattice as a ``Class2Group`` from its
rows, matches it against ``params_with_order(2^n)`` by fingerprint and an
explicit isomorphism, and splits the groups that match none into
isomorphism classes, with a row-built model as the target.  It then maps
each iv(alpha, beta, gamma, sigma, rho) of order 2^n (:func:`iv_rows`)
onto those classes.  Run it to order 2^11 with

    PYTHONPATH=src:tests python -c "import quotients; quotients.check(11)"
"""

import itertools
from collections import Counter

from capable2 import class2, oracle

# per exponent n of the order 2^n: lattices, lattices whose group matches no
# tuple, the fingerprint classes and isomorphism classes of those groups,
# and the iv tuples
EXPECTED = {
    3: (4, 0, 0, 0, 0),
    4: (12, 0, 0, 0, 0),
    5: (28, 0, 0, 0, 0),
    6: (76, 0, 0, 0, 0),
    7: (172, 0, 0, 0, 0),
    8: (364, 12, 1, 1, 1),
    9: (812, 24, 1, 1, 1),
    10: (1708, 60, 2, 2, 2),
    11: (3500, 180, 4, 4, 4),
}


def lattices(n: int):
    """Canonical rows of every lattice above with d1 d2 d3 = 2^n and d3 > 1."""
    for e1, e2 in itertools.product(range(1, n), repeat=2):
        e3 = n - e1 - e2
        # d3 > 1 divides d1 and d2, and x
        if 1 <= e3 <= min(e1, e2):
            d1, d2, d3 = 1 << e1, 1 << e2, 1 << e3
            for x, y, z in itertools.product(range(0, d2, d3), range(d3), range(d3)):
                yield ((d1, x, y), (0, d2, z), (0, 0, d3))


def iv_rows(n: int):
    """The relator rows (2^alpha, 0, -2^sigma), (0, 2^beta, -2^rho),
    (0, 0, 2^gamma) of every iv(alpha, beta, gamma, sigma, rho) with
    alpha + beta + gamma = n, 0 <= sigma < rho < gamma <= alpha and
    beta - alpha > rho - sigma: a^(2^alpha) = [a,b]^(2^sigma),
    b^(2^beta) = [a,b]^(2^rho), [a,b]^(2^gamma) = 1."""
    for alpha, gamma in itertools.product(range(1, n), repeat=2):
        beta = n - alpha - gamma
        for sigma, rho in itertools.combinations(range(gamma), 2):
            if gamma <= alpha and beta - alpha > rho - sigma:
                yield ((1 << alpha, 0, -(1 << sigma)), (0, 1 << beta, -(1 << rho)),
                       (0, 0, 1 << gamma))


def check(max_exp: int) -> dict[int, Counter]:
    """Match every lattice of index 2^n, 3 <= n <= max_exp (at most 11, the
    last order pinned in ``EXPECTED``), against the tuples of that order,
    and split the lattices that match none into isomorphism classes: each
    is searched by ``iso_2gen`` against one model of each class found so
    far with its fingerprint, and starts a class when none maps onto it.
    Each table's Frattini labels are read first: their coset search proves
    generation, so ``fingerprint``'s ``brute_center`` runs none of its own
    and ``iso_2gen`` reuses it, one search per table.

    Asserts that each model's lattice has the rows it was built from, that
    every tuple is matched, that no lattice matches two tuples except the
    :func:`capable2.class2.overlap_partner` pair, that ``iso_2gen`` maps each
    iv tuple of order 2^n onto exactly one of the classes, and every class
    is hit, and the counts of ``EXPECTED``.  Returns, per n, the
    fingerprints of the lattices that match no tuple, with their counts.
    """
    outside = {}
    for n in range(3, max_exp + 1):
        params = class2.params_with_order(1 << n)
        hit, missed, classes, count = set(), Counter(), {}, 0
        for rows in lattices(n):
            g = class2.Class2Group(rows)
            assert g.lattice.rows == rows, g
            table = oracle.GroupTable.from_group(g, g.order)
            assert table.frattini is not None, g
            fp = class2.fingerprint(table)
            matches = [
                p for p in params
                if class2.model_fingerprint(p) == fp
                and oracle.iso_2gen(table, class2.model(p)) is not None
            ]
            assert len(matches) <= 1 or (
                len(matches) == 2 and class2.overlap_partner(matches[0]) == matches[1]
            ), (g, matches)
            hit.update(matches)
            if not matches:
                missed[fp] += 1
                reps = classes.setdefault(fp, [])
                if all(oracle.iso_2gen(table, rep) is None for rep in reps):
                    reps.append(g)
            count += 1
        assert hit == set(params), (n, set(params) - hit)
        classed = [(fp, rep) for fp, reps in classes.items() for rep in reps]
        iv_hits = []
        for rows in iv_rows(n):
            table = oracle.GroupTable.from_group(class2.Class2Group(rows))
            assert table.frattini is not None, rows
            fp = class2.fingerprint(table)
            hits = [i for i, (f, rep) in enumerate(classed)
                    if f == fp and oracle.iso_2gen(table, rep) is not None]
            assert len(hits) == 1, (rows, hits)
            iv_hits += hits
        assert sorted(iv_hits) == list(range(len(classed))), (n, iv_hits)
        found = (count, sum(missed.values()), len(missed), len(classed), len(iv_hits))
        assert found == EXPECTED[n], (n, found)
        outside[n] = missed
    return outside
