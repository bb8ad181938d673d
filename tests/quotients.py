"""Every two-generator 2-group of class two and order 2^n, as a quotient of
the free class-two group, matched against the presentation list.

Each such group is F/N, F free of class two on a and b.  By the argument in
:class:`capable2.class2.Class2Group`, the coordinates (a, b, [a,b]) of N
form a lattice that contains (0, 0, g), g the gcd of its a and b entries,
and each such lattice of index 2^n is an N.  In canonical form its rows are
(d1, x, y), (0, d2, z), (0, 0, d3) with d1 d2 d3 = 2^n, 0 <= x < d2,
0 <= y, z < d3 and d3 | gcd(d1, x, d2); F/N has class exactly two iff
d3 > 1.  :func:`check` builds each lattice as a :class:`Quotient`, and
matches it against ``params_with_order(2^n)`` by fingerprint and an
explicit isomorphism, and splits the groups that match none into
isomorphism classes, with a :class:`Quotient` as the target.  Run it to
order 2^11 with

    PYTHONPATH=src:tests python -c "import quotients; quotients.check(11)"
"""

import itertools
from collections import Counter

from capable2 import class2, oracle

# per exponent n of the order 2^n: lattices, lattices whose group matches no
# tuple, and the fingerprint classes and isomorphism classes of those groups
EXPECTED = {
    3: (4, 0, 0, 0),
    4: (12, 0, 0, 0),
    5: (28, 0, 0, 0),
    6: (76, 0, 0, 0),
    7: (172, 0, 0, 0),
    8: (364, 12, 1, 1),
    9: (812, 24, 1, 1),
    10: (1708, 60, 2, 2),
    11: (3500, 180, 4, 4),
}


class Quotient(class2.Class2Group):
    """F/N, N the normal closure of the relators a^d b^x [a,b]^y, one per
    row (d, x, y) of ``rows``."""

    def __init__(self, rows):
        self.relator_rows = tuple(rows)
        super().__init__(None)

    def relations(self):
        return [((("a", d), ("b", x), ("c", y)), ()) for d, x, y in self.relator_rows]

    def __repr__(self) -> str:
        return f"Quotient({self.relator_rows}, order={self.order})"


def lattices(n: int):
    """Canonical rows of every lattice above with d1 d2 d3 = 2^n and d3 > 1."""
    for e1, e2 in itertools.product(range(1, n), repeat=2):
        e3 = n - e1 - e2
        # d3 > 1 divides d1 and d2, and x
        if 1 <= e3 <= min(e1, e2):
            d1, d2, d3 = 1 << e1, 1 << e2, 1 << e3
            for x, y, z in itertools.product(range(0, d2, d3), range(d3), range(d3)):
                yield ((d1, x, y), (0, d2, z), (0, 0, d3))


def check(max_exp: int) -> dict[int, Counter]:
    """Match every lattice of index 2^n, 3 <= n <= max_exp (at most 11, the
    last order pinned in ``EXPECTED``), against the tuples of that order,
    and split the lattices that match none into isomorphism classes: each
    is searched by ``iso_2gen`` against one :class:`Quotient` of each class
    found so far with its fingerprint, and starts a class when none maps
    onto it.

    Asserts that each Quotient's lattice has the rows it was built from, that
    every tuple is matched, that no lattice matches two tuples except the
    :func:`capable2.class2.overlap_partner` pair, and the counts of
    ``EXPECTED``.  Returns, per n, the fingerprints of the lattices that
    match no tuple, with their counts.
    """
    outside = {}
    for n in range(3, max_exp + 1):
        params = class2.params_with_order(1 << n)
        hit, missed, classes, count = set(), Counter(), {}, 0
        for rows in lattices(n):
            g = Quotient(rows)
            assert g.lattice.rows == rows, g
            table = oracle.GroupTable.from_group(g, g.order)
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
        found = (count, sum(missed.values()), len(missed), sum(map(len, classes.values())))
        assert found == EXPECTED[n], (n, found)
        outside[n] = missed
    return outside
