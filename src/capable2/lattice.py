"""Canonical bases for finite-index sublattices of Z^3.

Two kinds of relation lattice use them.  In :mod:`capable2.nilprod` the
three coordinates index exponents of [a,b], [a,b,a], [a,b,b], and a group
quotient's commutator block is Z^3 modulo such a lattice; in
:mod:`capable2.class2` they index exponents of a, b, [a,b], and a model is
Z^3 modulo the lattice of its relators.  The canonical upper-triangular
basis (positive pivots, entries above each pivot reduced modulo it) turns
coset representatives into boxed coordinates with one modulus per position.
All arithmetic is exact; nothing here assumes the pivots are powers of two.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

from .errors import ParameterError, RankDeficientError

Vec3 = tuple[int, int, int]


@dataclass(frozen=True)
class CommLattice:
    """Upper-triangular canonical basis; rows generate the lattice."""

    rows: tuple[Vec3, Vec3, Vec3]

    @property
    def pivots(self) -> Vec3:
        return (self.rows[0][0], self.rows[1][1], self.rows[2][2])

    @property
    def index(self) -> int:
        p0, p1, p2 = self.pivots
        return p0 * p1 * p2

    def reduce(self, vec) -> Vec3:
        """Unique representative of vec + L with coordinate i in [0, pivot_i).

        The entries of ``vec`` may be ints or int64 arrays (one lattice vector
        per position); arrays are never modified.
        """
        t, u, v = vec
        (p0, a01, a02), (_, p1, a12), (_, _, p2) = self.rows
        k = t // p0
        t, u, v = t - k * p0, u - k * a01, v - k * a02
        k = u // p1
        u, v = u - k * p1, v - k * a12
        return (t, u, v % p2)

    def contains(self, vec) -> bool:
        return self.reduce(vec) == (0, 0, 0)

    def box(self):
        """All canonical representatives, in lexicographic order."""
        p0, p1, p2 = self.pivots
        return itertools.product(range(p0), range(p1), range(p2))


def canonical_basis(generators) -> CommLattice:
    """Canonical form of the lattice spanned by integer triples.

    Independent of generator order and of redundant generators; raises
    :class:`RankDeficientError` when the span has rank below three (the
    quotient's commutator block would then be infinite).  Raises
    :class:`ParameterError` for anything but integer triples.
    """
    work = [list(g) for g in generators]
    for g in work:
        # the exact type test passes plain ints without the slower abc check
        if len(g) != 3 or not all(
            type(x) is int or isinstance(x, numbers.Integral) for x in g
        ):
            raise ParameterError(f"generators must be integer triples, got {g!r}")
    work = [[int(x) for x in g] for g in work if any(g)]

    basis = []
    for col in range(3):
        while True:
            nz = sorted(
                (i for i, g in enumerate(work) if g[col]),
                key=lambda i: abs(work[i][col]),
            )
            if len(nz) <= 1:
                break
            i0 = nz[0]
            for i in nz[1:]:
                q = work[i][col] // work[i0][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[i0])]
            work = [g for g in work if any(g)]
        nz = [i for i, g in enumerate(work) if g[col]]
        if not nz:
            raise RankDeficientError(
                "infinite commutator block: generators span a sublattice of rank < 3"
            )
        pivot = work.pop(nz[0])
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)

    # Reduce entries above each pivot into [0, pivot).
    for i in (1, 0):
        for j in range(i + 1, 3):
            q = basis[i][j] // basis[j][j]
            basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]

    return CommLattice(tuple(tuple(r) for r in basis))
