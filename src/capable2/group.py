"""Operations every coordinate group derives from its own law.

A group object supplies ``identity``, ``gens`` (which generate it), ``order``,
``radices`` (element coordinate i lies in ``range(radices[i])``) and the
scalar law ``mul``/``inverse``; :class:`CoordGroup` derives the rest.

Each law is written once, for scalars, using only ``+ - * // %`` on the
indexed coordinates ``x[i]``.  Fed the int64 columns ``X[..., i]`` of
coordinate-row arrays by :func:`apply_rows`, the same code computes every row
at once; composed with the mixed-radix key it gives ``mul_keys``, one key per
product with no product rows in between.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BuildIntegrityError, ParameterError


# rows per block in apply_rows: the temporaries of a block stay in cache, and
# temporaries of millions of rows would cost page faults on every call
BLOCK_ROWS = 1 << 13


INT64_BOUND = 1 << 62


def check_int64(radices) -> None:
    """``ParameterError`` unless the int64 row paths stay below
    ``INT64_BOUND`` on rows with these radices: the largest mixed-radix key
    (the product of the radices) and the largest intermediate of a law (the
    class-three term x_s * binom2(y_r) is under the cube of the largest
    radix)."""
    if math.prod(radices) >= INT64_BOUND or max(radices) ** 3 >= INT64_BOUND:
        raise ParameterError(
            f"radices {tuple(radices)} are too large for the int64 array paths"
        )


def apply_rows(law, *arrays) -> np.ndarray:
    """Run a coordinate law on int64 coordinate-row arrays, broadcast against
    each other; the result has as many coordinates as the law returns.

    The law is fed the columns ``X[..., i]``, ``BLOCK_ROWS`` rows at a time.
    """
    arrays = np.broadcast_arrays(*(np.asarray(A, dtype=np.int64) for A in arrays))
    shape = arrays[0].shape
    width = shape[-1]
    flat = [A.reshape(-1, width) for A in arrays]
    n = len(flat[0])
    # an empty input still runs the law once, to learn the result's width
    blocks = [slice(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS)] or [slice(0, 0)]
    out = None
    for block in blocks:
        cols = law(*([A[block, i] for i in range(width)] for A in flat))
        if out is None:
            out = np.empty((n, len(cols)), dtype=np.int64)
        for i, col in enumerate(cols):
            out[block, i] = col
    return out.reshape(shape[:-1] + out.shape[1:])


def box_rows(radices) -> np.ndarray:
    """Every int64 row with coordinate i in ``range(radices[i])``, lexicographic."""
    grids = np.meshgrid(*(np.arange(m, dtype=np.int64) for m in radices), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


class CoordGroup:
    """Derived operations on coordinate tuples; see the module docstring."""

    _int64_checked = False

    def apply_law(self, law, *arrays) -> np.ndarray:
        """:func:`apply_rows`, after checking once per group object that its
        radices keep the int64 row paths exact (``ParameterError`` if not)."""
        if not self._int64_checked:
            check_int64(self.radices)
            self._int64_checked = True
        return apply_rows(law, *arrays)

    def inv_arrays(self, X) -> np.ndarray:
        """Inverse of each int64 coordinate row, by the scalar ``inverse``."""
        return self.apply_law(self.inverse, X)

    def mul_keys(self, X, Y) -> np.ndarray:
        """Key of each row product x*y of broadcast row arrays, computed block
        by block without materializing the product rows."""
        return self.apply_law(lambda x, y: (self.key(self.mul(x, y)),), X, Y)[..., 0]

    def power(self, x, n: int):
        """x^n by binary exponentiation; n may be negative."""
        if n < 0:
            return self.power(self.inverse(x), -n)
        acc, base = self.identity, x
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def commutator(self, x, y):
        """[x, y] = x^-1 y^-1 x y."""
        return self.mul(self.mul(self.inverse(x), self.inverse(y)), self.mul(x, y))

    def order_of(self, x) -> int:
        """Smallest power of two k with x^k trivial, by repeated squaring."""
        n, cur = 1, x
        while cur != self.identity:
            cur = self.mul(cur, cur)
            n <<= 1
            if n > 2 * self.order:
                raise BuildIntegrityError("element order exceeds group order")
        return n

    def is_central(self, x) -> bool:
        """Commutes with every designated generator, hence with everything."""
        return all(self.commutator(x, g) == self.identity for g in self.gens)

    def closure(self, gens):
        """Yield each element of the subgroup generated by ``gens`` once, in
        breadth-first order over right multiplication by the generators."""
        gens = [tuple(map(int, g)) for g in gens]
        seen = {self.identity}
        frontier = [self.identity]
        yield self.identity
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        yield y
            frontier = nxt

    def pick_generators(self, elems, within=None) -> list:
        """Some of ``elems``, picked greedily in order, that generate the
        same subgroup: each is kept unless the ones before it generate it.

        Each pick at least doubles the span, so there are at most log2 of
        its order.  With ``within``, a set, ``ValueError`` as soon as the
        span leaves it: for ``within=set(elems)`` the call returns exactly
        when ``elems`` are closed under multiplication.
        """
        gens, spanned = [], {self.identity}
        for x in elems:
            if x in spanned:
                continue
            gens.append(x)
            spanned = set()
            for y in self.closure(gens):
                if within is not None and y not in within:
                    raise ValueError("input is not closed under multiplication")
                spanned.add(y)
        return gens

    def elements(self):
        """All boxed coordinate tuples, lexicographic."""
        return itertools.product(*(range(m) for m in self.radices))

    def coords_array(self) -> np.ndarray:
        """All boxed coordinate rows, lexicographic (that is, in key order)."""
        return box_rows(self.radices)

    def key(self, x):
        """Mixed-radix key of a boxed coordinate tuple (or of coordinate columns)."""
        key = x[0]
        for i, m in enumerate(self.radices[1:], start=1):
            key = key * m + x[i]
        return key

    def key_rows(self, X) -> np.ndarray:
        """Mixed-radix key of each boxed coordinate row."""
        X = np.asarray(X, dtype=np.int64)
        return self.key([X[..., i] for i in range(X.shape[-1])])
