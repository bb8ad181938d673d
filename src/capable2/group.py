"""Operations every coordinate group derives from its own law.

A group object supplies ``identity``, ``gens`` (which generate it), ``order``,
``radices`` (element coordinate i lies in ``range(radices[i])``) and the
scalar law ``mul``/``inverse``; :class:`CoordGroup` derives the rest.

Each law is written once, for scalars, using only ``+ - * // %`` on the
indexed coordinates ``x[i]``.  Fed the columns ``X[..., i]`` of coordinate-row
arrays by :func:`apply_rows`, cast to int64 one block at a time, the same code
computes every row at once; composed with the mixed-radix key it gives
``mul_keys``, one key per product with no product rows in between.  Rows are
fetched by key (:meth:`CoordGroup.rows`, decoded by :func:`unravel_rows`) in
the narrowest signed integer dtype that holds the radices, so rows cost a few
bytes per element while every law evaluation still runs in checked int64.

Multiplication of the whole box by one element needs no rows at all: the
same law runs on the box's open grid, one int64 column per coordinate laid
along its own axis, and broadcasting spans each intermediate over only the
coordinates it depends on.  ``right_keys`` runs x*y once on the whole grid;
``left_keys`` runs y*x one slab of the first coordinate at a time, since
every intermediate of a left product depends on that coordinate, and writes
each slab's keys straight into an :func:`index_dtype` map.
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


def is_int(v) -> bool:
    """Whether ``v`` is an int and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


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
    """Run a coordinate law on integer coordinate-row arrays, broadcast
    against each other; the result is int64 with as many coordinates as the
    law returns.

    The law is fed the columns ``X[..., i]``, ``BLOCK_ROWS`` rows at a time,
    each cast to int64 for its block only, so narrow stored rows never leave
    a full int64 copy behind.
    """
    arrays = np.broadcast_arrays(*map(np.asarray, arrays))
    shape = arrays[0].shape
    width = shape[-1]
    flat = [A.reshape(-1, width) for A in arrays]
    n = len(flat[0])
    # an empty input still runs the law once, to learn the result's width
    blocks = [slice(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS)] or [slice(0, 0)]
    out = None
    for block in blocks:
        cols = law(*([A[block, i].astype(np.int64, copy=False) for i in range(width)] for A in flat))
        if out is None:
            out = np.empty((n, len(cols)), dtype=np.int64)
        for i, col in enumerate(cols):
            out[block, i] = col
    return out.reshape(shape[:-1] + out.shape[1:])


def index_dtype(n: int) -> type:
    """int32 for indices into n <= 2^31 rows, which halves a stored index
    map; intp beyond."""
    return np.int32 if n <= 1 << 31 else np.intp


def coord_dtype(radices) -> np.dtype:
    """The narrowest signed integer dtype holding 0..max(radices)-1: the
    smallest signed type of -max(radices) holds max(radices)-1 too."""
    return np.min_scalar_type(-max(radices))


def unravel_rows(keys, radices) -> np.ndarray:
    """The row with coordinate i in ``range(radices[i])`` of each mixed-radix
    key, in :func:`coord_dtype`; ``ValueError`` for a key outside the box."""
    return np.stack(np.unravel_index(keys, tuple(radices)), axis=-1).astype(coord_dtype(radices))


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

    def _open_grid(self, first=slice(None)) -> tuple[np.ndarray, ...]:
        """The box's open grid: coordinate i is the int64 column
        ``range(radices[i])`` laid along axis i, the first column cut to the
        slice ``first``."""
        cols = [np.arange(m, dtype=np.int64) for m in self.radices]
        cols[0] = cols[0][first]
        return np.ix_(*cols)

    def right_keys(self, y) -> np.ndarray:
        """Key of x*y for every x of the box, in key order (the group's
        elements when its order is the product of the radices), by one run
        of the scalar law on the box's open grid (:meth:`_open_grid`), y
        staying Python ints.  Each intermediate spans only the coordinates
        it depends on; only the final key has one entry per element.
        ``ParameterError`` when the radices are too large for int64."""
        check_int64(self.radices)
        keys = self.key(self.mul(self._open_grid(), tuple(map(int, y))))
        return np.broadcast_to(keys, tuple(self.radices)).reshape(-1)

    def left_keys(self, y) -> np.ndarray:
        """Key of y*x for every x of the box, in key order, as an
        :func:`index_dtype` map: the scalar law on the box's open grid, run
        one slab of about ``BLOCK_ROWS`` rows (at least one value of the
        first coordinate) at a time.  Every intermediate of a left product
        depends on the first coordinate, so the slabs repeat no work, and
        each slab's keys are written straight into the map.
        ``ParameterError`` when the radices are too large for int64."""
        check_int64(self.radices)
        y = tuple(map(int, y))
        n = math.prod(self.radices)
        head, *tail = self.radices
        out = np.empty(n, dtype=index_dtype(n))
        box = out.reshape(self.radices)
        width = max(1, BLOCK_ROWS // math.prod(tail))
        for lo in range(0, head, width):
            box[lo:lo + width] = self.key(self.mul(y, self._open_grid(slice(lo, lo + width))))
        return out

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

    def exponent(self, x, members) -> int:
        """Least k with x^(2^k) in ``members``, a set of elements, by
        repeated squaring; ``BuildIntegrityError`` once 2^k exceeds twice
        the order."""
        k = 0
        while x not in members:
            x = self.mul(x, x)
            k += 1
            if 1 << k > 2 * self.order:
                raise BuildIntegrityError("element order exceeds group order")
        return k

    def order_of(self, x) -> int:
        """Smallest power of two k with x^k trivial."""
        return 1 << self.exponent(x, {self.identity})

    def commutes(self, x, others) -> bool:
        """x*y == y*x for every y in ``others``: two products each, where
        the commutator [x, y] takes two inverses and three."""
        return all(self.mul(x, y) == self.mul(y, x) for y in others)

    def is_central(self, x) -> bool:
        """Commutes with every designated generator, hence with everything."""
        return self.commutes(x, self.gens)

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

    def elements(self):
        """All boxed coordinate tuples, lexicographic."""
        return itertools.product(*(range(m) for m in self.radices))

    def rows(self, keys) -> np.ndarray:
        """The boxed coordinate row of each key, in :func:`coord_dtype`."""
        return unravel_rows(keys, self.radices)

    def key(self, x):
        """Mixed-radix key of a boxed coordinate tuple (or of coordinate columns)."""
        key = x[0]
        for i, m in enumerate(self.radices[1:], start=1):
            key = key * m + x[i]
        return key

    def key_rows(self, X) -> np.ndarray:
        """Mixed-radix int64 key of each boxed coordinate row."""
        X = np.asarray(X)
        # an int64 first column makes every partial key int64, whatever the
        # dtype of the columns added to it
        return self.key([X[..., 0].astype(np.int64), *(X[..., i] for i in range(1, X.shape[-1]))])
