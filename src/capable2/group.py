"""Operations every coordinate group derives from its own law.

A group object supplies ``identity``, ``gens`` (which generate it), ``order``,
``radices`` (element coordinate i lies in ``range(radices[i])``) and the
scalar law ``mul``/``inverse``; :class:`CoordGroup` derives the rest.

Each law is written once, for scalars, using only ``+ - * // %`` on the
indexed coordinates ``x[i]``.  Fed the columns ``X[..., i]`` of coordinate-row
arrays by :func:`apply_rows`, cast to int64 one block at a time, the same code
computes every row at once; composed with the mixed-radix key it gives
``mul_keys`` and ``commutator_keys``, one key per product or commutator
with no rows in between.  Rows are fetched by key (:meth:`CoordGroup.rows`,
decoded by :func:`unravel_rows`) in the narrowest signed integer dtype that
holds the radices, so rows cost a few bytes per element while every law
evaluation still runs in checked int64.

Multiplication of the whole box by one element needs no rows at all: the
same law runs on the box's open grid, one int64 column per coordinate laid
along its own axis, and broadcasting spans each intermediate over only the
coordinates it depends on.  The constant element enters as Python ints,
each zero coordinate as the exact :data:`ZERO`, so a term that vanishes is
never computed and spans no axis: a generator's left product y*x spans only
what its right product x*y spans.  ``right_keys`` and ``left_keys`` each run
the law once on the whole grid; each output coordinate, a small-dimensional
column, is checked against its radix and cast to :func:`index_dtype`, and
only the key's last step, written straight into the int32 map, spans the
whole box.
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


def is_integer(v) -> bool:
    """Whether ``v`` is a Python or numpy integer, and not a bool."""
    return is_int(v) or isinstance(v, np.integer)


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


class _Zero:
    """Exact zero for a law run on the open grid: it absorbs products, adds
    nothing and supports ``- // %``, so the terms it would zero out are never
    computed.  ``__array_ufunc__ = None`` makes numpy hand it every operator
    with an array or a numpy scalar."""

    __slots__ = ()
    __array_ufunc__ = None

    def __repr__(self) -> str:
        return "ZERO"

    def __add__(self, other):
        return other

    def __sub__(self, other):
        return -other

    def __rsub__(self, other):
        return other

    def __neg__(self):
        return self

    def __mul__(self, other):
        return self

    __radd__ = __add__
    __rmul__ = __floordiv__ = __mod__ = __mul__


ZERO = _Zero()


def fold(x) -> tuple:
    """A constant element's coordinates as Python ints, each 0 as :data:`ZERO`."""
    return tuple(int(c) or ZERO for c in x)


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

    def commutator_keys(self, X, Y) -> np.ndarray:
        """Key of each commutator [x, y] of broadcast row arrays, like
        :meth:`mul_keys`: one run of :meth:`commutator` per block."""
        return self.apply_law(lambda x, y: (self.key(self.commutator(x, y)),), X, Y)[..., 0]

    def _grid_map(self, law) -> np.ndarray:
        """The index map x -> key of law(x) for every x of the box, in key
        order, as :func:`index_dtype` indices: ``law`` runs once on the box's
        open grid, coordinate i being the int64 column ``range(radices[i])``
        laid along axis i.  Each coordinate of the result is checked against
        its radix (``BuildIntegrityError`` when a product leaves the box) and
        cast to the index dtype; only the key's last step spans the box, and
        it writes into the map.  ``ParameterError`` when the radices are too
        large for int64."""
        check_int64(self.radices)
        index = index_dtype(math.prod(self.radices))
        grid = np.ix_(*(np.arange(m, dtype=np.int64) for m in self.radices))
        cols = []
        for col, m in zip(law(grid), self.radices, strict=True):
            col = np.asarray(0 if col is ZERO else col)
            if col.min() < 0 or col.max() >= m:
                raise BuildIntegrityError("a product left the table")
            cols.append(col.astype(index))
        out = np.empty(self.radices, dtype=index)
        self.key(cols, out=out)
        return out.reshape(-1)

    def right_keys(self, y) -> np.ndarray:
        """Key of x*y for every x of the box, in key order (the group's
        elements when its order is the product of the radices), as an
        :func:`index_dtype` map: one run of the scalar law on the open grid
        (:meth:`_grid_map`), y :func:`fold`-ed."""
        y = fold(y)
        return self._grid_map(lambda x: self.mul(x, y))

    def left_keys(self, y) -> np.ndarray:
        """Key of y*x for every x of the box, like :meth:`right_keys`.  With
        y's zero coordinates :data:`ZERO`, the left product of a generator
        spans no more of the grid than its right product."""
        y = fold(y)
        return self._grid_map(lambda x: self.mul(y, x))

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
        breadth-first order over right multiplication by the generators;
        ``ParameterError`` for a generator with a coordinate that is not an
        integer (:func:`is_integer`).  A generator outside the box is
        reduced by the law."""
        gens = [tuple(g) for g in gens]
        for g in gens:
            if not all(map(is_integer, g)):
                raise ParameterError(f"generator {g} has a coordinate that is not an integer")
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

    def key(self, x, out=None):
        """Mixed-radix key of a boxed coordinate tuple (or of coordinate
        columns); with ``out``, the last step writes the key into it."""
        key = x[0]
        for i, m in enumerate(self.radices[1:], start=1):
            if out is not None and i == len(self.radices) - 1:
                return np.add(key * m, x[i], out=out)
            key = key * m + x[i]
        if out is None:
            return key
        out[...] = key  # one coordinate: the key is that coordinate
        return out

    def key_rows(self, X) -> np.ndarray:
        """Mixed-radix int64 key of each boxed coordinate row."""
        X = np.asarray(X)
        # an int64 first column makes every partial key int64, whatever the
        # dtype of the columns added to it
        return self.key([X[..., 0].astype(np.int64), *(X[..., i] for i in range(1, X.shape[-1]))])
