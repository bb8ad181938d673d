"""Independent brute-force referees: word collection by elementary rewriting,
full enumeration, subgroup machinery, and two-generator isomorphism search.

``collect_word`` never touches the closed-form multiplication polynomials: it
pushes single letters past each other with the five basic swap rules and their
sign variants, so it referees :mod:`capable2.hall_core`.  The table-level
routines (center, closure, quotient, isomorphism) referee the congruence-level
computations elsewhere in the package; they reuse each group's own
multiplication law (written once, in :mod:`capable2.hall_core` and
:meth:`capable2.class2.Class2Group.fold`, and run on int64 columns through
``mul_arrays`` and ``mul_keys``) and the breadth-first
:meth:`capable2.group.CoordGroup.closure`, but never a structural shortcut
such as :meth:`capable2.nilprod.NilGroup.center_keys` or ``center``.

Every table is keyed 0..n-1: an ambient or model table by the mixed-radix
key of its boxed coordinates, a quotient table by coset id.  A key is its
row's index, so a product key column is the index map "multiply by this
element" with no lookup.  A table stores no rows: it is its group, its
order and its cached index maps.  Rows belong to the group and are fetched
by key (``rows``), in the narrowest signed integer dtype that holds the
radices, only where a referee returns or multiplies them.

A table keeps two full-table index maps, R_a and R_b, "right-multiply by
a designated generator", each product computed straight into its key,
never into a |K|-by-5 array of rows.  The rows of an ambient or model
table are ``rows(0..n-1)``, the box of the radices in key order, so there
each map is one run of the law on the box's open grid
(:meth:`capable2.group.CoordGroup.right_keys`); a quotient runs its
representatives through ``mul_keys``.  ``brute_center`` keeps the rows
where R_a equals L_a, "left-multiply by a", one more run of the law on the
open grid (:meth:`capable2.group.CoordGroup.left_keys`), and checks b only
on those survivors: a row that commutes with the generators, when the
generators generate the table, is central.  Generation is proved once per
table, by one breadth-first walk over R_a and R_b that carries nothing
(:func:`_walk`); a quotient table holds the proof from the coset search
that built it, and the walk that carries the Frattini labels proves it too.
``quotient_central`` checks the rows of its subgroup Z for centrality,
R_g[z] against the key of gz from one run of the law per designated
generator on those rows only, and labels the cosets by one breadth-first
search over blocks of rows: the identity's block is Z, each child block
is R_g[block], since (xZ)g = (xg)Z, and a block's label is its minimum
key, the key of the coset's representative.  The blocks must partition the table, which proves
Z closed.  One gather per row and generator, and no row products.

``iso_2gen`` works on the same index maps.  A table's squaring map (the
index of x^2 per row, built on first use, so never for an ambient table)
gives each row's order exponent, modulo any subgroup, and each relation side
by gathers.  The relations, with class at most two, make the coordinate map
a^i b^j [a,b]^k -> g^i h^j [g,h]^k a homomorphism from the target whose image
is <g, h>.  By the Burnside basis theorem that image is the whole table
exactly when g and h lie in distinct nontrivial cosets of the Frattini
subgroup; each row's coset label is carried along a walk over R_a and R_b
and checked against them on every row.  Equal orders make the map
bijective.

Tables are immutable after construction and deterministically ordered.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BuildIntegrityError, EnumerationBudgetError
from .group import BLOCK_ROWS, CoordGroup, check_int64, index_dtype
from .hall_core import FreeElt

DEFAULT_MAX_ORDER = 1 << 16

# ---------------------------------------------------------------------------
# word collection


_RANK = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}

# (higher letter, sign), (lower letter, sign) -> correction letters appended
# after the swapped pair.  Each entry is the commutator [x^eps, y^delta]
# written as a word in strictly higher letters; d and e commute with
# everything and c commutes with c, d, e, so no other pairs need corrections.
_SWAP = {
    (("b", 1), ("a", 1)): (("c", -1),),
    (("b", 1), ("a", -1)): (("c", 1), ("d", -1)),
    (("b", -1), ("a", 1)): (("c", 1), ("e", -1)),
    (("b", -1), ("a", -1)): (("c", -1), ("d", 1), ("e", 1)),
    (("c", 1), ("a", 1)): (("d", 1),),
    (("c", 1), ("a", -1)): (("d", -1),),
    (("c", -1), ("a", 1)): (("d", -1),),
    (("c", -1), ("a", -1)): (("d", 1),),
    (("c", 1), ("b", 1)): (("e", 1),),
    (("c", 1), ("b", -1)): (("e", -1),),
    (("c", -1), ("b", 1)): (("e", -1),),
    (("c", -1), ("b", -1)): (("e", 1),),
}

_AB_EXPANSION = {
    "c": (("a", -1), ("b", -1), ("a", 1), ("b", 1)),
}
_AB_EXPANSION["d"] = (
    tuple((s, -e) for s, e in reversed(_AB_EXPANSION["c"]))
    + (("a", -1),)
    + _AB_EXPANSION["c"]
    + (("a", 1),)
)
_AB_EXPANSION["e"] = (
    tuple((s, -e) for s, e in reversed(_AB_EXPANSION["c"]))
    + (("b", -1),)
    + _AB_EXPANSION["c"]
    + (("b", 1),)
)


def _parse_word(w) -> list[tuple[str, int]]:
    """Accept 'aBab'-style strings (uppercase = inverse) or (sym, exp) pairs."""
    letters: list[tuple[str, int]] = []
    if isinstance(w, str):
        for ch in w:
            if ch in " \t":
                continue
            sym = ch.lower()
            if sym not in _RANK:
                raise ValueError(f"unknown letter {ch!r}")
            letters.append((sym, -1 if ch.isupper() else 1))
        return letters
    for sym, exp in w:
        if sym not in _RANK:
            raise ValueError(f"unknown letter {sym!r}")
        sign = 1 if exp > 0 else -1
        letters.extend((sym, sign) for _ in range(abs(exp)))
    return letters


def collect_word(w, max_steps: int = 50_000_000) -> FreeElt:
    """Collect a word over a, b, c, d, e (and inverses) to its normal form.

    Pure letter-by-letter rewriting: scan for an adjacent out-of-order pair,
    swap it, append the correction letters, and back up one position.  The
    central letters d, e go straight to counters.  Terminates because every
    correction has strictly greater weight than the swapped pair.
    """
    u_acc = v_acc = 0
    word = []
    for sym, sign in _parse_word(w):
        if sym == "d":
            u_acc += sign
        elif sym == "e":
            v_acc += sign
        else:
            word.append((sym, sign))

    i = 0
    steps = 0
    while i < len(word) - 1:
        steps += 1
        if steps > max_steps:
            raise RuntimeError("collection did not terminate within the step cap")
        x, y = word[i], word[i + 1]
        if x[0] == y[0] and x[1] == -y[1]:
            del word[i : i + 2]
            i = max(i - 1, 0)
            continue
        if _RANK[x[0]] > _RANK[y[0]]:
            corr = _SWAP[(x, y)]
            word[i], word[i + 1] = y, x
            insert = []
            for sym, sign in corr:
                if sym == "d":
                    u_acc += sign
                elif sym == "e":
                    v_acc += sign
                else:
                    insert.append((sym, sign))
            word[i + 2 : i + 2] = insert
            i = max(i - 1, 0)
        else:
            i += 1

    counts = {"a": 0, "b": 0, "c": 0}
    for sym, sign in word:
        counts[sym] += sign
    return FreeElt(counts["a"], counts["b"], counts["c"], u_acc, v_acc)


def word_of(x: FreeElt, expand_commutators: bool = False) -> list[tuple[str, int]]:
    """A word spelling x; with ``expand_commutators`` only a, b letters appear."""
    letters: list[tuple[str, int]] = []
    for sym, exp in zip("abcde", x.coords()):
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if expand_commutators and sym in _AB_EXPANSION:
                chunk = _AB_EXPANSION[sym]
                if sign < 0:
                    chunk = tuple((s, -e) for s, e in reversed(chunk))
                letters.extend(chunk)
            else:
                letters.append((sym, sign))
    return letters


# ---------------------------------------------------------------------------
# tables


class GroupTable:
    """Index maps over the elements of one group object, keyed 0..n-1.

    The group supplies the multiplication law, the key and the rows; the
    table stores only its group, its order and its cached index maps.  A
    key is its row's index: every boxed tuple of an ambient group or a
    model is an element keyed by its mixed-radix key, and a quotient keys
    each element by its coset id.  The rows, :attr:`coords`, are decoded by
    the group on first use, which an ambient table never needs.

    An ambient or model table's rows are ``group.rows(0..n-1)``, the box of
    the radices in key order, so the right multiplications R_g by the
    designated generators (:attr:`gen_maps`), the table's only stored
    full-table maps besides the squaring map, run on the box's open grid.
    That the designated generators generate the table is proved at most
    once (:meth:`prove_generation`), by one breadth-first walk over R_a and
    R_b that carries nothing; the walk that carries each row's coset of the
    Frattini subgroup (:attr:`frattini`) proves it too, and a table built by
    :func:`quotient_central` is given it as ``generated``, since the coset
    search that built the quotient reached every coset from Z.
    """

    def __init__(self, group, generated: bool = False):
        self.group = group
        self.order = group.order
        # whether the designated generators are known to generate the table
        self.generated = generated

    @staticmethod
    def from_group(group, max_order: int | None = None) -> "GroupTable":
        """Table of every element; ``EnumerationBudgetError`` above
        ``max_order`` elements, ``ParameterError`` when the radices are too
        large for int64 rows."""
        limit = DEFAULT_MAX_ORDER if max_order is None else max_order
        if group.order > limit:
            raise EnumerationBudgetError(
                f"group of order {group.order} exceeds the enumeration bound {limit}"
            )
        check_int64(group.radices)
        return GroupTable(group)

    @functools.cached_property
    def coords(self) -> np.ndarray:
        """Every row in key order, decoded by the group on first use."""
        return self.group.rows(np.arange(self.order))

    def index_of(self, keys) -> np.ndarray:
        """Table index of each key, which is the key itself;
        ``BuildIntegrityError`` if one lies outside 0..order-1."""
        keys = np.asarray(keys)
        if keys.size and (keys.min() < 0 or keys.max() >= self.order):
            raise BuildIntegrityError("a product left the table")
        return keys

    def right_mul(self, x) -> np.ndarray:
        """The index map "right-multiply by x": the group's ``right_keys``,
        one run of the law on the open grid of an ambient or model's box
        (:meth:`capable2.group.CoordGroup.right_keys`), or a quotient's
        representatives through ``mul_keys``."""
        return self.index_of(self.group.right_keys(x))

    @functools.cached_property
    def gen_maps(self) -> tuple[np.ndarray, ...]:
        """R_g, the index map "right-multiply by g", for each designated
        generator g, built on first use and stored as int32 indices
        (:func:`capable2.group.index_dtype`)."""
        index = index_dtype(self.order)
        return tuple(self.right_mul(g).astype(index) for g in self.group.gens)

    def _row_of(self, x) -> int:
        """The row of one element."""
        return self.index_of(self.group.key_rows([x]))[0]

    def prove_generation(self) -> None:
        """``BuildIntegrityError`` unless the designated generators generate
        the table, decided by one breadth-first walk over R_a and R_b
        (:func:`_walk`) that carries nothing; a no-op once
        :attr:`generated` is set, which a finished walk does."""
        if not self.generated:
            for _ in _walk(self.gen_maps, self._row_of(self.group.identity), self.order):
                pass
            self.generated = True

    @functools.cached_property
    def frattini(self) -> np.ndarray | None:
        """Each row's label 0..3 for its coset of the Frattini subgroup Phi,
        with a -> 1 and b -> 2, or ``None`` when the table is not minimally
        generated by its two designated generators (for example, cyclic).

        The labels are carried along one breadth-first walk over R_a and
        R_b, lambda(p*g_s) = lambda(p) xor 2^s, and returned only after the
        check lambda(R_s x) = lambda(x) xor 2^s on every row.  That check
        makes lambda a homomorphism onto (Z/2)^2.  In a 2-group Phi is the
        least normal subgroup with an elementary abelian quotient, of index
        at most 4 when two elements generate, so the kernel of lambda is
        Phi.  The finished walk also sets :attr:`generated`.
        ``BuildIntegrityError`` when the designated generators do not
        generate the table."""
        if len(self.gen_maps) != 2:
            return None
        one = self._row_of(self.group.identity)
        lab = np.zeros(self.order, dtype=np.int8)
        for s, parents, kids in _walk(self.gen_maps, one, self.order):
            lab[kids] = lab[parents] ^ (1 << s)
        self.generated = True
        if any((lab[step] != lab ^ (1 << s)).any() for s, step in enumerate(self.gen_maps)):
            return None
        return lab

    @functools.cached_property
    def squares(self) -> np.ndarray:
        """Index of x^2 for each row, built on first use."""
        return self.index_of(self.group.mul_keys(self.coords, self.coords))

    def exponents(self, members=None) -> np.ndarray:
        """For each row x, the least k with x^(2^k) inside the subgroup that
        ``members``, a boolean mask over the keys, marks (default: the
        identity), by gathers through :attr:`squares`.  Raises
        ``BuildIntegrityError`` after log2 |table| rounds, which no element
        of a 2-group needs."""
        if members is None:
            members = key_mask(self.group, [self.group.identity])
        res = np.zeros(self.order, dtype=np.int64)
        live = cur = np.flatnonzero(~members)
        k = 0
        while len(live):
            k += 1
            if k >= self.order.bit_length():
                raise BuildIntegrityError("an element order exceeds the table order")
            cur = self.squares[cur]
            done = members[cur]
            res[live[done]] = k
            live, cur = live[~done], cur[~done]
        return res


def key_mask(group, rows) -> np.ndarray:
    """Boolean mask over the group's keys 0..order-1 marking ``rows``."""
    mask = np.zeros(group.order, dtype=bool)
    mask[group.key_rows(rows)] = True
    return mask


def _comm_with_inverses(group, X, X_inv, Y, Y_inv) -> np.ndarray:
    """[x, y] = x^-1 y^-1 x y for broadcast rows given with their inverses."""
    return group.mul_arrays(group.mul_arrays(X_inv, Y_inv), group.mul_arrays(X, Y))


# ---------------------------------------------------------------------------
# subgroup machinery


def brute_center(table: GroupTable) -> np.ndarray:
    """{z : zg = gz for all g}, coordinate rows in table order.

    A row x is kept when R_g[x] = L_g[x], "right-" against "left-multiply
    by g", for every designated generator g.  For the first generator both
    maps cover the table: R_a from :attr:`GroupTable.gen_maps` and L_a from
    the group's ``left_keys``, one run of the law on the open grid of an
    ambient or model's box (:meth:`capable2.group.CoordGroup.left_keys`) or
    a quotient's representatives through ``mul_keys``.  Each further
    generator is checked only on the rows that survive, the centralizer of
    a, by ``mul_keys`` against a gather of its R_g.  A kept row commutes
    with the generators, and is central because they generate the table,
    which :meth:`GroupTable.prove_generation` proves once per table (raising
    ``BuildIntegrityError`` when they reach only part of it); every dropped
    row fails against a generator.  Every product is computed straight into
    its key, so the referee holds key columns and index maps, never a
    table-sized array of product rows.
    """
    table.prove_generation()
    g = table.group
    first, *rest = g.gens
    keep = np.flatnonzero(table.gen_maps[0] == g.left_keys(first))
    X = g.rows(keep)
    for right, y in zip(table.gen_maps[1:], rest):
        hit = right[keep] == g.mul_keys(np.asarray(y)[None], X)
        keep, X = keep[hit], X[hit]
    return X


def _walk(steps, start: int, n: int):
    """Breadth-first walk from ``start`` over the index maps ``steps`` on
    the indices 0..n-1.  Yields one (s, parents, kids) run per level and
    step, in breadth-first order: ``kids = steps[s][parents]`` are the
    indices first reached there, so a caller carries values along the
    edges as they are walked, value[kid] from value[parent].

    Each step is meant to be injective (a right multiplication is), so the
    kids of one run are distinct without a dedupe.  After the last run,
    ``BuildIntegrityError`` when the runs reached an index twice (a step
    repeats a row) or left one unreached (the steps do not generate)."""
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = np.asarray([start])
    reached = 1
    while len(frontier):
        level = []
        for s, step in enumerate(steps):
            kids = step[frontier]
            new = ~seen[kids]
            parents, kids = frontier[new], kids[new]
            seen[kids] = True
            reached += len(kids)
            yield s, parents, kids
            level.append(kids)
        frontier = np.concatenate(level)
    if reached != np.count_nonzero(seen):
        raise BuildIntegrityError("a step repeats a row: the steps are not permutations")
    if reached != n:
        raise BuildIntegrityError("the designated generators do not generate the table")


def closure(table: GroupTable, gens) -> np.ndarray:
    """Subgroup generated by ``gens`` inside the table's group, in key order."""
    g = table.group
    out = np.asarray(list(g.closure(gens)), dtype=np.int64)
    return out[np.argsort(g.key_rows(out), kind="stable")]


def normal_closure(table: GroupTable, gens) -> np.ndarray:
    """Smallest normal subgroup containing ``gens``.

    Conjugation by the group's designated generators suffices to normalize,
    since they generate the whole group.
    """
    g = table.group
    current = [tuple(x) for x in gens]
    sub = closure(table, current)
    while True:
        size = len(sub)
        conjs = []
        for gen in g.gens:
            gi = g.inverse(gen)
            for s in sub.tolist():
                conjs.append(g.mul(g.mul(gi, tuple(s)), gen))
        sub = closure(table, [tuple(s) for s in sub.tolist()] + conjs)
        if len(sub) == size:
            return sub


class QuotientGroup(CoordGroup):
    """Quotient of a table's group by the central subgroup Z whose elements
    have the sorted keys ``sub_keys``; the caller checks that each is
    central.

    Elements are the minimum-key coset representatives, and an element's
    key is its coset id, so the quotient's own table is keyed 0..n-1 too.
    ``rows``, ``mul_arrays`` and ``inv_arrays`` return representatives in
    the parent's narrow row dtype.

    The cosets come from one breadth-first search over blocks of rows
    (:func:`_coset_minima`): the identity's block is Z, and each child
    block is R_g[parent block] for the table's cached R_a and R_b, since
    (xZ)g = (xg)Z when Z is central.  A block's label is its minimum key,
    the key of its representative, and a coset id is a running count of
    representatives in key order.  No row products: O(|K|) gathers.
    Products are computed in the parent and mapped to coset ids through
    one parent-key-indexed int32 array (:func:`capable2.group.index_dtype`),
    the search's labels rewritten into coset ids in place, and widened to
    int64 only in the query-sized results of ``key`` and ``mul_keys``.
    """

    def __init__(self, table: GroupTable, sub_keys):
        parent = table.group
        self.parent = parent
        lab, reps = _coset_minima(table, sub_keys)
        self._rep = parent.rows(reps)
        # coset ids count the representatives in key order; each block of
        # labels is rewritten in place, so no second |K|-long array of ids
        # is ever held
        cid = np.empty(table.order, dtype=lab.dtype)
        cid[reps] = np.arange(len(reps))
        for lo in range(0, len(lab), BLOCK_ROWS):
            block = lab[lo:lo + BLOCK_ROWS]
            block[...] = cid[block]
        self._cid_of_key = lab
        self._rep_tuples = [tuple(r) for r in self._rep.tolist()]
        self.order = len(self._rep)
        self.radices = parent.radices
        self.identity = self._canon(parent.identity)
        self.gens = tuple(self._canon(x) for x in parent.gens)

    def key(self, x):
        """Coset id of a parent element (or of parent coordinate columns),
        as int64."""
        return self._cid_of_key[self.parent.key(x)].astype(np.int64)

    def _canon(self, x):
        return self._rep_tuples[self.key(x)]

    def _canon_rows(self, X) -> np.ndarray:
        return self._rep[self.key_rows(X)]

    def rows(self, keys) -> np.ndarray:
        return self._rep[keys]

    def mul_arrays(self, X, Y) -> np.ndarray:
        return self._canon_rows(self.parent.mul_arrays(X, Y))

    def inv_arrays(self, X) -> np.ndarray:
        return self._canon_rows(self.parent.inv_arrays(X))

    def mul_keys(self, X, Y) -> np.ndarray:
        return self._cid_of_key[self.parent.mul_keys(X, Y)].astype(np.int64)

    def right_keys(self, y) -> np.ndarray:
        """Coset id of x*y for every representative x, in coset-id order:
        the representatives are not a box, so through ``mul_keys``."""
        return self.mul_keys(self._rep, np.asarray(y)[None])

    def left_keys(self, y) -> np.ndarray:
        """Coset id of y*x for every representative x, in coset-id order,
        through ``mul_keys``."""
        return self.mul_keys(np.asarray(y)[None], self._rep)

    def mul(self, x, y):
        return self._canon(self.parent.mul(x, y))

    def inverse(self, x):
        return self._canon(self.parent.inverse(x))

    def elements(self):
        return iter(self._rep_tuples)


def _coset_minima(table: GroupTable, sub_keys) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label, the minimum key of its block Zx, and the sorted
    labels, by one breadth-first search over blocks; ``sub_keys`` are the
    sorted distinct keys of a set Z that holds the identity.

    The identity's block is Z.  The child blocks R_g[block] of a level come
    from one 2-D gather per generator; a child whose minimum is unlabelled
    is new, and new children are deduplicated by their minimum (the child
    that wins its slot in a scratch array) and labelled by it.  Two checks
    follow:
    - every child, new or not, reads its own minimum on every row;
    - at the end, the blocks number |table|/|Z|, so no block overwrote the
      labels of another.
    Together they say that R_a and R_b permute the labelled blocks, which
    partition the table.  Then so does every right multiplication, and
    R_z for z in Z maps Z to the block holding z, Z itself: Z is closed.
    ``ValueError`` "not closed" when a check fails; ``BuildIntegrityError``
    when rows stay unreached, because the designated generators do not
    generate the table.  Labels are stored in
    :func:`capable2.group.index_dtype`.
    """
    n = table.order
    index = index_dtype(n)
    lab = np.full(n, -1, dtype=index)
    slot = np.empty(n, dtype=index)
    frontier = np.asarray(sub_keys, dtype=index)[None]
    lab[frontier] = frontier[:, :1]
    minima = [frontier[:, 0]]
    while len(frontier):
        level = []
        for step in table.gen_maps:
            kids = step[frontier]
            mins = kids.min(axis=1)
            # one new block per unlabelled minimum: the one that wins its slot
            pos = np.arange(len(mins), dtype=index)
            slot[mins] = pos
            new = (slot[mins] == pos) & (lab[mins] < 0)
            fresh = kids[new]
            lab[fresh] = mins[new, None]
            if (lab[kids] != mins[:, None]).any():
                raise ValueError("input is not closed under multiplication")
            level.append(fresh)
            minima.append(mins[new])
        frontier = np.concatenate(level)
    if (lab < 0).any():
        raise BuildIntegrityError("the designated generators do not generate the table")
    minima = np.sort(np.concatenate(minima))
    if len(minima) * len(sub_keys) != n:
        raise ValueError("input is not closed under multiplication")
    return lab, minima


def quotient_central(table: GroupTable, sub) -> GroupTable:
    """Table of the quotient by a central subgroup; ``ValueError`` when the
    rows miss the identity, are not central (naming the first such row) or
    are not closed.  Centrality is zg = gz for each designated generator g:
    R_g gathered at the keys of the subgroup's rows against gz from one run
    of the law on those rows.  Closure is checked by the coset search of
    :class:`QuotientGroup`, which raises ``BuildIntegrityError`` when the
    designated generators do not generate the table, and otherwise reaches
    every coset from Z by R_a and R_b: the images of the generators generate
    the quotient, so its table is built ``generated``."""
    g = table.group
    Z = np.asarray(sub, dtype=np.int64)
    rows = [tuple(r) for r in Z.tolist()]
    if tuple(g.identity) not in rows:
        raise ValueError("subgroup must contain the identity")
    keys = table.index_of(g.key_rows(Z))
    central = np.ones(len(rows), dtype=bool)
    for right, gen in zip(table.gen_maps, g.gens):
        central &= right[keys] == g.mul_keys(np.asarray(gen)[None], Z)
    if not central.all():
        raise ValueError(f"subgroup element {rows[np.argmin(central)]} is not central")
    keys = np.sort(keys)
    q = QuotientGroup(table, keys[np.diff(keys, prepend=-1) > 0])
    return GroupTable(q, generated=True)


# ---------------------------------------------------------------------------
# isomorphism search


def iso_2gen(table: GroupTable, target):
    """Explicit generator-image isomorphism from ``target`` onto the table.

    Only a table of class at most two can match a class-two target, and only
    there is every commutator [g, h] central: ``None`` unless every
    [[x, y], z] over the table's designated generators is trivial (in a
    finite 2-group, which is nilpotent, that makes the third term of the
    lower central series trivial).  The commutators of the designated
    generators are then central, so they generate the derived subgroup D
    of the table, as [a, b] generates the target's.

    Candidate images are pruned by an isomorphism invariant: an image g of
    a must have the order of a and, modulo D, the order of a modulo
    <[a, b]>; likewise an image h of b.  An isomorphism carries <[a, b]>
    onto D, so every accepted pair passes this filter; both candidate lists
    keep key order, so the pair returned is the one the unpruned search
    accepts first.  The table's orders come from
    :meth:`GroupTable.exponents`, the target's from its scalar squaring
    loop, :meth:`capable2.group.CoordGroup.exponent`.

    Generation is decided by the Burnside basis theorem: the table has the
    target's order, so it is a 2-group, and two of its elements generate it
    exactly when their images generate the quotient by its Frattini
    subgroup, that is, when their :attr:`GroupTable.frattini` labels are
    nonzero and differ.  ``None`` when the table has no such labels (it is
    not minimally two-generated, so no pair generates it); candidates with
    label 0 are dropped, which keeps the accepted pair.

    Pairs (g, h) with independent labels whose commutator has the order of
    [a, b] are checked against every defining relation of the target's
    presentation, each side gathered through the table's squaring map
    (``ValueError`` for a side other than the identity or one letter to a
    power of two).  With [g, h] central, relations holding for (g, h) make
    the coordinate map a^i b^j [a,b]^k -> g^i h^j [g,h]^k a homomorphism
    from the target, by the usual collection argument, and its image is
    <g, h>, the whole table; a surjection between groups of equal order is
    an isomorphism.  Sound and complete for two-generator targets.
    """
    if table.order != target.order:
        return None
    g = table.group
    coords = table.coords
    # [x, x] = 1 and [y, x] = [x, y]^-1, so the pairs x < y suffice
    comms = [g.commutator(x, y) for i, x in enumerate(g.gens) for y in g.gens[i + 1:]]
    if any(g.commutator(c, z) != g.identity for c in comms for z in g.gens):
        return None
    lab = table.frattini
    if lab is None:
        return None

    ta, tb = target.gens
    tc = target.commutator(ta, tb)
    t_derived = set(target.closure([tc]))
    ea, eb, ec = (target.exponent(x, {target.identity}) for x in (ta, tb, tc))
    da, db = (target.exponent(x, t_derived) for x in (ta, tb))
    relations = [(_side(lhs), _side(rhs)) for lhs, rhs in target.relations()]

    plain = table.exponents()
    mod = table.exponents(key_mask(g, closure(table, comms)))
    g_idx = np.flatnonzero((plain == ea) & (mod == da) & (lab != 0))
    h_idx = np.flatnonzero((plain == eb) & (mod == db) & (lab != 0))
    if len(g_idx) == 0 or len(h_idx) == 0:
        return None

    one = g.key(g.identity)
    H = coords[h_idx]
    H_inv = g.inv_arrays(H)
    for gi in g_idx:
        # the fixed candidate g and its inverse are single rows, broadcast
        # by the row products against every candidate h
        g_elt = tuple(coords[gi].tolist())
        g_inv = np.asarray([g.inverse(g_elt)], dtype=np.int64)
        C = _comm_with_inverses(g, coords[gi][None], g_inv, H, H_inv)
        c_idx = table.index_of(g.key_rows(C))
        keep = (plain[c_idx] == ec) & (lab[h_idx] != lab[gi])
        images = {None: one, "a": gi, "b": h_idx[keep], "c": c_idx[keep]}
        ok = np.ones(len(images["b"]), dtype=bool)
        for lhs, rhs in relations:
            ok &= _gather(table, images, lhs) == _gather(table, images, rhs)
        if ok.any():
            return g_elt, tuple(coords[images["b"][ok][0]].tolist())
    return None


def _side(word):
    """A relation side as (letter, m) for letter^(2^m), with (None, 0) for
    the identity; ``ValueError`` for any other word."""
    if not word:
        return None, 0
    if len(word) == 1:
        sym, exp = word[0]
        if sym in ("a", "b", "c") and exp > 0 and exp & (exp - 1) == 0:
            return sym, exp.bit_length() - 1
    raise ValueError(f"relation side {word} is neither 1 nor one letter to a power of two")


def _gather(table, images, side):
    """Table index of letter^(2^m) for each candidate image of the letter:
    its index, m times through the squaring map (``images[None]`` is the
    identity's)."""
    sym, m = side
    idx = images[sym]
    for _ in range(m):
        idx = table.squares[idx]
    return idx
