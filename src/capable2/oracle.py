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
generators generate the table, is central.  The cosets of a subgroup Z
are numbered by one breadth-first search over blocks of rows
(:func:`_cosets`): the identity's block is Z, each child block is
R_g[block], since R_g maps the right coset Zx onto Zxg, and a new block
takes the next id.  The blocks must partition the table, which proves Z
closed; the ids are then renumbered in key order of the blocks' minima,
the representatives.  A few gathers per row and generator, and no row
products.  The same search proves, once per table, that the generators
generate it: a child block that is not new shows an element of Z in
<a, b>, and by Schreier's lemma these elements generate Z ∩ <a, b>.  The
search closes them inside Z, with the breadth-first walk (:func:`_walk`)
over the maps "multiply by z" on Z's rows that the blocks' columns give,
and asks that they reach all of Z; no table is walked.  The search also
carries each block's label for its coset of the Frattini subgroup and
checks it on every block.  On a table not yet proved generated,
``brute_center`` runs the search on the subgroup it keeps, C(a) ∩ C(b),
and the table holds it for ``quotient_central``, which checks the rows
of its Z for centrality, R_g[z] against the key of gz from one run of
the law per designated generator on those rows only, and reuses the
search when Z is those rows.  A quotient table is handed the search that
built it, which is, block for block, the quotient's own search of its
trivial subgroup: the proof of generation and the Frattini labels.

``iso_2gen`` works on the same index maps.  A table's squaring map (the
index of x^2 per row, built on first use, so never for an ambient table)
gives each row's order exponent, modulo any subgroup, and each relation side
by gathers.  The relations, with class at most two, make the coordinate map
a^i b^j [a,b]^k -> g^i h^j [g,h]^k a homomorphism from the target whose image
is <g, h>.  By the Burnside basis theorem that image is the whole table
exactly when g and h lie in distinct nontrivial cosets of the Frattini
subgroup; each row's coset label comes from the coset search of the
trivial subgroup, which checks it against R_a and R_b on every row.  Equal
orders make the map bijective.

Tables are immutable after construction and deterministically ordered.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BuildIntegrityError, EnumerationBudgetError, ParameterError
from .group import BLOCK_ROWS, CoordGroup, check_int64, index_dtype, is_int
from .hall_core import FreeElt

DEFAULT_MAX_ORDER = 1 << 16
# swaps and cancellations after which collect_word gives up
COLLECT_MAX_STEPS = 50_000_000

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
    """Accept 'aBab'-style strings (uppercase = inverse) or (sym, exp) pairs
    with int exponents; ``ParameterError`` for anything else."""
    if isinstance(w, str):
        w = [(ch.lower(), -1 if ch.isupper() else 1) for ch in w if ch not in " \t"]
    try:
        pairs = [(sym, exp) for sym, exp in w]
    except (TypeError, ValueError):
        raise ParameterError(f"a word is a string or (letter, exponent) pairs, got {w!r}") from None
    letters: list[tuple[str, int]] = []
    for sym, exp in pairs:
        if not (isinstance(sym, str) and sym in _RANK and is_int(exp)):
            raise ParameterError(f"{(sym, exp)!r} is not a letter a-e with an integer exponent")
        sign = 1 if exp > 0 else -1
        letters.extend((sym, sign) for _ in range(abs(exp)))
    return letters


def collect_word(w) -> FreeElt:
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
        if steps > COLLECT_MAX_STEPS:
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
    once, by the first coset search (:meth:`cosets`), which also carries
    each row's coset of the Frattini subgroup (:attr:`frattini`) when its
    subgroup is trivial.  A table built by :func:`quotient_central` is
    given that search, since the coset search that built the quotient
    reached every coset from Z and labelled each.
    """

    def __init__(self, group):
        self.group = group
        self.order = group.order
        # the last coset search: its sub_keys, coset ids, representatives
        # and Frattini labels
        self._search = None

    @property
    def generated(self) -> bool:
        """Whether the designated generators are proved to generate the
        table: true once a coset search (:meth:`cosets`) has finished, since
        a search that fails raises."""
        return self._search is not None

    @staticmethod
    def from_group(group, max_order: int | None = None) -> "GroupTable":
        """Table of every element; ``EnumerationBudgetError`` above
        ``max_order`` elements, ``ParameterError`` when ``max_order`` is not
        an int >= 1 or the radices are too large for int64 rows."""
        limit = DEFAULT_MAX_ORDER if max_order is None else max_order
        if not (is_int(limit) and limit >= 1):
            raise ParameterError(f"integer enumeration bound >= 1 required, got {limit!r}")
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

    def cosets(self, sub_keys) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Each row's coset id, the representatives and the Frattini labels
        of the blocks of the sorted keys ``sub_keys``, by the coset search
        (:func:`_cosets`), which also proves generation.  The search stays
        on the table, and a second call with the same keys reuses it:
        :func:`brute_center` runs it on the keys it keeps, and
        :func:`quotient_central` reuses it."""
        if self._search is None or not np.array_equal(self._search[0], sub_keys):
            self._search = (sub_keys, *_cosets(self, sub_keys))
        return self._search[1:]

    @functools.cached_property
    def frattini(self) -> np.ndarray | None:
        """Each row's label 0..3 for its coset of the Frattini subgroup Phi,
        with a -> 1 and b -> 2, or ``None`` when the table is not minimally
        generated by its two designated generators (for example, cyclic).

        The labels are those of the coset search of the trivial subgroup,
        whose blocks are the rows (:func:`_cosets`); a quotient table is
        given that search by :func:`quotient_central`.  The search checks
        lambda(R_s x) = lambda(x) xor 2^s on every row, which makes lambda a
        homomorphism onto (Z/2)^2.  In a 2-group Phi is the least normal
        subgroup with an elementary abelian quotient, of index at most 4
        when two elements generate, so the kernel of lambda is Phi.
        ``BuildIntegrityError`` when the designated generators do not
        generate the table."""
        if len(self.group.gens) != 2:
            return None
        return self.cosets([0])[2]

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
    with the generators, and is central because they generate the table;
    every dropped row fails against a generator.  On a table not yet known
    to be :attr:`GroupTable.generated`, the kept keys, the subgroup
    C(a) ∩ C(b), go through the coset search (:meth:`GroupTable.cosets`),
    which proves generation (raising ``BuildIntegrityError`` when the
    generators do not generate the table) and stays on the table for
    :func:`quotient_central`.  Every product is computed straight into its
    key, so the referee holds key columns and index maps, never a
    table-sized array of product rows.
    """
    g = table.group
    first, *rest = g.gens
    keep = np.flatnonzero(table.gen_maps[0] == g.left_keys(first))
    X = g.rows(keep)
    for right, y in zip(table.gen_maps[1:], rest):
        hit = right[keep] == g.mul_keys(np.asarray(y)[None], X)
        keep, X = keep[hit], X[hit]
    if not table.generated:
        table.cosets(keep)
    return X


def _walk(steps, seen):
    """Breadth-first walk over the index maps ``steps`` from the indices
    that the boolean mask ``seen`` marks, marking in ``seen`` every index
    reached.  The marked indices are then closed under the steps; whether
    they are all of them is the caller's question.

    Each step is meant to be injective (a permutation is), so the indices
    first reached by one step of a level are distinct without a dedupe.
    At the end, ``BuildIntegrityError`` when the walk reached an index
    twice (a step repeats a row)."""
    frontier = np.flatnonzero(seen)
    reached = len(frontier)
    while len(frontier):
        level = []
        for step in steps:
            kids = step[frontier]
            kids = kids[~seen[kids]]
            seen[kids] = True
            level.append(kids)
        frontier = np.concatenate(level)
        reached += len(frontier)
    if reached != np.count_nonzero(seen):
        raise BuildIntegrityError("a step repeats a row: the steps are not permutations")


def closure(table: GroupTable, gens) -> np.ndarray:
    """Subgroup generated by ``gens`` inside the table's group, in key order."""
    g = table.group
    out = np.asarray(list(g.closure(gens)), dtype=np.int64)
    return out[np.argsort(g.key_rows(out), kind="stable")]


def normal_closure(table: GroupTable, gens) -> np.ndarray:
    """Smallest normal subgroup containing ``gens``.

    Each round conjugates the current generators of N by the group's
    designated generators and adds the conjugates that fall outside N.  A
    subgroup that holds its generators' conjugates by every designated
    generator is normal, since they generate the whole group.
    """
    g = table.group
    current = [tuple(x) for x in gens]
    while True:
        sub = closure(table, current)
        members = set(map(tuple, sub.tolist()))
        outside = [c for c in (g.mul(g.mul(g.inverse(gen), x), gen)
                               for gen in g.gens for x in current) if c not in members]
        if not outside:
            return sub
        current += outside


class QuotientGroup(CoordGroup):
    """Quotient of a table's group by the central subgroup Z whose elements
    have the sorted keys ``sub_keys``; the caller checks that each is
    central.

    Elements are the minimum-key coset representatives, and an element's
    key is its coset id, so the quotient's own table is keyed 0..n-1 too.
    ``rows``, ``mul_arrays`` and ``inv_arrays`` return representatives in
    the parent's narrow row dtype.

    The cosets come from the table's coset search (:meth:`GroupTable.cosets`,
    reused when :func:`brute_center` ran it on the same keys): the
    identity's block is Z, and each child block is R_g[parent block] for
    the table's cached R_a and R_b, since R_g maps the right coset Zx onto
    Zxg.  A new block takes the next id, and the ids are renumbered, in
    place, in key order of the blocks' minima, the representatives.  No
    row products: O(|K|) gathers.  The search's Frattini label of each
    coset, in coset-id order, is kept as ``labels`` (``None`` when the
    quotient has none) for :func:`quotient_central`.  Products are
    computed in the parent and mapped to coset ids through the search's
    parent-key-indexed int32 ids (:func:`capable2.group.index_dtype`),
    widened to int64 only in the query-sized results of ``key`` and
    ``mul_keys``.
    """

    def __init__(self, table: GroupTable, sub_keys):
        parent = table.group
        self.parent = parent
        self._cid_of_key, reps, self.labels = table.cosets(sub_keys)
        self._rep = parent.rows(reps)
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


def _cosets(table: GroupTable, sub_keys) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Each row's coset id, the sorted representatives, the minimum keys
    of the blocks Zx, and each block's Frattini label (or ``None``), by
    one breadth-first search over blocks that also proves that the
    designated generators generate the table.  ``sub_keys`` are the
    sorted distinct keys of a set Z that holds the identity, whose key is
    0 in every table, so Z's row 0 is the identity.

    The identity's block is Z, with id 0.  The child blocks R_g[block] of a
    level come from one 2-D gather per generator.  A child whose first row
    is unlabelled is new: it takes the next id on all its rows, and each of
    its rows stores its column, in the narrowest unsigned dtype that holds
    |Z|-1, until the columns have shown all of Z in <a, b> (below).  Two
    checks follow:
    - every child that is not new carries one id on all its rows;
    - no level hands out more than |table|//|Z| ids.
    With every row reached, the blocks, at most |Z| rows each, cover the
    table, so the ids number at least |table|/|Z|; by the second check
    they number exactly that, and the blocks, |Z| distinct rows each,
    cover the table exactly once.  So no id was overwritten, and by the
    first check R_a and R_b permute the blocks.  ``ValueError`` "not
    closed" when a check fails; ``BuildIntegrityError`` when rows stay
    unreached.  The blocks of a subgroup Z are its right cosets Zx, and
    every R_g maps a right coset onto a right coset, so a subgroup passes
    both checks.

    Labels: Z's block has label 0, and a new child of a block by the s-th
    generator takes the block's label xor 2^s.  A child that is not new
    must already carry that label, or the labels are ``None``: each block
    is a parent once per generator, so the labels that pass are a
    homomorphism from the blocks onto (Z/2)^2, with a -> 1 and b -> 2.
    With Z trivial the blocks are the rows, and they give
    :attr:`GroupTable.frattini`; with Z central they are the quotient's.

    Generation: column j of the block whose first row is t holds z_j t,
    for Z's row z_j, and each first row is a word in the generators.  A
    child that is not new has first row tg = z_j t', for the first row t'
    of the block that holds it and j its column there, so z_j = tgt'^-1
    lies in <a, b>, and the child's row of columns is the map
    i -> (the column of z_i z_j) on Z's rows.  Every id is given once, so
    the rows that carry one id hold distinct columns and that map is a
    permutation; when the checks pass, no block overlapped another, and
    every column read was final.  The z_j are the Schreier generators of
    Z ∩ <a, b>, the stabilizer of the block Z, for the tree of first rows,
    so by Schreier's lemma they generate it.  The search keeps the
    subgroup S that the z_j found so far generate, as a mask over Z's
    rows: a z_j outside S appends its map to ``shifts``, and :func:`_walk`
    closes S under ``shifts``, starting from S.  S at least doubles each
    time, so ``shifts`` holds at most log2 |Z| maps.  Once S = Z the
    columns are dropped.  After the checks, S = Z puts Z inside <a, b>,
    the blocks Zw, w in <a, b>, cover the table, and <a, b> is the table;
    otherwise Z ⊄ <a, b> and ``BuildIntegrityError``.  Once the generators
    generate, every right multiplication permutes the blocks, and R_z for
    z in Z maps Z to the block holding z, Z itself: Z is closed.

    The ids are then renumbered to the rank of their block's minimum key
    through one |table|/|Z|-long array, in place and one ``BLOCK_ROWS``
    block of rows at a time, so a coset id counts the representatives in
    key order, and the labels are permuted to match.  Ids are stored in
    :func:`capable2.group.index_dtype`.
    """
    n = table.order
    index = index_dtype(n)
    lab = np.full(n, -1, dtype=index)
    blocks = n // len(sub_keys)
    labels = np.zeros(blocks, dtype=np.int8)  # per id; Z's is 0
    homomorphic = True
    columns = np.arange(len(sub_keys), dtype=np.min_scalar_type(len(sub_keys) - 1))
    col = np.empty(n, dtype=columns.dtype)
    inside = columns == 0  # S, first the identity's row
    shifts = []
    frontier = np.asarray(sub_keys, dtype=index)[None]
    lab[frontier] = 0
    col[frontier] = columns
    minima = [frontier[:, 0]]
    count = 1
    while len(frontier):
        level = []
        ids = lab[frontier[:, 0]]
        for s, step in enumerate(table.gen_maps):
            kids = step[frontier]
            new = lab[kids[:, 0]] < 0
            fresh, stale = kids[new], kids[~new]
            got = lab[stale]
            if (got != got[:, :1]).any() or count + len(fresh) > blocks:
                raise ValueError("input is not closed under multiplication")
            up = labels[ids] ^ (1 << s)
            homomorphic = homomorphic and np.array_equal(labels[got[:, 0]], up[~new])
            lab[fresh] = np.arange(count, count + len(fresh), dtype=index)[:, None]
            labels[count:count + len(fresh)] = up[new]
            count += len(fresh)
            level.append(fresh)
            minima.append(fresh.min(axis=1))
            if col is not None:
                for kid in stale[~inside[col[stale[:, 0]]]]:
                    if not inside[col[kid[0]]]:  # S may have grown since the filter
                        shifts.append(col[kid])
                        _walk(shifts, inside)
                col[fresh] = columns
                if inside.all():
                    col = None  # S = Z
        frontier = np.concatenate(level)
    del col
    if (lab < 0).any() or not inside.all():
        raise BuildIntegrityError("the designated generators do not generate the table")
    minima = np.concatenate(minima)
    by_min = np.argsort(minima)
    rank = np.empty(count, dtype=index)
    rank[by_min] = np.arange(count, dtype=index)
    for lo in range(0, n, BLOCK_ROWS):
        block = lab[lo:lo + BLOCK_ROWS]
        block[...] = rank[block]
    return lab, minima[by_min], labels[by_min] if homomorphic else None


def quotient_central(table: GroupTable, sub) -> GroupTable:
    """Table of the quotient by a central subgroup; ``ValueError`` when the
    rows miss the identity, are not central (naming the first such row) or
    are not closed.  Each row is checked against the designated generators
    only, zg = gz: R_g gathered at the keys of the subgroup's rows against
    gz from one run of the law on those rows.  That makes it central
    because the generators generate the table, which the coset search of
    :class:`QuotientGroup` (:meth:`GroupTable.cosets`) proves, raising
    ``BuildIntegrityError`` when they do not.  The same search checks
    closure and reaches every coset from Z by R_a and R_b, labelling
    each: it is, block for block, the quotient table's search of its
    trivial subgroup, whose ids and representatives are the quotient's
    keys, and the new table is handed it, so it is
    :attr:`GroupTable.generated` and has its :attr:`GroupTable.frattini`
    labels without a search or an index map of its own."""
    g = table.group
    Z = np.asarray(sub, dtype=np.int64).reshape(-1, len(g.radices))
    if not (Z == g.identity).all(axis=1).any():
        raise ValueError("subgroup must contain the identity")
    keys = table.index_of(g.key_rows(Z))
    central = np.ones(len(Z), dtype=bool)
    for right, gen in zip(table.gen_maps, g.gens):
        central &= right[keys] == g.mul_keys(np.asarray(gen)[None], Z)
    if not central.all():
        bad = tuple(Z[np.argmin(central)].tolist())
        raise ValueError(f"subgroup element {bad} is not central")
    keys = np.sort(keys)
    q = QuotientGroup(table, keys[np.diff(keys, prepend=-1) > 0])
    out = GroupTable(q)
    ids = np.arange(q.order, dtype=index_dtype(q.order))
    out._search = ([0], ids, ids, q.labels)
    return out


# ---------------------------------------------------------------------------
# isomorphism search


def iso_2gen(table: GroupTable, target):
    """Explicit generator-image isomorphism from ``target`` onto the table.

    Only a table of class at most two can match a class-two target, and only
    there is every commutator [g, h] central: ``None`` unless every
    commutator [x, y] of the table's designated generators is central (in
    a finite 2-group, which is nilpotent, that makes the third term of the
    lower central series trivial).  Those commutators then generate the
    derived subgroup D of the table, as [a, b] generates the target's.

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
    if not all(g.is_central(c) for c in comms):
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
