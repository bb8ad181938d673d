"""Word collection, tables, brute-force subgroup machinery, isomorphism search."""

import copy
import functools
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from capable2 import capability, class2, cli, hall_core as hall, nilprod, oracle
from capable2.class2 import model, type_i, type_iii
from capable2.errors import BuildIntegrityError, ParameterError
from capable2.group import CoordGroup
from capable2.hall_core import FreeElt
from capable2.nilprod import GroupSpec, build
from row_ops import comm_rows_pairwise


def rand_elt(rng, rst=4, uv=2):
    return FreeElt(
        *(rng.randint(-rst, rst) for _ in range(3)),
        *(rng.randint(-uv, uv) for _ in range(2)),
    )


# -- word collection ---------------------------------------------------------


def test_collect_word_examples():
    assert oracle.collect_word("ab").coords() == (1, 1, 0, 0, 0)
    assert oracle.collect_word("ba").coords() == (1, 1, -1, 0, 0)
    assert oracle.collect_word("ABab").coords() == (0, 0, 1, 0, 0)
    assert oracle.collect_word("").is_identity()
    assert oracle.collect_word("aA").is_identity()


def test_collect_word_accepts_letter_exponent_pairs():
    assert oracle.collect_word([("a", 3), ("b", -2)]).coords() == (3, -2, 0, 0, 0)


@pytest.mark.parametrize("word", [
    [("a", 1.5)], [("a", True)], [("a", "2")], 123, [("a",)], [("a", 1, 2)],
    [("x", 1)], [(["a"], 1)], "ax",
])
def test_collect_word_refuses_malformed_words(word):
    # a float or bool exponent is not truncated or read as 1, and input that
    # is neither a string nor (letter, exponent) pairs is not a TypeError
    with pytest.raises(ParameterError):
        oracle.collect_word(word)


def collect_by_expansion(pairs):
    """Reference for ``collect_word`` on (letter, exponent) pairs over a, b,
    c: every power expanded into letters first, then the rewriting loop
    under ``oracle.COLLECT_MAX_STEPS``, with no refusal ahead of it."""
    word = [(sym, 1 if exp > 0 else -1) for sym, exp in pairs for _ in range(abs(exp))]
    u_acc = v_acc = 0
    i = steps = 0
    while i < len(word) - 1:
        steps += 1
        if steps > oracle.COLLECT_MAX_STEPS:
            raise RuntimeError("collection did not terminate within the step cap")
        x, y = word[i], word[i + 1]
        if x[0] == y[0] and x[1] == -y[1]:
            del word[i : i + 2]
            i = max(i - 1, 0)
        elif oracle._RANK[x[0]] > oracle._RANK[y[0]]:
            word[i], word[i + 1] = y, x
            insert = []
            for sym, sign in oracle._SWAP[(x, y)]:
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


def random_word(rng):
    """Up to 131 pairs over a, b, c: single letters, adjacent inverse pairs
    (in a share drawn per word, so that some long words still finish within
    a small cap) and a few powers up to +-120."""
    cancel_share = rng.random()
    pairs = []
    length = rng.randint(0, 130)
    while len(pairs) < length:
        sym, sign = rng.choice("abc"), rng.choice((-1, 1))
        draw = rng.random()
        if draw < 0.02:
            pairs.append((sym, rng.randint(-120, 120)))
        elif draw < cancel_share:
            pairs += [(sym, sign), (sym, -sign)]
        else:
            pairs.append((sym, sign))
    return pairs


def test_collect_word_refuses_only_words_the_cap_would_stop(monkeypatch):
    # a word of more than 2 * cap + 1 letters is refused before it is
    # expanded; every other word is collected as before, or stopped by the cap
    monkeypatch.setattr(oracle, "COLLECT_MAX_STEPS", 50)
    rng = random.Random(3)
    # at the bound: 101 letters cancel down to one in 50 steps, 102 need 51
    words = [[("a", 1), ("a", -1)] * 50 + [("a", 1)], [("a", 1), ("a", -1)] * 51]
    words += [random_word(rng) for _ in range(4000)]
    outcomes = Counter()
    longest = 0
    for pairs in words:
        letters = sum(abs(exp) for _, exp in pairs)
        try:
            want = collect_by_expansion(pairs)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                oracle.collect_word(pairs)
            outcomes["capped", letters > 101] += 1
        else:
            assert oracle.collect_word(pairs) == want, pairs
            outcomes["collected"] += 1
            longest = max(longest, letters)
    # words are collected, stopped by the cap, and refused before the loop
    assert outcomes["collected"] and outcomes["capped", False] and outcomes["capped", True]
    assert longest == 101


def test_collect_word_expands_no_power_before_the_cap():
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="step cap"):
        oracle.collect_word([("a", 10**12)])
    assert time.perf_counter() - t0 < 1
    assert oracle.collect_word([("d", 10**12), ("e", -3)]) == FreeElt(0, 0, 0, 10**12, -3)


def test_round_trip_ten_thousand_random_elements():
    rng = random.Random(0)
    for _ in range(10_000):
        x = rand_elt(rng)
        assert oracle.collect_word(oracle.word_of(x)) == x


def test_round_trip_with_commutators_expanded_to_generator_letters():
    rng = random.Random(1)
    for _ in range(500):
        x = rand_elt(rng, rst=2, uv=1)
        word = oracle.word_of(x, expand_commutators=True)
        assert all(sym in "ab" for sym, _ in word)
        assert oracle.collect_word(word) == x


def test_multiplication_agrees_with_collection_on_ten_thousand_pairs():
    rng = random.Random(2)
    for _ in range(10_000):
        x, y = rand_elt(rng), rand_elt(rng)
        assert hall.mul(x, y) == oracle.collect_word(
            oracle.word_of(x) + oracle.word_of(y)
        )


# -- tables -------------------------------------------------------------------


def test_enumeration_bound():
    g = build(GroupSpec(3, 3))
    with pytest.raises(oracle.EnumerationBudgetError):
        oracle.GroupTable.from_group(g, max_order=1 << 10)
    t = oracle.GroupTable.from_group(g)  # default bound 2^16 admits 2^14
    assert t.order == g.order


@pytest.mark.parametrize("bound", [100.5, float(1 << 20), -1, 0, True, "65536"])
def test_enumeration_bound_must_be_a_positive_int(bound):
    # the one check behind verify_witness, central_quotient and the CLI
    g = build(GroupSpec(1, 1))
    w = capability.build_witness(type_i(1, 1, 1))
    for enumerate_with in (lambda: oracle.GroupTable.from_group(g, bound),
                           lambda: g.central_quotient(bound),
                           lambda: capability.verify_witness(w, bound)):
        with pytest.raises(ParameterError, match="enumeration bound"):
            enumerate_with()


class HugeRadices(CoordGroup):
    """Declares radices only; enumerating it fails the test."""

    def __init__(self, radices):
        self.radices = radices
        self.order = math.prod(radices)

    def rows(self, keys):
        raise AssertionError("enumerated a group whose keys leave int64")


def test_table_refuses_radices_beyond_int64():
    # the largest key 2^64, then the largest law term (2^21)^3 = 2^63
    for radices in [(1 << 16,) * 4, (1 << 21,)]:
        with pytest.raises(ParameterError, match="int64"):
            oracle.GroupTable.from_group(HugeRadices(radices), max_order=1 << 70)
    # the enumeration bound is still checked first
    with pytest.raises(oracle.EnumerationBudgetError):
        oracle.GroupTable.from_group(HugeRadices((1 << 21,)))


def test_table_counts():
    assert oracle.GroupTable.from_group(build(GroupSpec(1, 1))).order == 16
    assert oracle.GroupTable.from_group(model(type_iii(1))).order == 8
    assert oracle.GroupTable.from_group(model(type_i(1, 1, 1))).order == 8


def test_index_of_rejects_absent_keys():
    t = oracle.GroupTable.from_group(build(GroupSpec(2, 1)))
    q = oracle.quotient_central(t, oracle.brute_center(t))
    for table in (t, q):
        keys = np.arange(table.order)
        assert np.array_equal(table.index_of(keys[::-1]), keys[::-1])
        for bad in [-1, table.order]:
            with pytest.raises(BuildIntegrityError, match="left the table"):
                table.index_of(np.asarray([0, bad]))


def test_ambient_table_decodes_only_the_rows_it_returns(monkeypatch):
    decoded = []
    real = nilprod.NilGroup.rows

    def counted(self, keys):
        decoded.append(np.size(keys))
        return real(self, keys)

    monkeypatch.setattr(nilprod.NilGroup, "rows", counted)
    t = oracle.GroupTable.from_group(build(GroupSpec(3, 3)))
    assert t.frattini is not None  # R_a, R_b and the coset search of {1}
    assert decoded == []
    # the 256 rows of the centralizer of a, which hold the center's rows,
    # then the quotient's coset representatives
    zc = oracle.brute_center(t)
    q = oracle.quotient_central(t, zc)
    assert len(zc) == 32 and decoded == [256, q.order]


def test_tables_are_deterministic():
    g = build(GroupSpec(2, 1))
    t1 = oracle.GroupTable.from_group(g)
    t2 = oracle.GroupTable.from_group(build(GroupSpec(2, 1)))
    assert np.array_equal(t1.coords, t2.coords)


def test_order_exponent_rows():
    g = build(GroupSpec(2, 1))
    t = oracle.GroupTable.from_group(g)
    for row, sq in zip(t.coords.tolist(), t.squares.tolist()):
        assert g.mul(tuple(row), tuple(row)) == tuple(t.coords[sq].tolist())
    exps = t.exponents()
    for row, e in zip(t.coords.tolist(), exps.tolist()):
        assert g.order_of(tuple(row)) == 1 << e
    # modulo the center: the least k with x^(2^k) central
    center = oracle.key_mask(g, oracle.brute_center(t))
    mod = t.exponents(center)
    for row, e in zip(t.coords.tolist(), mod.tolist()):
        x = tuple(row)
        assert g.is_central(g.power(x, 1 << e))
        assert e == 0 or not g.is_central(g.power(x, 1 << (e - 1)))
    # no power of any row lies in the empty set: refused after log2 |t| rounds
    with pytest.raises(BuildIntegrityError, match="exceeds the table order"):
        t.exponents(np.zeros(t.order, dtype=bool))


# -- subgroup machinery --------------------------------------------------------


def test_brute_center_examples():
    g = build(GroupSpec(1, 1))
    t = oracle.GroupTable.from_group(g)
    assert len(oracle.brute_center(t)) == 2
    q8 = model(type_iii(1))
    tq = oracle.GroupTable.from_group(q8)
    zc = oracle.brute_center(tq)
    # Q8's lattice is ((2,0,1), (0,2,1), (0,0,2)): its central involution is [a,b]
    assert {tuple(r) for r in zc.tolist()} == {(0, 0, 0), (0, 0, 1)}


def test_brute_center_of_abelian_table_is_everything():
    d4 = model(type_i(1, 1, 1))
    t = oracle.GroupTable.from_group(d4)
    q = oracle.quotient_central(t, oracle.brute_center(t))  # 2x2 abelian
    assert len(oracle.brute_center(q)) == q.order == 4


# O(|Z|*|K|) reference definitions of the two table referees


def reference_center(table):
    """Rows commuting with the generators, each then checked against every row."""
    g = table.group
    cand = table.coords
    for gen in g.gens:
        row = np.asarray(gen, dtype=np.int64)[None]
        cand = cand[(g.mul_arrays(cand, row) == g.mul_arrays(row, cand)).all(axis=1)]
    central = [
        (g.mul_arrays(table.coords, z[None]) == g.mul_arrays(z[None], table.coords)).all()
        for z in cand
    ]
    return cand[np.asarray(central, dtype=bool)]


def reference_cosets(table, sub):
    """Minimum-key element of each coset, over all |Z| translates, and the
    coset id of each row: the rank of its minimum among the minima."""
    g = table.group
    minkey = np.arange(table.order)
    for z in sub:
        np.minimum(minkey, g.key_rows(g.mul_arrays(table.coords, z[None])), out=minkey)
    reps, cid = np.unique(minkey, return_inverse=True)
    return table.coords[reps], cid


def small_ambients(max_order=1 << 12, max_alpha=12, max_beta=3):
    # order >= 2^(alpha + 4*beta - 1) without extras and 2^(alpha + 2*beta + 2)
    # with them, so alpha <= 12 and beta <= 3 cover every ambient up to 2^12
    for alpha in range(1, max_alpha + 1):
        for beta in range(1, min(alpha, max_beta) + 1):
            for spec in [GroupSpec(alpha, beta)] + [
                GroupSpec(alpha, beta, (FreeElt(u=1 << g), FreeElt(v=1 << g)))
                for g in range(1, beta)
            ]:
                K = build(spec)
                if K.order <= max_order:
                    yield K


def check_referees(t):
    """brute_center and quotient_central on the table t against the
    reference definitions, for Z(t) and two cyclic central subgroups; the
    quotient tables."""
    zc = oracle.brute_center(t)
    assert np.array_equal(zc, reference_center(t))
    quotients = []
    for sub in [zc] + [oracle.closure(t, [z]) for z in zc[1:3]]:
        q = oracle.quotient_central(t, sub)
        reps, cid = reference_cosets(t, sub)
        assert np.array_equal(q.coords, reps)
        assert np.array_equal(q.group._cid_of_key.astype(np.int64), cid)
        quotients.append(q)
    return quotients


def walk(steps, seen):
    """Breadth-first walk over the index maps ``steps`` from the indices
    that the boolean mask ``seen`` marks, marking in ``seen`` every index
    reached; ``BuildIntegrityError`` when the walk reached an index twice
    (a step repeats a row).  The reference for generation: the package
    walks no table, and the coset search closes its elements of Z by
    cosets."""
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


def count_walks(monkeypatch):
    """The table order of each coset search from now on that walks its
    table: one that gathers more rows through R_a and R_b, the table's
    ``gen_maps``, than its blocks hold, len(gen_maps) * order.  The search
    gathers each block once per generator, and a walk over the table would
    gather every row again."""
    walked = []
    real = oracle._cosets

    def counted(table, sub_keys):
        maps = table.gen_maps
        rows = []

        class Gathered(np.ndarray):
            def __getitem__(self, index):
                out = np.asarray(super().__getitem__(index))
                rows.append(out.size)
                return out

        table.__dict__["gen_maps"] = tuple(m.view(Gathered) for m in maps)
        try:
            return real(table, sub_keys)
        finally:
            table.__dict__["gen_maps"] = maps
            if sum(rows) > len(maps) * table.order:
                walked.append(table.order)

    monkeypatch.setattr(oracle, "_cosets", counted)
    return walked


def generated_by_walk(table, steps=None) -> bool:
    """Whether the index maps ``steps`` (default: R_a and R_b) reach every
    row from the identity, by one breadth-first walk that carries nothing:
    the reference for the coset search's generation proof."""
    seen = np.zeros(table.order, dtype=bool)
    seen[table.group.key(table.group.identity)] = True
    walk(table.gen_maps if steps is None else steps, seen)
    return bool(seen.all())


def frattini_by_walk(table):
    """Each row's Frattini label, carried along a breadth-first walk over
    R_a and R_b, lambda(p g_s) = lambda(p) xor 2^s, and then checked,
    lambda(R_s x) = lambda(x) xor 2^s, on every row; ``None`` without two
    designated generators or when a check fails: the reference for the
    labels of the coset search."""
    if len(table.group.gens) != 2:
        return None
    lab = np.zeros(table.order, dtype=np.int8)
    seen = np.zeros(table.order, dtype=bool)
    seen[table.group.key(table.group.identity)] = True
    frontier = np.flatnonzero(seen)
    while len(frontier):
        level = []
        for s, step in enumerate(table.gen_maps):
            kids = step[frontier]
            new = ~seen[kids]
            parents, kids = frontier[new], kids[new]
            seen[kids] = True
            lab[kids] = lab[parents] ^ (1 << s)
            level.append(kids)
        frontier = np.concatenate(level)
    if not seen.all():
        raise BuildIntegrityError("the designated generators do not generate the table")
    if any((lab[step] != lab ^ (1 << s)).any() for s, step in enumerate(table.gen_maps)):
        return None
    return lab


def assert_frattini_by_walk(table):
    """``table.frattini`` equals the walk's labels, value and dtype, or
    both are ``None``; its labels, which may be ``None``."""
    lab, ref = table.frattini, frattini_by_walk(table)
    assert (lab is None) == (ref is None), table.group
    if ref is not None:
        assert lab.dtype == ref.dtype and np.array_equal(lab, ref), table.group
    return lab


def test_referees_match_reference_definitions(monkeypatch):
    walked = count_walks(monkeypatch)
    groups = list(small_ambients())
    assert len(groups) == 18
    # every witness ambient of order <= 2^12 has exponents <= 4 (a scan up to
    # exponent 8 finds no other)
    witnesses = dict.fromkeys(capability.build_witness(p).ambient
                              for p in class2.iter_valid_params(4)
                              if capability.decide(p).capable)
    witnesses = [K for K in map(build, witnesses) if K.order <= 1 << 12]
    assert len(witnesses) == 10
    groups += witnesses
    groups += [model(p) for p in class2.iter_valid_params(3)]
    assert len(groups) == 48
    for G in groups:
        t = oracle.GroupTable.from_group(G)
        walked.clear()
        quotients = check_referees(t)
        # brute_center's coset search proved that a and b generate the
        # table with no walk over it, and the walk agrees
        assert t.generated and walked == []
        assert generated_by_walk(oracle.GroupTable.from_group(G))
        for q in quotients:
            # quotient tables are keyed by coset id, 0..n-1 like any other,
            # and their own R_a and R_b carry the coset search of a quotient
            assert np.array_equal(q.group.key_rows(q.coords), np.arange(q.order))
            # the labels handed over by the parent's search, before the
            # quotient's own searches replace that search
            assert_frattini_by_walk(q)
            for qq in check_referees(q):
                assert_frattini_by_walk(qq)
        assert_frattini_by_walk(t)
        assert walked == []


def test_a_search_that_finds_few_elements_of_z_needs_no_walk(monkeypatch):
    # G(4,1), |K| = 256 and |Z| = 16: the search finds at most |Z|/2
    # distinct elements z_j of Z in <a, b>, and the subgroup they generate
    # is all of Z
    walked = count_walks(monkeypatch)
    t = oracle.GroupTable.from_group(build(GroupSpec(4, 1)))
    zc = oracle.brute_center(t)
    assert walked == [] and t.generated
    assert np.array_equal(zc, reference_center(t))
    q = oracle.quotient_central(t, zc)
    assert walked == [] and q.order == t.order // len(zc) == 16


def benchmark_groups(monkeypatch):
    """The groups of the 37 tables of test_no_ambient_is_walked: the 19
    ambients of cli.sweep_rows(4) and the 18 ambients with exponents <= 4
    and |K| <= 2^16."""
    groups = []
    real = oracle.GroupTable.from_group
    with monkeypatch.context() as m:
        m.setattr(oracle.GroupTable, "from_group",
                  staticmethod(lambda *args: groups.append(args[0]) or real(*args)))
        cli.sweep_rows(4, 1 << 19)
        for K in small_ambients(1 << 16, max_alpha=4, max_beta=4):
            K.central_quotient()
    return groups


def test_coset_search_matches_the_references_on_the_benchmark_tables(monkeypatch):
    # up to 2^16 rows: the search of Z(K) against the least of all |Z|
    # translates of each row, and the search of the trivial subgroup on a
    # fresh table against the labels carried along a walk
    groups = benchmark_groups(monkeypatch)
    assert len(groups) == 37 and max(g.order for g in groups) == 1 << 16
    for g in groups:
        t = oracle.GroupTable(g)
        zc = oracle.brute_center(t)
        q = oracle.quotient_central(t, zc)
        reps, cid = reference_cosets(t, zc)
        assert np.array_equal(q.coords, reps), g.spec
        assert np.array_equal(q.group._cid_of_key.astype(np.int64), cid), g.spec
        assert assert_frattini_by_walk(oracle.GroupTable(g)) is not None, g.spec


def test_quotient_refuses_exactly_the_sets_that_are_not_closed():
    # sets S of central rows that hold the identity and have a power-of-two
    # size, on the 18 ambients up to 2^12: quotient_central refuses S as
    # not closed exactly when S is not a subgroup, and otherwise its coset
    # ids and the Frattini labels it hands the quotient match the
    # references.  A random set is seldom closed, so every other draw is
    # the subgroup that two random central rows generate
    rng = random.Random(32)
    refused = accepted = 0
    for K in small_ambients():
        t = oracle.GroupTable.from_group(K)
        zc = oracle.brute_center(t)
        assert np.array_equal(zc[0], K.identity)
        for draw in range(8):
            if draw % 2:
                S = oracle.closure(t, zc[rng.sample(range(len(zc)), 2)])
            else:
                size = 1 << rng.randrange(len(zc).bit_length())
                S = zc[[0, *rng.sample(range(1, len(zc)), size - 1)]]
            if len(oracle.closure(t, S)) != len(S):
                refused += 1
                with pytest.raises(ValueError, match="not closed"):
                    oracle.quotient_central(t, S)
                continue
            accepted += 1
            q = oracle.quotient_central(t, S)
            reps, cid = reference_cosets(t, S)
            assert np.array_equal(q.coords, reps), (K.spec, S)
            assert np.array_equal(q.group._cid_of_key.astype(np.int64), cid), (K.spec, S)
            assert_frattini_by_walk(q)
    assert (refused, accepted) == (37, 107)


def test_brute_center_rejects_generators_of_a_proper_subgroup():
    g = build(GroupSpec(2, 1))
    stub = copy.copy(g)
    stub.gens = (g.a,)
    t = oracle.GroupTable(stub)
    with pytest.raises(BuildIntegrityError, match="do not generate"):
        oracle.brute_center(t)


def test_referees_do_linear_work(monkeypatch):
    g = build(GroupSpec(3, 3))
    t = oracle.GroupTable.from_group(g)
    rows, grids = [], []

    def counter(real, rows_of):
        def counted(self, X, Y):
            out = real(self, X, Y)
            rows.append(rows_of(out))
            return out

        return counted

    def counted_grid(real):
        def counted(self, y):
            grids.append(y)
            return real(self, y)

        return counted

    # products computed as rows and products computed straight into keys
    monkeypatch.setattr(
        nilprod.NilGroup, "mul_arrays",
        counter(nilprod.NilGroup.mul_arrays, lambda out: out.size // out.shape[-1]),
    )
    monkeypatch.setattr(nilprod.NilGroup, "mul_keys", counter(nilprod.NilGroup.mul_keys, np.size))
    # whole-table multiplications on the open grid, which bypass both
    for name in ("right_keys", "left_keys"):
        monkeypatch.setattr(nilprod.NilGroup, name, counted_grid(getattr(nilprod.NilGroup, name)))
    zc = oracle.brute_center(t)
    assert len(zc) == 32  # rescanning the table per survivor cost 66 rows per element
    # R_a, R_b and L_a, one grid each; L_b only on the 256 rows where
    # R_a = L_a, the centralizer of a
    assert len(grids) == 3 and rows == [256]
    rows.clear()
    oracle.quotient_central(t, zc)
    # centrality gathers zg from R_g and costs gz per generator on the rows
    # of Z; the coset search gathers through the same R_a and R_b: the
    # minimum over all translates cost 32 rows per element
    assert len(grids) == 3 and sum(rows) == 2 * len(zc)
    assert "coords" not in t.__dict__


def law_tables():
    """G(3,2), K(3,3,1), a type-ii model table and a central-quotient table."""
    g = oracle.GroupTable.from_group(build(GroupSpec(3, 3)))
    return [
        oracle.GroupTable.from_group(build(GroupSpec(3, 2))),
        oracle.GroupTable.from_group(build(GroupSpec(3, 3, (FreeElt(u=2), FreeElt(v=2))))),
        oracle.GroupTable.from_group(model(class2.type_ii(3, 3, 2, 1))),
        oracle.quotient_central(g, oracle.closure(g, oracle.brute_center(g)[1:3])),
    ]


def test_left_mul_matches_the_law():
    rng = np.random.default_rng(7)
    for t in law_tables():
        group = t.group
        center = [tuple(z) for z in oracle.brute_center(t).tolist()]
        assert 1 < len(center) < t.order
        ys = [group.identity, *group.gens, *center]
        ys += [tuple(r) for r in t.coords[rng.integers(t.order, size=20)].tolist()]
        for y in ys:
            left = group.left_keys(y)
            assert np.array_equal(left, group.mul_keys(np.asarray(y)[None], t.coords)), y
            if y in center:
                assert np.array_equal(t.right_mul(y), left), y
    # the generation proof refuses designated generators that reach only
    # part of the rows, and a refused walk proves nothing for the next call
    g = build(GroupSpec(2, 1))
    stub = copy.copy(g)
    stub.gens = (g.a, g.a)
    t = oracle.GroupTable(stub)
    for _ in range(2):
        with pytest.raises(BuildIntegrityError, match="do not generate"):
            t.frattini
    assert not t.generated


def test_generation_is_proved_once_per_table(monkeypatch):
    walked = count_walks(monkeypatch)
    searched = []
    real = oracle._cosets

    def counted(table, sub_keys):
        searched.append(table.order)
        return real(table, sub_keys)

    monkeypatch.setattr(oracle, "_cosets", counted)
    t = oracle.GroupTable.from_group(build(GroupSpec(3, 3)))
    zc = oracle.brute_center(t)
    assert t.generated
    assert np.array_equal(oracle.brute_center(t), zc)
    # the coset search of the center proved generation, and the quotient
    # reuses it: one search and no walk for the ambient table
    q = oracle.quotient_central(t, zc)
    assert searched == [t.order] and walked == []
    # the search reached every coset from Z, and it is the quotient's own
    # search of its trivial subgroup, with the Frattini labels
    assert q.generated
    assert q.frattini is not None
    assert searched == [t.order] and walked == []
    assert len(oracle.brute_center(q)) == len(oracle.brute_center(q)) == 8
    assert searched == [t.order] and walked == []
    # a model's labels come from its own search of {1}, which proves
    # generation, so its center needs no search after it
    m = oracle.GroupTable.from_group(model(type_i(2, 2, 1)))
    assert m.frattini is not None
    assert searched == [t.order, m.order]
    oracle.brute_center(m)
    assert walked == [] and searched == [t.order, m.order]


def test_a_witness_builds_no_quotient_map(monkeypatch):
    # iso_2gen reads the quotient's Frattini labels from the search that
    # built it, so verify_witness builds no R_g on the quotient
    calls = []
    real = oracle.QuotientGroup.right_keys
    monkeypatch.setattr(oracle.QuotientGroup, "right_keys",
                        lambda self, y: calls.append(y) or real(self, y))
    report = capability.verify_witness(capability.build_witness(type_i(4, 4, 4)), 1 << 19)
    assert report.passed and report.group_order == 1 << 19
    assert calls == []


def test_quotient_central_proves_generation_on_a_fresh_table(monkeypatch):
    walked = count_walks(monkeypatch)
    K = build(GroupSpec(3, 3))
    t = oracle.GroupTable.from_group(K)
    q = oracle.quotient_central(t, K.rows(K.center_keys()))
    assert t.generated and q.generated and walked == []
    assert q.order == t.order // 32


class Elementary(CoordGroup):
    """(Z/2)^rank under xor, keyed by the binary digits of the coordinates,
    with the designated generators ``gens``."""

    def __init__(self, rank, gens):
        self.order, self.radices = 1 << rank, (2,) * rank
        self.identity, self.gens = (0,) * rank, gens

    def mul(self, x, y):
        return tuple((u + v) % 2 for u, v in zip(x, y))

    def inverse(self, x):
        return x


def test_coset_search_refuses_a_subgroup_outside_the_generated_one(monkeypatch):
    # Z<a, b> is every row and the ids number |K|/|Z|, but Z is not inside
    # <a, b>: the elements of Z that the search finds in <a, b> generate
    # only Z ∩ <a, b>, so it refuses with no walk over the table.  The rows
    # of Z commute with the generators, which does not make them central
    walked = count_walks(monkeypatch)
    for group, sub in [
        # (Z/2)^2 with the one generator (0, 1), so R_a is key -> key xor 1,
        # and Z = {0, 2}: Z ∩ <a> = {1}
        (Elementary(2, ((0, 1),)), [(0, 0), (1, 0)]),
        # (Z/2)^3 with the generators (0, 0, 1) and (0, 1, 0), and
        # Z = {(x, y, 0)}: Z ∩ <a, b> = {1, (0, 1, 0)} holds exactly |Z|/2
        # rows, where a count of the elements found cannot decide
        (Elementary(3, ((0, 0, 1), (0, 1, 0))), [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]),
    ]:
        walked.clear()
        t = oracle.GroupTable(group)
        with pytest.raises(BuildIntegrityError, match="do not generate"):
            oracle.quotient_central(t, np.array(sub))
        assert walked == [] and not t.generated
        assert not generated_by_walk(t)


def test_no_ambient_is_walked(monkeypatch):
    # the 19 ambient tables of cli.sweep_rows(4), the witness_sweep workload,
    # and the 18 ambients with exponents <= 4 and |K| <= 2^16, the recognize
    # workload: one coset search per table proves generation, gathering each
    # row once per generator, and the quotients' Frattini labels come from
    # that search
    walked = count_walks(monkeypatch)
    searched = []
    real = oracle._cosets
    monkeypatch.setattr(oracle, "_cosets",
                        lambda table, sub_keys: searched.append(table) or real(table, sub_keys))
    tables = []
    real_table = oracle.GroupTable.from_group
    monkeypatch.setattr(oracle.GroupTable, "from_group",
                        staticmethod(lambda *args: tables.append(real_table(*args)) or tables[-1]))
    rows, _ = cli.sweep_rows(4, 1 << 19)
    assert sum(row.verified == "PASS" for row in rows) == len(tables) == 19
    ambients = list(small_ambients(1 << 16, max_alpha=4, max_beta=4))
    for K in ambients:
        K.central_quotient()
    assert len(ambients) == 18 and len(tables) == 37
    assert all(t.generated for t in tables)
    assert [sum(s is t for s in searched) for t in tables] == [1] * 37
    assert walked == []


def test_referees_hold_key_columns_not_product_rows():
    # |K| = 2^16; a table-sized array of 5-column product rows alone is 5
    # int64 words per element
    t = oracle.GroupTable.from_group(build(GroupSpec(4, 3)))
    assert t.order == 1 << 16
    budget = 6 * 8 * t.order
    tracemalloc.start()
    try:
        zc = oracle.brute_center(t)
        _, center_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        oracle.quotient_central(t, zc)
        _, quotient_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert center_peak < budget, center_peak / (8 * t.order)
    assert quotient_peak < budget, quotient_peak / (8 * t.order)


@pytest.mark.parametrize("target", [None, type_i(4, 4, 4)], ids=["G(4,3)", "i(4,4,4)"])
def test_quotient_holds_less_than_one_word_per_element(target):
    # the coset ids are half a word per element of K and the columns one
    # byte (|Z| <= 256); the search and the renumbering add only level-,
    # block- and |K/Z|-sized arrays.  On a fresh table with its maps built,
    # so that the quotient runs the search
    spec = GroupSpec(4, 3) if target is None else capability.build_witness(target).ambient
    K = build(spec)
    t = oracle.GroupTable.from_group(K, 1 << 19)
    t.gen_maps
    zc = K.rows(K.center_keys())
    tracemalloc.start()
    try:
        oracle.quotient_central(t, zc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * t.order, peak / (8 * t.order)


def test_closure_examples():
    g = build(GroupSpec(2, 1))
    t = oracle.GroupTable.from_group(g)
    assert len(oracle.closure(t, [g.identity])) == 1
    assert len(oracle.closure(t, [g.a])) == 4
    assert len(oracle.closure(t, [g.a, g.b])) == 64


def test_quotient_central_examples():
    g = build(GroupSpec(1, 1))
    t = oracle.GroupTable.from_group(g)
    q = oracle.quotient_central(t, oracle.brute_center(t))
    assert q.order == 8
    assert q.group.order_of(q.group.gens[0]) in (2, 4)


def test_quotient_rejects_noncentral_subgroup():
    g = build(GroupSpec(1, 1))
    t = oracle.GroupTable.from_group(g)
    c = g.reduce(hall.C)
    sub = oracle.closure(t, [c])
    # the message names the first row that fails the scalar test
    first = next(z for z in map(tuple, sub.tolist()) if not g.is_central(z))
    with pytest.raises(ValueError, match=re.escape(f"subgroup element {first} is not central")):
        oracle.quotient_central(t, sub)


@pytest.mark.parametrize("spec", [GroupSpec(1, 1), GroupSpec(2, 1), GroupSpec(3, 2)])
@pytest.mark.parametrize("gen", ["a", "b", "ab", "[a,b]"])
def test_quotient_names_the_first_noncentral_row(spec, gen):
    # the cyclic subgroup of a commutes with a and not with b, that of b
    # the other way round: whichever generator a row fails, the message
    # names the first row that fails the scalar test
    g = build(spec)
    x = {"a": g.a, "b": g.b, "ab": g.mul(g.a, g.b), "[a,b]": g.reduce(hall.C)}[gen]
    t = oracle.GroupTable.from_group(g)
    sub = oracle.closure(t, [x])
    first = next(z for z in map(tuple, sub.tolist()) if not g.is_central(z))
    with pytest.raises(ValueError, match=re.escape(f"subgroup element {first} is not central")):
        oracle.quotient_central(t, sub)


def test_quotient_rejects_non_subgroups():
    g = build(GroupSpec(2, 1))
    t = oracle.GroupTable.from_group(g)
    zc = oracle.brute_center(t)
    with pytest.raises(ValueError, match="identity"):
        oracle.quotient_central(t, zc[1:])
    assert len(zc) > 3  # three central rows cannot form a 2-group
    with pytest.raises(ValueError, match="not closed"):
        oracle.quotient_central(t, zc[:3])


def test_quotient_rejects_a_set_of_subgroup_size_that_is_not_closed():
    # in G(2,2), where |Z| = 8: the identity, z of order 4, w and zw, which
    # miss z^2.  Four divides |K|, so only the blocks' overlap refuses the set
    g = build(GroupSpec(2, 2))
    t = oracle.GroupTable.from_group(g)
    z, w = (0, 0, 0, 0, 1), (0, 0, 0, 1, 1)
    assert g.order_of(z) == 4 and g.order_of(w) == 2
    sub = [g.identity, z, w, g.mul(z, w)]
    assert all(g.is_central(x) for x in sub) and g.mul(z, z) not in sub
    with pytest.raises(ValueError, match="not closed"):
        oracle.quotient_central(t, np.asarray(sub))


def test_coset_search_counts_its_blocks():
    # Z = {0, 3} on four rows: R_0 carries it onto {1}, {2} and back to
    # {0}, and R_1 onto {1} and {0}.  Every child block carries one id on
    # all its rows, so only the bound on the ids refuses Z: {2} would take
    # a third id, where 4/|Z| = 2
    stub = SimpleNamespace(order=4, gen_maps=(np.array([1, 2, 0, 1], dtype=np.int32),
                                              np.array([1, 0, 0, 1], dtype=np.int32)))
    with pytest.raises(ValueError, match="not closed"):
        oracle._cosets(stub, np.array([0, 3]))


def test_coset_search_checks_that_a_child_carries_one_id():
    # Z = {0, 1} on four rows with the steps x+1 and x+2 mod 4: R_0 carries
    # Z onto {1, 2}, whose first row has id 0 and whose second has none
    # yet, and R_1 gives {2, 3} the next id.  The ids then cover the rows
    # and number 4/|Z| = 2, so only the check on each child refuses Z
    x = np.arange(4, dtype=np.int32)
    stub = SimpleNamespace(order=4, gen_maps=((x + 1) % 4, (x + 2) % 4))
    with pytest.raises(ValueError, match="not closed"):
        oracle._cosets(stub, np.array([0, 1]))


def test_quotient_rejects_generators_of_a_proper_subgroup():
    g = build(GroupSpec(2, 1))
    t = oracle.GroupTable.from_group(g)
    zc = oracle.brute_center(t)
    stub = copy.copy(g)
    stub.gens = (g.a,)
    with pytest.raises(BuildIntegrityError, match="do not generate"):
        oracle.quotient_central(oracle.GroupTable(stub), zc)


def test_quotient_group_scalar_ops_consistent():
    g = build(GroupSpec(2, 1))
    t = oracle.GroupTable.from_group(g)
    q = oracle.quotient_central(t, oracle.brute_center(t))
    qg = q.group
    elems = [tuple(r) for r in q.coords.tolist()]
    rng = random.Random(3)
    for _ in range(200):
        x = elems[rng.randrange(len(elems))]
        y = elems[rng.randrange(len(elems))]
        assert qg.mul(x, y) in set(elems)
        assert qg.mul(qg.inverse(x), x) == qg.identity


def test_quotient_scalar_products_match_array_products():
    t = oracle.GroupTable.from_group(build(GroupSpec(2, 2)))
    q = oracle.quotient_central(t, oracle.brute_center(t))
    qg = q.group
    X = q.coords
    prods = qg.mul_arrays(X[:, None], X[None, :])
    invs = qg.inv_arrays(X)
    elems = [tuple(r) for r in X.tolist()]
    for i, x in enumerate(elems):
        assert qg.inverse(x) == tuple(invs[i].tolist())
        for j, y in enumerate(elems):
            assert qg.mul(x, y) == tuple(prods[i, j].tolist())


# -- isomorphism search ---------------------------------------------------------


def test_iso_found_for_the_central_quotient_of_the_small_product():
    g = build(GroupSpec(1, 1))
    t = oracle.GroupTable.from_group(g)
    q = oracle.quotient_central(t, oracle.brute_center(t))
    assert oracle.iso_2gen(q, model(type_i(1, 1, 1))) is not None


def test_iso_rejects_dihedral_vs_quaternion():
    t = oracle.GroupTable.from_group(model(type_i(1, 1, 1)))
    assert oracle.iso_2gen(t, model(type_iii(1))) is None


def test_iso_rejects_a_class_three_table():
    # G(2,1) has order 64 and class three; both targets have order 64
    g = build(GroupSpec(2, 1))
    t = oracle.GroupTable.from_group(g)
    assert any(g.commutator(g.commutator(x, y), z) != g.identity
               for x in g.gens for y in g.gens for z in g.gens)
    for p in [type_i(2, 2, 2), class2.type_ii(3, 2, 2, 1)]:
        assert model(p).order == t.order
        assert oracle.iso_2gen(t, model(p)) is None


def test_iso_identity_mapping_found():
    for p in [type_i(2, 2, 1), type_iii(1)]:
        m = model(p)
        t = oracle.GroupTable.from_group(m)
        assert oracle.iso_2gen(t, m) is not None


def test_iso_success_is_symmetric():
    g111 = build(GroupSpec(1, 1)).central_quotient()
    assert str(g111) == "i(1,1,1)"
    m1 = model(type_i(2, 2, 2))
    m2 = model(type_i(2, 2, 2))
    t1 = oracle.GroupTable.from_group(m1)
    t2 = oracle.GroupTable.from_group(m2)
    assert oracle.iso_2gen(t1, m2) is not None
    assert oracle.iso_2gen(t2, m1) is not None
    # and failure is symmetric on the standard order-8 pair
    td = oracle.GroupTable.from_group(model(type_i(1, 1, 1)))
    tq = oracle.GroupTable.from_group(model(type_iii(1)))
    assert oracle.iso_2gen(td, model(type_iii(1))) is None
    assert oracle.iso_2gen(tq, model(type_i(1, 1, 1))) is None


def test_iso_mapped_images_satisfy_relations():
    g = build(GroupSpec(3, 2))
    t = oracle.GroupTable.from_group(g)
    q = oracle.quotient_central(t, oracle.brute_center(t))
    target = model(type_i(3, 2, 2))
    iso = oracle.iso_2gen(q, target)
    assert iso is not None
    qg = q.group
    img = {"a": iso[0], "b": iso[1], "c": qg.commutator(iso[0], iso[1])}
    for lhs, rhs in target.relations():
        assert class2.evaluate_word(qg, img, lhs) == class2.evaluate_word(qg, img, rhs)


def set_image_fills(group, table, grow, h, c, ea, eb, ec) -> bool:
    """The image check as a set of keys over g^i h^j c^k, with i, j, k
    running to the target's element orders 2^ea, 2^eb, 2^ec."""
    keys = set()
    gi = grow[None]
    for _ in range(1 << ea):
        hj = gi
        for _ in range(1 << eb):
            cur = hj
            for _ in range(1 << ec):
                keys.add(int(group.key_rows(cur)[0]))
                cur = group.mul_arrays(cur, c[None])
            hj = group.mul_arrays(hj, h[None])
        gi = group.mul_arrays(gi, grow[None])
    return len(keys) == table.order


def generates(table, x, y) -> bool:
    """Breadth-first generation test: right multiplication by x and y
    reaches every row from the identity."""
    return generated_by_walk(table, [table.right_mul(x), table.right_mul(y)])


def test_image_fills_matches_the_set_loop():
    # on every witness quotient with exponents <= 3: the accepted pair, the
    # pair (g, g), which spans a cyclic subgroup, and the pair (g, gh)
    for p in class2.iter_valid_params(3):
        if not capability.decide(p).capable:
            continue
        K = build(capability.build_witness(p).ambient)
        t = oracle.GroupTable.from_group(K)
        q = oracle.quotient_central(t, oracle.brute_center(t))
        m = model(p)
        exps = [m.order_of(x).bit_length() - 1 for x in (m.a, m.b, m.commutator(m.a, m.b))]
        G = q.group
        g, h = oracle.iso_2gen(q, m)
        verdicts = []
        for x, y in [(g, h), (g, g), (g, G.mul(g, h))]:
            rows = [np.asarray(z, dtype=np.int64) for z in (x, y, G.commutator(x, y))]
            fills = generates(q, x, y)
            assert fills == set_image_fills(G, q, *rows, *exps), (p, x, y)
            verdicts.append(fills)
        assert verdicts[:2] == [True, False], p


class Cyclic8(CoordGroup):
    """Z/8 with the designated generators 1 and 2: 1 alone generates it."""

    order, radices, identity, gens = 8, (8,), (0,), ((1,), (2,))

    def mul(self, x, y):
        return ((x[0] + y[0]) % 8,)

    def inverse(self, x):
        return (-x[0] % 8,)

    def mul_arrays(self, X, Y):
        return self.apply_law(self.mul, X, Y)


def test_frattini_labels_decide_generation():
    # a pair generates exactly when its labels are nonzero and differ, on
    # every pair of rows of the small model tables and witness quotients
    tables = [oracle.GroupTable.from_group(model(p)) for p in class2.iter_valid_params(4)
              if model(p).order <= 32]
    tables += [q for _, q in witness_quotients() if q.order <= 32]
    assert len(tables) == 13
    for t in tables:
        lab = assert_frattini_by_walk(t)
        assert lab is not None and sorted(set(lab.tolist())) == [0, 1, 2, 3]
        rows = [tuple(r) for r in t.coords.tolist()]
        for i, x in enumerate(rows):
            for j, y in enumerate(rows):
                independent = lab[i] != 0 and lab[j] != 0 and lab[i] != lab[j]
                assert independent == generates(t, x, y), (t.group, x, y)


def test_a_cyclic_table_has_no_frattini_labels():
    t = oracle.GroupTable.from_group(Cyclic8())
    assert t.frattini is None
    assert oracle.iso_2gen(t, model(type_i(1, 1, 1))) is None
    # with the generators 1 and 4 too; the search proves generation
    # either way, and the walk finds no labels either
    c = Cyclic8()
    c.gens = ((1,), (4,))
    for group in (Cyclic8(), c):
        t = oracle.GroupTable.from_group(group)
        assert assert_frattini_by_walk(t) is None and t.generated


def test_model_frattini_labels_match_the_walk():
    tables = [oracle.GroupTable.from_group(model(p))
              for k in range(3, 11) for p in class2.params_with_order(1 << k)]
    assert len(tables) == 108
    for t in tables:
        assert assert_frattini_by_walk(t) is not None


@functools.cache
def witness_quotients(max_order=1 << 14):
    """(target, K/Z(K) table) for every witness with exponents <= 4 and
    |K| <= max_order."""
    out = []
    for p in class2.iter_valid_params(4):
        if not capability.decide(p).capable:
            continue
        K = build(capability.build_witness(p).ambient)
        if K.order <= max_order:
            t = oracle.GroupTable.from_group(K)
            out.append((p, oracle.quotient_central(t, oracle.brute_center(t))))
    return tuple(out)


def side_index(table, images, word):
    """Table index of a relation side, the identity or one letter to a power
    of two, for each candidate image of the letter: its index gathered
    through the squaring map (``images[None]`` is the identity's)."""
    if not word:
        return images[None]
    [(sym, exp)] = word
    assert exp > 0 and exp & (exp - 1) == 0, word
    idx = images[sym]
    for _ in range(exp.bit_length() - 1):
        idx = table.squares[idx]
    return idx


def unpruned_iso(table, target):
    """The search without the invariant filter: every g with the order of a,
    one at a time, against every h with the order of b.  It checks the
    target's word relations, not its lattice rows, so it stays independent
    of the path it referees."""
    g = table.group
    if any(g.commutator(g.commutator(x, y), z) != g.identity
           for x in g.gens for y in g.gens for z in g.gens):
        return None
    ta, tb = target.gens
    ea, eb, ec = (target.order_of(x).bit_length() - 1
                  for x in (ta, tb, target.commutator(ta, tb)))
    exps = table.exponents()
    rows = table.coords
    for gi in np.flatnonzero(exps == ea):
        H = np.flatnonzero(exps == eb)
        C = table.index_of(g.key_rows(comm_rows_pairwise(g, rows[gi][None], rows[H])))
        keep = exps[C] == ec
        images = {None: g.key(g.identity), "a": gi, "b": H[keep], "c": C[keep]}
        ok = np.ones(len(images["b"]), dtype=bool)
        for lhs, rhs in target.relations():
            ok &= side_index(table, images, lhs) == side_index(table, images, rhs)
        for hi in images["b"][ok]:
            if generates(table, rows[gi], rows[hi]):
                return tuple(rows[gi].tolist()), tuple(rows[hi].tolist())
    return None


def test_pruned_iso_matches_the_unpruned_search():
    # every witness quotient with |K| <= 2^14, and every model table with
    # exponents <= 2, against every model of its order.  On an isomorphic
    # pair the first accepted pair (g, h) must be the unpruned search's.
    # Every other pair presents two different groups (distinct tuples, not
    # the overlap pair), where the unpruned search accepts nothing, since
    # an accepted pair is an isomorphism: there the result must be None.
    tables = list(witness_quotients())
    tables += [(p, oracle.GroupTable.from_group(model(p)))
               for p in class2.iter_valid_params(2)]
    positives = negatives = 0
    for p, t in tables:
        for tp in class2.params_with_order(t.order):
            if tp in (p, class2.overlap_partner(p)):
                iso = oracle.iso_2gen(t, model(tp))
                assert iso is not None and iso == unpruned_iso(t, model(tp)), (p, tp)
                positives += 1
            else:
                assert oracle.iso_2gen(t, model(tp)) is None, (p, tp)
                negatives += 1
    assert (positives, negatives) == (25, 205)
    # G(4,3)/Z(G(4,3)) presents i(4,3,3), of the order of i(4,4,2)
    K = build(GroupSpec(4, 3))
    t = oracle.GroupTable.from_group(K)
    q = oracle.quotient_central(t, oracle.brute_center(t))
    assert oracle.iso_2gen(q, model(class2.type_i(4, 4, 2))) is None
    assert oracle.iso_2gen(q, model(class2.type_i(4, 3, 3))) is not None


def test_iso_tries_one_candidate_image_of_a(monkeypatch):
    # each candidate g costs one run of the commutator law against the h
    # candidates; without the filter ii(4,4,2,1) accepts its 33rd g
    calls = []
    real = oracle.QuotientGroup.commutator_keys

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle.QuotientGroup, "commutator_keys", counted)
    quotients = witness_quotients()
    for p, q in quotients:
        calls.clear()
        assert oracle.iso_2gen(q, model(p)) is not None
        assert len(calls) == 1, (p, len(calls))
    assert len(quotients) == 14


def normal_closure_by_elements(table, gens):
    """The normal closure by conjugating every element of the current
    subgroup by each designated generator and closing over all of them,
    |N|^2 products a round: the reference for ``normal_closure``."""
    g = table.group
    sub = oracle.closure(table, [tuple(x) for x in gens])
    while True:
        size = len(sub)
        conjs = []
        for gen in g.gens:
            gi = g.inverse(gen)
            for s in sub.tolist():
                conjs.append(g.mul(g.mul(gi, tuple(s)), gen))
        sub = oracle.closure(table, [tuple(s) for s in sub.tolist()] + conjs)
        if len(sub) == size:
            return sub


def test_normal_closure_matches_the_reference():
    # the normal closure of [a, b] on the 18 recognize quotients, every
    # model of order <= 2^9, and three ambients where [a, b] is not central,
    # so that a second round runs
    tables = []
    for K in small_ambients(1 << 16, max_alpha=4, max_beta=4):
        t = oracle.GroupTable.from_group(K)
        tables.append(oracle.quotient_central(t, oracle.brute_center(t)))
    tables += [oracle.GroupTable.from_group(model(p))
               for k in range(3, 10) for p in class2.params_with_order(1 << k)]
    ambients = [build(GroupSpec(*ab)) for ab in [(2, 1), (2, 2), (3, 2)]]
    assert not any(g.is_central(g.commutator(g.a, g.b)) for g in ambients)
    tables += [oracle.GroupTable.from_group(g) for g in ambients]
    assert len(tables) == 18 + 76 + 3
    for t in tables:
        gens = [t.group.commutator(*t.group.gens)]
        assert np.array_equal(oracle.normal_closure(t, gens),
                              normal_closure_by_elements(t, gens)), t.group
