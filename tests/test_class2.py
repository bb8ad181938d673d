"""Classification-side models: validation, relations, orders, fingerprints."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quotients
from capable2 import class2, group, nilprod, oracle
from capable2.class2 import model, type_i, type_ii, type_iii, validate
from capable2.errors import ParameterError


def test_validate_accepts_and_rejects():
    assert str(type_i(3, 2, 2)) == "i(3,2,2)"
    assert str(type_ii(4, 4, 2, 1)) == "ii(4,4,2,1)"
    with pytest.raises(ParameterError, match="alpha\\+beta\\+sigma > 3"):
        type_ii(2, 1, 1, 0)
    with pytest.raises(ParameterError, match="gamma > sigma"):
        type_ii(4, 4, 2, 2)
    with pytest.raises(ParameterError, match="alpha\\+sigma >= 2\\*gamma"):
        type_ii(3, 3, 2, 0)
    with pytest.raises(ParameterError, match="alpha >= beta >= gamma"):
        type_i(2, 3, 1)
    with pytest.raises(ParameterError):
        type_iii(0)
    with pytest.raises(ParameterError, match="unknown type"):
        validate("iv", gamma=1)


def test_validate_rejects_non_integer_parameters():
    # a float must not pass through to the printed parameters, nor a bool
    # stand in for 1
    with pytest.raises(ParameterError, match="alpha must be an integer"):
        type_i(2.5, 1, 1)
    with pytest.raises(ParameterError, match="alpha must be an integer"):
        type_i(True, True, True)
    with pytest.raises(ParameterError, match="sigma must be an integer"):
        type_ii(4, 4, 2, 1.0)
    with pytest.raises(ParameterError, match="gamma must be an integer"):
        type_iii("1")
    with pytest.raises(ParameterError, match="unknown type"):
        validate(None, gamma=1)


_KIND = st.sampled_from(["i", "ii", "iii", "II", "iv"])
_INT = st.one_of(st.none(), st.integers(-2, 7))
_NON_INT = st.one_of(st.booleans(), st.floats(), st.text(max_size=2))
_VALID = set(class2.iter_valid_params(7))


@given(kind=_KIND, values=st.tuples(_INT, _INT, _INT, _INT))
def test_validate_accepts_exactly_the_enumerated_tuples(kind, values):
    expected = class2.TypeParams(kind.lower(), *values)
    try:
        p = validate(kind, *values)
    except ParameterError:
        assert expected not in _VALID
    else:
        assert p == expected and p in _VALID


@given(p=st.sampled_from(sorted(_VALID, key=str)), pos=st.integers(0, 3), bad=_NON_INT)
def test_validate_rejects_every_non_integer_parameter(p, pos, bad):
    # a valid tuple with one entry replaced by a bool, float or string
    values = [p.alpha, p.beta, p.gamma, p.sigma]
    values[pos] = bad
    with pytest.raises(ParameterError):
        validate(p.kind, *values)


def test_model_orders():
    assert model(type_i(1, 1, 1)).order == 8
    assert model(type_i(2, 2, 1)).order == 32
    assert model(type_ii(3, 2, 2, 1)).order == 64
    # a^4 = [a,b]^2 and a^8 = 1 give [a,b]^4 = 1: the box is (4, 4, 4)
    assert model(type_ii(3, 2, 2, 1)).lattice.rows == ((4, 0, 2), (0, 4, 0), (0, 0, 4))
    assert model(type_iii(1)).order == 8
    assert model(type_iii(2)).order == 64


def test_second_recognition_fingerprints_no_new_model(monkeypatch):
    # one table per recognition, K's; the quotient table is fingerprinted and
    # searched on its own index maps, and each model fingerprint is memoized
    class2.model_fingerprint.cache_clear()
    fingerprinted, tables, rows = [], [], []
    real_fingerprint, real_from_group = class2.fingerprint, oracle.GroupTable.from_group
    real_mul_keys = oracle.QuotientGroup.mul_keys

    def fingerprint(table):
        fingerprinted.append(getattr(table.group, "params", "quotient"))
        return real_fingerprint(table)

    def from_group(group, *args):
        tables.append(group)
        return real_from_group(group, *args)

    def mul_keys(self, X, Y):
        out = real_mul_keys(self, X, Y)
        rows.append(out.size)
        return out

    monkeypatch.setattr(class2, "fingerprint", fingerprint)
    monkeypatch.setattr(oracle.GroupTable, "from_group", staticmethod(from_group))
    monkeypatch.setattr(oracle.QuotientGroup, "mul_keys", mul_keys)
    candidates = class2.params_with_order(1 << 7)
    for first in (True, False):
        del fingerprinted[:], tables[:], rows[:]
        K = nilprod.build(nilprod.GroupSpec(3, 2))
        assert str(K.central_quotient()) == "i(3,2,2)"
        models = [p for p in fingerprinted if p != "quotient"]
        assert sorted(models, key=str) == (sorted(candidates, key=str) if first else [])
        assert fingerprinted.count("quotient") == 1
        assert tables == [K]
        # R_a, R_b, L_a and the squaring map, each one row product per row,
        # and L_b on the 32 rows of the centralizer of a
        assert sorted(rows) == [32] + [1 << 7] * 4


def per_k_abelian_invariants(exps, order: int, derived: int) -> tuple[int, ...]:
    """The invariant factors from coset order exponents, counting the cosets
    of order dividing 2^k one k at a time."""
    maxe = max(exps)
    f = [(sum(1 for e in exps if e <= k) // derived).bit_length() - 1 for k in range(maxe + 1)]
    assert 1 << f[-1] == order // derived
    ge = [f[k] - f[k - 1] for k in range(1, maxe + 1)]
    out = []
    for k in range(1, maxe + 1):
        out.extend([1 << k] * (ge[k - 1] - (ge[k] if k < maxe else 0)))
    return tuple(sorted(out, reverse=True))


def test_abelian_invariants_match_the_per_k_count():
    # exponents <= 9 reach every model of order <= 2^10
    models = [model(p) for p in class2.iter_valid_params(9) if model(p).order <= 1 << 10]
    assert len(models) == 108
    for g in models:
        t = oracle.GroupTable.from_group(g)
        derived = oracle.normal_closure(t, [g.commutator(g.a, g.b)])
        exps = t.exponents(oracle.key_mask(g, derived)).tolist()
        assert class2._abelian_invariants(t, derived) == per_k_abelian_invariants(
            exps, t.order, len(derived)
        )


def test_dihedral_and_quaternion_models():
    d4 = model(type_i(1, 1, 1))
    hist = Counter(d4.order_of(x) for x in d4.elements())
    assert hist == {1: 1, 2: 5, 4: 2}
    q8 = model(type_iii(1))
    hist = Counter(q8.order_of(x) for x in q8.elements())
    assert hist == {1: 1, 2: 1, 4: 6}  # exactly one involution


def test_defining_relations_hold_in_models():
    params = [
        type_i(3, 2, 1),
        type_ii(4, 4, 2, 1),
        type_ii(3, 2, 2, 1),
        type_iii(2),
    ]
    for p in params:
        g = model(p)
        images = {"a": g.a, "b": g.b, "c": g.commutator(g.a, g.b)}
        for lhs, rhs in g.relations():
            assert class2.evaluate_word(g, images, lhs) == class2.evaluate_word(
                g, images, rhs
            )
        assert g.is_central(images["c"])


def test_class_exactly_two():
    import random

    for p in [type_i(2, 2, 1), type_ii(3, 2, 2, 1), type_iii(1)]:
        g = model(p)
        elems = list(g.elements())
        assert g.commutator(g.a, g.b) != g.identity
        for x in elems:
            for y in elems:
                assert g.is_central(g.commutator(x, y))
    # sampled on larger models: every double commutator vanishes
    rng = random.Random(11)
    for p in [type_i(4, 3, 2), type_ii(4, 4, 2, 1), type_iii(3)]:
        g = model(p)
        elems = list(g.elements())
        assert g.commutator(g.a, g.b) != g.identity
        for _ in range(2000):
            x = elems[rng.randrange(len(elems))]
            y = elems[rng.randrange(len(elems))]
            z = elems[rng.randrange(len(elems))]
            assert g.commutator(g.commutator(x, y), z) == g.identity


def test_generator_orders_and_commutator_order():
    g = model(type_ii(3, 2, 2, 1))
    assert g.order_of(g.a) == 8
    assert g.order_of(g.b) == 4
    assert g.order_of(g.commutator(g.a, g.b)) == 4
    g3 = model(type_iii(2))
    assert g3.order_of(g3.a) == 8 and g3.order_of(g3.b) == 8
    assert g3.order_of(g3.commutator(g3.a, g3.b)) == 4


def test_fingerprints_separate_order8_groups():
    assert class2.model_fingerprint(type_i(1, 1, 1)) != class2.model_fingerprint(type_iii(1))


def test_fingerprint_fields():
    fp = class2.fingerprint(oracle.GroupTable.from_group(model(type_i(2, 2, 1))))
    assert fp == class2.model_fingerprint(type_i(2, 2, 1))
    assert fp.order == 32
    assert fp.derived_order == 2
    assert fp.abelian_invariants == (4, 4)
    fp2 = class2.model_fingerprint(type_ii(3, 2, 2, 1))
    assert fp2.order == 64
    assert fp2.derived_order == 4
    assert fp2.abelian_invariants == (4, 4)


def test_params_with_order():
    found = {str(p) for p in class2.params_with_order(8)}
    assert found == {"i(1,1,1)", "iii(1)"}
    for p in class2.params_with_order(1 << 6):
        assert class2.Class2Group(p).order == 64


def test_closed_form_order_matches_the_lattice_index():
    # TypeParams.order is the closed form; the model's relator lattice index
    # is the reference, and params_with_order inverts the same arithmetic
    params = list(class2.iter_valid_params(12))
    assert len(params) == 1712
    for p in params:
        assert p.order == class2.Class2Group(p).order, p
    for e in range(1, 25):
        for p in class2.params_with_order(1 << e):
            assert p.order == 1 << e, p


def validated_or_none(kind, *params):
    try:
        return validate(kind, *params)
    except ParameterError:
        return None


def params_with_order_by_exceptions(n):
    """Reference for ``params_with_order``: every type-ii candidate goes
    through ``validate``, and the ``ParameterError``s are discarded."""
    e = n.bit_length() - 1
    out = []
    for alpha in range(1, e + 1):
        for beta in range(1, e + 1):
            gamma = e - alpha - beta
            if 1 <= gamma and alpha >= beta >= gamma:
                out.append(class2.TypeParams("i", alpha, beta, gamma, None))
            for g in range(1, beta + 1):
                sigma = e - alpha - beta
                if 0 <= sigma < g:
                    out.append(validated_or_none("ii", alpha, beta, g, sigma))
    if e % 3 == 0 and e >= 3:
        out.append(class2.TypeParams("iii", None, None, e // 3, None))
    return [p for p in out if p is not None]


def iter_valid_params_by_exceptions(max_exp):
    """Reference for ``iter_valid_params``, like the one above."""
    exps = range(1, max_exp + 1)
    out = [validate("i", a, b, g) for a in exps for b in range(1, a + 1) for g in range(1, b + 1)]
    out += [
        validated_or_none("ii", a, b, g, s)
        for a in exps for b in exps for g in range(1, b + 1) for s in range(g)
    ]
    out += [validate("iii", gamma=g) for g in exps]
    return [p for p in out if p is not None]


def test_enumerations_match_the_exception_driven_ones(monkeypatch):
    # the type-ii bounds checked before validate keep the same tuples in the
    # same order, and validate never raises on a candidate
    def strict(*args, **kwargs):
        try:
            return validate(*args, **kwargs)
        except ParameterError as exc:
            raise AssertionError(f"candidate {args} rejected: {exc}") from exc

    monkeypatch.setattr(class2, "validate", strict)
    for e in range(1, 25):
        assert class2.params_with_order(1 << e) == params_with_order_by_exceptions(1 << e), e
    for max_exp in range(9):
        assert list(class2.iter_valid_params(max_exp)) == iter_valid_params_by_exceptions(
            max_exp
        ), max_exp
    assert len(class2.params_with_order(1 << 24)) == 337


def test_distinct_parameters_give_distinct_groups_up_to_512():
    """Same-order models are separated by fingerprint or by iso search,
    except for the one known presentation coincidence, which must show up."""
    by_order = {}
    for p in class2.iter_valid_params(7):
        g = class2.Class2Group(p)
        if g.order <= 512:
            by_order.setdefault(g.order, []).append(p)
    checked = 0
    coincidences = set()
    for order, group_params in by_order.items():
        for p1, p2 in itertools.combinations(group_params, 2):
            if class2.model_fingerprint(p1) != class2.model_fingerprint(p2):
                continue
            t1 = oracle.GroupTable.from_group(model(p1))
            iso = oracle.iso_2gen(t1, model(p2))
            if class2.overlap_partner(p1) == p2:
                assert iso is not None, (p1, p2)
                coincidences.add((str(p1), str(p2)))
            else:
                assert iso is None, (p1, p2)
            checked += 1
    assert checked >= 1  # at least one pair needed the isomorphism search
    assert ("i(2,2,2)", "ii(3,2,2,1)") in coincidences


def test_overlap_partner_pairs():
    assert class2.overlap_partner(type_i(2, 2, 2)) == type_ii(3, 2, 2, 1)
    assert class2.overlap_partner(type_ii(3, 2, 2, 1)) == type_i(2, 2, 2)
    assert class2.overlap_partner(type_i(1, 1, 1)) is None  # partner fails validation
    assert class2.overlap_partner(type_i(3, 3, 2)) is None
    assert class2.overlap_partner(type_ii(4, 4, 2, 1)) is None


def test_overlap_isomorphism_on_the_full_multiplication_table():
    # independent of the searcher: map a -> ab, b -> b and check the
    # homomorphism property on every pair
    m1 = model(type_i(2, 2, 2))
    m2 = model(type_ii(3, 2, 2, 1))
    g, h = m1.mul(m1.a, m1.b), m1.b
    c = m1.commutator(g, h)
    phi = {
        x: m1.mul(m1.mul(m1.power(g, x[0]), m1.power(h, x[1])), m1.power(c, x[2]))
        for x in m2.elements()
    }
    assert len(set(phi.values())) == m1.order
    for x in m2.elements():
        for y in m2.elements():
            assert m1.mul(phi[x], phi[y]) == phi[m2.mul(x, y)]


def test_fold_closure_counts():
    # every product of box representatives lands back in the box
    for p in [type_ii(3, 2, 2, 1), type_iii(2)]:
        g = model(p)
        elems = set(g.elements())
        assert len(elems) == g.order
        for x in list(elems)[:64]:
            for y in list(elems)[:64]:
                assert g.mul(x, y) in elems


@pytest.mark.parametrize("block_rows", [group.BLOCK_ROWS, 7])
def test_array_law_matches_scalar_for_every_kind(monkeypatch, block_rows):
    # mul_arrays/inv_arrays run the scalar law on columns; compare them row
    # by row on every pair, in one block and in blocks of 7 rows
    monkeypatch.setattr(group, "BLOCK_ROWS", block_rows)
    for p in [type_i(3, 2, 1), type_ii(4, 4, 2, 1), type_ii(3, 2, 2, 1), type_iii(1), type_iii(2)]:
        g = model(p)
        coords = g.rows(np.arange(g.order))
        prod = g.mul_arrays(coords[:, None, :], coords[None, :, :])
        inv = g.inv_arrays(coords)
        elems = [tuple(x) for x in coords.tolist()]
        for i, x in enumerate(elems):
            assert tuple(inv[i].tolist()) == g.inverse(x)
            for j, y in enumerate(elems):
                assert tuple(prod[i, j].tolist()) == g.mul(x, y)
        if p.kind != "i":
            # types ii and iii have a lattice row with an entry off its
            # pivot, and some product is reduced through it
            assert any(reduces_off_diagonal(g.lattice, x, y) for x in elems for y in elems)


def reduces_off_diagonal(lattice, x, y) -> bool:
    """Whether reducing the free class-two product x*y subtracts a multiple
    of a lattice row with a nonzero entry off its pivot (the first two
    coordinates of the product are the sums)."""
    (p0, a01, a02), (_, p1, a12), _ = lattice.rows
    k0 = (x[0] + y[0]) // p0
    return bool(k0 and (a01 or a02)) or bool((x[1] + y[1] - k0 * a01) // p1 and a12)


def test_iter_valid_params_alpha1():
    found = {str(p) for p in class2.iter_valid_params(1)}
    assert found == {"i(1,1,1)", "iii(1)"}


class FoldModel(group.CoordGroup):
    """The reference model: a^i b^j [a,b]^k with one hand-derived fold rule
    per presentation type, which rewrites excess powers through that type's
    defining relations.  Multiplication is (i1,j1,k1)*(i2,j2,k2) =
    fold(i1+i2, j1+j2, k1+k2-j1*i2)."""

    def __init__(self, p):
        self.params = p
        if p.kind == "i":
            self.mi, self.mj, self.mk = 1 << p.alpha, 1 << p.beta, 1 << p.gamma
        elif p.kind == "ii":
            self.mi, self.mj, self.mk = 1 << p.alpha, 1 << p.beta, 1 << p.sigma
            self._carry_i = 1 << (p.alpha + p.sigma - p.gamma)
        else:
            self.mi, self.mj, self.mk = 1 << (p.gamma + 1), 1 << p.gamma, 1 << (p.gamma - 1)
            self._carry_i = 1 << p.gamma
        self.order = self.mi * self.mj * self.mk
        self.radices = (self.mi, self.mj, self.mk)
        self.identity = (0, 0, 0)
        self.a = (1, 0, 0)
        self.b = (0, 1, 0)
        self.gens = (self.a, self.b)

    def fold(self, i, j, k):
        p = self.params
        if p.kind == "i":
            return (i % self.mi, j % self.mj, k % self.mk)
        q, k = divmod(k, self.mk)
        if p.kind == "ii":
            return ((i + q * self._carry_i) % self.mi, j % self.mj, k)
        qj, j = divmod(j, self.mj)
        return ((i + (q + qj) * self._carry_i) % self.mi, j, k)

    def mul(self, x, y):
        return self.fold(x[0] + y[0], x[1] + y[1], x[2] + y[2] - x[1] * y[0])

    def inverse(self, x):
        return self.fold(-x[0], -x[1], -x[2] - x[0] * x[1])

    def mul_arrays(self, X, Y):
        return self.apply_law(self.mul, X, Y)


def test_lattice_model_agrees_with_the_fold_model():
    # same order and fingerprint, and an explicit isomorphism, on every
    # tuple with |G| <= 2^10 (exponents <= 9 reach all of them)
    params = [p for p in class2.iter_valid_params(9) if FoldModel(p).order <= 1 << 10]
    assert len(params) == 108
    for p in params:
        fold = oracle.GroupTable.from_group(FoldModel(p))
        assert fold.order == model(p).order, p
        assert class2.fingerprint(fold) == class2.model_fingerprint(p), p
        assert oracle.iso_2gen(fold, model(p)) is not None, p


def test_the_presentation_list_is_complete_below_order_256_and_not_at_256():
    # every lattice of index 2^n, n = 3..8, as a quotient of the free
    # class-two group: each tuple is hit, and from 2^8 on some groups are
    # on no tuple of the list, all with one fingerprint at 2^8 and, by
    # iso_2gen against a row-built target, one isomorphism class, which
    # iv(2,4,2,0,1) hits
    outside = quotients.check(8)
    assert not any(outside[n] for n in range(3, 8))
    [(fp, count)] = outside[8].items()
    assert count == 12
    assert (fp.exponent, fp.center_order, fp.derived_order) == (32, 16, 4)
    assert fp.abelian_invariants == (16, 4)
    assert dict(fp.order_histogram)[2] == 3  # involutions


def test_two_relators_present_a_group_off_the_list():
    # a^4 [a,b] and b^16 [a,b]^2 alone: their a and b exponents have gcd 4,
    # so [a,b]^4 = 1 follows, and the group has order 256
    g = class2.Class2Group([(4, 0, 1), (0, 16, 2)])
    assert g.order == 256
    assert g.lattice.rows == ((4, 0, 1), (0, 16, 2), (0, 0, 4))
    table = oracle.GroupTable.from_group(g)
    fp = class2.fingerprint(table)
    params = class2.params_with_order(256)
    assert len(params) == 17
    assert not [
        p for p in params
        if class2.model_fingerprint(p) == fp and oracle.iso_2gen(table, model(p)) is not None
    ]


def test_a_group_off_the_list_is_an_isomorphism_target():
    # the 12 lattices of order 256 on no tuple, found by their one
    # fingerprint, all map onto the group of the relator rows (4,0,1),
    # (0,16,2), (0,0,4), and the images satisfy its relators; no model of
    # order 256 maps onto it
    target = class2.Class2Group(((4, 0, 1), (0, 16, 2), (0, 0, 4)))
    fp = class2.fingerprint(oracle.GroupTable.from_group(target))
    tables = [oracle.GroupTable.from_group(class2.Class2Group(rows))
              for rows in quotients.lattices(8)]
    off = [t for t in tables if class2.fingerprint(t) == fp]
    assert len(off) == 12
    for t in off:
        iso = oracle.iso_2gen(t, target)
        assert iso is not None, t.group
        g = t.group
        images = {"a": iso[0], "b": iso[1], "c": g.commutator(*iso)}
        for lhs, rhs in target.relations():
            assert class2.evaluate_word(g, images, lhs) == class2.evaluate_word(g, images, rhs)
    params = class2.params_with_order(256)
    assert len(params) == 17
    for p in params:
        assert oracle.iso_2gen(oracle.GroupTable.from_group(model(p)), target) is None, p


def test_a_model_from_rows_or_from_a_tuple():
    # a tuple keeps its params and reads its rows from relations(); rows
    # give the same law, with no params, and relations() as their words
    p = type_ii(3, 2, 2, 1)
    g = class2.Class2Group(p)
    assert g.params == p and g.order == p.order
    h = class2.Class2Group(list(g.lattice.rows))
    assert h.params is None and (h.lattice, h.order) == (g.lattice, g.order)
    assert repr(h) == f"Class2Group({g.lattice.rows}, order=64)"
    images = {"a": h.a, "b": h.b, "c": h.commutator(h.a, h.b)}
    assert len(h.relations()) == 3
    for lhs, rhs in h.relations():
        assert class2.evaluate_word(h, images, lhs) == class2.evaluate_word(h, images, rhs)
    assert oracle.iso_2gen(oracle.GroupTable.from_group(model(p)), h) is not None


@pytest.mark.parametrize("rows, problem", [
    ([(4, 0, 0)], "rank 2"),  # not the lattice's RankDeficientError, CLI exit 1
    ([], "rank 2"),
    ([(4, 0, 0), (8, 0, 1)], "rank 2"),
    ([(3, 0, 0), (0, 3, 0)], "power of two"),  # not a group of order 27
    ([(4, 0, 0), (0, 6, 0)], "power of two"),
    ([(True, 0, 0), (0, 2, 0)], "three ints"),  # True is not read as 1
    ([(2.0, 0, 0), (0, 2, 0)], "three ints"),  # not a bare TypeError from math.gcd
    ([(2, 0), (0, 2, 0)], "three ints"),
    ([(2, 0, 0, 0), (0, 2, 0)], "three ints"),
    ([(2, 0, 0), None], "three ints"),
    ([(2, 0, 0), "abc"], "three ints"),
    (None, "three ints"),
    (7, "three ints"),
    ({(2, 0, 0), (0, 2, 0)}, "three ints"),
])
def test_malformed_relator_rows_raise_parameter_error(rows, problem):
    with pytest.raises(ParameterError, match=problem):
        class2.Class2Group(rows)


def satisfies(g, x, y, rows) -> bool:
    """Whether x^i y^j [x,y]^k = 1 in ``g`` for every row (i, j, k)."""
    c = g.commutator(x, y)
    return all(
        g.mul(g.mul(g.power(x, i), g.power(y, j)), g.power(c, k)) == g.identity
        for i, j, k in rows
    )


def test_exchanged_rows_invert_the_commutator():
    # a^4 = 1, b^4 [a,b] = 1, [a,b]^4 = 1, with ord(a) = 4 < ord(b) = 16:
    # exchanging a and b sends [a,b] to its inverse, so the exchanged rows
    # are (4,0,3), not (4,0,1), and b and a of the exchanged model satisfy
    # the original rows; with (4,0,1) they do not, though that group is
    # isomorphic (a -> a^-1, b -> b^-1) and has the same order and center
    rows = ((4, 0, 0), (0, 4, 1), (0, 0, 4))
    g = class2.Class2Group(rows)
    assert (g.order, g.order_of(g.a), g.order_of(g.b)) == (64, 4, 16)
    h = g.exchanged()
    assert h.lattice.rows == ((4, 0, 3), (0, 4, 0), (0, 0, 4))
    assert (h.order, h.order_of(h.a), h.order_of(h.b)) == (64, 16, 4)
    assert satisfies(h, h.b, h.a, rows) and satisfies(g, g.b, g.a, h.lattice.rows)
    assert h.exchanged().lattice == g.lattice
    w = class2.Class2Group([(4, 0, 1), (0, 4, 0), (0, 0, 4)])
    assert not satisfies(w, w.b, w.a, rows)
    assert class2.fingerprint(oracle.GroupTable.from_group(w)) == class2.fingerprint(
        oracle.GroupTable.from_group(h))


def test_exchange_on_every_lattice_of_order_32_to_256():
    # every lattice of index 2^5..2^8 with ord(a) < ord(b): the exchanged
    # model has ord(a) > ord(b), and the two models' generators, swapped,
    # satisfy each other's rows; on 40 of the 205 the rows without
    # c -> c^-1 differ, and there b and a fail them
    exchanged = without_inverse = 0
    for n in range(5, 9):
        for rows in quotients.lattices(n):
            g = class2.Class2Group(rows)
            if g.order_of(g.a) >= g.order_of(g.b):
                continue
            exchanged += 1
            h = g.exchanged()
            assert (h.order_of(h.a), h.order_of(h.b)) == (g.order_of(g.b), g.order_of(g.a))
            assert satisfies(h, h.b, h.a, rows) and satisfies(g, g.b, g.a, h.lattice.rows), rows
            w = class2.Class2Group([(j, i, k - i * j) for i, j, k in rows])
            if w.lattice != h.lattice:
                without_inverse += 1
                assert not satisfies(w, w.b, w.a, rows), rows
    assert (exchanged, without_inverse) == (205, 40)
