"""Canonical lattice bases, reduction, and membership."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capable2 import class2
from capable2.errors import ParameterError, RankDeficientError
from capable2.lattice import canonical_basis


def test_diagonal_input_is_fixed():
    L = canonical_basis([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert L.rows == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert L.index == 8


def test_relation_set_alpha2_beta1():
    L = canonical_basis([(4, -2, 0), (2, 0, 1), (0, 2, 0), (0, 0, 2)])
    assert L.rows == ((2, 0, 1), (0, 2, 0), (0, 0, 2))
    assert L.index == 8


def test_relation_set_alpha1_beta1_halves_the_middle_modulus():
    L = canonical_basis([(2, -1, 0), (2, 0, 1), (0, 2, 0), (0, 0, 2)])
    assert L.index == 4
    assert L.pivots == (2, 1, 2)


def test_canonical_form_independent_of_generator_order():
    gens = [(4, -2, 0), (2, 0, 1), (0, 2, 0), (0, 0, 2)]
    rng = random.Random(0)
    base = canonical_basis(gens)
    for _ in range(20):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert canonical_basis(shuffled).rows == base.rows


def test_reduce_examples():
    L = canonical_basis([(4, -2, 0), (2, 0, 1), (0, 2, 0), (0, 0, 2)])
    assert L.reduce((2, 0, 1)) == (0, 0, 0)
    assert L.contains((2, 0, 1))
    assert not L.contains((1, 0, 0))
    assert L.contains((0, 0, 0))
    D = canonical_basis([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert D.reduce((0, 0, 3)) == (0, 0, 1)
    assert D.reduce((5, 1, 7)) == D.reduce(D.reduce((5, 1, 7)))


def test_reduce_idempotent_and_in_box():
    rng = random.Random(1)
    L = canonical_basis([(4, -2, 0), (2, 0, 1), (0, 2, 0), (0, 0, 2)])
    for _ in range(500):
        v = tuple(rng.randint(-40, 40) for _ in range(3))
        red = L.reduce(v)
        assert L.reduce(red) == red
        assert all(0 <= c < p for c, p in zip(red, L.pivots))
        assert L.contains(tuple(a - b for a, b in zip(v, red)))


def test_reduce_is_additive_up_to_reduction():
    rng = random.Random(2)
    L = canonical_basis([(8, 28, 0), (8, 0, 28), (0, 4, 0), (0, 0, 4)])
    for _ in range(500):
        x = tuple(rng.randint(-30, 30) for _ in range(3))
        y = tuple(rng.randint(-30, 30) for _ in range(3))
        s = tuple(a + b for a, b in zip(x, y))
        t = tuple(a + b for a, b in zip(L.reduce(x), L.reduce(y)))
        assert L.reduce(s) == L.reduce(t)


def test_index_divides_for_nested_generator_sets():
    rng = random.Random(3)
    for _ in range(50):
        small = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(3)]
        small += [(4, 0, 0), (0, 4, 0), (0, 0, 4)]  # guarantee full rank
        extra = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(2)]
        sub = canonical_basis(small)
        sup = canonical_basis(small + extra)
        assert sub.index % sup.index == 0


def test_box_enumerates_exactly_index_representatives():
    L = canonical_basis([(4, -2, 0), (2, 0, 1), (0, 2, 0), (0, 0, 2)])
    reps = list(L.box())
    assert len(reps) == L.index
    assert len({L.reduce(r) for r in reps}) == L.index
    assert all(L.reduce(r) == r for r in reps)


def test_rank_deficient_generators_rejected():
    with pytest.raises(RankDeficientError, match="infinite commutator block"):
        canonical_basis([(2, 0, 0), (4, 0, 0), (0, 1, 0)])
    with pytest.raises(RankDeficientError):
        canonical_basis([])


def test_non_integral_entries_rejected():
    # 1.5 must not be truncated to a pivot of 1
    with pytest.raises(ParameterError, match="integer triples"):
        canonical_basis([(1.5, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ParameterError, match="integer triples"):
        canonical_basis([("2", 0, 0), (0, 1, 0), (0, 0, 1)])
    L = canonical_basis([(np.int64(2), 0, 0), (0, 1, 0), (0, 0, 1)])
    assert L.rows == ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    assert all(type(x) is int for row in L.rows for x in row)


@pytest.mark.parametrize("entry", [3, True, np.int64(3), np.int8(3), np.uint16(3)])
def test_integer_entries_accepted(entry):
    # ints, bools and numpy integers are integer entries, stored as ints
    L = canonical_basis([(entry, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert L.rows == ((int(entry), 0, 0), (0, 1, 0), (0, 0, 1))
    assert all(type(x) is int for row in L.rows for x in row)


@pytest.mark.parametrize(
    "generator",
    [(3.0, 0, 0), (np.float64(3), 0, 0), (Fraction(3), 0, 0), ("3", 0, 0), "300",
     (3, 0), (3, 0, 0, 0)],
)
def test_non_integer_triples_rejected(generator):
    with pytest.raises(ParameterError, match="integer triples"):
        canonical_basis([generator, (0, 1, 0), (0, 0, 1)])


def test_wrong_length_rejected_even_when_zero():
    with pytest.raises(ParameterError, match="integer triples"):
        canonical_basis([(0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    with pytest.raises(ParameterError, match="integer triples"):
        canonical_basis([(0, 0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    with pytest.raises(ParameterError, match="integer triples"):
        canonical_basis([(2, 0), (0, 2, 0), (0, 0, 2)])


_TRIPLE = st.tuples(*[st.integers(-12, 12)] * 3)


@given(gens=st.lists(_TRIPLE, max_size=4), diag=st.tuples(*[st.integers(1, 6)] * 3))
def test_reduce_on_arrays_matches_scalar_and_leaves_input_alone(gens, diag):
    L = canonical_basis(gens + [(diag[0], 0, 0), (0, diag[1], 0), (0, 0, diag[2])])
    assert all(L.contains(g) for g in gens)
    rng = np.random.default_rng(len(gens))
    vecs = rng.integers(-50, 50, size=(3, 64))
    before = vecs.copy()
    red = L.reduce(tuple(vecs))
    assert (vecs == before).all()
    for i in range(64):
        assert tuple(int(c[i]) for c in red) == L.reduce(tuple(int(c) for c in vecs[:, i]))


def plain_reduce(L, vec):
    """The reduction with every term and each remainder by subtraction: the
    reference for :meth:`CommLattice.reduce`, which skips zero terms."""
    t, u, v = vec
    (p0, a01, a02), (_, p1, a12), (_, _, p2) = L.rows
    k = t // p0
    t, u, v = t - k * p0, u - k * a01, v - k * a02
    k = u // p1
    u, v = u - k * p1, v - k * a12
    return (t, u, v % p2)


def test_reduce_matches_the_plain_formula(monkeypatch):
    # random canonical lattices, then the lattices of the benchmark's
    # ambients and of every model its quotients are matched against, on
    # seeded ints and int64 arrays with negative entries
    from test_oracle import benchmark_groups

    rng = random.Random(33)
    lattices = [canonical_basis([tuple(rng.randint(-40, 40) for _ in range(3)) for _ in range(3)]
                                + [(rng.randint(1, 16), 0, 0), (0, rng.randint(1, 16), 0),
                                   (0, 0, rng.randint(1, 16))])
                for _ in range(200)]
    groups = benchmark_groups(monkeypatch)
    orders = {K.order // len(K.center_keys()) for K in groups}
    lattices += [K.comm_lattice for K in groups]
    lattices += [class2.Class2Group(p).lattice for n in orders for p in class2.params_with_order(n)]
    assert any(a for L in lattices for a in (L.rows[0][1:] + L.rows[1][2:]))
    assert any(not any(L.rows[0][1:] + L.rows[1][2:]) for L in lattices)
    arrays = np.random.default_rng(33)
    for L in lattices:
        vecs = arrays.integers(-10**6, 10**6, size=(3, 50))
        red = L.reduce(tuple(vecs))
        for got, want in zip(red, plain_reduce(L, tuple(vecs)), strict=True):
            assert got.dtype == np.int64 and np.array_equal(got, want), L
        for _ in range(20):
            vec = tuple(rng.randint(-10**6, 10**6) for _ in range(3))
            assert L.reduce(vec) == plain_reduce(L, vec), (L, vec)
