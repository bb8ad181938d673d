"""Derived row operations shared by every coordinate group."""

import numpy as np
import pytest

from capable2 import group, oracle
from capable2.class2 import model, type_i, type_ii, type_iii
from capable2.hall_core import FreeElt
from capable2.nilprod import GroupSpec, build


def quotient_group():
    t = oracle.GroupTable.from_group(build(GroupSpec(3, 3)))
    return oracle.quotient_central(t, oracle.brute_center(t)).group


four_groups = pytest.mark.parametrize(
    "make",
    [lambda: build(GroupSpec(3, 2)), lambda: model(type_ii(4, 4, 2, 1)),
     lambda: model(type_iii(2)), quotient_group],
    ids=["nilgroup", "class2-ii", "class2-iii", "quotient"],
)


@four_groups
def test_rows_decode_keys(make):
    g = make()
    keys = np.random.default_rng(11).integers(g.order, size=1000)
    rows = g.rows(keys)
    assert rows.dtype == group.coord_dtype(g.radices)
    assert np.array_equal(g.key_rows(rows), keys)
    assert np.array_equal(g.rows(np.arange(g.order)), list(g.elements()))


@pytest.mark.parametrize("n", [group.BLOCK_ROWS, group.BLOCK_ROWS + 1000])
@four_groups
def test_mul_keys_matches_keys_of_products(make, n):
    g = make()
    rng = np.random.default_rng(n)
    elements = g.rows(np.arange(g.order))
    X, Y = (elements[rng.integers(len(elements), size=n)] for _ in range(2))
    for A, B in [(X, Y), (Y, X), (X, Y[:1]), (Y[:1], X), (X[:50, None], Y[None, :60])]:
        keys = g.mul_keys(A, B)
        assert keys.dtype == np.int64
        assert np.array_equal(keys, g.key_rows(g.mul_arrays(A, B)))


@pytest.mark.parametrize(
    "make",
    [lambda: build(GroupSpec(4, 2)),
     lambda: build(GroupSpec(3, 3, (FreeElt(u=2), FreeElt(v=2)))),
     lambda: model(type_i(3, 2, 1)), lambda: model(type_ii(4, 4, 2, 1)),
     lambda: model(type_iii(2)), quotient_group],
    ids=["nilgroup", "nilgroup-extras", "class2-i", "class2-ii", "class2-iii", "quotient"],
)
def test_right_keys_match_the_law_on_the_rows(make):
    # the open grid against the law run on every materialized row
    g = make()
    rows = g.rows(np.arange(g.order))
    rng = np.random.default_rng(5)
    ys = [*g.gens, *map(tuple, rows[rng.integers(len(rows), size=5)].tolist())]
    for y in ys:
        assert np.array_equal(g.right_keys(y), g.mul_keys(rows, np.asarray(y)[None])), y


@pytest.mark.parametrize("block_rows", [group.BLOCK_ROWS, 7])
@pytest.mark.parametrize(
    "make",
    [lambda: build(GroupSpec(3, 2)), lambda: model(type_ii(4, 4, 2, 1)), quotient_group,
     lambda: build(GroupSpec(4, 3))],
    ids=["nilgroup", "class2-ii", "quotient", "nilgroup-2^16"],
)
def test_left_keys_match_the_law_on_the_rows(monkeypatch, make, block_rows):
    # slabs of the open grid against the law run on every materialized row;
    # with 7 rows a slab is one value of the first coordinate, and the 2^16
    # rows of G(4,3) span 8 slabs of BLOCK_ROWS
    monkeypatch.setattr(group, "BLOCK_ROWS", block_rows)
    g = make()
    rows = g.rows(np.arange(g.order))
    rng = np.random.default_rng(6)
    ys = [*g.gens, *map(tuple, rows[rng.integers(len(rows), size=5)].tolist())]
    for y in ys:
        left = g.left_keys(y)
        assert np.array_equal(left, g.mul_keys(np.asarray(y)[None], rows)), y
        assert left.dtype == np.int32 or isinstance(g, oracle.QuotientGroup)


def test_apply_rows_result_width_follows_the_law(monkeypatch):
    monkeypatch.setattr(group, "BLOCK_ROWS", 7)
    X = np.arange(5 * 30, dtype=np.int64).reshape(3, 10, 5)
    pair = group.apply_rows(lambda x, y: (x[0] + y[4], x[1] * y[2]), X, X[:1])
    assert pair.shape == (3, 10, 2)
    assert np.array_equal(pair[..., 0], X[..., 0] + X[:1, :, 4])
    assert np.array_equal(pair[..., 1], X[..., 1] * X[:1, :, 2])
    wide = group.apply_rows(lambda x: (*x, x[0] - x[1]), X)
    assert wide.shape == (3, 10, 6)
    assert np.array_equal(wide[..., :5], X)
    assert np.array_equal(wide[..., 5], X[..., 0] - X[..., 1])
    assert group.apply_rows(lambda x: (x[0],), X[:0]).shape == (0, 10, 1)


def test_narrow_rows_run_the_law_in_int64():
    t = oracle.GroupTable.from_group(build(GroupSpec(4, 4)), max_order=1 << 19)
    assert t.coords.dtype.itemsize == 1
    assert np.array_equal(t.coords, np.asarray(list(t.group.elements())))
    # radices up to 16: the class-three term x_s * binom2(y_r) reaches
    # 15 * 105, beyond int8, so each block must be cast before the law runs
    rng = np.random.default_rng(4)
    n = group.BLOCK_ROWS + 1000
    X, Y = (t.coords[rng.integers(t.order, size=n)] for _ in range(2))
    assert (X[:, 1] == 15).any() and (Y[:, 0] == 15).any()
    g = t.group
    X64, Y64 = X.astype(np.int64), Y.astype(np.int64)
    for A, B, A64, B64 in [(X, Y, X64, Y64), (X, Y[:1], X64, Y64[:1])]:
        assert np.array_equal(g.mul_arrays(A, B), g.mul_arrays(A64, B64))
        assert np.array_equal(g.mul_keys(A, B), g.mul_keys(A64, B64))
    assert np.array_equal(g.inv_arrays(X), g.inv_arrays(X64))
    assert np.array_equal(g.key_rows(X), g.key_rows(X64))


@pytest.mark.parametrize(
    "make",
    [lambda: build(GroupSpec(2, 1)), lambda: build(GroupSpec(2, 2, (FreeElt(u=2), FreeElt(v=2)))),
     lambda: model(type_ii(3, 3, 2, 1)), lambda: model(type_iii(2)), quotient_group],
    ids=["G(2,1)", "K(2,2,1)", "class2-ii", "class2-iii", "quotient"],
)
def test_is_central_matches_the_commutator_definition(make):
    g = make()
    central = [g.is_central(x) for x in g.elements()]
    assert central == [
        all(g.commutator(x, y) == g.identity for y in g.gens) for x in g.elements()
    ]
    assert any(central) and not all(central)
