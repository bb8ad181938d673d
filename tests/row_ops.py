"""Row-level commutators and powers for the tests' identity checks and the
unpruned reference isomorphism search."""

import numpy as np


def comm_rows_pairwise(group, X, Y) -> np.ndarray:
    """[x, y] = x^-1 y^-1 x y for broadcast rows, by row products."""
    return group.mul_arrays(group.mul_arrays(group.inv_arrays(X), group.inv_arrays(Y)),
                            group.mul_arrays(X, Y))


def pow_rows(group, X, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.int64)
    if n < 0:
        return pow_rows(group, group.inv_arrays(X), -n)
    acc = np.broadcast_to(
        np.asarray(group.identity, dtype=np.int64), X.shape
    ).copy()
    base = X.copy()
    while n:
        if n & 1:
            acc = group.mul_arrays(acc, base)
        base = group.mul_arrays(base, base)
        n >>= 1
    return acc
