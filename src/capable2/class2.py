"""Two-generator 2-groups of class two: validated presentation parameters,
coordinate models, and isomorphism-invariant fingerprints.

Every finite nonabelian two-generator 2-group of class two is isomorphic to
a group of one of three presentation types:

  i    a^(2^alpha) = b^(2^beta) = [a,b]^(2^gamma) = 1,
       alpha >= beta >= gamma >= 1                      ("coproduct type")
  ii   a^(2^alpha) = b^(2^beta) = 1,
       a^(2^(alpha+sigma-gamma)) = [a,b]^(2^sigma),
       beta >= gamma > sigma >= 0, alpha+sigma >= 2*gamma,
       alpha+beta+sigma > 3                             ("general type")
  iii  a^(2^(gamma+1)) = b^(2^(gamma+1)) = [a,b]^(2^gamma) = 1,
       a^(2^gamma) = b^(2^gamma) = [a,b]^(2^(gamma-1)),
       gamma >= 1                                       ("exceptional type")

with [a,b] central throughout.  The bound alpha+beta+sigma > 3 keeps the
dihedral group of order 8 out of type ii (it is already i with all exponents
1).  Models are coordinate sets a^i b^j [a,b]^k with fold rules derived from
the defining relations; uniqueness of the representation is validated by the
oracle-side closure tests, not assumed.

One coincidence survives these constraint lists: i(b,b,b) and
ii(b+1, b, b, b-1) present isomorphic groups for every b >= 2.  In the
coproduct-type group the pair (ab, b) has orders 2^(b+1), 2^b with
(ab)^(2^b) = [ab,b]^(+-2^(b-1)), which is exactly the general-type relation;
the isomorphism is verified element-by-element in the test suite.  Both
parameter tuples are capable, so the capability decision is unaffected;
:func:`overlap_partner` exposes the coincidence to callers that need a
canonical answer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BuildIntegrityError, ParameterError
from .group import CoordGroup, is_int

Word = tuple[tuple[str, int], ...]  # symbols 'a', 'b', 'c' with c = [a,b]


@dataclass(frozen=True)
class TypeParams:
    """Validated parameters; construct through :func:`validate`."""

    kind: str  # 'i' | 'ii' | 'iii'
    alpha: int | None
    beta: int | None
    gamma: int
    sigma: int | None

    def __str__(self) -> str:
        if self.kind == "i":
            return f"i({self.alpha},{self.beta},{self.gamma})"
        if self.kind == "ii":
            return f"ii({self.alpha},{self.beta},{self.gamma},{self.sigma})"
        return f"iii({self.gamma})"


def validate(kind: str, alpha=None, beta=None, gamma=None, sigma=None) -> TypeParams:
    """Canonical TypeParams, or ParameterError naming the violated constraint."""
    if not isinstance(kind, str):
        raise ParameterError(f"unknown type {kind!r}: expected i, ii or iii")
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("sigma", sigma)):
        _need(value is None or is_int(value),
              f"{name} must be an integer, got {value!r}")
    kind = kind.lower()
    if kind == "i":
        _need(alpha is not None and beta is not None and gamma is not None,
              "type i takes alpha, beta, gamma")
        _need(sigma is None, "sigma is only meaningful for type ii")
        _need(gamma >= 1, "alpha >= beta >= gamma >= 1")
        _need(alpha >= beta >= gamma, "alpha >= beta >= gamma >= 1")
        return TypeParams("i", alpha, beta, gamma, None)
    if kind == "ii":
        _need(None not in (alpha, beta, gamma, sigma),
              "type ii takes alpha, beta, gamma, sigma")
        _need(alpha >= 1 and beta >= 1, "alpha, beta >= 1")
        _need(beta >= gamma > sigma >= 0, "beta >= gamma > sigma >= 0")
        _need(alpha + sigma >= 2 * gamma, "alpha+sigma >= 2*gamma")
        _need(alpha + beta + sigma > 3,
              "alpha+beta+sigma > 3 (the order-8 dihedral group belongs to type i)")
        return TypeParams("ii", alpha, beta, gamma, sigma)
    if kind == "iii":
        _need(gamma is not None, "type iii takes gamma")
        _need(alpha is None and beta is None and sigma is None,
              "type iii takes only gamma")
        _need(gamma >= 1, "gamma >= 1")
        return TypeParams("iii", None, None, gamma, None)
    raise ParameterError(f"unknown type {kind!r}: expected i, ii or iii")


def _need(cond: bool, constraint: str) -> None:
    if not cond:
        raise ParameterError(f"constraint violated: {constraint}")


def type_i(alpha, beta, gamma) -> TypeParams:
    return validate("i", alpha, beta, gamma)


def type_ii(alpha, beta, gamma, sigma) -> TypeParams:
    return validate("ii", alpha, beta, gamma, sigma)


def type_iii(gamma) -> TypeParams:
    return validate("iii", gamma=gamma)


class Class2Group(CoordGroup):
    """Coordinate model a^i b^j [a,b]^k of one presented group.

    Multiplication is (i1,j1,k1)*(i2,j2,k2) = fold(i1+i2, j1+j2, k1+k2-j1*i2);
    the -j1*i2 term comes from b a = a b [a,b]^-1 with [a,b] central, and the
    fold rewrites excess powers through the defining relations.
    """

    def __init__(self, params: TypeParams):
        self.params = params
        p = params
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

    # -- the law (scalars, or int64 columns through mul_arrays) --------------

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

    def mul_arrays(self, X, Y) -> np.ndarray:
        return self.apply_law(self.mul, X, Y)

    # -- presentation --------------------------------------------------------

    def relations(self) -> list[tuple[Word, Word]]:
        """Defining word relations over symbols a, b, c (= [a,b]).

        Centrality of c is an additional implicit relation of every type.
        """
        p = self.params
        if p.kind == "i":
            return [
                ((("a", 1 << p.alpha),), ()),
                ((("b", 1 << p.beta),), ()),
                ((("c", 1 << p.gamma),), ()),
            ]
        if p.kind == "ii":
            return [
                ((("a", 1 << p.alpha),), ()),
                ((("b", 1 << p.beta),), ()),
                ((("a", 1 << (p.alpha + p.sigma - p.gamma)),), (("c", 1 << p.sigma),)),
            ]
        return [
            ((("a", 1 << (p.gamma + 1)),), ()),
            ((("b", 1 << (p.gamma + 1)),), ()),
            ((("c", 1 << p.gamma),), ()),
            ((("a", 1 << p.gamma),), (("b", 1 << p.gamma),)),
            ((("b", 1 << p.gamma),), (("c", 1 << (p.gamma - 1)),)),
        ]

    def __repr__(self) -> str:
        return f"Class2Group({self.params}, order={self.order})"


def evaluate_word(group, images: dict, word: Word):
    """Product of mapped generator powers inside any group-protocol object."""
    acc = group.identity
    for sym, exp in word:
        acc = group.mul(acc, group.power(images[sym], exp))
    return acc


def model(p: TypeParams) -> Class2Group:
    """A fresh coordinate model of ``p``, with its defining relations checked."""
    g = Class2Group(p)
    images = {"a": g.a, "b": g.b, "c": g.commutator(g.a, g.b)}
    for lhs, rhs in g.relations():
        if evaluate_word(g, images, lhs) != evaluate_word(g, images, rhs):
            raise BuildIntegrityError(f"defining relation fails in model {p}: {lhs} = {rhs}")
    c = images["c"]
    if c == g.identity:
        raise BuildIntegrityError(f"model {p} is abelian; class two requires [a,b] != 1")
    if not g.is_central(c):
        raise BuildIntegrityError(f"[a,b] is not central in model {p}")
    return g


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants; equality is necessary, not sufficient."""

    order: int
    exponent: int
    center_order: int
    derived_order: int
    abelian_invariants: tuple[int, ...]
    order_histogram: tuple[tuple[int, int], ...]


def fingerprint(table) -> Fingerprint:
    """Fingerprint of the group of a :class:`capable2.oracle.GroupTable`
    (model, quotient, ...), computed on that table's own index maps."""
    from . import oracle

    group = table.group
    counts = np.bincount(table.exponents()).tolist()
    hist = {1 << e: n for e, n in enumerate(counts) if n}
    derived = oracle.normal_closure(table, [group.commutator(*group.gens)])
    return Fingerprint(
        order=table.order,
        exponent=max(hist),
        center_order=len(oracle.brute_center(table)),
        derived_order=len(derived),
        abelian_invariants=_abelian_invariants(table, derived),
        order_histogram=tuple(sorted(hist.items())),
    )


@functools.cache
def model_fingerprint(p: TypeParams) -> Fingerprint:
    """Fingerprint of the model of ``p``, enumerated once per tuple for the
    life of the process.  The model's table is built with no enumeration
    budget, so a caller bounds the orders it asks for."""
    from . import oracle

    m = model(p)
    return fingerprint(oracle.GroupTable(m))


def _abelian_invariants(table, derived) -> tuple[int, ...]:
    """Cyclic decomposition of the quotient by the derived subgroup.

    With f(k) = log2 #{cosets of order dividing 2^k} (from the coset
    exponents of :meth:`oracle.GroupTable.exponents`), the number of
    invariant factors of exponent >= k is f(k) - f(k-1).
    """
    from . import oracle

    exps = table.exponents(oracle.key_mask(table.group, derived))
    counts = np.cumsum(np.bincount(exps)).tolist()
    n = table.order // len(derived)
    maxe = len(counts) - 1
    f = []
    for total in counts:
        cnt = total // len(derived)
        if cnt & (cnt - 1):
            raise BuildIntegrityError("quotient by the derived subgroup is not abelian")
        f.append(cnt.bit_length() - 1)
    if (1 << f[-1]) != n:
        raise BuildIntegrityError("quotient by the derived subgroup is not abelian")
    ge = [f[k] - f[k - 1] for k in range(1, maxe + 1)] if maxe else []
    out = []
    for k in range(1, maxe + 1):
        exactly = ge[k - 1] - (ge[k] if k < maxe else 0)
        out.extend([1 << k] * exactly)
    return tuple(sorted(out, reverse=True))


def overlap_partner(p: TypeParams) -> TypeParams | None:
    """The other parameter tuple presenting the same group, when one exists.

    i(b,b,b) and ii(b+1, b, b, b-1) coincide for b >= 2; every other pair of
    distinct validated tuples presents non-isomorphic groups.
    """
    if p.kind == "i" and p.alpha == p.beta == p.gamma and p.beta >= 2:
        return TypeParams("ii", p.beta + 1, p.beta, p.beta, p.beta - 1)
    if (
        p.kind == "ii"
        and p.beta >= 2
        and p.alpha == p.beta + 1
        and p.gamma == p.beta
        and p.sigma == p.beta - 1
    ):
        return TypeParams("i", p.beta, p.beta, p.beta, None)
    return None


def params_with_order(n: int) -> list[TypeParams]:
    """All validated TypeParams whose model has order n."""
    if n <= 0 or n & (n - 1):
        return []
    e = n.bit_length() - 1
    out = []
    for alpha in range(1, e + 1):
        for beta in range(1, e + 1):
            gamma = e - alpha - beta
            if 1 <= gamma and alpha >= beta >= gamma:
                out.append(TypeParams("i", alpha, beta, gamma, None))
            for g in range(1, beta + 1):
                sigma = e - alpha - beta
                if 0 <= sigma < g:
                    try:
                        out.append(validate("ii", alpha, beta, g, sigma))
                    except ParameterError:
                        pass
    if e % 3 == 0 and e >= 3:
        out.append(TypeParams("iii", None, None, e // 3, None))
    return out


def iter_valid_params(max_exp: int):
    """All validated TypeParams with every exponent parameter <= max_exp,
    ordered by (kind, parameters)."""
    for alpha in range(1, max_exp + 1):
        for beta in range(1, alpha + 1):
            for gamma in range(1, beta + 1):
                yield TypeParams("i", alpha, beta, gamma, None)
    for alpha in range(1, max_exp + 1):
        for beta in range(1, max_exp + 1):
            for gamma in range(1, beta + 1):
                for sigma in range(0, gamma):
                    try:
                        yield validate("ii", alpha, beta, gamma, sigma)
                    except ParameterError:
                        pass
    for gamma in range(1, max_exp + 1):
        yield TypeParams("iii", None, None, gamma, None)
