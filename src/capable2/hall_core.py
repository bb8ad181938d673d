"""Exact arithmetic in the free nilpotent group of class three on two generators.

Every element has a unique normal form

    a^r b^s [a,b]^t [a,b,a]^u [a,b,b]^v

with unbounded integer exponents, so a five-tuple of integers is a complete
representation.  The two weight-three commutators are central, the commutator
subgroup is abelian, and all weight-four commutators vanish; multiplication is
a fixed polynomial in the ten exponents.  The closed form used here is
hard-coded and refereed by the independent word-collection oracle in
:mod:`capable2.oracle`.  It is written once, as :func:`mul_coords` and
:func:`inverse_coords` on any coordinate 5-sequence, so the finite quotients
in :mod:`capable2.nilprod` run the same polynomial on Python ints and on
int64 coordinate columns; :func:`commutator_coords` composes them, so
commutators of plain tuples need no :class:`FreeElt`.

Commutator convention: [x, y] = x^-1 y^-1 x y, left-normed beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass


def binom2(m: int) -> int:
    """m(m-1)/2, exact for every integer (the product is always even)."""
    return m * (m - 1) // 2


@dataclass(frozen=True)
class FreeElt:
    """Normal form a^r b^s [a,b]^t [a,b,a]^u [a,b,b]^v with integer exponents."""

    r: int = 0
    s: int = 0
    t: int = 0
    u: int = 0
    v: int = 0

    def coords(self) -> tuple[int, int, int, int, int]:
        return (self.r, self.s, self.t, self.u, self.v)

    def __iter__(self):
        return iter(self.coords())

    def comm_coords(self) -> tuple[int, int, int]:
        """The ([a,b], [a,b,a], [a,b,b]) exponent block."""
        return (self.t, self.u, self.v)

    def is_identity(self) -> bool:
        return self == IDENTITY

    def __mul__(self, other: "FreeElt") -> "FreeElt":
        return mul(self, other)

    def __pow__(self, n: int) -> "FreeElt":
        return power(self, n)

    def __invert__(self) -> "FreeElt":
        return inverse(self)

    def __str__(self) -> str:
        parts = []
        for sym, e in zip(("a", "b", "[a,b]", "[a,b,a]", "[a,b,b]"), self.coords()):
            if e == 1:
                parts.append(sym)
            elif e:
                parts.append(f"{sym}^{e}")
        return " ".join(parts) if parts else "1"


IDENTITY = FreeElt()
A = FreeElt(r=1)
B = FreeElt(s=1)
C = FreeElt(t=1)  # [a,b]
D = FreeElt(u=1)  # [a,b,a]
E = FreeElt(v=1)  # [a,b,b]


def mul_coords(x, y):
    """Coordinates of the normal form of x*y, for any two coordinate 5-sequences.

    Collecting a^{y.r} leftward past [a,b]^{x.t} deposits [a,b,a]^{y.r*x.t};
    past b^{x.s} it deposits [a,b]^{-y.r*x.s} and the binomial correction
    terms; finally b^{y.s} passes the accumulated [a,b]-power.  Only
    ``+ - * //`` appear, so the entries may be ints or int64 arrays.
    """
    xr, xs, xt, xu, xv = x
    yr, ys, yt, yu, yv = y
    t_mid = xt - yr * xs
    return (
        xr + yr,
        xs + ys,
        t_mid + yt,
        xu + yu + yr * xt - xs * binom2(yr),
        xv + yv + ys * t_mid - yr * binom2(xs),
    )


def inverse_coords(x):
    """Coordinates of x^-1; entries may be ints or int64 arrays."""
    r, s, t, u, v = x
    return (
        -r,
        -s,
        -t - r * s,
        r * t - u + s * binom2(-r),
        s * t - v + r * binom2(-s),
    )


def mul(x: FreeElt, y: FreeElt) -> FreeElt:
    """Normal form of the concatenation x*y."""
    return FreeElt(*mul_coords(x, y))


def inverse(x: FreeElt) -> FreeElt:
    return FreeElt(*inverse_coords(x))


def power(x: FreeElt, n: int) -> FreeElt:
    """x^n by binary exponentiation; n may be negative."""
    if n < 0:
        return power(inverse(x), -n)
    acc = IDENTITY
    base = x
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc


def commutator_coords(x, y):
    """Coordinates of [x, y] = x^-1 y^-1 x y, for any two coordinate
    5-sequences: a plain tuple needs no :class:`FreeElt` in between."""
    return mul_coords(mul_coords(inverse_coords(x), inverse_coords(y)), mul_coords(x, y))


def commutator(x: FreeElt, y: FreeElt) -> FreeElt:
    """[x, y] = x^-1 y^-1 x y."""
    return FreeElt(*commutator_coords(x, y))
