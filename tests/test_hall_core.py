"""Exact-arithmetic laws for the free class-three normal forms."""

import random

from capable2 import hall_core as hall
from capable2 import oracle
from capable2.hall_core import A, B, C, D, E, FreeElt, IDENTITY, binom2


def rand_elt(rng, bound=8):
    return FreeElt(*(rng.randint(-bound, bound) for _ in range(5)))


def test_binom2_pascal_identity():
    for m in range(-50, 51):
        assert binom2(m) + m == binom2(m + 1)
    assert binom2(0) == 0 and binom2(1) == 0


def test_generator_products():
    assert (A * B).coords() == (1, 1, 0, 0, 0)
    assert (B * A).coords() == (1, 1, -1, 0, 0)


def test_square_of_ab():
    x = A * B
    sq = x * x
    # value frozen from the word-collection oracle on "abab"
    assert sq.coords() == (2, 2, -1, 0, -1)
    assert oracle.collect_word("abab") == sq
    # the [a,b] exponent agrees with the square law modulo weight-three terms:
    # (xy)^n = x^n y^n [y,x]^(n choose 2) there
    assert sq.t == -binom2(2)


def test_identity_and_inverses():
    rng = random.Random(1)
    for _ in range(300):
        x = rand_elt(rng)
        assert (IDENTITY * x) == x == (x * IDENTITY)
        assert (x * ~x).is_identity()
        assert (~x * x).is_identity()


def test_associativity_random_triples():
    # 10^5 random triples with coordinates in [-8, 8], exact equality
    rng = random.Random(2)
    for _ in range(100_000):
        x, y, z = rand_elt(rng), rand_elt(rng), rand_elt(rng)
        assert hall.mul(hall.mul(x, y), z) == hall.mul(x, hall.mul(y, z))


def test_power_laws():
    rng = random.Random(3)
    assert hall.power(A, 5).coords() == (5, 0, 0, 0, 0)
    for _ in range(200):
        x = rand_elt(rng)
        assert hall.power(x, 0) == IDENTITY
        assert hall.mul(hall.power(x, -1), x) == IDENTITY
        m, n = rng.randint(-6, 6), rng.randint(-6, 6)
        assert hall.power(x, m + n) == hall.mul(hall.power(x, m), hall.power(x, n))


def test_power_matches_iterated_multiplication():
    x = FreeElt(1, 1, 0, 0, 0)
    acc = IDENTITY
    for _ in range(4):
        acc = hall.mul(acc, x)
    assert hall.power(x, 4) == acc
    rng = random.Random(4)
    for _ in range(50):
        y = rand_elt(rng, bound=4)
        acc = IDENTITY
        for _ in range(7):
            acc = hall.mul(acc, y)
        assert hall.power(y, 7) == acc


def test_commutator_examples():
    assert hall.commutator(A, B) == C
    # powers of generators pick up binomial corrections
    assert hall.commutator(hall.power(A, 2), B).coords() == (0, 0, 2, 1, 0)
    rng = random.Random(5)
    for _ in range(100):
        x = rand_elt(rng)
        assert hall.commutator(x, x).is_identity()


def test_commutator_power_grid():
    # [a^r, b^s] = [a,b]^(rs) [a,b,a]^(s*C(r,2)) [a,b,b]^(r*C(s,2)), |r|,|s| <= 16
    for r in range(-16, 17):
        for s in range(-16, 17):
            got = hall.commutator(hall.power(A, r), hall.power(B, s))
            assert got == FreeElt(0, 0, r * s, s * binom2(r), r * binom2(s))


def test_weight_four_commutators_vanish():
    rng = random.Random(6)
    for _ in range(500):
        w, x, y, z = (rand_elt(rng) for _ in range(4))
        assert hall.commutator(hall.commutator(hall.commutator(x, y), z), w).is_identity()


def test_product_commutator_expansions():
    # [xy, z] = [x,z] [x,z,y] [y,z]  and  [x, yz] = [x,z] [z,[y,x]] [x,y],
    # exact at class three
    rng = random.Random(7)
    for _ in range(2000):
        x, y, z = rand_elt(rng), rand_elt(rng), rand_elt(rng)
        xz = hall.commutator(x, z)
        lhs = hall.commutator(hall.mul(x, y), z)
        rhs = hall.mul(hall.mul(xz, hall.commutator(xz, y)), hall.commutator(y, z))
        assert lhs == rhs
        lhs2 = hall.commutator(x, hall.mul(y, z))
        xy = hall.commutator(x, y)
        rhs2 = hall.mul(
            hall.mul(hall.commutator(x, z), hall.commutator(z, hall.commutator(y, x))),
            xy,
        )
        assert lhs2 == rhs2


def test_power_power_commutator_expansion():
    # [x^r, y^s] and its inverse-order twin, for arbitrary elements
    rng = random.Random(8)
    for _ in range(1000):
        x, y = rand_elt(rng, 4), rand_elt(rng, 4)
        r, s = rng.randint(-5, 5), rng.randint(-5, 5)
        c = hall.commutator(x, y)
        cx = hall.commutator(c, x)
        cy = hall.commutator(c, y)
        want = hall.mul(
            hall.mul(hall.power(c, r * s), hall.power(cx, s * binom2(r))),
            hall.power(cy, r * binom2(s)),
        )
        assert hall.commutator(hall.power(x, r), hall.power(y, s)) == want
        want_rev = hall.mul(
            hall.mul(hall.power(c, -r * s), hall.power(cx, -s * binom2(r))),
            hall.power(cy, -r * binom2(s)),
        )
        assert hall.commutator(hall.power(y, s), hall.power(x, r)) == want_rev


def test_square_law_modulo_weight_three():
    # (xy)^n = x^n y^n [y,x]^(n choose 2) holds in the quotient by the
    # weight-three subgroup, i.e. on the first three coordinates
    rng = random.Random(9)
    for _ in range(1000):
        x, y = rand_elt(rng), rand_elt(rng)
        n = rng.randint(-6, 6)
        lhs = hall.power(hall.mul(x, y), n)
        rhs = hall.mul(
            hall.mul(hall.power(x, n), hall.power(y, n)),
            hall.power(hall.commutator(y, x), binom2(n)),
        )
        assert (lhs.r, lhs.s, lhs.t) == (rhs.r, rhs.s, rhs.t)


def test_conjugate():
    # x^y = y^-1 x y = x [x, y]
    rng = random.Random(10)
    for _ in range(200):
        x, y = rand_elt(rng), rand_elt(rng)
        conj = hall.mul(hall.mul(hall.inverse(y), x), y)
        assert conj == hall.mul(x, hall.commutator(x, y))


def test_str_rendering():
    assert str(IDENTITY) == "1"
    assert str(FreeElt(2, 0, -1, 0, 3)) == "a^2 [a,b]^-1 [a,b,b]^3"


def test_coordinates_are_unbounded_integers():
    n = 2**100
    big = hall.power(A * B, n)
    assert big.r == big.s == n
    assert big.t == -binom2(n)
    assert hall.mul(big, ~big).is_identity()
