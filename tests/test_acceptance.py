"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtimes are dominated by criterion 6 (every capable tuple with exponents up
to 4 gets its witness verified; the two largest ambient groups have orders
2^18 and 2^19, so the enumeration budget is raised to 2^20 for this sweep).
"""

import itertools
import random
from collections import Counter

import numpy as np

from capable2 import capability as cap
from capable2 import class2, hall_core as hall, nilprod, oracle
from capable2.class2 import model, type_i, type_ii, type_iii
from capable2.hall_core import FreeElt
from capable2.lattice import canonical_basis
from capable2.nilprod import GroupSpec, build
from row_ops import comm_rows_pairwise, pow_rows

SWEEP_BUDGET = 1 << 20


def K(alpha, beta, gamma):
    e = 1 << gamma
    return build(GroupSpec(alpha, beta, (FreeElt(u=e), FreeElt(v=e))))


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_1_normal_form_counts():
    """|G(a,b)| = 2^(a+4b) for a>b and 2^(a+4b-1) for a=b, full enumeration."""
    pairs = [(a, 1) for a in range(1, 9)] + [(2, 2), (3, 2), (4, 2)]
    for alpha, beta in pairs:
        expected = 1 << (alpha + 4 * beta - (1 if alpha == beta else 0))
        assert expected <= 1 << 12
        g = build(GroupSpec(alpha, beta))
        elems = list(g.elements())
        assert len(elems) == expected
        assert len(set(elems)) == expected
        assert g.order == expected
    _report(1, "normal-form counts")


# -- criterion 2 ----------------------------------------------------------------


def test_criterion_2_killed_weight3_counts():
    """|K(a,b,g)| = 2^(a+2b+2g) for g < b, full enumeration."""
    triples = [
        (a, b, g)
        for a in range(1, 9)
        for b in range(1, 5)
        for g in range(1, b)
        if b <= a and a + 2 * b + 2 * g <= 12
    ]
    assert triples
    for alpha, beta, gamma in triples:
        grp = K(alpha, beta, gamma)
        expected = 1 << (alpha + 2 * beta + 2 * gamma)
        elems = list(grp.elements())
        assert grp.order == expected == len(elems) == len(set(elems))
    _report(2, "killed-weight-three counts")


# -- criterion 3 ----------------------------------------------------------------


def _full_associativity(group):
    coords = oracle.GroupTable.from_group(group).coords
    n = len(coords)
    X = coords[:, None, None, :]
    Y = coords[None, :, None, :]
    Z = coords[None, None, :, :]
    left = group.mul_arrays(group.mul_arrays(X, Y), Z)
    right = group.mul_arrays(X, group.mul_arrays(Y, Z))
    assert (left == right).all()
    return n**3


def _sampled_associativity(group, count, seed):
    table = oracle.GroupTable.from_group(group)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, table.order, size=(3, count))
    X, Y, Z = (table.coords[i] for i in idx)
    left = group.mul_arrays(group.mul_arrays(X, Y), Z)
    right = group.mul_arrays(X, group.mul_arrays(Y, Z))
    assert (left == right).all()


def test_criterion_3_group_axioms():
    """Associativity: all 64^3 triples of the smallest mixed product, all
    triples of every model group of order <= 64, sampled triples above."""
    checked = _full_associativity(build(GroupSpec(2, 1)))
    assert checked == 64**3
    small_models = [
        p for p in class2.iter_valid_params(4) if class2.Class2Group(p).order <= 64
    ]
    assert small_models
    for p in small_models:
        _full_associativity(model(p))
    for i, g in enumerate([build(GroupSpec(2, 2)), build(GroupSpec(3, 2)), K(3, 3, 2)]):
        _sampled_associativity(g, 100_000, seed=i)
    # identity and inverses on a full enumeration of the smallest product
    g = build(GroupSpec(2, 1))
    for x in g.elements():
        assert g.mul(x, g.identity) == x == g.mul(g.identity, x)
        assert g.mul(x, g.inverse(x)) == g.identity
    _report(3, "group axioms")


# -- criterion 4 ----------------------------------------------------------------


def _identity_suite(group, n_random, seed):
    table = oracle.GroupTable.from_group(group)
    g = group
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, table.order, size=(3, n_random))
    X, Y, Z = (table.coords[i] for i in idx)

    # (a)  [xy, z] = [x,z] [x,z,y] [y,z]
    xz = comm_rows_pairwise(g, X, Z)
    lhs = comm_rows_pairwise(g, g.mul_arrays(X, Y), Z)
    rhs = g.mul_arrays(
        g.mul_arrays(xz, comm_rows_pairwise(g, xz, Y)),
        comm_rows_pairwise(g, Y, Z),
    )
    assert (lhs == rhs).all()

    # (b)  [x, yz] = [x,z] [z,[y,x]] [x,y]
    yx = comm_rows_pairwise(g, Y, X)
    lhs = comm_rows_pairwise(g, X, g.mul_arrays(Y, Z))
    rhs = g.mul_arrays(
        g.mul_arrays(
            comm_rows_pairwise(g, X, Z), comm_rows_pairwise(g, Z, yx)
        ),
        comm_rows_pairwise(g, X, Y),
    )
    assert (lhs == rhs).all()

    # (c)/(d)  [x^r, y^s] and [y^s, x^r] with binomial corrections
    c = comm_rows_pairwise(g, X, Y)
    cx = comm_rows_pairwise(g, c, X)
    cy = comm_rows_pairwise(g, c, Y)
    for r, s in itertools.product((-3, -1, 2, 4), repeat=2):
        xr = pow_rows(g, X, r)
        ys = pow_rows(g, Y, s)
        want = g.mul_arrays(
            g.mul_arrays(
                pow_rows(g, c, r * s),
                pow_rows(g, cx, s * hall.binom2(r)),
            ),
            pow_rows(g, cy, r * hall.binom2(s)),
        )
        assert (comm_rows_pairwise(g, xr, ys) == want).all()
        want_rev = g.mul_arrays(
            g.mul_arrays(
                pow_rows(g, c, -r * s),
                pow_rows(g, cx, -s * hall.binom2(r)),
            ),
            pow_rows(g, cy, -r * hall.binom2(s)),
        )
        assert (comm_rows_pairwise(g, ys, xr) == want_rev).all()

    # (e)  (xy)^n = x^n y^n [y,x]^(n choose 2) modulo weight-three terms;
    # the [a,b] coordinate is compared modulo <[a,b,a], [a,b,b]>
    g3_t_modulus = canonical_basis(g.comm_lattice.rows + ((0, 1, 0), (0, 0, 1))).pivots[0]
    for n in (-3, -2, 2, 3, 5):
        lhs = pow_rows(g, g.mul_arrays(X, Y), n)
        rhs = g.mul_arrays(
            g.mul_arrays(pow_rows(g, X, n), pow_rows(g, Y, n)),
            pow_rows(g, yx, hall.binom2(n)),
        )
        assert (lhs[:, :2] == rhs[:, :2]).all()
        assert ((lhs[:, 2] - rhs[:, 2]) % g3_t_modulus == 0).all()


def test_criterion_4_commutator_identity_suite():
    """The five collection identities hold on 10^4 random instantiations in
    every built test group (the power laws run over a grid of exponents)."""
    groups = [build(GroupSpec(2, 1)), build(GroupSpec(2, 2)), build(GroupSpec(3, 2)), K(3, 3, 2)]
    for i, g in enumerate(groups):
        _identity_suite(g, 10_000, seed=100 + i)
    _report(4, "commutator identity suite")


# -- criterion 5 ----------------------------------------------------------------


def test_criterion_5_center_agreement():
    """The solved center's keys equal the brute-force center's."""
    groups = [
        build(GroupSpec(2, 1)),
        build(GroupSpec(2, 2)),
        build(GroupSpec(3, 2)),
        build(GroupSpec(1, 1)),
        K(3, 3, 2),
    ]
    for g in groups:
        brute = oracle.brute_center(oracle.GroupTable.from_group(g))
        assert np.array_equal(g.center_keys(), g.key_rows(brute))
    _report(5, "center agreement")


# -- criterion 6 ----------------------------------------------------------------

# the characterization's clause table over all valid tuples with every
# exponent at most 4, frozen by hand from the four clauses
EXPECTED_CAPABLE = {
    "i(1,1,1)": "a",
    "i(2,2,1)": "a",
    "i(2,2,2)": "a",
    "i(3,3,1)": "a",
    "i(3,3,2)": "a",
    "i(3,3,3)": "a",
    "i(4,4,1)": "a",
    "i(4,4,2)": "a",
    "i(4,4,3)": "a",
    "i(4,4,4)": "a",
    "i(2,1,1)": "b",
    "i(3,2,2)": "b",
    "i(4,3,3)": "b",
    "ii(3,3,1,0)": "c",
    "ii(4,4,1,0)": "c",
    "ii(4,4,2,0)": "c",
    "ii(4,4,2,1)": "c",
    "ii(3,2,2,1)": "d",
    "ii(4,3,3,2)": "d",
}


def test_criterion_6_capability_sweep():
    """decide() reproduces the clause table for every valid tuple with
    exponents <= 4, and every capable tuple's witness verifies with an
    explicit isomorphism."""
    seen_capable = {}
    for p in class2.iter_valid_params(4):
        v = cap.decide(p)
        if v.capable:
            seen_capable[str(p)] = v.clause
        else:
            assert str(p) not in EXPECTED_CAPABLE, p
    assert seen_capable == EXPECTED_CAPABLE
    for name in sorted(EXPECTED_CAPABLE):
        p = next(q for q in class2.iter_valid_params(4) if str(q) == name)
        report = cap.verify_witness(cap.build_witness(p), max_order=SWEEP_BUDGET)
        assert report.passed, report.describe()
        assert report.generator_images is not None
    _report(6, "capability sweep with verified witnesses")


# -- criterion 7 ----------------------------------------------------------------


def test_criterion_7_named_cases():
    # order-8 dihedral group: capable via clause (a), 16-element witness
    p = type_i(1, 1, 1)
    d4 = model(p)
    assert Counter(d4.order_of(x) for x in d4.elements()) == {1: 1, 2: 5, 4: 2}
    v = cap.decide(p)
    assert v.capable and v.clause == "a"
    rep = cap.verify_witness(cap.build_witness(p))
    assert rep.passed and rep.group_order == 16

    # order-8 quaternion group, identified by its single involution: not capable
    q8 = model(type_iii(1))
    hist = Counter(q8.order_of(x) for x in q8.elements())
    assert hist[2] == 1
    assert not cap.decide(type_iii(1)).capable

    # clause (b)
    assert cap.decide(type_i(3, 2, 2)).clause == "b"
    assert cap.verify_witness(cap.build_witness(type_i(3, 2, 2))).passed

    # clause (d), whose killed subgroup is central and cyclic of order two
    p = type_ii(3, 2, 2, 1)
    assert cap.decide(p).clause == "d"
    w = cap.build_witness(p)
    ambient = build(GroupSpec(w.ambient.alpha, w.ambient.beta))
    nset = set(ambient.closure([ambient.reduce(x) for x in w.ambient.extra_central]))
    assert len(nset) == 2
    assert all(ambient.is_central(x) for x in nset)
    assert cap.verify_witness(w).passed
    _report(7, "named cases")


# -- criterion 8 ----------------------------------------------------------------


def test_criterion_8_membership_congruences():
    """Exhaustive scan of the alpha=beta=3, gamma=2, sigma=1 ambient group:
    lattice membership in the killed subgroup coincides with the congruence
    description r=s=0, u=v=0 mod 2^sigma, t + 2^(alpha-gamma) v = 0 mod 2^alpha."""
    alpha, gamma, sigma = 3, 2, 1
    g = K(alpha, alpha, gamma)
    n1 = hall.mul(
        hall.power(hall.C, 1 << (alpha + sigma - gamma)),
        hall.power(hall.E, -(1 << sigma)),
    )
    n2 = hall.power(hall.D, 1 << sigma)
    lat_n = canonical_basis(g.comm_lattice.rows + (n1.comm_coords(), n2.comm_coords()))
    mismatches = 0
    for x in g.elements():
        r, s, t, u, v = x
        in_n = r == 0 and s == 0 and lat_n.contains((t, u, v))
        cong = (
            r % (1 << alpha) == 0
            and s % (1 << alpha) == 0
            and u % (1 << sigma) == 0
            and v % (1 << sigma) == 0
            and (t + (1 << (alpha - gamma)) * v) % (1 << alpha) == 0
        )
        mismatches += in_n != cong
    assert mismatches == 0
    # sanity: the subgroup is where it should be and nontrivial
    assert lat_n.contains(n1.comm_coords()) and lat_n.contains(n2.comm_coords())
    _report(8, "membership congruences")


# -- criterion 9 ----------------------------------------------------------------


def test_criterion_9_lemma_suites():
    """No hypothesis-satisfying instance of the three lemma checkers fails,
    over scans of test groups up to order 2^12."""
    small = [build(GroupSpec(1, 1)), build(GroupSpec(2, 1)), K(2, 2, 1)]
    large = [build(GroupSpec(2, 2)), build(GroupSpec(3, 2)), K(3, 3, 1)]
    assert all(g.order <= 1 << 12 for g in small + large)
    rng = random.Random(99)
    found = Counter()

    def sweep(g, pairs):
        elems = list(g.elements())
        for _ in range(pairs):
            x = elems[rng.randrange(len(elems))]
            y = elems[rng.randrange(len(elems))]
            r1 = rng.randint(1, 3)
            r2 = rng.randint(r1, 4)
            gam = rng.randint(0, max(r1 - 1, 0))
            out = cap.lemma_check_commcond(g, [x, y], [r1, r2], [gam])
            assert out.holds
            found["commcond"] += not out.vacuous
            out = cap.lemma_check_halfstep(g, x, y, rng.randint(2, 3))
            assert out.holds
            found["halfstep"] += not out.vacuous
            out = cap.exceptional_obstruction_check(g, x, y, rng.randint(1, 2))
            assert out.holds
            found["obstruction"] += not out.vacuous

    for g in small:
        sweep(g, 250)
    for g in large:
        sweep(g, 40)
    assert all(found[k] > 0 for k in ("commcond", "halfstep", "obstruction")), found
    _report(9, "lemma suites")


# -- criterion 10 -----------------------------------------------------------------


def test_criterion_10_noncapability_is_reported_not_searched():
    """Negative verdicts carry the no-finite-search statement, and the README
    states it for the artifact as a whole."""
    for p in [type_iii(1), type_i(4, 2, 1), type_ii(3, 3, 2, 1)]:
        v = cap.decide(p)
        assert not v.capable
        assert "exhaustive search" in v.rationale
        assert "no finite bound" in v.rationale
    import pathlib

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "exhaustive search" in text or "no finite bound" in text
    _report(10, "non-capability reporting")
