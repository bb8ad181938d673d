"""Finite ambient groups of class three: two cyclic 2-groups joined in the
freest class-three way, optionally modulo extra central relators.

``build`` quotients the free class-three group on a, b by the normal closure
of a^(2^alpha), b^(2^beta) and the extras.  The r and s coordinates fold
modulo the cyclic factor orders; the commutator block (t, u, v) folds modulo
an integer relation lattice whose generators are the collected commutator
parts of the power relators:

    [a^(2^alpha), b],  [a, b^(2^beta)],  [a,b,a]^(2^beta),  [a,b,b]^(2^beta)

plus one triple per extra relator, all reduced by one :func:`canonical_basis`
call.  The extras are then checked together: each one's commutators with a
and b must lie in that lattice, so the lattice is the commutator part of
the normal closure, whatever order the extras come in.  The canonical box
of that lattice gives the normal form; with no extras its size must
reproduce the classical counts 2^(alpha+4*beta) (alpha > beta) and
2^(alpha+4*beta-1) (alpha = beta), and with extras [a,b,a]^(2^gamma),
[a,b,b]^(2^gamma) it must give 2^(alpha+2*beta+2*gamma); the build fails
loudly otherwise.

Group elements (``NilElt``) are plain 5-tuples of boxed coordinates.  The
product is :func:`hall_core.mul_coords` followed by :meth:`NilGroup.reduce`
(r and s modulo the factor orders, (t, u, v) by :meth:`CommLattice.reduce`);
``mul_arrays`` runs the same two functions on int64 coordinate columns, and
the derived operations come from :class:`capable2.group.CoordGroup`.
Everything is immutable after build and all operations are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import class2, hall_core as hall, oracle
from .errors import BuildIntegrityError, CentralityError, ParameterError
from .group import CoordGroup, check_int64, is_int, unravel_rows
from .hall_core import FreeElt
from .lattice import CommLattice, canonical_basis

NilElt = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class GroupSpec:
    """Build recipe: cyclic factor exponents plus extra central relators.

    ``extra_central`` is a tuple, so that specs hash.  Extras must lie in
    the commutator subgroup (r = s = 0), and each one must be central in the
    group built from all the relators together: an extra that is central
    only modulo another extra is accepted whichever of the two comes first,
    and their order changes the built group only in its ``spec`` and its
    ``describe()`` text.
    """

    alpha: int
    beta: int
    extra_central: tuple[FreeElt, ...] = ()


class NilGroup(CoordGroup):
    """A built quotient with canonical boxed coordinates.  Use :func:`build`."""

    def __init__(self, spec: GroupSpec, comm_lattice: CommLattice):
        self.spec = spec
        self.comm_lattice = comm_lattice
        self.r_modulus = 1 << spec.alpha
        self.s_modulus = 1 << spec.beta
        self.order = self.r_modulus * self.s_modulus * comm_lattice.index
        self.identity: NilElt = (0, 0, 0, 0, 0)
        self.a = self.reduce(hall.A)
        self.b = self.reduce(hall.B)
        self.gens = (self.a, self.b)
        self.radices = (self.r_modulus, self.s_modulus) + comm_lattice.pivots

    # -- the law: hall_core's polynomial, then the boxed reduction -----------

    def lift(self, x: NilElt) -> FreeElt:
        return FreeElt(*x)

    def reduce(self, g) -> NilElt:
        """Boxed coordinates of a FreeElt or of any coordinate 5-sequence."""
        r, s, t, u, v = g
        return (r % self.r_modulus, s % self.s_modulus, *self.comm_lattice.reduce((t, u, v)))

    def mul(self, x: NilElt, y: NilElt) -> NilElt:
        return self.reduce(hall.mul_coords(x, y))

    def inverse(self, x: NilElt) -> NilElt:
        return self.reduce(hall.inverse_coords(x))

    def mul_arrays(self, X, Y) -> np.ndarray:
        return self.apply_law(self.mul, X, Y)

    # -- centers and quotients ----------------------------------------------

    @functools.cached_property
    def _center_rows(self) -> np.ndarray:
        """The central int64 rows with u = v = 0, lexicographic.

        An element is central iff it commutes with a and b.  Its (u, v) part
        never matters, so solve the two commutator congruences over the
        (r, s, t) box, all at once.  Modulo gamma_3, [x, a] = c^(-s) and
        [x, b] = c^r, where c = [a,b] has order p0, the first pivot; so only
        rows with p0 | r and p0 | s can be central, and only that stride of
        the box is scanned.  Its rows are kept where xg and gx, computed
        straight into their keys by ``mul_keys``, agree for both g = a and
        g = b: the two generators are stacked along a first axis, so each
        side is one run of the law.  ``ParameterError`` when the radices
        are too large for int64.
        """
        check_int64(self.radices)
        p0 = self.comm_lattice.pivots[0]
        pruned = (self.r_modulus // p0, self.s_modulus // p0, p0, 1, 1)
        box = unravel_rows(np.arange(math.prod(pruned)), pruned).astype(np.int64)
        box[:, :2] *= p0
        gens = np.asarray(self.gens)[:, None]
        keep = (self.mul_keys(box, gens) == self.mul_keys(gens, box)).all(axis=0)
        return box[keep]

    def center_keys(self) -> np.ndarray:
        """Sorted int64 keys of the exact center: every element is
        (r, s, t, 0, 0)(0, 0, 0, u, v) with the second factor central, and
        u, v are the last two key digits, so each row of
        :meth:`_center_rows` contributes its key plus each of 0..p1*p2-1."""
        block = self.radices[3] * self.radices[4]
        return (self.key_rows(self._center_rows)[:, None] + np.arange(block)).reshape(-1)

    def center(self) -> list[NilElt]:
        """Generators of the exact center, not a minimal set: the rows of
        :meth:`_center_rows` and [a,b,a], [a,b,b], which generate the
        (u, v) block."""
        rows = [tuple(z) for z in self._center_rows.tolist()]
        return rows + [self.reduce(hall.D), self.reduce(hall.E)]

    def generates_with_center(self, elems) -> bool:
        """Do ``elems`` and the center generate the whole group?  By the
        Burnside basis theorem, x -> (r mod 2, s mod 2) maps the group onto
        F_2^2 with kernel the Frattini subgroup, so they do exactly when their
        images, the center's being those of :meth:`_center_rows`, hold two
        distinct nonzero vectors."""
        images = {(x[0] % 2, x[1] % 2) for x in [*elems, *self._center_rows.tolist()]}
        return len(images - {(0, 0)}) >= 2

    def central_quotient(self, max_order: int | None = None):
        """Recognize G/Z(G) as validated presentation parameters.

        The quotient table is built by the brute-force oracle from the one
        table of G, fingerprinted on its own index maps, matched against the
        memoized fingerprints of the candidate models
        (:func:`capable2.class2.model_fingerprint`), and confirmed by an
        explicit generator-image isomorphism onto the same quotient table.
        """
        table = oracle.GroupTable.from_group(self, max_order)
        q = oracle.quotient_central(table, oracle.brute_center(table))
        fq = class2.fingerprint(q)
        matches = [
            p for p in class2.params_with_order(q.order)
            if class2.model_fingerprint(p) == fq
            and oracle.iso_2gen(q, class2.model(p)) is not None
        ]
        if len(matches) == 2 and class2.overlap_partner(matches[0]) == matches[1]:
            # the one known presentation coincidence; report the type-i tuple
            return next(p for p in matches if p.kind == "i")
        if len(matches) != 1:
            raise BuildIntegrityError(
                f"central quotient matched {len(matches)} presentation types: {matches}"
            )
        return matches[0]

    # -- display -------------------------------------------------------------

    def describe(self) -> str:
        s = f"C_{self.r_modulus} * C_{self.s_modulus} (class-three nilpotent product)"
        if self.spec.extra_central:
            rels = ", ".join(str(e) for e in self.spec.extra_central)
            s += f" / <<{rels}>>"
        return s

    def __repr__(self) -> str:
        return f"NilGroup(alpha={self.spec.alpha}, beta={self.spec.beta}, order={self.order})"


def build(spec: GroupSpec) -> NilGroup:
    """Construct the quotient described by ``spec``, with integrity checks.

    Every extra is validated first: ``ParameterError`` for exponents that
    are not integers with alpha >= beta >= 1, for ``extra_central`` that is
    not a tuple, and for extras that are not integer ``FreeElt`` in the
    commutator subgroup.  The power relators and the extras are reduced to
    one lattice, and ``CentralityError`` names the first extra with a
    commutator with a or b outside it."""
    alpha, beta = spec.alpha, spec.beta
    if not (is_int(alpha) and is_int(beta)):
        raise ParameterError(
            f"integer alpha, beta required, got alpha={alpha!r}, beta={beta!r}"
        )
    if beta < 1 or alpha < beta:
        raise ParameterError(f"alpha >= beta >= 1 required, got alpha={alpha}, beta={beta}")
    extras = spec.extra_central
    if not isinstance(extras, tuple):
        raise ParameterError(f"extra_central must be a tuple, got {type(extras).__name__}")
    for x in extras:
        if not (isinstance(x, FreeElt) and all(map(is_int, x.coords()))):
            raise ParameterError(
                f"extra central relator must be an integer FreeElt, got {x!r}"
            )
        if x.r or x.s:
            raise ParameterError(
                f"extra central relator must lie in the commutator subgroup: {x}"
            )
    pa, pb = 1 << alpha, 1 << beta

    # a^n is (n, 0, 0, 0, 0): the commutators run on coordinate tuples
    gens = [
        hall.commutator_coords((pa, 0, 0, 0, 0), hall.B)[2:],
        hall.commutator_coords(hall.A, (0, pb, 0, 0, 0))[2:],
        (0, pb, 0),
        (0, 0, pb),
    ]
    lat = canonical_basis(gens + [x.comm_coords() for x in extras])

    for x in extras:
        for g, name in ((hall.A, "a"), (hall.B, "b")):
            w = hall.commutator_coords(x, g)
            if not lat.contains(w[2:]):
                raise CentralityError(
                    f"extra relator not central: [{x}, {name}] = {FreeElt(*w)} is nontrivial"
                )

    group = NilGroup(spec, lat)

    expected = _expected_order(spec)
    if expected is not None and group.order != expected:
        raise BuildIntegrityError(
            f"normal-form count {group.order} does not match the expected {expected}"
        )
    return group


def _expected_order(spec: GroupSpec) -> int | None:
    alpha, beta = spec.alpha, spec.beta
    if not spec.extra_central:
        return 1 << (alpha + 4 * beta - (1 if alpha == beta else 0))
    gamma = _uniform_extra_exponent(spec)
    if gamma is not None:
        return 1 << (alpha + 2 * beta + 2 * gamma)
    return None


def _uniform_extra_exponent(spec: GroupSpec) -> int | None:
    """gamma when the extras are exactly [a,b,a]^(2^gamma), [a,b,b]^(2^gamma)."""
    if len(spec.extra_central) != 2:
        return None
    coords = sorted(e.coords() for e in spec.extra_central)
    g = coords[0][4]
    if g <= 0 or g & (g - 1):
        return None
    if coords != [(0, 0, 0, 0, g), (0, 0, 0, g, 0)]:
        return None
    gamma = g.bit_length() - 1
    return gamma if 1 <= gamma < spec.beta else None
