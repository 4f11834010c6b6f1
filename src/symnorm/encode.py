"""Translation between orbit-wise cyclic permutation groups and linear codes.

A group H whose orbits all have prime size p, with cyclic restriction of
order p on each, is determined by a linear code over F_p: fix a p-cycle
g_i on each orbit, send a product of powers of the g_i to its exponent
vector, and row-reduce the images of the generators.  This module reads
input groups, of this class and the dihedral one, as maps u -> a u + b on
normalised orbit cycles (here every a is 1 and b is the exponent vector),
builds the full translation from a code on given orbit cycles (ordered
orbits, generator matrix in standard form, dual code), and realises the
structural maps the search relies on in coordinates of the overgroup
L = B K: every element of L sends the u-th point of orbit i's
cycle to the (scale[i] u + shift[i])-th point of orbit pi(i)'s cycle, and
affine_perm / affine_parts convert between such triples and permutations.
The exponent-vector maps, the monomial action on the code, the swaps of
equivalent orbits and the reduction that collapses equivalent orbits are
all built on these two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from symnorm.gfp import (
    FpMatrix,
    InvariantViolation,
    PrimeField,
    column_equiv_classes,
    dual_matrix,
    independent_rows,
    is_prime,
    matrix_rank,
    rref_standard,
)
from symnorm.perm import PermGroup, Permutation, orbits_of


class NotInClass(Exception):
    """The input group is not orbit-wise cyclic of the requested order."""


# ---------------------------------------------------------------------------
# monomial elements (diagonal times coordinate permutation)


@dataclass(frozen=True)
class MonomialElement:
    """An invertible monomial map on F_p^k: scale coordinates, then permute.

    Acting on row vectors on the right: (v.w)_j picks the coordinate
    permuted onto j and multiplies by its scale factor.
    """

    p: int
    diag: tuple[int, ...]
    perm: Permutation

    def __post_init__(self):
        if len(self.diag) != self.perm.degree:
            raise ValueError("diagonal length must match permutation degree")
        if any(not 0 < d < self.p for d in self.diag):
            raise ValueError("diagonal entries must be units")

    @property
    def k(self) -> int:
        return len(self.diag)

    def apply(self, v) -> tuple[int, ...]:
        """Image of a row vector under the monomial action."""
        if len(v) != self.k:
            raise ValueError("length mismatch")
        out = [0] * self.k
        for i in range(self.k):
            out[self.perm.image(i + 1) - 1] = v[i] * self.diag[i] % self.p
        return tuple(out)


# ---------------------------------------------------------------------------
# recognised instances


@dataclass(frozen=True, eq=False)
class InPInstance:
    """A recognised orbit-wise cyclic group, translated to a code.

    Orbits are ordered so that the code's pivot columns come first (labels
    are permuted, points are not) and the matrix is in standard form;
    gamma_inv(inst, row) is the group element of each code row.
    """

    field: PrimeField
    degree: int
    orbits: tuple[tuple[int, ...], ...]
    orbit_gens: tuple[Permutation, ...]
    matrix: FpMatrix
    dual: FpMatrix
    orbit_cycles: tuple[tuple[int, ...], ...] = field(repr=False)
    point_orbit: dict = field(repr=False)
    point_exp: dict = field(repr=False)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def k(self) -> int:
        return len(self.orbits)

    @property
    def s(self) -> int:
        return self.matrix.s


def normalised_cycle(g: Permutation, orbit, p: int):
    """The power of g's cycle on its orbit that starts at the least point
    and steps to the next-smallest, or None if g is not a p-cycle there;
    rebuilding a group from its code on these cycles reproduces the code."""
    cyc = [min(orbit)]
    for _ in range(p - 1):
        cyc.append(g.image(cyc[-1]))
    if g.image(cyc[-1]) != cyc[0] or set(cyc) != set(orbit):
        return None
    r = cyc.index(min(cyc[1:]))
    return tuple(cyc[u * r % p] for u in range(p))


def recognise_orbits(H: PermGroup, p: int):
    """The normalised cycles of H's orbits, in order of least point, and
    per generator its scales a and shifts b on them: it sends the u-th
    point of each cycle to the (a u + b)-th.  A cycle comes from a generator
    that is a p-cycle on the orbit, or else from the first generator moving
    it times another one.  NotInClass names p, or the orbit at fault."""
    if not is_prime(p):
        raise NotInClass(f"orbit size {p} is not prime")
    support = H.support()
    if not support:
        raise NotInClass(f"the trivial group has no orbits of size {p}")
    gens = H.generators
    cycles = []
    for orb in orbits_of(gens, support):
        if len(orb) != p:
            raise NotInClass(f"orbit {orb} has size {len(orb)}, expected {p}")
        moving = next(x for x in gens if any(x.image(q) != q for q in orb))
        tries = chain(gens, (moving * y for y in gens))
        cyc = next(filter(None, (normalised_cycle(g, orb, p) for g in tries)), None)
        if cyc is None:
            raise NotInClass(
                f"no generator or product of two is a p-cycle on orbit {orb}"
            )
        cycles.append(cyc)

    pos = {pt: u for cyc in cycles for u, pt in enumerate(cyc)}
    coords = []
    for x in gens:
        pairs = []
        for cyc in cycles:
            b = pos[x.image(cyc[0])]
            a = (pos[x.image(cyc[1])] - b) % p
            if any(x.image(pt) != cyc[(a * u + b) % p] for u, pt in enumerate(cyc)):
                raise NotInClass(
                    f"generator {x!r} acts on orbit {sorted(cyc)} as no map "
                    "u -> a u + b of positions on its cycle"
                )
            pairs.append((a, b))
        coords.append(tuple(zip(*pairs)))
    return cycles, coords


def build_instance(H: PermGroup, p: int) -> InPInstance:
    """Recognise H as orbit-wise cyclic and build the full translation, or
    raise NotInClass: every generator must act on every orbit as a power
    of its cycle, and instance_from_code builds the rest from the shifts."""
    cycles, coords = recognise_orbits(H, p)
    for x, (scale, _) in zip(H.generators, coords):
        for a, cyc in zip(scale, cycles):
            if a != 1:
                raise NotInClass(
                    f"restriction of {x!r} to orbit {sorted(cyc)} is not a "
                    "power of the orbit cycle"
                )
    return instance_from_code(PrimeField(p), H.degree, cycles, [b for _, b in coords])


def instance_from_code(field: PrimeField, degree: int, cycles, rows) -> InPInstance:
    """The instance of the code spanned by rows, whose j-th entry is the
    exponent of cycles[j]; each cycle starts at its least point and steps
    to its next-smallest one, as recognise_orbits normalises them.

    Orbits are sorted by least point, the code is row reduced and the
    orbits relabelled so its pivot columns come first; the orbit
    generators and point maps come from the cycles.
    """
    p, k = field.p, len(cycles)
    by_point = sorted(range(k), key=lambda j: cycles[j][0])
    basis = independent_rows(p, [[row[j] for j in by_point] for row in rows])
    first = rref_standard(FpMatrix.from_rows(p, basis, k))

    # relabel orbits so pivot columns come first: the pivot columns of a
    # reduced echelon form are the unit vectors in row order
    order = list(first.pivots) + [j for j in range(1, k + 1) if j not in first.pivots]
    cycles = [tuple(cycles[by_point[j - 1]]) for j in order]
    mstd = first.mstd.permute_columns(tuple(order))
    if not mstd.is_standard():
        raise InvariantViolation("pivot-first relabelling must give standard form")

    point_orbit = {pt: i for i, cyc in enumerate(cycles) for pt in cyc}
    point_exp = {pt: u for cyc in cycles for u, pt in enumerate(cyc)}

    return InPInstance(
        field=field,
        degree=degree,
        orbits=tuple(tuple(sorted(cyc)) for cyc in cycles),
        orbit_gens=tuple(Permutation.from_cycles(degree, [cyc]) for cyc in cycles),
        matrix=mstd,
        dual=dual_matrix(mstd),
        orbit_cycles=tuple(cycles),
        point_orbit=point_orbit,
        point_exp=point_exp,
    )


# ---------------------------------------------------------------------------
# the overgroup L = B K in coordinates


def affine_perm(inst: InPInstance, pi=None, scale=None, shift=None) -> Permutation:
    """The element of L sending the u-th point of orbit i's cycle to the
    (scale[i] u + shift[i])-th point of orbit pi(i)'s cycle and fixing the
    points outside the orbits.  pi permutes the 1-based orbit indices and
    defaults to the identity; scale (units mod p) defaults to all ones and
    shift to all zeros, both indexed by 0-based orbit."""
    p, k = inst.p, inst.k
    if pi is not None and pi.degree != k:
        raise ValueError("index permutation must have degree k")
    if any(v is not None and len(v) != k for v in (scale, shift)):
        raise ValueError("length mismatch")
    if scale is not None and any(a % p == 0 for a in scale):
        raise ValueError("scale factors must be units")
    cycles = inst.orbit_cycles
    imgs = list(range(1, inst.degree + 1))
    for i, cyc in enumerate(cycles):
        target = cyc if pi is None else cycles[pi.image(i + 1) - 1]
        a = 1 if scale is None else scale[i]
        b = 0 if shift is None else shift[i]
        for u, pt in enumerate(cyc):
            imgs[pt - 1] = target[(a * u + b) % p]
    return Permutation(imgs)


def affine_parts(
    inst: InPInstance, l: Permutation
) -> tuple[Permutation, tuple[int, ...], tuple[int, ...]]:
    """The coordinates (pi, scale, shift) of l, read from the images of the
    first two points of every orbit cycle; raises ValueError when l is not
    the element of L they build, checked on every point."""
    if l.degree != inst.degree:
        raise ValueError("degree mismatch")
    p = inst.p
    pi, scale, shift = [], [], []
    for cyc in inst.orbit_cycles:
        x0, x1 = l.image(cyc[0]), l.image(cyc[1])
        j = inst.point_orbit.get(x0)
        if j is None or inst.point_orbit.get(x1) != j:
            raise ValueError("permutation does not permute the orbits")
        pi.append(j + 1)
        shift.append(inst.point_exp[x0])
        scale.append((inst.point_exp[x1] - inst.point_exp[x0]) % p)
    parts = (Permutation(pi), tuple(scale), tuple(shift))
    if affine_perm(inst, *parts) != l:
        raise ValueError("permutation is not an affine map between orbit cycles")
    return parts


def gamma_map(inst: InPInstance, g: Permutation) -> tuple[int, ...]:
    """Exponent vector of g, which must act as a power of the cycle on
    every orbit and fix everything else."""
    pi, scale, shift = affine_parts(inst, g)
    if not pi.is_identity() or any(a != 1 for a in scale):
        raise ValueError("permutation is not a product of orbit-cycle powers")
    return shift


def gamma_inv(inst: InPInstance, v) -> Permutation:
    """The product of orbit-cycle powers with the given exponents."""
    return affine_perm(inst, shift=tuple(v))


def exponent_scaling_perm(inst: InPInstance, i: int, d: int) -> Permutation:
    """The permutation of orbit i fixing its minimal point (the cycle base)
    and raising the cycle to the d-th power: it conjugates the orbit cycle
    g to g^d."""
    scale = [1] * inst.k
    scale[i] = d
    return affine_perm(inst, scale=scale)


def decompose_bk(inst: InPInstance, l: Permutation) -> tuple[Permutation, Permutation]:
    """Split l = b * kappa with b fixing every orbit setwise and kappa
    sending each orbit cycle point by point onto the cycle of its image
    orbit; raises if l is outside the overgroup."""
    pi, scale, shift = affine_parts(inst, l)
    return affine_perm(inst, None, scale, shift), affine_perm(inst, pi)


def xi_image(inst: InPInstance, l: Permutation) -> MonomialElement:
    """The monomial element describing how conjugation by l acts on
    exponent vectors: l's orbit permutation with its scale factors."""
    pi, scale, _ = affine_parts(inst, l)
    return MonomialElement(inst.p, scale, pi)


# ---------------------------------------------------------------------------
# stabiliser codes


def eliminate_column(mat: FpMatrix, col: int) -> FpMatrix:
    """Pivot column col to a single row and drop that row.

    Leaves the matrix unchanged when the column is already zero.  The
    result generates the subcode of rows vanishing at col.
    """
    p = mat.p
    rows = [list(r) for r in mat.rows]
    ci = col - 1
    piv = next((i for i in range(len(rows)) if rows[i][ci]), None)
    if piv is None:
        return mat
    inv = pow(rows[piv][ci], p - 2, p)
    prow = [x * inv % p for x in rows[piv]]
    out = []
    for i, row in enumerate(rows):
        if i == piv:
            continue
        f = row[ci]
        if f:
            row = [(x - f * y) % p for x, y in zip(row, prow)]
        out.append(tuple(row))
    return FpMatrix(p, mat.k, tuple(out))


# ---------------------------------------------------------------------------
# code -> group and equivalent-orbit swaps


def block_perm(p: int, scale, shift) -> Permutation:
    """The permutation of p*k points in k consecutive p-blocks sending
    point p*i + u + 1 to p*i + (scale[i]*u + shift[i]) mod p + 1."""
    return Permutation(
        p * i + (a * u + b) % p + 1
        for i, (a, b) in enumerate(zip(scale, shift))
        for u in range(p)
    )


def code_to_group(m: FpMatrix) -> PermGroup:
    """The group on p*k points with consecutive p-blocks whose exponent
    code is the row space of m."""
    if matrix_rank(m) != m.s or m.s == 0:
        raise ValueError("generator matrix must have full row rank")
    gens = [block_perm(m.p, [1] * m.k, row) for row in m.rows]
    return PermGroup.from_gens(m.p * m.k, gens)


def equiv_orbit_swap(inst: InPInstance, i: int, j: int, a: int) -> Permutation:
    """The involution exchanging orbits i and j (1-based) along the
    exponent-scaled pairing u -> a*u; it centralises any group whose code
    has column j equal to a times column i."""
    swap = list(range(1, inst.k + 1))
    swap[i - 1], swap[j - 1] = j, i
    scale = [1] * inst.k
    scale[i - 1], scale[j - 1] = a, pow(a, -1, inst.p)
    return affine_perm(inst, Permutation(swap), scale)


def equivalent_orbit_swaps(
    inst: InPInstance, mat: FpMatrix
) -> list[tuple[tuple[int, ...], list[int], list[Permutation]]]:
    """Orbits grouped by their column of mat up to scaling, zero columns
    forming one class, in order of least orbit index: each class with the
    ratio a of each column to its least one's (1 for the least) and the
    swaps exchanging its least orbit with each later one."""
    p = inst.p
    out = []
    for cell in column_equiv_classes(mat):
        lead = [next((x for x in mat.col(j) if x), 1) for j in cell]
        ratios = [a * pow(lead[0], p - 2, p) % p for a in lead]
        swaps = [equiv_orbit_swap(inst, cell[0], j, a) for j, a in zip(cell[1:], ratios[1:])]
        out.append((cell, ratios, swaps))
    return out


# ---------------------------------------------------------------------------
# collapsing equivalent orbits


@dataclass(frozen=True, eq=False)
class ReduceResult:
    """Data for computing a normaliser through one orbit per equivalence
    class: the reduced instance on the class representatives, the size of
    each one's class (in the reduced orbit order), the embedding of its
    normalising elements back to the full domain, and the centraliser."""

    instance: InPInstance
    reduced: InPInstance
    class_sizes: tuple[int, ...]
    centralizer_gens: tuple[Permutation, ...]
    # per class, keyed by the first point of its representative's cycle:
    # (j, a) for each orbit j in it, column j being a times the first one's
    _theta_data: dict = field(repr=False)

    def theta(self, u: Permutation) -> Permutation:
        """Extend a normalising element of the reduced group to the full
        domain, moving each orbit alongside its class representative; when
        no orbit collapsed, that is u itself.  If u moves the representative
        along (scale, shift), orbit j (column a times the representative's)
        goes to the same member of the image class (column b times its
        representative's) along x -> b (scale x / a + shift)."""
        if self.reduced is self.instance:
            return u
        inst, reduced, members = self.instance, self.reduced, self._theta_data
        pi, scale, shift = affine_parts(reduced, u)
        p, k = inst.p, inst.k
        images, scales, shifts = [0] * k, [0] * k, [0] * k
        for r, cyc in enumerate(reduced.orbit_cycles):
            src = members[cyc[0]]
            dst = members[reduced.orbit_cycles[pi.image(r + 1) - 1][0]]
            if len(src) != len(dst):
                raise ValueError("element mixes classes of different sizes")
            for (j, a), (t, b) in zip(src, dst):
                images[j - 1] = t
                scales[j - 1] = b * scale[r] * pow(a, p - 2, p) % p
                shifts[j - 1] = b * shift[r] % p
        return affine_perm(inst, Permutation(images), scales, shifts)


def reduce_equivalent_orbits(inst: InPInstance) -> ReduceResult:
    """Set up the reduction of the normaliser computation to one orbit per
    equivalence class; the reduced instance is the instance itself when
    the orbits are pairwise inequivalent."""
    orbit_classes = equivalent_orbit_swaps(inst, inst.matrix)
    classes = [cell for cell, _, _ in orbit_classes]
    cent = list(inst.orbit_gens)
    cent.extend(sw for _, _, cell_swaps in orbit_classes for sw in cell_swaps)

    reduced = inst
    if len(classes) < inst.k:
        # the pivot columns are distinct unit vectors with the least indices,
        # so each represents its class: the representatives keep the pivots
        # first in their order, and the projected rows stay a basis
        reps = [cell[0] - 1 for cell in classes]
        reduced = instance_from_code(
            inst.field,
            inst.degree,
            [inst.orbit_cycles[j] for j in reps],
            [[row[j] for j in reps] for row in inst.matrix.rows],
        )
    members = {
        inst.orbit_cycles[cell[0] - 1][0]: list(zip(cell, ratios))
        for cell, ratios, _ in orbit_classes
    }
    return ReduceResult(
        instance=inst,
        reduced=reduced,
        class_sizes=tuple(len(members[cyc[0]]) for cyc in reduced.orbit_cycles),
        centralizer_gens=tuple(cent),
        _theta_data=members,
    )
