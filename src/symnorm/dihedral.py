"""Normalisers for groups whose orbit restrictions are dihedral of order 2p.

Such a group splits over its odd part: the rotations form a normal
subgroup living in the cyclic class, and a complement of involutions can
be chosen whose restriction to each orbit fixes exactly one point.  The
normaliser is then assembled from two cyclic-class searches: one for the
complement acting on a transversal of two-point blocks, one for the
rotation part with the orbit permutations restricted to those induced by
the first, with the results lifted through the one scaling-map-per-orbit
subgroup that both computations share.
"""

from __future__ import annotations

from dataclasses import dataclass

from symnorm.encode import (
    InPInstance,
    NotInClass,
    build_instance,
    decompose_bk,
    exponent_scaling_perm,
    gamma_map,
    kappa_element,
)
from symnorm.gfp import PrimeField, is_prime
from symnorm.perm import (
    PermGroup,
    Permutation,
    normal_closure,
    orbits_of,
    restrict_to,
)
from symnorm.search import NormalizerResult, SearchConfig, full_search, normalizer_in_sym

_COMPLEMENT_RANK_LIMIT = 20  # 2^rank sections are enumerated


@dataclass(frozen=True, eq=False)
class DihedralInstance:
    """A recognised orbit-wise dihedral group with its split: rotations,
    an involution complement, the per-orbit fixed points, and fixed-point
    aligned orbit bijections."""

    field: PrimeField
    degree: int
    group: PermGroup
    orbits: tuple[tuple[int, ...], ...]
    rotations: PermGroup  # the odd part, orbit-wise cyclic
    complement: PermGroup  # elementary abelian complement of involutions
    alpha: tuple[int, ...]  # alpha[i] is the point of orbit i fixed by it
    orbit_gens: tuple[Permutation, ...]
    reflections: tuple[Permutation, ...]  # restriction of the complement per orbit
    phibars: tuple[Permutation, ...]

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def k(self) -> int:
        return len(self.orbits)


def _two_part_complement(H: PermGroup, rotations: PermGroup, patterns):
    """An elementary abelian 2-complement to the rotation subgroup.

    patterns maps chosen generators of H to their reflection pattern over
    the orbits (a vector over F_2); the section through pattern-pivot
    generators is averaged over the pattern group to make it a
    homomorphism, which works because the rotation part is abelian of odd
    order.  Returns involution generators, one per pivot.
    """
    pivots: list[tuple[tuple[int, ...], Permutation]] = []
    for x, vec in patterns.items():
        w = list(vec)
        elem = x
        for pvec, pelem in pivots:
            lead = next(i for i, v in enumerate(pvec) if v)
            if w[lead]:
                w = [(a + b) % 2 for a, b in zip(w, pvec)]
                elem = elem * pelem  # involution pattern adds mod 2
        if any(w):
            pivots.append((tuple(w), elem))
    rank = len(pivots)
    if rank == 0:
        return []
    if rank > _COMPLEMENT_RANK_LIMIT:
        raise NotInClass(
            f"complement rank {rank} exceeds the supported limit "
            f"{_COMPLEMENT_RANK_LIMIT}"
        )
    ident = Permutation.identity(H.degree)

    # fixed section through the pivot elements, indexed by coefficient bits
    section: dict[tuple[int, ...], Permutation] = {(0,) * rank: ident}
    for bits in sorted(
        (tuple((m >> i) & 1 for i in range(rank)) for m in range(1, 2**rank))
    ):
        g = ident
        for i, bit in enumerate(bits):
            if bit:
                g = g * pivots[i][1]
        section[bits] = g

    m = 2**rank
    p = _odd_exponent(rotations)
    lam = pow(m % p, -1, p)
    gens = []
    for i in range(rank):
        q = tuple(1 if j == i else 0 for j in range(rank))
        sq = section[q]
        acc = ident
        for r, sr in section.items():
            qr = tuple((a + b) % 2 for a, b in zip(q, r))
            fqr = sq * sr * section[qr].inverse()
            acc = acc * fqr  # rotation part is abelian, order is irrelevant
        correction = acc ** (-lam % p)
        gens.append(correction * sq)
    return gens


def _odd_exponent(rotations: PermGroup) -> int:
    # every orbit cycle has the same prime length
    g = rotations.generators[0]
    for cyc in g.cycles():
        return len(cyc)
    raise ValueError("trivial rotation part")


def build_dihedral(H: PermGroup, p: int) -> DihedralInstance:
    """Recognise an orbit-wise dihedral group of order 2p per orbit and
    split it into rotations and an involution complement."""
    if not is_prime(p) or p == 2:
        raise NotInClass("the dihedral class needs an odd prime orbit size")
    fld = PrimeField(p)
    support = H.support()
    if not support:
        raise NotInClass("the trivial group has no dihedral orbits")
    orbits = [tuple(o) for o in orbits_of(H.generators, support)]
    for orb in orbits:
        if len(orb) != p:
            raise NotInClass(f"orbit {list(orb)} has size {len(orb)}, expected {p}")
        restr = PermGroup.from_gens(H.degree, [restrict_to(x, orb) for x in H.generators])
        if restr.order() != 2 * p:
            raise NotInClass(
                f"restriction to orbit {list(orb)} has order {restr.order()}, "
                f"expected {2 * p}"
            )

    # rotations: normal closure of the squares of the generators
    rotations = normal_closure(H.generators, [x * x for x in H.generators], H.degree)
    if rotations.is_trivial():
        raise NotInClass("no rotations: restrictions are not dihedral")
    rot_inst = build_instance(rotations, p)
    if set(rot_inst.orbits) != set(orbits):
        raise NotInClass("rotation part does not act on every orbit")

    # reflection patterns of the generators over the orbits
    patterns = {}
    for x in H.generators:
        vec = []
        for orb in orbits:
            r = restrict_to(x, orb)
            if r.is_identity() or _is_rotation(r, orb):
                vec.append(0)
            else:
                vec.append(1)
        patterns[x] = tuple(vec)
    comp_gens = _two_part_complement(H, rotations, patterns)
    complement = PermGroup.from_gens(H.degree, comp_gens)
    for g in complement.generators:
        if not (g * g).is_identity():
            raise AssertionError("complement generators must be involutions")

    # per-orbit data: reflection, fixed point, aligned bijections
    reflections = []
    alphas = []
    for orb in orbits:
        refl = None
        for g in comp_gens:
            r = restrict_to(g, orb)
            if not r.is_identity():
                if refl is not None and r != refl:
                    raise NotInClass("complement restriction is not order two")
                refl = r
        if refl is None:
            raise NotInClass(f"complement acts trivially on orbit {list(orb)}")
        fixed = [q for q in orb if refl.image(q) == q]
        if len(fixed) != 1:
            raise NotInClass("orbit reflection must fix exactly one point")
        reflections.append(refl)
        alphas.append(fixed[0])

    # orbit cycles rooted at the fixed points
    gens = []
    cycles = []
    for i, orb in enumerate(orbits):
        g0 = None
        for x in rotations.generators:
            r = restrict_to(x, orb)
            if not r.is_identity():
                g0 = r
                break
        assert g0 is not None
        cyc = [alphas[i]]
        cur = g0.image(alphas[i])
        while cur != alphas[i]:
            cyc.append(cur)
            cur = g0.image(cur)
        gens.append(g0)
        cycles.append(tuple(cyc))

    phibars = [Permutation.identity(H.degree)]
    for i in range(1, len(orbits)):
        imgs = list(range(1, H.degree + 1))
        for a, b in zip(cycles[0], cycles[i]):
            imgs[a - 1] = b
            imgs[b - 1] = a
        phibars.append(Permutation(imgs))
        if gens[0].conj(phibars[i]) != gens[i]:
            raise AssertionError("orbit bijection must conjugate the base rotation")

    return DihedralInstance(
        field=fld,
        degree=H.degree,
        group=H,
        orbits=tuple(orbits),
        rotations=rotations,
        complement=complement,
        alpha=tuple(alphas),
        orbit_gens=tuple(gens),
        reflections=tuple(reflections),
        phibars=tuple(phibars),
    )


def _is_rotation(r: Permutation, orb) -> bool:
    """True when the restriction moves every point of its orbit (an
    involution fixes one)."""
    return all(r.image(q) != q for q in orb)


def _transversal_blocks(inst: DihedralInstance) -> list[tuple[int, int]]:
    """One nontrivial 2-point block of the complement per orbit: the block
    of the first orbit containing its minimal non-fixed point, transported
    along the aligned bijections."""
    first = inst.orbits[0]
    start = min(q for q in first if q != inst.alpha[0])
    blk0 = (start, inst.reflections[0].image(start))
    blocks = [tuple(sorted(blk0))]
    for i in range(1, inst.k):
        phi = inst.phibars[i]
        blocks.append(tuple(sorted((phi.image(blk0[0]), phi.image(blk0[1])))))
    return blocks


def theta_map(inst: DihedralInstance, g: Permutation, blocks=None) -> Permutation:
    """Transfer a permutation of the transversal blocks to the product of
    orbit bijections inducing the same orbit permutation."""
    if blocks is None:
        blocks = _transversal_blocks(inst)
    lookup = {frozenset(b): i for i, b in enumerate(blocks)}
    imgs = [0] * inst.k
    for i, blk in enumerate(blocks):
        target = frozenset(g.image(q) for q in blk)
        j = lookup.get(target)
        if j is None:
            raise ValueError("element does not permute the transversal blocks")
        imgs[i] = j + 1
    pi = Permutation(imgs)
    return kappa_element(_rotation_instance_view(inst), pi)


def _rotation_instance_view(inst: DihedralInstance) -> InPInstance:
    """The rotation part as a cyclic-class instance in the dihedral frame:
    same orbit order, the fixed-point-rooted cycles, the aligned
    bijections.  The matrix is informational (its pivots may not lead);
    only the orbit scaffolding is consumed."""
    cached = getattr(inst, "_rotation_view", None)
    if cached is not None:
        return cached
    from symnorm.encode import gamma_inv
    from symnorm.gfp import FpMatrix, dual_matrix, rref_standard, independent_rows

    p, k = inst.p, inst.k
    cycles = []
    point_orbit = {}
    point_exp = {}
    for i, orb in enumerate(inst.orbits):
        cyc = [inst.alpha[i]]
        cur = inst.orbit_gens[i].image(inst.alpha[i])
        while cur != inst.alpha[i]:
            cyc.append(cur)
            cur = inst.orbit_gens[i].image(cur)
        cycles.append(tuple(cyc))
        for u, pt in enumerate(cyc):
            point_orbit[pt] = i
            point_exp[pt] = u

    view = InPInstance(
        field=inst.field,
        degree=inst.degree,
        orbits=inst.orbits,
        orbit_gens=inst.orbit_gens,
        phibars=inst.phibars,
        matrix=FpMatrix(p, k, ()),
        dual=FpMatrix(p, k, ()),
        standard_gens=(),
        orbit_cycles=tuple(cycles),
        point_orbit=point_orbit,
        point_exp=point_exp,
    )
    # the view only routes kappa/exponent constructions; gamma vectors of the
    # rotation generators give it a real matrix for completeness
    vectors = [gamma_map(view, x) for x in inst.rotations.generators]
    basis = independent_rows(p, vectors)
    mat = rref_standard(FpMatrix.from_rows(p, basis, k)).mstd
    object.__setattr__(view, "matrix", mat)
    try:
        object.__setattr__(view, "dual", dual_matrix(mat))
    except ValueError:
        pass
    object.__setattr__(
        view, "standard_gens", tuple(gamma_inv(view, row) for row in mat.rows)
    )
    object.__setattr__(inst, "_rotation_view", view)
    return view


def normalizer_dihedral(
    inst: DihedralInstance, cfg: SearchConfig | None = None
) -> NormalizerResult:
    """Exact normaliser of an orbit-wise dihedral group in the symmetric
    group on its points.

    The complement is normalised block-wise on a transversal of two-point
    blocks; the permutations it induces on the orbits bound where the
    rotation normaliser can move orbits; the two results meet inside the
    subgroup generated by per-orbit scaling maps rooted at the fixed
    points, and the final group is that meet together with the group
    itself.
    """
    cfg = cfg or SearchConfig()
    p, k = inst.p, inst.k
    fld = inst.field
    stats: dict = {}

    # normaliser of the complement on the block transversal
    blocks = _transversal_blocks(inst)
    gamma_pts = sorted(q for blk in blocks for q in blk)
    h2_restricted = PermGroup.from_gens(
        inst.degree, [restrict_to(g, gamma_pts) for g in inst.complement.generators]
    )
    sub2 = normalizer_in_sym(h2_restricted, 2, method="full", cfg=cfg)
    stats.update({f"blocks_{key}": v for key, v in sub2.stats.items()})

    # orbit permutations induced through the blocks
    theta_perms = []
    for g in sub2.generators:
        lookup = {frozenset(b): i for i, b in enumerate(blocks)}
        imgs = [0] * k
        ok = True
        for i, blk in enumerate(blocks):
            target = frozenset(g.image(q) for q in blk)
            j = lookup.get(target)
            if j is None:
                ok = False
                break
            imgs[i] = j + 1
        if not ok:
            raise AssertionError("block normaliser must permute the blocks")
        theta_perms.append(Permutation(imgs))
    theta_group = PermGroup.from_gens(k, theta_perms)

    # rotation normaliser with orbit permutations restricted to the image
    rot_inst = build_instance(inst.rotations, p)
    orbit_index = {orb: i for i, orb in enumerate(rot_inst.orbits)}
    to_rot = [orbit_index[orb] for orb in inst.orbits]  # dihedral idx -> rot idx
    translated = []
    for piv in theta_group.generators:
        imgs = [0] * k
        for a in range(1, k + 1):
            di = to_rot.index(a - 1)  # dihedral index (0-based) of rot index a
            dj = piv.image(di + 1) - 1
            imgs[a - 1] = to_rot[dj] + 1
        translated.append(Permutation(imgs))
    kappa_group = PermGroup.from_gens(k, translated)
    sub_p = full_search(rot_inst, cfg, kappa_group=kappa_group)
    stats.update({f"rotations_{key}": v for key, v in sub_p.stats.items()})

    # lift through the scaling-map subgroup shared by both computations
    view = _rotation_instance_view(inst)
    t = fld.t
    ci = [
        exponent_scaling_perm(view, i, t, fix_point=inst.alpha[i])
        for i in range(k)
    ]
    lifted = []
    for y in sub_p.generators:
        b, kap = decompose_bk(view, y)
        diag = []
        for i, g in enumerate(view.orbit_gens):
            conj = g.conj(b)
            im = conj.image(view.orbit_cycles[i][0])
            diag.append(view.point_exp[im])
        tau = Permutation.identity(inst.degree)
        for i, d in enumerate(diag):
            e = fld.log_t(d)
            if e % (p - 1):
                tau = tau * ci[i] ** (e % (p - 1))
        tau = tau * kap
        lifted.append(tau)

    gens = [g for g in lifted if not g.is_identity()]
    gens.extend(inst.group.generators)
    group = PermGroup.from_gens(inst.degree, gens)

    hchain = inst.group.chain()
    for g in group.generators:
        for x in inst.group.generators:
            if not hchain.contains(x.conj(g)):
                raise AssertionError("result generator fails to normalise the input")
    stats["nodes"] = stats.get("blocks_nodes", 0) + stats.get("rotations_nodes", 0)
    stats["verified_generators"] = len(group.generators)
    return NormalizerResult(group.generators, group.order(), stats, "dihedral")
