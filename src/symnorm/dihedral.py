"""Normalisers for groups whose orbit restrictions are dihedral of order 2p.

Such a group splits over its odd part: the rotations form a normal
subgroup living in the cyclic class, and a complement of involutions can
be chosen whose restriction to each orbit fixes exactly one point.  The
normaliser is then assembled from two cyclic-class searches: one for the
complement acting on a transversal of two-point blocks, one for the
rotation part with the orbit permutations restricted to those induced by
the first.  Each generator of the rotation normaliser is lifted by the one
per-orbit rotation that sends the fixed points back onto fixed points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from symnorm.encode import InPInstance, NotInClass, build_instance, gamma_inv
from symnorm.gfp import InvariantViolation, PrimeField, is_prime
from symnorm.perm import (
    PermGroup,
    Permutation,
    normal_closure,
    orbits_of,
    restrict_to,
)
from symnorm.search import (
    NormalizerResult,
    SearchConfig,
    full_search,
    normalizer_in_sym,
    verify_normalises,
)

_COMPLEMENT_RANK_LIMIT = 20  # 2^rank sections are enumerated


@dataclass(frozen=True, eq=False)
class DihedralInstance:
    """A recognised orbit-wise dihedral group with its split: rotations,
    an involution complement, and per orbit the complement's reflection,
    the point it fixes and a rotation cycle rooted there.  Orbits are in
    the order of the rotation part's cyclic-class instance."""

    field: PrimeField
    degree: int
    group: PermGroup
    orbits: tuple[tuple[int, ...], ...]
    rotations: PermGroup  # the odd part, orbit-wise cyclic
    complement: PermGroup  # elementary abelian complement of involutions
    alpha: tuple[int, ...]  # alpha[i] is the point of orbit i fixed by it
    reflections: tuple[Permutation, ...]  # restriction of the complement per orbit
    cycles: tuple[tuple[int, ...], ...]  # cycles[i][0] == alpha[i]
    rot_inst: InPInstance  # the rotations, in the same orbit order

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def k(self) -> int:
        return len(self.orbits)


def _two_part_complement(H: PermGroup, patterns, p: int):
    """An elementary abelian 2-complement to the rotation subgroup.

    patterns maps chosen generators of H to their reflection pattern over
    the orbits (a vector over F_2); the section through pattern-pivot
    generators is averaged over the pattern group to make it a
    homomorphism, which works because the rotation part is abelian of odd
    exponent p.  Returns involution generators, one per pivot.
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


def build_dihedral(H: PermGroup, p: int) -> DihedralInstance:
    """Recognise an orbit-wise dihedral group of order 2p per orbit and
    split it into rotations and an involution complement."""
    if not is_prime(p) or p == 2:
        raise NotInClass("the dihedral class needs an odd prime orbit size")
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

    # rotations: H^2, the normal closure of the squares of the generators
    # and of their pairwise products (modulo those, the generators are
    # commuting involutions); the rotations are of odd order, so H^2 is all
    # of them.  A reflection-only generating set needs the products.
    gens = H.generators
    squares = [x * x for x in gens]
    rotations = normal_closure(gens, squares, H.degree)
    pair_squares = ((x * y) ** 2 for i, x in enumerate(gens) for y in gens[i + 1 :])
    extra = [g for g in pair_squares if not rotations.contains(g)]
    if extra:
        rotations = normal_closure(gens, squares + extra, H.degree)
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
    comp_gens = _two_part_complement(H, patterns, p)
    complement = PermGroup.from_gens(H.degree, comp_gens)
    for g in complement.generators:
        if not (g * g).is_identity():
            raise InvariantViolation("complement generators must be involutions")

    # per orbit: reflection, fixed point, and the cycle of the first
    # rotation generator moving the orbit, rooted at the fixed point
    reflections = []
    alphas = []
    cycles = []
    for orb in rot_inst.orbits:
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
        g0 = next(x for x in rotations.generators if x.image(orb[0]) != orb[0])
        cyc = [fixed[0]]
        while len(cyc) < p:
            cyc.append(g0.image(cyc[-1]))
        reflections.append(refl)
        alphas.append(fixed[0])
        cycles.append(tuple(cyc))

    return DihedralInstance(
        field=rot_inst.field,
        degree=H.degree,
        group=H,
        orbits=rot_inst.orbits,
        rotations=rotations,
        complement=complement,
        alpha=tuple(alphas),
        reflections=tuple(reflections),
        cycles=tuple(cycles),
        rot_inst=rot_inst,
    )


def _is_rotation(r: Permutation, orb) -> bool:
    """True when the restriction moves every point of its orbit (an
    involution fixes one)."""
    return all(r.image(q) != q for q in orb)


def _transversal_blocks(inst: DihedralInstance) -> list[tuple[int, int]]:
    """One nontrivial 2-point block of the complement per orbit, the points
    at positions u and -u of its cycle: u is the position of the least
    non-fixed point of the orbit holding the least point."""
    first = min(range(inst.k), key=lambda i: inst.orbits[i][0])
    cyc = inst.cycles[first]
    u = cyc.index(min(cyc[1:]))
    return [tuple(sorted((c[u], c[-u]))) for c in inst.cycles]


def normalizer_dihedral(
    inst: DihedralInstance, cfg: SearchConfig | None = None
) -> NormalizerResult:
    """Exact normaliser of an orbit-wise dihedral group in the symmetric
    group on its points.

    The complement is normalised block-wise on a transversal of two-point
    blocks; the permutations it induces on the orbits bound where the
    rotation normaliser can move orbits.  Each generator y of the rotation
    normaliser is lifted to tau = y * prod_j g_j^(r_j), where g_j is the
    rotation of orbit j and r_j sends the image of a fixed point back to
    the fixed point alpha_j: the one element of y times the orbit rotations
    that maps fixed points onto fixed points.  The final group is
    generated by these lifts together with the group itself.  Both
    searches share one deadline: the second gets what the first left of
    cfg.time_limit.

    The order is a closed form, |N| = |N_R| * p^(s - k), with N_R the
    rotation normaliser found and s the dimension of the rotation code.
    The search seeds N_R with every orbit cycle, so N_R contains the p^k
    orbit translations T and N_R = T x| S, where S is the stabiliser of
    the fixed points alpha; y -> y * prod_j g_j^(r_j) is the projection
    onto S, so the lifts generate S.  The group H = R x| C meets S in the
    complement C (a rotation fixing every alpha_j is trivial), hence
    |<S, H>| = |S| |H| / |C| = (|N_R| / p^k) * p^s.
    """
    cfg = cfg or SearchConfig()
    started = time.monotonic()
    rot = inst.rot_inst
    stats: dict = {}

    # normaliser of the complement on the block transversal
    blocks = _transversal_blocks(inst)
    gamma_pts = sorted(q for blk in blocks for q in blk)
    h2_restricted = PermGroup.from_gens(
        inst.degree, [restrict_to(g, gamma_pts) for g in inst.complement.generators]
    )
    sub2 = normalizer_in_sym(h2_restricted, 2, method="full", cfg=cfg)
    stats.update({f"blocks_{key}": v for key, v in sub2.stats.items()})

    # rotation normaliser with orbit permutations restricted to those
    # induced through the blocks
    lookup = {frozenset(b): i + 1 for i, b in enumerate(blocks)}
    induced = []
    for g in sub2.generators:
        imgs = [lookup.get(frozenset(g.image(q) for q in blk)) for blk in blocks]
        if None in imgs:
            raise InvariantViolation("block normaliser must permute the blocks")
        induced.append(Permutation(imgs))
    kappa_group = PermGroup.from_gens(inst.k, induced)
    if cfg.time_limit is not None:
        cfg = replace(cfg, time_limit=cfg.time_limit - (time.monotonic() - started))
    sub_p = full_search(rot, cfg, kappa_group=kappa_group)
    stats.update({f"rotations_{key}": v for key, v in sub_p.stats.items()})

    # lift each generator by the rotation correction onto the fixed points
    lifted = []
    for y in sub_p.generators:
        shift = [0] * inst.k
        for a in inst.alpha:
            pt = y.image(a)
            j = rot.point_orbit[pt]
            shift[j] = rot.point_exp[inst.alpha[j]] - rot.point_exp[pt]
        lifted.append(y * gamma_inv(rot, shift))
    group = PermGroup.from_gens(inst.degree, lifted + list(inst.group.generators))
    verify_normalises(inst.group, group.generators)
    stats["nodes"] = stats.get("blocks_nodes", 0) + stats.get("rotations_nodes", 0)
    stats["verified_generators"] = len(group.generators)
    order = sub_p.order // inst.p ** (rot.k - rot.s)
    return NormalizerResult(group.generators, order, stats, "dihedral")
