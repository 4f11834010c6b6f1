"""Normalisers for groups whose orbit restrictions are dihedral of order 2p.

Recognition works in coordinates, through encode.recognise_orbits, which
the cyclic class shares.  On each orbit the rotations are the powers of
one p-cycle, normalised to start at the least point and step to the
next-smallest.  In these cycles every element is a pair (eps, b) of a sign
pattern and a shift vector: on orbit i it sends the u-th point of the
cycle to the (eps_i u + b_i)-th, with eps_i = +-1.  The rotations R = H^2
are the elements with eps = 1.  Their shifts form the rotation code, the
least F_p subspace that holds the shifts of the squares of the generators
and of their pairwise products and is closed under each generator's sign
flip v -> eps o v (conjugation).  The group splits over R
(Schur-Zassenhaus), and every complement of involutions is the stabiliser
of one point alpha_i per orbit.  alpha comes in closed form: it is the
point fixed by the complement found by averaging a section through F_2
pivot generators over their 2^rank patterns, so the complement costs
O(rank) per orbit and its rank has no limit.

The normaliser is then assembled from two cyclic-class searches.  The
first runs on the complement's sign code, the F_2 code of its patterns
(1 where eps_i = -1), read as an orbit-wise cyclic group of order 2 on k
two-point orbits; it gives kappa, the orbit permutations that fix the sign
code.  The second runs on the rotation code with the orbit permutations
restricted to kappa.  Where a code is all of F_p^k, as the rotation code
usually is, its search returns in closed form: every allowed orbit
permutation normalises.  Each generator of the rotation normaliser is
lifted by the one per-orbit rotation that sends the fixed points back onto
fixed points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import chain, combinations

from symnorm.encode import (
    InPInstance,
    NotInClass,
    affine_parts,
    affine_perm,
    gamma_inv,
    instance_from_code,
    recognise_orbits,
)
from symnorm.gfp import PrimeField, VectorSpan
from symnorm.perm import PermGroup, Permutation
from symnorm.search import (
    NormalizerResult,
    SearchConfig,
    full_search,
    instance_normalizer,
    verify_normalises,
)


@dataclass(frozen=True, eq=False)
class DihedralInstance:
    """A recognised orbit-wise dihedral group with its split: rotations,
    an involution complement and, per orbit, the point the complement
    fixes.  Orbits are in the order of the rotation part's cyclic-class
    instance."""

    degree: int
    group: PermGroup
    orbits: tuple[tuple[int, ...], ...]
    rotations: PermGroup  # the odd part, orbit-wise cyclic
    complement: PermGroup  # elementary abelian complement of involutions
    alpha: tuple[int, ...]  # alpha[i] is the point of orbit i fixed by it
    rot_inst: InPInstance  # the rotations, in the same orbit order
    signs: tuple[tuple[int, ...], ...]  # F_2 basis of the complement's sign code

    @property
    def p(self) -> int:
        return self.rot_inst.p

    @property
    def k(self) -> int:
        return len(self.orbits)


def _compose(x, y):
    """The coordinates (eps, b) of x * y: apply x, then y."""
    (ex, bx), (ey, by) = x, y
    return (
        tuple(e * f for e, f in zip(ex, ey)),
        tuple(f * b + c for f, b, c in zip(ey, bx, by)),
    )


def build_dihedral(H: PermGroup, p: int) -> DihedralInstance:
    """Recognise an orbit-wise dihedral group of order 2p per orbit and
    split it into rotations and an involution complement."""
    if p == 2:
        raise NotInClass("the dihedral class needs an odd prime orbit size, not 2")
    cycles, coords = recognise_orbits(H, p)
    for x, (scale, _) in zip(H.generators, coords):
        for a, cyc in zip(scale, cycles):
            if a not in (1, p - 1):
                raise NotInClass(
                    f"generator {x!r} acts on orbit {sorted(cyc)} neither as a "
                    "rotation nor as a reflection"
                )
    coords = [(tuple(1 if a == 1 else -1 for a in e), b) for e, b in coords]
    for i, cyc in enumerate(cycles):
        if all(e[i] == 1 for e, _ in coords):
            raise NotInClass(f"no reflection of orbit {sorted(cyc)}: it is cyclic")

    # rotations R = H^2: modulo the squares of the generators and of their
    # pairwise products the generators are commuting involutions, and R is
    # of odd order.  Its code is spanned by those squares' shifts and
    # closed under the generators' sign flips, which is conjugation.
    pairs = (_compose(x, y) for x, y in combinations(coords, 2))
    todo = [_compose(x, x)[1] for x in chain(coords, pairs)]
    flips = {e for e, _ in coords}
    span = VectorSpan(p)
    while todo:
        v = todo.pop()
        if span.add(v):
            todo += [[e * c for e, c in zip(f, v)] for f in flips]
    rot_inst = instance_from_code(PrimeField(p), H.degree, cycles, span.rows)

    # complement: F_2 elimination of the sign patterns in generator order,
    # each pivot tracked as (eps, b).  Averaging the section through the
    # pivots over its m = 2^rank elements s_r gives the complement fixing
    # alpha = -T / m, T = sum_r eps_r o b_r; fold T over the pivots with
    # E = sum_r eps_r.  Pivot q becomes the involution with pattern eps_q
    # fixing alpha, whose shift is (1 - eps_q) o alpha.
    pivots = []
    for x in coords:
        for q in pivots:
            if x[0][q[0].index(-1)] < 0:
                x = _compose(x, q)
        if -1 in x[0]:
            pivots.append(x)
    total, signs = [0] * len(cycles), [1] * len(cycles)
    for e, b in pivots:
        total = [(2 * t + f * c * s) % p for t, f, c, s in zip(total, e, b, signs)]
        signs = [s * (1 + f) % p for s, f in zip(signs, e)]
    alpha = [-t * pow(2, -len(pivots), p) % p for t in total]

    # the same in the orbit order of rot_inst
    order = [cycles.index(c) for c in rot_inst.orbit_cycles]
    complement = [
        affine_perm(
            rot_inst,
            scale=[e[j] % p for j in order],
            shift=[(1 - e[j]) * alpha[j] for j in order],
        )
        for e, _ in pivots
    ]
    rotations = [gamma_inv(rot_inst, r) for r in rot_inst.matrix.rows]
    return DihedralInstance(
        degree=H.degree,
        group=H,
        orbits=rot_inst.orbits,
        rotations=PermGroup.from_gens(H.degree, rotations),
        complement=PermGroup.from_gens(H.degree, complement),
        alpha=tuple(cycles[j][alpha[j]] for j in order),
        rot_inst=rot_inst,
        signs=tuple(tuple(int(e[j] < 0) for j in order) for e, _ in pivots),
    )


def normalizer_dihedral(
    inst: DihedralInstance, cfg: SearchConfig | None = None
) -> NormalizerResult:
    """Exact normaliser of an orbit-wise dihedral group in the symmetric
    group on its points.

    The first search runs on the complement's sign code: orbit i becomes
    the two points 2i+1, 2i+2, swapped by exactly the elements whose sign
    pattern is -1 at i.  The orbit permutations of its normaliser are those
    that fix the sign code, kappa, and they bound where the rotation
    normaliser can move orbits.  Each generator y = (pi, scale, shift) of
    the rotation normaliser is lifted to (pi, scale, shift'), with
    shift'_i = x_pi(i) - scale_i x_i and x_j the position of the fixed
    point alpha_j on its cycle: the one element of y times the orbit
    rotations that maps fixed points onto fixed points, built in one pass.
    The final group is generated by these lifts together with the group
    itself, and each of its generators is checked against the group.  Both
    searches share one deadline: the second gets what the first left of
    cfg.time_limit.

    The order is a closed form, |N| = |N_R| * p^(s - k), with N_R the
    rotation normaliser found and s the dimension of the rotation code.
    N_R starts from every orbit cycle, whether the search walks its tree
    or, with s = k, returns in closed form, so N_R contains the p^k orbit
    translations T and N_R = T x| S, where S is the stabiliser of
    the fixed points alpha; the lift y -> (pi, scale, shift') is the
    projection onto S, so the lifts generate S.  The group H = R x| C
    meets S in the complement C (a rotation fixing every alpha_j is
    trivial), hence |<S, H>| = |S| |H| / |C| = (|N_R| / p^k) * p^s.
    """
    cfg = cfg or SearchConfig()
    started = time.monotonic()
    rot, k = inst.rot_inst, inst.k

    # kappa, read off the sign-code normaliser: point 2i+1 goes to orbit
    # pi(i+1)'s pair, and the kernel is the 2^k swaps within the pairs
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(k)]
    sign_code = instance_from_code(PrimeField(2), 2 * k, pairs, inst.signs)
    sub2 = instance_normalizer(sign_code, "full", cfg)
    stats = {f"blocks_{key}": v for key, v in sub2.stats.items()}
    induced = [
        Permutation([(g.image(a) + 1) // 2 for a, _ in pairs]) for g in sub2.generators
    ]
    kappa = PermGroup.from_gens(k, induced, known_order=sub2.order >> k)

    # rotation normaliser with orbit permutations in kappa
    if cfg.time_limit is not None:
        cfg = replace(cfg, time_limit=cfg.time_limit - (time.monotonic() - started))
    sub_p = full_search(rot, cfg, allowed=kappa)
    stats.update({f"rotations_{key}": v for key, v in sub_p.stats.items()})

    # lift each generator y = (pi, scale, _) onto the fixed points: the
    # shift x[pi(i)] - scale[i] x[i] sends alpha_i to alpha_pi(i)
    x = [rot.point_exp[a] for a in inst.alpha]
    lifted = []
    for y in sub_p.generators:
        pi, scale, _ = affine_parts(rot, y)
        shift = [x[pi.image(i + 1) - 1] - a * x[i] for i, a in enumerate(scale)]
        lifted.append(affine_perm(rot, pi, scale, shift))
    group = PermGroup.from_gens(inst.degree, lifted + list(inst.group.generators))
    verify_normalises(inst.group, group.generators, 2 ** len(inst.signs) * rot.p**rot.s)
    stats["nodes"] = stats.get("blocks_nodes", 0) + stats.get("rotations_nodes", 0)
    stats["verified_generators"] = len(group.generators)
    order = sub_p.order // inst.p ** (rot.k - rot.s)
    return NormalizerResult(group.generators, order, stats, "dihedral")
