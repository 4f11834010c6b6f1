"""Backtrack search for the full normaliser of an orbit-wise cyclic group.

The normaliser lives in the wreath-like overgroup generated by per-orbit
affine maps and orbit exchanges, so after collecting the orbit-fixing part
directly, the search walks assignments of orbit images (a tree inside the
symmetric group on orbit indices), pruning with code invariants: linear
dependencies among columns, stabiliser-code column classes and weight
enumerators, zero-pattern implications, domain all-difference propagation,
and orbit-minimality against the group found so far.  Leaves are decided
exactly by comparing canonical representatives.  A depth-limited variant
stops at the code dimension and enumerates scalings instead.  When the code
is all of F_p^k, every allowed orbit permutation normalises, and the search
returns the normaliser in closed form without visiting a node.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

from symnorm.canon import CanonResult, canonical_rep, kappa_feasible, support_partitions
from symnorm.encode import (
    InPInstance,
    NotInClass,
    affine_parts,
    affine_perm,
    build_instance,
    decompose_bk,
    eliminate_column,
    equivalent_orbit_swaps,
    instance_from_code,
    reduce_equivalent_orbits,
    xi_image,
)
from symnorm.gfp import (
    FpMatrix,
    InvariantViolation,
    VectorSpan,
    column_equiv_classes,
    mat_inverse,
    mat_mul,
    member_row_space,
    min_weight_vectors,
    normalized_column,
    scalings_matching_columns,
    weight_enumerator,
)
from symnorm.perm import PermGroup, Permutation, StabChain, orbits_of


class SearchTimeout(Exception):
    """The configured wall-clock limit was hit mid-search."""


@dataclass
class SearchConfig:
    """Which pruning rules a search uses, and its wall-clock limit."""

    use_lds: bool = True
    use_stabs: bool = True
    use_deep: bool = True
    use_alldiff: bool = True
    use_dual_partitions: bool = True
    time_limit: float | None = None  # seconds


@dataclass(frozen=True)
class NormalizerResult:
    generators: tuple[Permutation, ...]
    order: int
    stats: dict
    method: str


class FoundGroup:
    """The group of normalising elements found so far, kept as its orbit
    permutations on a chain over the k orbit indices.  Every generator g is
    verified: it lies in the overgroup, and w = xi_image(g), the action of
    conjugation by g on exponent vectors, maps each code row into the code.
    The kernel of g -> w.perm is known: for a normalising (id, scale, shift),
    scale o r_i is a code word nonzero among the pivots only at column i, so
    it is scale_i * r_i.  So scale is constant on the columns of each of the
    c cells of rows that canon.support_partitions ends with, and the shift
    is free: norm_b, the starting generators, gives all p^k (p-1)^c.  A
    verified g is in the group exactly when w.perm is in the index chain;
    the order is p^k (p-1)^c |index group|."""

    def __init__(self, inst: InPInstance):
        self.inst = inst
        self.gens: list[Permutation] = []
        self.index_chain = StabChain(
            inst.k, (), base_prefix=tuple(range(1, inst.k + 1))
        )
        self.row_cells = support_partitions(inst.matrix)[-1]
        for g in norm_b(inst, self.row_cells):
            self.check(g)  # its orbit permutation is the identity
            self.gens.append(g)

    def check(self, g: Permutation) -> Permutation:
        """g's orbit permutation; raises InvariantViolation unless g lies
        in the overgroup and normalises the group."""
        inst = self.inst
        try:
            w = xi_image(inst, g)
        except ValueError as exc:
            raise InvariantViolation("found element is outside the overgroup") from exc
        for row in inst.matrix.rows:
            img = w.apply(row)  # a row mapped onto itself needs no test
            if img != row and member_row_space(img, inst.matrix) is None:
                raise InvariantViolation("found element does not normalise the group")
        return w.perm

    def add(self, g: Permutation) -> bool:
        pi = self.check(g)
        if pi.is_identity() or self.index_chain.contains(pi):
            return False
        self.gens.append(g)
        self.index_chain.extend(pi)
        return True

    def index_orbit(self, prefix_len: int, pt: int) -> set[int]:
        return self.index_chain.orbit_under_stabilizer(prefix_len, pt)

    def order(self, index_order: int | None = None) -> int:
        inst = self.inst  # index_order defaults to the index chain's order
        index_order = index_order or self.index_chain.order()
        return inst.p**inst.k * (inst.p - 1) ** len(self.row_cells) * index_order


# ---------------------------------------------------------------------------
# the orbit-fixing part


def norm_b(inst: InPInstance, row_cells=None) -> list[Permutation]:
    """Generators of the orbit-fixing normalising elements: the orbit
    cycles themselves plus, per disjoint direct factor, one map raising
    every cycle in the factor to the primitive-element power.  The factors
    are the columns met by each cell of row_cells, which defaults to the
    last partition of canon.support_partitions; the cells come in order of
    their least row, the factors so in order of their least column."""
    gens = list(inst.orbit_gens)
    t = inst.field.t
    if t != 1:
        if row_cells is None:
            row_cells = support_partitions(inst.matrix)[-1]
        rows = inst.matrix.rows
        for cell in row_cells:
            scale = [
                t if any(rows[i - 1][j] for i in cell) else 1 for j in range(inst.k)
            ]
            gens.append(affine_perm(inst, scale=scale))
    return gens


def _dual_mirror(inst: InPInstance, l: Permutation) -> Permutation:
    """l = b * kappa with its orbit-fixing part inverted, b^-1 * kappa: the
    map (D, pi) -> (D^-1, pi) between the monomial automorphisms of the code
    and those of its dual, on normalising elements."""
    b, kap = decompose_bk(inst, l)
    return b.inverse() * kap


# ---------------------------------------------------------------------------
# domain initialisation


def _class_sizes(m: FpMatrix) -> tuple[tuple[int, ...], list[int]]:
    """Sizes of the column classes of m (gfp.column_equiv_classes): the
    sorted multiset, and the size of each column's class."""
    classes = column_equiv_classes(m)
    per_col = [0] * m.k
    for cell in classes:
        for j in cell:
            per_col[j - 1] = len(cell)
    return tuple(sorted(len(cell) for cell in classes)), per_col


def domains_init(
    inst: InPInstance,
    found: FoundGroup,
    cfg: SearchConfig | None = None,
    allowed=None,
) -> list[set[int]]:
    """Initial candidate images for every orbit, the meet of the invariant
    partitions; equivalent dual orbits also contribute normalising
    elements to the found group as a side effect (their centralising
    swaps, with the orbit-fixing part inverted), those whose orbit
    permutation the predicate allowed accepts."""
    cfg = cfg or SearchConfig()
    k, p = inst.k, inst.p
    keyparts: list[list] = []

    # dual orbit equivalence: class sizes partition the indices, and each
    # equivalent pair yields a normalising element; classes are taken in
    # order of their normalised dual column, which fixes the generator order
    classes = equivalent_orbit_swaps(inst, inst.dual)
    for _, _, swaps in sorted(
        classes, key=lambda c: normalized_column(inst.dual.col(c[0][0]), p)
    ):
        for swap in swaps:
            if allowed is None or allowed(affine_parts(inst, swap)[0]):
                found.add(_dual_mirror(inst, swap))
    if cfg.use_dual_partitions:
        class_size = {j: len(cell) for cell, _, _ in classes for j in cell}
        keyparts.append([class_size[j] for j in range(1, k + 1)])

    # stabiliser class-size profiles, for the code and its dual
    codes = [inst.matrix]
    if cfg.use_dual_partitions and inst.dual.s:
        codes.append(inst.dual)
    for m in codes:
        keyparts.append(
            [_class_sizes(eliminate_column(m, j))[0] for j in range(1, k + 1)]
        )

    # minimum-weight codeword incidence counts
    keyparts.append(min_weight_vectors(inst.matrix)[1])

    meet_keys = [tuple(part[i] for part in keyparts) for i in range(k)]
    doms = []
    for i in range(k):
        doms.append({j + 1 for j in range(k) if meet_keys[j] == meet_keys[i]})
    return doms


# ---------------------------------------------------------------------------
# pruning rules: domain sets are never changed in place, so domain lists may
# share them; a rule copies the list and rebinds the entries it narrows


def build_ld_sets(m: FpMatrix, pivots) -> list[tuple[int, ...]]:
    """For each non-pivot column, the minimally dependent set made of that
    column and the pivot columns appearing in its expansion.  pivots[r] is
    the column where row r of m has its unit entry: 1..s for the code in
    standard form, s+1..k for its dual."""
    out = []
    for i in range(1, m.k + 1):
        if i not in pivots:
            out.append((i, *(c for c, row in zip(pivots, m.rows) if row[i - 1])))
    return out


def check_lds(mat: FpMatrix, ld_sets, alpha, doms) -> list[set[int]]:
    """Restrict the image of the single unassigned member of each dependent
    set to the span of the assigned members' image columns."""
    d = len(alpha)
    doms = list(doms)
    for lds in ld_sets:
        unassigned = [i for i in lds if i > d]
        if len(unassigned) != 1:
            continue
        target = unassigned[0]
        span = VectorSpan(mat.p, [mat.col(alpha[j - 1]) for j in lds if j <= d])
        doms[target - 1] = {
            c for c in doms[target - 1] if span.contains(mat.col(c))
        }
    return doms


def compare_stabs(
    mstab: FpMatrix,
    src_sizes: tuple[tuple[int, ...], list[int]],
    mstab_im: FpMatrix,
    alpha,
    doms,
    wcache: dict | None = None,
) -> tuple[bool, list[set[int]]]:
    """Compare stabiliser codes of the assigned orbits and their images:
    fail on mismatched dimensions or class-size multisets, refine the
    domains of unassigned orbits by class size, and fail on differing
    weight enumerators unless weight_enumerator refuses them (both codes
    have the same p^s, so it refuses both or neither).  src_sizes is
    _class_sizes(mstab), which the search computes once per depth; wcache
    keeps the enumerators by matrix rows."""
    doms = list(doms)
    if mstab.s != mstab_im.s:
        return False, doms
    src_multiset, src_per_col = src_sizes
    im_multiset, im_per_col = _class_sizes(mstab_im)
    if src_multiset != im_multiset:
        return False, doms
    d = len(alpha)
    for i in range(d + 1, mstab.k + 1):
        want = src_per_col[i - 1]
        doms[i - 1] = {j for j in doms[i - 1] if im_per_col[j - 1] == want}
    if wcache is None:
        wcache = {}
    for m in (mstab, mstab_im):
        if m.rows not in wcache:
            wcache[m.rows] = weight_enumerator(m)
    return wcache[mstab.rows] == wcache[mstab_im.rows], doms


def deep_prune(mstd: FpMatrix, alpha, doms) -> list[set[int]]:
    """Zero-pattern implication: when row i vanishes on the assigned image
    columns wherever the unassigned column's expansion needs it, the image
    of that column must avoid row i's support."""
    s, k, p = mstd.s, mstd.k, mstd.p
    d = len(alpha)
    doms = list(doms)
    for i in range(s):
        row = mstd.rows[i]
        hot = [u for u in range(s) if row[alpha[u] - 1]]
        for t in range(d + 1, k + 1):
            if all(mstd.rows[u][t - 1] == 0 for u in hot):
                doms[t - 1] = {j for j in doms[t - 1] if row[j - 1] == 0}
    return doms


def all_diff_refiner(doms) -> list[set[int]] | None:
    """Propagate distinctness of images: a set of domains shared by as many
    orbits as it has values consumes those values everywhere else; more
    orbits than values, or an empty domain, kills the branch."""
    doms = list(doms)
    k = len(doms)
    changed = True
    while changed:
        changed = False
        groups: dict = {}
        for i, dom in enumerate(doms):
            if not dom:
                return None
            groups.setdefault(frozenset(dom), []).append(i)
        for key, idxs in groups.items():
            if len(idxs) > len(key):
                return None
            if len(idxs) == len(key) and len(key) < k:
                idx_set = set(idxs)
                for j in range(k):
                    if j not in idx_set and doms[j] & key:
                        doms[j] = doms[j] - key
                        changed = True
    return doms


# ---------------------------------------------------------------------------
# the search proper


class _Code:
    """A code the search prunes with: per depth d, the dependent sets that
    first have a single unassigned member there, and the stabiliser code of
    columns 1..d with its column class sizes.  counter names the stats
    entry of the branches its stabilisers cut.

    Orbit d is assigned at depth d, so a dependent set first has one
    unassigned member at its second-largest member, and the rule starts at
    depth 1.  Its filter reads only the assigned members' images, fixed in
    the whole subtree, and every child inherits the narrowed domain, so the
    set is checked at that depth only.  The set (1,) is assigned before
    the rule starts, so it is never checked."""

    def __init__(self, m: FpMatrix, pivots, counter: str, cfg: SearchConfig):
        self.matrix = m
        self.counter = counter
        self.ld_sets: list[list[tuple[int, ...]]] = [[] for _ in range(m.k + 1)]
        for lds in build_ld_sets(m, pivots) if cfg.use_lds else []:
            *rest, last = sorted(lds)
            depth = rest[-1] if rest else 1
            if depth < last:
                self.ld_sets[depth].append(lds)
        self.stabs = [m]
        for dpth in range(1, m.k + 1):
            self.stabs.append(eliminate_column(self.stabs[-1], dpth))
        self.sizes = [_class_sizes(x) for x in self.stabs]


class _Search:
    def __init__(
        self,
        inst: InPInstance,
        cfg: SearchConfig,
        method: str,
        allowed: PermGroup | None = None,
    ):
        self.inst = inst
        self.cfg = cfg
        self.method = method
        self.k, self.s, self.p = inst.k, inst.s, inst.p
        self.allowed = allowed or young_subgroup((1,) * self.k)
        # the cells, the orbits of the allowed group; a group of order
        # prod |cell|! is all of their Young subgroup, which holds exactly
        # the orbit permutations that keep every cell
        cells = orbits_of(self.allowed.generators, range(1, self.k + 1))
        self.cell = {i: cell for cell in map(frozenset, cells) for i in cell}
        self.young = self.allowed.known_order == prod(factorial(len(c)) for c in cells)
        self.found = FoundGroup(inst)
        self.stats: Counter = Counter()
        self.wcache: dict = {}
        self.deadline = (
            time.monotonic() + cfg.time_limit if cfg.time_limit is not None else None
        )
        self.codes: list[_Code] = []
        self.targets: list[tuple[int, ...]] = []  # rows of the non-pivot columns
        self.own_rep: CanonResult | None = None

    # -- helpers -------------------------------------------------------

    def _tick(self, count: int = 1):
        self.stats["nodes"] += count
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout(f"search exceeded {self.cfg.time_limit}s")

    def _allowed(self, pi: Permutation) -> bool:
        if not self.young:
            return self.allowed.contains(pi)
        cell = self.cell
        return all(j in cell[i] for i, j in enumerate(pi.images, 1))

    def _jump_target(self, alpha) -> int:
        j = 0
        while j < len(alpha) and alpha[j] == j + 1:
            j += 1
        return j

    # -- main recursion --------------------------------------------------

    def run(self) -> NormalizerResult:
        inst, cfg = self.inst, self.cfg
        t0 = time.monotonic()
        if inst.dual.s == 0:
            return self._full_space(t0)
        doms = domains_init(inst, self.found, cfg, self._allowed)
        doms = [d & self.cell[i] for i, d in enumerate(doms, 1)]

        # the code (pivots 1..s) and its dual (pivots s+1..k), not empty
        # here: both have the monomial automorphisms the search seeks
        k, s = self.k, self.s
        self.codes = [
            _Code(inst.matrix, range(1, s + 1), "prune_stabs", cfg),
            _Code(inst.dual, range(s + 1, k + 1), "prune_stabs_dual", cfg),
        ]

        if self.method == "limitdepth":
            # the non-pivot columns, which scaled image columns must match
            keys = {
                normalized_column(inst.matrix.col(t), self.p)
                for t in range(s + 1, k + 1)
            }
            if len(keys) < k - s:
                raise NotInClass("orbits must be pairwise inequivalent")
            self.targets = [row[s:] for row in inst.matrix.rows]

        self._recurse((), doms, tuple(code.stabs[0] for code in self.codes))

        gens = tuple(self.found.gens)
        self.stats["search_ms"] = int((time.monotonic() - t0) * 1000)
        return NormalizerResult(gens, self.found.order(), dict(self.stats), self.method)

    def _full_space(self, t0: float) -> NormalizerResult:
        """The code is all of F_p^k, so every allowed orbit permutation
        normalises: the normaliser is norm_b and the lifts of the allowed
        group's generators, and its order is p^k (p-1)^c |allowed|."""
        gens = list(self.found.gens)
        for pi in self.allowed.generators:
            gens.append(affine_perm(self.inst, pi))
            self.found.check(gens[-1])
        self._tick(0)
        self.stats["closed_form"] = 1
        self.stats["search_ms"] = int((time.monotonic() - t0) * 1000)
        order = self.found.order(self.allowed.order())
        return NormalizerResult(tuple(gens), order, dict(self.stats), self.method)

    def _recurse(self, alpha, doms, im_stabs):
        """im_stabs holds, per entry of self.codes, the stabiliser code of
        the images of the assigned orbits."""
        self._tick()
        d = len(alpha)
        inst, cfg = self.inst, self.cfg

        if d == self.k:
            return self._leaf(alpha)

        if d >= 1:
            # orbit-minimality along the all-identity prefix
            if (
                alpha[d - 1] != d
                and all(alpha[i] == i + 1 for i in range(d - 1))
            ):
                orb = self.found.index_orbit(d - 1, alpha[d - 1])
                if min(orb) < alpha[d - 1]:
                    self.stats["prune_minimality"] += 1
                    return None

            for code in self.codes:
                if code.ld_sets[d]:
                    doms = check_lds(code.matrix, code.ld_sets[d], alpha, doms)

            if cfg.use_stabs:
                for code, im_stab in zip(self.codes, im_stabs):
                    ok, doms = compare_stabs(
                        code.stabs[d], code.sizes[d], im_stab, alpha, doms, self.wcache
                    )
                    if not ok:
                        self.stats[code.counter] += 1
                        return None

            if cfg.use_deep and d > self.s:
                doms = deep_prune(inst.matrix, alpha, doms)

        if cfg.use_alldiff:
            refined = all_diff_refiner(doms)
            if refined is None:
                self.stats["prune_alldiff"] += 1
                return None
            doms = refined

        if self.method == "limitdepth" and d == self.s and d < self.k:
            return self._jump_target(alpha) if self._limit_depth_node(alpha, doms) else None

        used = set(alpha)
        for c in sorted(doms[d]):
            if c in used:
                continue
            child = list(doms)
            child[d] = {c}
            res = self._recurse(
                alpha + (c,),
                child,
                tuple(eliminate_column(m, c) for m in im_stabs),
            )
            if res is not None and res < d:
                return res
        return None

    def _leaf(self, alpha):
        self.stats["leaves"] += 1
        pi = Permutation(alpha)
        if not self._allowed(pi):
            self.stats["leaf_outside_target"] += 1
            return None
        if self.own_rep is None:
            self.own_rep = canonical_rep(self.inst.matrix)
        b = kappa_feasible(self.inst, pi, self.own_rep)
        if b is None:
            self.stats["leaf_infeasible"] += 1
            return None
        self.found.add(b * affine_perm(self.inst, pi))
        self.stats["found"] += 1
        return self._jump_target(alpha)

    # -- the depth-limited variant ---------------------------------------

    def _limit_depth_node(self, alpha, doms) -> bool:
        """Try the scalings of the assigned pivot images; each one
        determines the whole code image, which either matches the remaining
        columns bijectively (up to scalars) or dies.  A backtrack over the
        coordinates finds them (gfp.scalings_matching_columns), one node per
        partial scaling; each survivor is checked and added here.  Returns
        whether it added an element: the search then jumps back.

        Scalings v and c.v give the same orbit permutation, and only the
        first v found for each one is kept.  That v is the least of its
        class, whose first entry is 1, so only those scalings are tried:
        the same elements are added in the same order."""
        inst = self.inst
        p, s, k = self.p, self.s, self.k
        self.stats["depth_nodes"] += 1
        pivot_img = FpMatrix.from_rows(
            p,
            [[inst.matrix.rows[r][alpha[c] - 1] for c in range(s)] for r in range(s)],
            s,
        )
        try:
            ainv = mat_inverse(pivot_img)
        except ValueError:
            self.stats["depth_singular"] += 1
            return False
        base = mat_mul(ainv, inst.matrix)  # the image code rows, up to row scalings
        assigned = set(alpha)
        free_positions = [j for j in range(1, k + 1) if j not in assigned]
        cols = [[row[j - 1] for j in free_positions] for row in base.rows]

        seen_kappas, found = set(), False
        matches = scalings_matching_columns(p, cols, self.targets, self._tick)
        for v, match, scale in matches:
            images = list(alpha) + [0] * (k - s)
            diag = list(v) + [0] * (k - s)
            for j, t, c in zip(free_positions, match, scale):
                images[s + t] = j
                diag[s + t] = c
            kappa_imgs = tuple(images)
            if 0 in kappa_imgs or kappa_imgs in seen_kappas:
                continue
            seen_kappas.add(kappa_imgs)
            pi = Permutation(kappa_imgs)
            if not self._allowed(pi):
                continue
            self.found.add(affine_perm(inst, pi, diag))
            self.stats["found"] += 1
            found = True
        return found


# ---------------------------------------------------------------------------
# public entry points


def young_subgroup(sizes) -> PermGroup:
    """The orbit permutations that keep sizes[i - 1] for every orbit i: per
    class of orbits with equal sizes, in order of first appearance, a
    transposition and, for m >= 3, the m-cycle, of known order prod m!."""
    classes: dict = {}
    for i, n in enumerate(sizes, 1):
        classes.setdefault(n, []).append(i)
    k, perms = len(sizes), []
    for cls in classes.values():
        for cyc in (cls[:2], cls)[: len(cls) - 1]:
            perms.append(Permutation.from_cycles(k, [tuple(cyc)]))
    return PermGroup(k, tuple(perms), prod(factorial(len(c)) for c in classes.values()))


def full_search(
    inst: InPInstance, cfg: SearchConfig | None = None, allowed: PermGroup | None = None
) -> NormalizerResult:
    """Exact normaliser of the instance group inside the symmetric group on
    its orbits' points, by full-depth backtracking, with orbit permutations
    limited to allowed, a group on the k orbit indices (all of S_k by
    default).  Each orbit's images lie in its orbit under allowed.  When
    the known order of allowed is the product of its orbits' factorials,
    membership is the closed form "keeps every orbit"; otherwise it is a
    chain sift."""
    return _Search(inst, cfg or SearchConfig(), "full", allowed).run()


def limit_depth_search(
    inst: InPInstance, cfg: SearchConfig | None = None, allowed: PermGroup | None = None
) -> NormalizerResult:
    """Same result as full_search, with the same allowed group, but the
    tree is cut at the code dimension and completed by enumerating
    pivot-image scalings."""
    return _Search(inst, cfg or SearchConfig(), "limitdepth", allowed).run()


# ---------------------------------------------------------------------------
# the top-level pipeline


def verify_normalises(H: PermGroup, gens, order: int) -> None:
    """Raise InvariantViolation unless every g in gens conjugates each
    generator of H into H.  Generators of H, as g or as a conjugate, lie in
    H and are skipped.  Other conjugates go through a chain of H filled up
    to order, |H| as recognition reads it: a sift to the identity proves
    membership whatever that order, and a conjugate that fails to sift is
    checked again against H's deterministic chain before anything is
    raised, so the check does not depend on recognition."""
    chain = StabChain(H.degree, H.generators, order=order)
    own = set(H.generators)
    for g in gens:
        if g in own:
            continue
        for x in H.generators:
            y = x.conj(g)
            if y not in own and not chain.contains(y) and not H.contains(y):
                raise InvariantViolation("result generator fails to normalise the input")


def _dual_swappable(inst: InPInstance, method: str) -> bool:
    """The search can run against the dual code when that has smaller
    dimension and still acts on every orbit; the scaling-enumeration
    variant additionally needs the dual orbits pairwise inequivalent."""
    if inst.s * 2 <= inst.k or inst.dual.s == 0:
        return False
    classes = column_equiv_classes(inst.dual)
    if any(not any(inst.dual.col(cell[0])) for cell in classes):
        return False
    return method != "limitdepth" or len(classes) == inst.k


def instance_normalizer(
    inst: InPInstance, method: str, cfg: SearchConfig
) -> NormalizerResult:
    """Normaliser of the instance's group in the symmetric group on its
    degree points, unverified.

    Equivalent orbits are collapsed first, and the search runs on one
    orbit per class.  It runs against the dual code instead when that has
    lower dimension, and dual normalisers map back by inverting their
    orbit-fixing part: (D, pi) -> (D^-1, pi) is an isomorphism from the
    monomial automorphisms of the dual onto those of the code, and both
    normalisers have order p^k times that group's order.  The result is
    the search output lifted through theta, plus the centraliser.

    The search's allowed group is the Young subgroup of the class sizes
    (young_subgroup): a representative may only go to one whose class has
    the same size.  Its membership test is the closed form, with no chain.

    The order comes from a closed form, not a chain over the result:
    |N| = |N_red| * p^(k - k_red) * prod(m_i!), where N_red is the
    normaliser found on the k_red class representatives and m_i are the
    class sizes.  The other copies in a class follow their representative,
    so each adds only its own cycle, and the copies of a class may be
    permuted freely.
    """
    red = reduce_equivalent_orbits(inst)
    reduced, sizes = red.reduced, red.class_sizes
    target = reduced
    swapped = _dual_swappable(reduced, method)
    if swapped:  # the class sizes follow the orbits onto the dual's labels
        target = instance_from_code(
            inst.field, inst.degree, reduced.orbit_cycles, reduced.dual.rows
        )
        dual_sizes = [0] * reduced.k
        for cyc, n in zip(reduced.orbit_cycles, sizes):
            dual_sizes[target.point_orbit[cyc[0]]] = n
        sizes = tuple(dual_sizes)
    runner = full_search if method == "full" else limit_depth_search
    sub = runner(target, cfg, allowed=young_subgroup(sizes))
    gens, stats = sub.generators, dict(sub.stats)
    if swapped:
        # repeats are left to PermGroup.from_gens below
        gens = list(reduced.orbit_gens) + [_dual_mirror(reduced, g) for g in gens]
        stats["dual_swapped"] = 1
    gens = [red.theta(g) for g in gens]
    gens.extend(red.centralizer_gens)
    order = (
        sub.order
        * inst.p ** (inst.k - reduced.k)
        * prod(factorial(m) for m in sizes)
    )
    group = PermGroup.from_gens(inst.degree, gens)
    return NormalizerResult(group.generators, order, stats, method)


def normalizer_in_sym(
    H: PermGroup, p: int, method: str = "full", cfg: SearchConfig | None = None
) -> NormalizerResult:
    """Normaliser of H in the symmetric group on the points H moves:
    recognition (encode.build_instance), instance_normalizer, and a check
    of every returned generator by conjugation."""
    if method not in ("full", "limitdepth"):
        raise ValueError(f"unknown method {method!r}")
    inst = build_instance(H, p)
    res = instance_normalizer(inst, method, cfg or SearchConfig())
    verify_normalises(H, res.generators, p**inst.s)
    stats = dict(res.stats, verified_generators=len(res.generators))
    return NormalizerResult(res.generators, res.order, stats, method)
