"""Acceptance gate: one test per criterion, each printing a PASS line.

The corpus generators are fully deterministic (fixed seeds), expected
values come from the brute-force oracles or cross-method comparison, and
every tolerance is exact integer equality.
"""

import itertools
import random
import statistics
import time

import pytest

from symnorm.canon import canonical_rep
from symnorm.cli import gen_instance
from symnorm.dihedral import build_dihedral, normalizer_dihedral
from symnorm.encode import (
    build_instance,
    code_to_group,
    decompose_bk,
    gamma_inv,
    gamma_map,
    exponent_scaling_perm,
)
from symnorm.gfp import (
    FpMatrix,
    in_row_space,
    mat_mul,
    matrix_rank,
    rref_standard,
)
from symnorm.oracle import brute_canon_rep, brute_maut, brute_normalizer_elements
from symnorm.perm import PermGroup, Permutation
from symnorm.search import (
    SearchConfig,
    SearchTimeout,
    norm_b,
    normalizer_in_sym,
)


def report(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} - {description}{tail}")
    assert passed, f"criterion {criterion} failed: {description} {tail}"


def random_subdirect_code(rng, p, k, dim):
    """Full-rank code without zero columns (the in-class instances)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(dim)]
        m = FpMatrix.from_rows(p, rows, k)
        if matrix_rank(m) != dim:
            continue
        if any(not any(m.col(j)) for j in range(1, k + 1)):
            continue
        return m


@pytest.fixture(scope="module")
def small_corpus():
    """Criterion 1/4 corpus: >= 200 deterministic instances with their
    search results."""
    rng = random.Random(20260809)
    runs = []
    for p in (2, 3):
        for k in range(1, 6):
            for dim in range(1, k + 1):
                for _ in range(7):
                    m = random_subdirect_code(rng, p, k, dim)
                    grp = code_to_group(m)
                    res = normalizer_in_sym(grp, p)
                    runs.append((p, m, grp, res))
    return runs


def test_criterion_1_oracle_equivalence(small_corpus):
    t0 = time.monotonic()
    checked = 0
    for p, m, grp, res in small_corpus:
        mstd = rref_standard(m).mstd
        expected = p**m.k * len(brute_maut(mstd))
        assert res.order == expected, (p, m.rows)
        checked += 1
    took = time.monotonic() - t0
    report(
        1,
        "search order equals p^k times the monomial automorphism count",
        checked >= 200,
        f"{checked} instances, oracle side {took:.1f}s",
    )


def test_criterion_2_direct_sn_equivalence():
    t0 = time.monotonic()

    def all_rref_matrices(p, k):
        """One generator matrix per subspace of F_p^k (row-reduced form)."""
        for s in range(1, k + 1):
            for pivots in itertools.combinations(range(k), s):
                free_cols = [
                    j for j in range(k) if j not in pivots
                ]
                free_slots = [
                    (i, j)
                    for i in range(s)
                    for j in free_cols
                    if j > pivots[i]
                ]
                for values in itertools.product(range(p), repeat=len(free_slots)):
                    rows = [[0] * k for _ in range(s)]
                    for i, col in enumerate(pivots):
                        rows[i][col] = 1
                    for (i, j), v in zip(free_slots, values):
                        rows[i][j] = v
                    yield FpMatrix.from_rows(p, rows, k)

    checked = 0
    for k in range(1, 5):
        for m in all_rref_matrices(2, k):
            if any(not any(m.col(j)) for j in range(1, k + 1)):
                continue
            grp = code_to_group(m)
            res = normalizer_in_sym(grp, 2)
            brute = brute_normalizer_elements(grp)
            brute_keys = {g.images for g in brute}
            assert res.order == len(brute), m.rows
            for g in res.generators:
                assert g.images in brute_keys, m.rows
            checked += 1
    took = time.monotonic() - t0
    report(
        2,
        "search result equals the exhaustive normaliser on degree <= 8",
        checked > 0 and took < 30,
        f"{checked} codes, {took:.1f}s",
    )


def test_criterion_3_canonical_form():
    t0 = time.monotonic()
    rng = random.Random(77)

    # (a) invariance under 1000 random actions across 50 matrices
    matrices = []
    while len(matrices) < 50:
        p = rng.choice([2, 3, 5])
        k = rng.randrange(2, 8)
        s = rng.randrange(1, min(4, k) + 1)
        free = [[rng.randrange(p) for _ in range(k - s)] for _ in range(s)]
        rows = [
            [1 if i == j else 0 for j in range(s)] + free[i] for i in range(s)
        ]
        matrices.append(FpMatrix.from_rows(p, rows, k))
    checks = 0
    for idx, a in enumerate(matrices):
        rep = canonical_rep(a).rep
        per_matrix = 20
        for _ in range(per_matrix):
            p, s, k = a.p, a.s, a.k
            while True:
                rows = [[rng.randrange(p) for _ in range(s)] for _ in range(s)]
                r = FpMatrix.from_rows(p, rows, s)
                if matrix_rank(r) == s:
                    break
            diag = [rng.randrange(1, p) for _ in range(k)]
            moved = mat_mul(r, a)
            moved = FpMatrix.from_rows(
                p,
                [
                    tuple(x * diag[j] % p for j, x in enumerate(row))
                    for row in moved.rows
                ],
                k,
            )
            again = rref_standard(moved).mstd
            assert canonical_rep(again).rep == rep, a.rows
            checks += 1
    assert checks == 1000

    # (b) minimality against the exhaustive orbit minimum
    count_b = 0
    for p in (2, 3):
        for k in range(1, 5):
            for s in range(1, min(2, k) + 1):
                for values in itertools.product(range(p), repeat=s * (k - s)):
                    rows = [
                        tuple(1 if i == j else 0 for j in range(s))
                        + values[i * (k - s) : (i + 1) * (k - s)]
                        for i in range(s)
                    ]
                    a = FpMatrix.from_rows(p, rows, k)
                    assert canonical_rep(a).rep == brute_canon_rep(a), a.rows
                    count_b += 1
    took = time.monotonic() - t0
    report(
        3,
        "canonical representative is action-invariant and orbit-minimal",
        took < 60,
        f"1000 invariance checks, {count_b} minimality checks, {took:.1f}s",
    )


def test_criterion_4_dual_symmetry(small_corpus):
    checked = 0
    for p, m, grp, res in small_corpus:
        inst = build_instance(grp, p)
        if inst.dual.s == 0:
            continue
        for g in res.generators:
            b, kap = decompose_bk(inst, g)
            mirror = b.inverse() * kap
            for row in inst.dual.rows:
                x = gamma_inv(inst, row)
                assert in_row_space(
                    gamma_map(inst, x.conj(mirror)), inst.dual
                ), (p, m.rows)
            checked += 1
    report(
        4,
        "every found element, inverted on the orbit-fixing part, "
        "normalises the dual group",
        checked > 0,
        f"{checked} generators checked",
    )


def test_criterion_5_orbit_fixing_part():
    rng = random.Random(555)
    checked = 0
    while checked < 50:
        k = rng.randrange(1, 4)
        dim = rng.randrange(1, k + 1)
        m = random_subdirect_code(rng, 3, k, dim)
        grp = code_to_group(m)
        inst = build_instance(grp, 3)
        hset = {g.images for g in grp.elements()}
        row_gens = [gamma_inv(inst, r) for r in inst.matrix.rows]
        per_orbit = []
        for i in range(k):
            opts = []
            for e in range(3):
                for d in (1, 2):
                    x = inst.orbit_gens[i] ** e
                    if d != 1:
                        x = x * exponent_scaling_perm(inst, i, d)
                    opts.append(x)
            per_orbit.append(opts)
        brute = []
        for combo in itertools.product(*per_orbit):
            b = combo[0]
            for extra in combo[1:]:
                b = b * extra
            if all(x.conj(b).images in hset for x in row_gens):
                brute.append(b)
        expected = PermGroup.from_gens(inst.degree, brute).order()
        got = PermGroup.from_gens(inst.degree, norm_b(inst)).order()
        assert got == expected, m.rows
        checked += 1
    report(
        5,
        "orbit-fixing normalisers match brute force over the per-orbit "
        "affine maps",
        checked == 50,
        f"{checked} instances",
    )


@pytest.fixture(scope="module")
def pruning_corpus():
    rng = random.Random(6666)
    corpus = []
    shapes = (
        [(2, k) for k in (4, 6, 8, 10, 12)] * 5
        + [(3, k) for k in (4, 6, 8, 9)] * 4
        + [(5, k) for k in (4, 5, 6)] * 3
    )
    for p, k in shapes[:50]:
        dim = rng.randrange(1, k // 2 + 1)
        m = random_subdirect_code(rng, p, k, dim)
        corpus.append((p, code_to_group(m)))
    return corpus


def test_criterion_6_pruning_safety(pruning_corpus):
    toggles = ["use_lds", "use_stabs", "use_deep", "use_alldiff", "use_dual_partitions"]
    assert len(pruning_corpus) == 50
    for p, grp in pruning_corpus:
        base = normalizer_in_sym(grp, p)
        all_off = normalizer_in_sym(
            grp,
            p,
            cfg=SearchConfig(
                use_lds=False,
                use_stabs=False,
                use_deep=False,
                use_alldiff=False,
                use_dual_partitions=False,
            ),
        )
        assert all_off.order == base.order
        assert base.stats["nodes"] <= all_off.stats["nodes"]
        for name in toggles:
            res = normalizer_in_sym(grp, p, cfg=SearchConfig(**{name: False}))
            assert res.order == base.order, name
    report(
        6,
        "disabling any single pruning rule never changes the group; "
        "full pruning never visits more nodes",
        True,
        "50 instances, 5 rules",
    )


def test_criterion_7_dihedral():
    # exact comparison against S_n enumeration for every degree <= 8 shape
    rot_codes = [
        FpMatrix.from_rows(3, [[1, 1]]),
        FpMatrix.from_rows(3, [[1, 2]]),
        FpMatrix.from_rows(3, [[1, 0], [0, 1]]),
    ]
    refl_codes = [
        FpMatrix.from_rows(2, [[1, 1]]),
        FpMatrix.from_rows(2, [[1, 0], [0, 1]]),
    ]

    def dihedral_from_codes(p, rot, refl):
        k = rot.k
        n = p * k
        gens = list(code_to_group(rot).generators)
        for row in refl.rows:
            imgs = list(range(1, n + 1))
            for i, bit in enumerate(row):
                if bit:
                    base = p * i
                    for u in range(p):
                        imgs[base + u] = base + (-u) % p + 1
            gens.append(Permutation(imgs))
        return PermGroup.from_gens(n, gens)

    rng = random.Random(777)
    exact = 0
    groups = [
        PermGroup.from_gens(3, [Permutation.from_cycles(3, [(1, 2, 3)]),
                               Permutation.from_cycles(3, [(2, 3)])])
    ]
    for rot in rot_codes:
        for refl in refl_codes:
            groups.append(dihedral_from_codes(3, rot, refl))
    conjugated = []
    for grp in groups[1:4]:
        imgs = list(range(1, 7))
        rng.shuffle(imgs)
        sigma = Permutation(imgs)
        conjugated.append(
            PermGroup.from_gens(6, [g.conj(sigma) for g in grp.generators])
        )
    for grp in groups + conjugated:
        inst = build_dihedral(grp, 3)
        res = normalizer_dihedral(inst)
        brute = brute_normalizer_elements(grp)
        assert res.order == len(brute)
        bset = {g.images for g in brute}
        for g in res.generators:
            assert g.images in bset
        exact += 1

    # split invariants on larger random instances
    split_checked = 0
    while split_checked < 100:
        p = rng.choice([3, 5])
        k = rng.randrange(1, 5)
        dihedral_grp, _ = gen_instance(
            p, k, rng.randrange(1, k + 1), seed=split_checked + 1, dihedral=True
        )
        inst = build_dihedral(dihedral_grp, p)
        hp, h2 = inst.rotations, inst.complement
        assert dihedral_grp.order() == hp.order() * h2.order()
        assert hp.order() % 2 == 1
        assert h2.order() & (h2.order() - 1) == 0  # a power of two
        hp_chain = hp.chain()
        for x in dihedral_grp.generators:
            for r in hp.generators:
                assert hp_chain.contains(r.conj(x))
        split_checked += 1
    report(
        7,
        "dihedral pipeline matches the exhaustive normaliser at degree <= 8 "
        "and the odd/even split holds",
        exact >= 7 and split_checked == 100,
        f"{exact} exact comparisons, {split_checked} split checks",
    )


def test_criterion_8_cross_method_grid():
    cells = [(5, 4), (5, 6), (5, 8), (2, 6), (3, 6)]
    t0 = time.monotonic()
    for p, dim in cells:
        for seed in range(25):
            grp, _ = gen_instance(p, 20, dim, seed)
            full = normalizer_in_sym(grp, p, method="full")
            limited = normalizer_in_sym(grp, p, method="limitdepth")
            assert full.order == limited.order, (p, dim, seed)
    took = time.monotonic() - t0
    report(
        8,
        "full and depth-limited searches agree across the benchmark grid",
        True,
        f"{len(cells)} cells x 25 seeds, {took:.0f}s",
    )


def test_criterion_9_performance():
    times = []
    for seed in range(5):
        grp, _ = gen_instance(3, 10, 5, seed)
        t0 = time.monotonic()
        res = normalizer_in_sym(grp, 3, cfg=SearchConfig(time_limit=600))
        times.append(time.monotonic() - t0)
        assert res.order > 0
    median = statistics.median(times)
    assert median < 60, f"median {median:.1f}s"

    grp, _ = gen_instance(11, 20, 6, 0)
    t0 = time.monotonic()
    full = normalizer_in_sym(grp, 11, method="full", cfg=SearchConfig(time_limit=600))
    full_time = time.monotonic() - t0
    assert full_time < 600
    limited_outcome = "completed"
    try:
        limited = normalizer_in_sym(
            grp, 11, method="limitdepth", cfg=SearchConfig(time_limit=600)
        )
        assert limited.order == full.order
    except SearchTimeout:
        limited_outcome = "timed out"
    report(
        9,
        "degree-30 instances finish fast; the hard cell completes in full "
        "search within the limit",
        True,
        f"median {median:.2f}s at degree 30; hard cell {full_time:.1f}s, "
        f"depth-limited {limited_outcome}",
    )
