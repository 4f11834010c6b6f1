import itertools
import random

import pytest

from symnorm.canon import (
    canonical_rep,
    kappa_feasible,
    permuted_code_matrix,
    support_partitions,
)
from symnorm.encode import (
    affine_perm,
    build_instance,
    code_to_group,
    exponent_scaling_perm,
    gamma_inv,
    gamma_map,
)
from symnorm.gfp import (
    FpMatrix,
    identity_matrix,
    mat_mul,
    matrix_rank,
    member_row_space,
    rref_standard,
)
from symnorm.oracle import brute_canon_rep
from symnorm.perm import PermGroup, Permutation

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:
    given = None

def M(p, rows):
    return FpMatrix.from_rows(p, rows)


def all_standard_forms(p, s, k):
    """Every standard-form s x k matrix over F_p."""
    free = s * (k - s)
    for entries in itertools.product(range(p), repeat=free):
        rows = []
        for i in range(s):
            tail = entries[i * (k - s) : (i + 1) * (k - s)]
            rows.append(tuple(1 if i == j else 0 for j in range(s)) + tail)
        yield M(p, rows)


def random_f_action(rng, p, s, k):
    """A random invertible row transform and column scaling."""
    while True:
        rows = [[rng.randrange(p) for _ in range(s)] for _ in range(s)]
        r = M(p, rows)
        if matrix_rank(r) == s:
            break
    diag = [rng.randrange(1, p) for _ in range(k)]
    return r, diag


def apply_f(a, r, diag):
    base = mat_mul(r, a)
    return M(
        a.p,
        [
            tuple(x * diag[j] % a.p for j, x in enumerate(row))
            for row in base.rows
        ],
    )


class TestSupportPartitions:
    def test_merging_example(self):
        parts = support_partitions(M(2, [[1, 0, 1], [0, 1, 1]]))
        assert parts[0] == ((1,), (2,))
        assert parts[1] == ((1,), (2,))
        assert parts[2] == ((1, 2),)

    def test_identity_all_discrete(self):
        parts = support_partitions(identity_matrix(3, 4))
        assert all(p == ((1,), (2,), (3,), (4,)) for p in parts)

    def test_single_row_supports(self):
        parts = support_partitions(M(2, [[1, 0, 1, 0], [0, 1, 0, 1]]))
        assert parts[2] == ((1,), (2,))
        assert parts[3] == ((1,), (2,))

    def test_cells_only_merge(self):
        rng = random.Random(3)
        for _ in range(30):
            p = rng.choice([2, 3])
            k = rng.randrange(2, 6)
            s = rng.randrange(1, k + 1)
            a = rng.choice(list(all_standard_forms(p, s, k))[:50])
            parts = support_partitions(a)
            for j in range(1, k):
                finer, coarser = parts[j - 1], parts[j]
                for cell in finer:
                    assert any(set(cell) <= set(c) for c in coarser)


class TestCanonicalRep:
    def test_identity_fixed(self):
        a = identity_matrix(3, 3)
        res = canonical_rep(a)
        assert res.rep == a
        assert res.col_scalings == (1, 1, 1)

    def test_transform_validity(self):
        rng = random.Random(5)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 6)
            s = rng.randrange(1, k + 1)
            free = [[rng.randrange(p) for _ in range(k - s)] for _ in range(s)]
            a = M(p, [
                [1 if i == j else 0 for j in range(s)] + free[i] for i in range(s)
            ])
            res = canonical_rep(a)
            # each row of rep is a nonzero multiple of that row of a . diag
            scaled = apply_f(a, identity_matrix(p, s), list(res.col_scalings))
            for row, want in zip(res.rep.rows, scaled.rows):
                assert any(
                    row == tuple(c * x % p for x in want) for c in range(1, p)
                )

    def test_orbit_invariance(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.choice([2, 3])
            k = rng.randrange(2, 5)
            s = rng.randrange(1, k + 1)
            free = [[rng.randrange(p) for _ in range(k - s)] for _ in range(s)]
            a = M(p, [
                [1 if i == j else 0 for j in range(s)] + free[i] for i in range(s)
            ])
            rep = canonical_rep(a).rep
            for _ in range(25):
                r, diag = random_f_action(rng, p, s, k)
                moved = apply_f(a, r, diag)
                red = rref_standard(moved)
                if not red.is_standard:
                    continue
                assert canonical_rep(red.mstd).rep == rep

    @pytest.mark.skipif(given is None, reason="needs hypothesis")
    def test_invariant_under_column_moves(self):
        # a code with its columns permuted, then scaled, has the canonical
        # representative of the permuted code alone
        @settings(max_examples=200, deadline=None)
        @given(st.data())
        def check(data):
            p = data.draw(st.sampled_from([2, 3, 5, 7]))
            k = data.draw(st.integers(1, 6))
            s = data.draw(st.integers(1, k))
            row = st.lists(st.integers(0, p - 1), min_size=k - s, max_size=k - s)
            free = data.draw(st.lists(row, min_size=s, max_size=s))
            a = M(p, [[int(i == j) for j in range(s)] + free[i] for i in range(s)])
            moved = a.permute_columns(tuple(data.draw(st.permutations(range(1, k + 1)))))
            scale = data.draw(st.lists(st.integers(1, p - 1), min_size=k, max_size=k))
            red = rref_standard(moved)
            assume(red.is_standard)
            scaled = M(p, [[x * d % p for x, d in zip(r, scale)] for r in moved.rows])
            rep = canonical_rep(rref_standard(scaled).mstd).rep
            assert rep == canonical_rep(red.mstd).rep

        check()

    def test_minimality_exhaustive_small(self):
        for p in (2, 3):
            for k in range(1, 5):
                for s in range(1, min(2, k) + 1):
                    for a in all_standard_forms(p, s, k):
                        assert canonical_rep(a).rep == brute_canon_rep(a)

    def test_ternary_known_case(self):
        a = M(3, [[1, 0, 1, 2], [0, 1, 1, 1]])
        assert canonical_rep(a).rep == brute_canon_rep(a)


def e1_instance():
    grp = PermGroup.from_gens(
        6,
        [
            Permutation.from_cycles(6, [(1, 2), (5, 6)]),
            Permutation.from_cycles(6, [(3, 4), (5, 6)]),
        ],
    )
    return build_instance(grp, 2)


class TestKappaFeasible:
    def test_identity_always_feasible(self):
        inst = e1_instance()
        b = kappa_feasible(inst, Permutation.identity(3))
        assert b is not None and b.is_identity()

    def test_e1_swap(self):
        inst = e1_instance()
        b = kappa_feasible(inst, Permutation((2, 1, 3)))
        assert b is not None and b.is_identity()

    def test_permuted_matrix_shape(self):
        inst = e1_instance()
        pm = permuted_code_matrix(inst, Permutation((2, 1, 3)))
        assert pm == M(2, [[0, 1, 1], [1, 0, 1]])

    def test_against_brute_force_over_b(self):
        # feasibility of every index permutation cross-checked by trying
        # every orbit-fixing element
        rng = random.Random(11)
        cases = [
            (3, M(3, [[1, 0, 1], [0, 1, 2]])),
            (3, M(3, [[1, 0, 2], [0, 1, 1]])),
            (2, M(2, [[1, 0, 1], [0, 1, 1]])),
            (5, M(5, [[1, 0, 3], [0, 1, 2]])),
        ]
        for p, m in cases:
            grp = code_to_group(m)
            inst = build_instance(grp, p)
            row_gens = [gamma_inv(inst, r) for r in inst.matrix.rows]
            hset = {g.images for g in grp.elements()}
            k = inst.k
            # all of B = per-orbit affine normalisers
            per_orbit = []
            for i in range(k):
                cyc = inst.orbit_gens[i]
                opts = []
                for e in range(p):
                    for d in range(1, p):
                        opts.append(
                            cyc**e
                            * (
                                exponent_scaling_perm(inst, i, d)
                                if d != 1
                                else Permutation.identity(inst.degree)
                            )
                        )
                per_orbit.append(opts)
            for imgs in itertools.permutations(range(1, k + 1)):
                pi = Permutation(imgs)
                kap = affine_perm(inst, pi)
                feasible = None
                for combo in itertools.product(*per_orbit):
                    b = combo[0]
                    for extra in combo[1:]:
                        b = b * extra
                    elem = b * kap
                    if all(x.conj(elem).images in hset for x in row_gens):
                        feasible = b
                        break
                got = kappa_feasible(inst, pi)
                assert (got is not None) == (feasible is not None)
                if got is not None:
                    elem = got * kap
                    for x in row_gens:
                        assert member_row_space(
                            gamma_map(inst, x.conj(elem)), inst.matrix
                        ) is not None
        del rng
