import itertools
import random

import pytest

from symnorm.encode import code_to_group
from symnorm.gfp import BudgetExceeded, FpMatrix, identity_matrix
from symnorm.oracle import (
    OracleBudget,
    brute_canon_rep,
    brute_maut,
    brute_normalizer,
    brute_normalizer_elements,
)
from symnorm.perm import PermGroup, Permutation


def P(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def M(p, rows):
    return FpMatrix.from_rows(p, rows)


class TestBruteMaut:
    def test_full_binary_plane(self):
        assert len(brute_maut(identity_matrix(2, 2))) == 2

    def test_even_weight_code(self):
        mauts = brute_maut(M(2, [[1, 0, 1], [0, 1, 1]]))
        assert len(mauts) == 6
        assert all(all(d == 1 for d in w.diag) for w in mauts)

    def test_repetition_ternary(self):
        mauts = brute_maut(M(3, [[1, 1, 1]]))
        assert len(mauts) == 12

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_maut(identity_matrix(2, 12), OracleBudget(max_elements=10))


class TestBruteNormalizer:
    def test_s2(self):
        grp = PermGroup.from_gens(2, [P(2, (1, 2))])
        assert brute_normalizer(grp).order() == 2

    def test_single_double_transposition(self):
        grp = PermGroup.from_gens(4, [P(4, (1, 2), (3, 4))])
        assert brute_normalizer(grp).order() == 8

    def test_e1(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2), (5, 6)), P(6, (3, 4), (5, 6))])
        assert brute_normalizer(grp).order() == 48

    def test_group_closure(self):
        rng = random.Random(5)
        for _ in range(5):
            imgs = list(range(1, 6))
            rng.shuffle(imgs)
            grp = PermGroup.from_gens(5, [Permutation(imgs)])
            norm = brute_normalizer(grp)
            elems = norm.elements()
            eset = {e.images for e in elems}
            for a in elems:
                assert a.inverse().images in eset

    def test_fast_variant_agrees(self):
        # brute_normalizer takes its generators from the vectorised sweep,
        # so the sweep is checked against a loop over S_n, one at a time
        rng = random.Random(9)
        for _ in range(6):
            degree = rng.randrange(2, 6)
            imgs = list(range(1, degree + 1))
            rng.shuffle(imgs)
            grp = PermGroup.from_gens(degree, [Permutation(imgs)])
            loop = [
                sigma
                for sigma in map(Permutation, itertools.permutations(range(1, degree + 1)))
                if all(grp.contains(x.conj(sigma)) for x in grp.generators)
            ]
            fast = brute_normalizer_elements(grp)
            assert [g.images for g in fast] == [g.images for g in loop]
            assert brute_normalizer(grp).order() == len(fast)

    def test_order_formula(self):
        # normaliser order = p^k times the monomial automorphism count
        for m in [M(2, [[1, 1]]), M(2, [[1, 0, 1], [0, 1, 1]]), M(3, [[1, 1]])]:
            grp = code_to_group(m)
            from symnorm.gfp import rref_standard

            mstd = rref_standard(m).mstd
            assert (
                brute_normalizer(grp).order()
                == m.p**m.k * len(brute_maut(mstd))
            )


class TestBruteCanon:
    def test_identity(self):
        assert brute_canon_rep(identity_matrix(3, 3)) == identity_matrix(3, 3)

    def test_orbit_constant(self):
        rng = random.Random(11)
        a = M(3, [[1, 0, 1, 2], [0, 1, 1, 1]])
        rep = brute_canon_rep(a)
        from symnorm.gfp import mat_mul, matrix_rank, rref_standard

        for _ in range(5):
            while True:
                rows = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
                r = M(3, rows)
                if matrix_rank(r) == 2:
                    break
            moved = mat_mul(r, a)
            diag = [rng.randrange(1, 3) for _ in range(4)]
            moved = M(
                3,
                [
                    tuple(x * diag[j] % 3 for j, x in enumerate(row))
                    for row in moved.rows
                ],
            )
            assert brute_canon_rep(moved) == rep
