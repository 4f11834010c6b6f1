import random
from types import SimpleNamespace

import pytest

import symnorm.dihedral as dihedral_module
import symnorm.search as search_module
from symnorm.cli import gen_instance, random_full_rank
from symnorm.dihedral import build_dihedral, normalizer_dihedral
from symnorm.encode import NotInClass, code_to_group
from symnorm.gfp import FpMatrix, matrix_rank
from symnorm.oracle import brute_normalizer, brute_normalizer_elements
from symnorm.perm import PermGroup, Permutation
from symnorm.search import SearchConfig, SearchTimeout


def P(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def M(p, rows):
    return FpMatrix.from_rows(p, rows)


def dihedral_group_from_codes(p, rot_matrix, refl_matrix):
    """Group on consecutive p-blocks: rotations from the first code's rows,
    products of block reflections from the second's."""
    k = rot_matrix.k
    n = p * k
    gens = list(code_to_group(rot_matrix).generators)
    for row in refl_matrix.rows:
        imgs = list(range(1, n + 1))
        for i, bit in enumerate(row):
            if bit % 2 == 0:
                continue
            base = p * i
            # invert the block cycle around its first point
            for u in range(p):
                imgs[base + u] = base + (-u) % p + 1
        gens.append(Permutation(imgs))
    return PermGroup.from_gens(n, gens)


def random_dihedral(rng, p, k, dim_p, dim_2):
    def code(q, dim):
        while True:
            rows = [[rng.randrange(q) for _ in range(k)] for _ in range(dim)]
            m = M(q, rows)
            if matrix_rank(m) != dim:
                continue
            if any(not any(m.col(j)) for j in range(1, k + 1)):
                continue
            return m

    return dihedral_group_from_codes(p, code(p, dim_p), code(2, dim_2))


class TestBuildDihedral:
    def test_single_orbit(self):
        grp = PermGroup.from_gens(3, [P(3, (1, 2, 3)), P(3, (2, 3))])
        inst = build_dihedral(grp, 3)
        assert inst.k == 1
        assert inst.rotations.order() == 3
        assert inst.complement.order() == 2
        assert inst.alpha == (1,)

    def test_diagonal(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6)), P(6, (2, 3), (5, 6))])
        inst = build_dihedral(grp, 3)
        assert inst.k == 2
        assert inst.rotations.order() == 3
        assert inst.complement.order() == 2
        assert inst.alpha == (1, 4)

    @pytest.mark.parametrize(
        "degree, gens, order",
        [
            (3, [((2, 3),), ((1, 2),)], 6),
            (6, [((2, 3), (5, 6)), ((1, 2), (4, 5))], 12),
        ],
    )
    def test_reflections_only(self, degree, gens, order):
        # no generator squares to a rotation; the rotations are the squares
        # of the generators' products
        grp = PermGroup.from_gens(degree, [P(degree, *c) for c in gens])
        inst = build_dihedral(grp, 3)
        assert inst.rotations.order() == 3
        res = normalizer_dihedral(inst)
        assert res.order == order
        brute = {g.images for g in brute_normalizer_elements(grp)}
        got = PermGroup.from_gens(degree, res.generators).elements()
        assert {g.images for g in got} == brute

    def test_split_is_semidirect(self):
        rng = random.Random(3)
        for _ in range(20):
            k = rng.randrange(1, 5)
            p = rng.choice([3, 5])
            dim_p = rng.randrange(1, k + 1)
            dim_2 = rng.randrange(1, k + 1)
            grp = random_dihedral(rng, p, k, dim_p, dim_2)
            inst = build_dihedral(grp, p)
            hp, h2 = inst.rotations, inst.complement
            assert grp.order() == hp.order() * h2.order()
            # trivial intersection: the orders are coprime
            assert hp.order() % 2 == 1 and h2.order() & (h2.order() - 1) == 0
            # normality of the rotation part
            hp_chain = hp.chain()
            for x in grp.generators:
                for r in hp.generators:
                    assert hp_chain.contains(r.conj(x))
            # the complement fixes exactly one point per orbit
            for i, orb in enumerate(inst.orbits):
                refl = inst.reflections[i]
                assert sum(1 for q in orb if refl.image(q) == q) == 1

    def test_rejects_cyclic_only(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6))])
        with pytest.raises(NotInClass):
            build_dihedral(grp, 3)

    def test_rejects_wrong_size(self):
        grp = PermGroup.from_gens(4, [P(4, (1, 2, 3, 4)), P(4, (2, 4))])
        with pytest.raises(NotInClass):
            build_dihedral(grp, 3)

    def test_rejects_even_prime(self):
        grp = PermGroup.from_gens(2, [P(2, (1, 2))])
        with pytest.raises(NotInClass):
            build_dihedral(grp, 2)


class TestNormalizerDihedral:
    def test_k1_self_normalising(self):
        grp = PermGroup.from_gens(3, [P(3, (1, 2, 3)), P(3, (2, 3))])
        inst = build_dihedral(grp, 3)
        res = normalizer_dihedral(inst)
        assert res.order == 6

    def test_diagonal_vs_brute(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6)), P(6, (2, 3), (5, 6))])
        inst = build_dihedral(grp, 3)
        res = normalizer_dihedral(inst)
        assert res.order == brute_normalizer(grp).order()

    def test_all_k2_code_combinations_vs_brute(self):
        # every subdirect rotation code and reflection pattern on two blocks
        rot_codes = [M(3, [[1, 1]]), M(3, [[1, 2]]), M(3, [[1, 0], [0, 1]])]
        refl_codes = [M(2, [[1, 1]]), M(2, [[1, 0], [0, 1]])]
        for rm in rot_codes:
            for fm in refl_codes:
                grp = dihedral_group_from_codes(3, rm, fm)
                inst = build_dihedral(grp, 3)
                res = normalizer_dihedral(inst)
                expect = brute_normalizer(grp).order()
                assert res.order == expect, (rm.rows, fm.rows)

    def test_conjugated_instances_vs_brute(self):
        rng = random.Random(7)
        base = dihedral_group_from_codes(3, M(3, [[1, 1]]), M(2, [[1, 1]]))
        for _ in range(5):
            imgs = list(range(1, 7))
            rng.shuffle(imgs)
            sigma = Permutation(imgs)
            grp = PermGroup.from_gens(6, [g.conj(sigma) for g in base.generators])
            inst = build_dihedral(grp, 3)
            res = normalizer_dihedral(inst)
            assert res.order == brute_normalizer(grp).order()

    def test_generators_normalise_larger_instances(self):
        rng = random.Random(11)
        for _ in range(8):
            p = rng.choice([3, 5])
            k = rng.randrange(2, 4)
            grp = random_dihedral(
                rng, p, k, rng.randrange(1, k + 1), rng.randrange(1, k + 1)
            )
            inst = build_dihedral(grp, p)
            res = normalizer_dihedral(inst)
            chain = grp.chain()
            for g in res.generators:
                for x in grp.generators:
                    assert chain.contains(x.conj(g))
            assert res.order % grp.order() == 0

    def test_one_deadline_for_both_searches(self, monkeypatch):
        # a fake monotonic clock that advances one second per reading, in
        # every module that reads it
        clock = SimpleNamespace(now=0.0)

        def monotonic():
            clock.now += 1.0
            return clock.now

        fake_time = SimpleNamespace(monotonic=monotonic)
        monkeypatch.setattr(dihedral_module, "time", fake_time)
        monkeypatch.setattr(search_module, "time", fake_time)
        spans = []
        block_search = dihedral_module.normalizer_in_sym

        def timed_block_search(*args, **kwargs):
            t0 = clock.now
            res = block_search(*args, **kwargs)
            spans.append(clock.now - t0)
            return res

        monkeypatch.setattr(dihedral_module, "normalizer_in_sym", timed_block_search)
        grp, _ = gen_instance(3, 6, 2, 0, dihedral=True)
        inst = build_dihedral(grp, 3)
        start = clock.now
        full = normalizer_dihedral(inst, SearchConfig(time_limit=1e9))
        total = clock.now - start
        first = spans[0]
        second = total - first
        # each search alone fits in the limit, the two together do not
        limit = (total + max(first, second)) / 2
        assert max(first, second) < limit < total
        with pytest.raises(SearchTimeout):
            normalizer_dihedral(inst, SearchConfig(time_limit=limit))
        assert normalizer_dihedral(inst, SearchConfig(time_limit=total)).order == full.order


class TestClosedFormOrder:
    # the closed-form order against sympy's Schreier-Sims on the result
    # generators, for instances relabelled by a random permutation of all
    # points; (13, 20, 3) has degree 260 and runs on the tuple backing.
    # gen_instance's reflections mostly make the rotation code all of F_p^k;
    # one reflection of every orbit keeps it at dimension dim < k
    @pytest.mark.parametrize("one_reflection", [False, True])
    @pytest.mark.parametrize(
        "p,k,dim,seeds",
        [(3, 6, 2, 4), (5, 5, 3, 3), (3, 10, 4, 2), (7, 8, 3, 2), (13, 20, 3, 1)],
    )
    def test_order_matches_sympy(self, p, k, dim, seeds, one_reflection):
        comb = pytest.importorskip("sympy.combinatorics")
        for seed in range(seeds):
            rng = random.Random(seed)
            if one_reflection:
                rot = random_full_rank(rng, p, k, dim)
                while not all(any(rot.col(j)) for j in range(1, k + 1)):
                    rot = random_full_rank(rng, p, k, dim)
                base = dihedral_group_from_codes(p, rot, M(2, [[1] * k]))
            else:
                base, _ = gen_instance(p, k, dim, seed, dihedral=True)
            imgs = list(range(1, base.degree + 1))
            rng.shuffle(imgs)
            sigma = Permutation(imgs)
            grp = PermGroup.from_gens(
                base.degree, [g.conj(sigma) for g in base.generators]
            )
            inst = build_dihedral(grp, p)
            if one_reflection:
                assert inst.rot_inst.s == dim < k
            res = normalizer_dihedral(inst)
            expect = comb.PermutationGroup(
                [comb.Permutation([x - 1 for x in g.images]) for g in res.generators]
            ).order()
            assert res.order == expect, (p, k, dim, seed)
