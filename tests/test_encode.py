import dataclasses
import functools
import itertools
import operator
import random
import re

import pytest

from symnorm.encode import (
    InPInstance,
    MonomialElement,
    NotInClass,
    affine_parts,
    affine_perm,
    build_instance,
    code_to_group,
    decompose_bk,
    eliminate_column,
    equiv_orbit_swap,
    exponent_scaling_perm,
    gamma_inv,
    gamma_map,
    instance_from_code,
    recognise_orbits,
    reduce_equivalent_orbits,
    xi_image,
)
from symnorm.cli import gen_instance, main
from symnorm.gfp import FpMatrix, column_equiv_classes
from symnorm.perm import PermGroup, Permutation, format_group
from symnorm.search import (
    full_search,
    limit_depth_search,
    norm_b,
    normalizer_in_sym,
)


def P(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def M(p, rows):
    return FpMatrix.from_rows(p, rows)


def e1_group():
    """Three 2-point orbits, code [[1,0,1],[0,1,1]] over F_2."""
    return PermGroup.from_gens(6, [P(6, (1, 2), (5, 6)), P(6, (3, 4), (5, 6))])


def swap_perm(k, i, j):
    """The transposition of orbit indices i and j (1-based) in S_k."""
    imgs = list(range(1, k + 1))
    imgs[i - 1], imgs[j - 1] = j, i
    return Permutation(imgs)


def mono_product(w1, w2):
    """w1 then w2 as one monomial map (reference for the action)."""
    diag = tuple(
        w1.diag[i] * w2.diag[w1.perm.image(i + 1) - 1] % w1.p for i in range(w1.k)
    )
    return MonomialElement(w1.p, diag, w1.perm * w2.perm)


def random_monomial(rng, p, k):
    diag = tuple(rng.randrange(1, p) for _ in range(k))
    imgs = list(range(1, k + 1))
    rng.shuffle(imgs)
    return MonomialElement(p, diag, Permutation(imgs))


def random_instance(rng, p, k, dim):
    while True:
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(dim)]
        try:
            m = M(p, rows)
            from symnorm.gfp import matrix_rank

            if matrix_rank(m) == dim and not any(
                all(r[j] == 0 for r in rows) for j in range(k)
            ):
                return build_instance(code_to_group(m), p)
        except Exception:
            continue


class TestBuildInstance:
    def test_e1(self):
        inst = build_instance(e1_group(), 2)
        assert inst.k == 3 and inst.s == 2
        assert inst.matrix == M(2, [[1, 0, 1], [0, 1, 1]])
        assert inst.dual == M(2, [[1, 1, 1]])
        assert inst.orbits == ((1, 2), (3, 4), (5, 6))

    def test_single_orbit(self):
        inst = build_instance(PermGroup.from_gens(3, [P(3, (1, 2, 3))]), 3)
        assert inst.k == 1 and inst.s == 1
        assert inst.matrix == M(3, [[1]])

    def test_wrong_orbit_size(self):
        with pytest.raises(NotInClass):
            build_instance(PermGroup.from_gens(3, [P(3, (1, 2, 3))]), 2)

    def test_non_cyclic_restriction(self):
        # S_3 on one orbit of size 3
        grp = PermGroup.from_gens(3, [P(3, (1, 2, 3)), P(3, (1, 2))])
        with pytest.raises(NotInClass):
            build_instance(grp, 3)

    def test_pivot_reordering(self):
        # generator exponent vectors force a non-leading pivot
        grp = code_to_group(M(3, [[1, 1]]))
        big = PermGroup.from_gens(
            9,
            [
                P(9, (4, 5, 6), (7, 8, 9)),
            ],
        )
        inst = build_instance(big, 3)
        assert inst.k == 2
        assert inst.orbits == ((4, 5, 6), (7, 8, 9))
        assert inst.matrix.is_standard()
        del grp

    def test_standard_gens_and_order(self):
        rng = random.Random(2)
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(1, 5)
            dim = rng.randrange(1, k + 1)
            inst = random_instance(rng, p, k, dim)
            row_gens = [gamma_inv(inst, r) for r in inst.matrix.rows]
            grp = PermGroup.from_gens(inst.degree, row_gens)
            assert grp.order() == p**inst.s
            for i, x in enumerate(row_gens):
                assert gamma_map(inst, x) == inst.matrix.rows[i]
            # every orbit bijection conjugates each orbit cycle onto the
            # cycle of the orbit it moves to
            for imgs in itertools.permutations(range(1, inst.k + 1)):
                pi = Permutation(imgs)
                kap = affine_perm(inst, pi)
                for i in range(inst.k):
                    assert inst.orbit_gens[i].conj(kap) == inst.orbit_gens[imgs[i] - 1]


def relisted(rng, grp):
    """grp on its generators shuffled, with repeats and products of two
    added; built directly, since from_gens would drop the repeats."""
    gens = list(grp.generators)
    gens += [rng.choice(gens) for _ in range(2)]
    gens += [rng.choice(gens) * rng.choice(gens) for _ in range(2)]
    rng.shuffle(gens)
    return PermGroup(grp.degree, tuple(gens))


# one group per rejection path of the cyclic class, and the text the error
# must hold: the orbit, or p
CYCLIC_REJECTIONS = [
    ("size", 2, 3, [((1, 2, 3),)], r"orbit \[1, 2, 3\] has size 3"),
    ("no-p-cycle", 5, 5, [((1, 2, 3),), ((3, 4),), ((4, 5),)],
     r"p-cycle on orbit \[1, 2, 3, 4, 5\]"),
    ("not-affine", 5, 5, [((1, 2, 3, 4, 5),), ((1, 2),)],
     r"Permutation\[\(1 2\)\] acts on orbit \[1, 2, 3, 4, 5\]"),
    ("scale", 3, 6, [((1, 2, 3), (4, 5, 6)), ((5, 6),)], r"orbit \[4, 5, 6\]"),
    ("not-prime", 4, 8, [((1, 2, 3, 4), (5, 6, 7, 8)), ((1, 3), (5, 7))],
     r"orbit size 4 is not prime"),
    ("trivial", 3, 3, [], r"no orbits of size 3"),
]


class TestRecognition:
    # gen_instance cells: bytes and index-table backing, with repeated columns
    CELLS = [(2, 8, 3), (3, 10, 4), (5, 8, 2), (7, 9, 5), (7, 37, 3)]

    def test_generating_set_does_not_matter(self):
        rng = random.Random(43)
        for p, k, dim in self.CELLS:
            for seed in range(3):
                grp = conjugated(gen_instance(p, k, dim, seed)[0], rng)
                inst = build_instance(grp, p)
                cycles, _ = recognise_orbits(grp, p)
                for _ in range(3):
                    other = relisted(rng, grp)
                    assert recognise_orbits(other, p)[0] == cycles
                    again = build_instance(other, p)
                    assert again.orbit_cycles == inst.orbit_cycles
                    assert again.matrix == inst.matrix

    def test_coordinates(self):
        # every generator is u -> u + b on every cycle, b its exponent vector
        rng = random.Random(47)
        grp = conjugated(gen_instance(5, 6, 3, 1)[0], rng)
        inst = build_instance(grp, 5)
        cycles, coords = recognise_orbits(grp, 5)
        assert sorted(cycles) == sorted(inst.orbit_cycles)
        for x, (scale, shift) in zip(grp.generators, coords):
            assert scale == (1,) * inst.k
            for cyc, b in zip(cycles, shift):
                assert [x.image(q) for q in cyc] == [cyc[(u + b) % 5] for u in range(5)]

    @pytest.mark.parametrize(
        "p, degree, gens, match", [c[1:] for c in CYCLIC_REJECTIONS],
        ids=[c[0] for c in CYCLIC_REJECTIONS],
    )
    def test_rejections_name_orbit_or_p(self, p, degree, gens, match, tmp_path, capsys):
        grp = PermGroup.from_gens(degree, [P(degree, *c) for c in gens])
        with pytest.raises(NotInClass, match=match):
            build_instance(grp, p)
        path = tmp_path / "grp.txt"
        path.write_text(format_group(p, degree, grp.generators))
        assert main(["compute", "--in", str(path), "--method", "full"]) == 2
        assert re.search(match, capsys.readouterr().err)


class TestGamma:
    def test_identity(self):
        inst = build_instance(e1_group(), 2)
        assert gamma_map(inst, Permutation.identity(6)) == (0, 0, 0)

    def test_e1_generator(self):
        inst = build_instance(e1_group(), 2)
        assert gamma_map(inst, P(6, (1, 2), (3, 4))) == (1, 1, 0)

    def test_inverse_direction(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3)), P(6, (4, 5, 6))])
        inst = build_instance(grp, 3)
        assert gamma_inv(inst, (0, 1)) == P(6, (4, 5, 6))

    def test_roundtrip_random(self):
        rng = random.Random(5)
        inst = random_instance(rng, 5, 4, 3)
        for _ in range(30):
            v = tuple(rng.randrange(5) for _ in range(4))
            assert gamma_map(inst, gamma_inv(inst, v)) == v

    def test_rejects_outsiders(self):
        inst = build_instance(e1_group(), 2)
        with pytest.raises(ValueError):
            gamma_map(inst, P(6, (1, 3), (2, 4)))


class TestMonomial:
    def test_apply_matches_column_map(self):
        w = MonomialElement(3, (2, 1), Permutation((2, 1)))
        assert w.apply((1, 0)) == (0, 2)
        assert w.apply((0, 1)) == (1, 0)

    def test_group_axioms(self):
        rng = random.Random(7)
        p, k = 5, 4
        for _ in range(50):
            w1, w2 = random_monomial(rng, p, k), random_monomial(rng, p, k)
            v = tuple(rng.randrange(p) for _ in range(k))
            assert mono_product(w1, w2).apply(v) == w2.apply(w1.apply(v))
            inv_perm = w1.perm.inverse()
            inv_diag = tuple(
                pow(w1.diag[inv_perm.image(j) - 1], -1, p) for j in range(1, k + 1)
            )
            w1_inv = MonomialElement(p, inv_diag, inv_perm)
            assert w1_inv.apply(w1.apply(v)) == v


class TestXi:
    def test_kappa_element_example(self):
        inst = build_instance(e1_group(), 2)
        kap = affine_perm(inst, Permutation((2, 1, 3)))
        assert kap == P(6, (1, 3), (2, 4))
        assert affine_parts(inst, kap)[0] == Permutation((2, 1, 3))

    def test_kappa_realises_any_index_perm(self):
        rng = random.Random(11)
        inst = random_instance(rng, 3, 4, 2)
        for imgs in itertools.permutations(range(1, 5)):
            pi = Permutation(imgs)
            assert affine_parts(inst, affine_perm(inst, pi))[0] == pi

    def test_decompose_examples(self):
        inst = build_instance(e1_group(), 2)
        phi2 = affine_perm(inst, Permutation((2, 1, 3)))
        b, kap = decompose_bk(inst, phi2)
        assert b.is_identity() and kap == phi2
        g = inst.orbit_gens[0]
        b, kap = decompose_bk(inst, g)
        assert b == g and kap.is_identity()

    def test_decompose_mixed(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6))])
        inst = build_instance(grp, 3)
        sigma = exponent_scaling_perm(inst, 0, 2)
        l = sigma * affine_perm(inst, Permutation((2, 1)))
        b, kap = decompose_bk(inst, l)
        assert b * kap == l
        assert affine_parts(inst, kap)[0] == Permutation((2, 1))

    def test_xi_kernel(self):
        inst = build_instance(e1_group(), 2)
        w = xi_image(inst, inst.orbit_gens[0])
        assert w == MonomialElement(2, (1, 1, 1), Permutation.identity(3))

    def test_xi_image_of_swap(self):
        inst = build_instance(e1_group(), 2)
        w = xi_image(inst, affine_perm(inst, Permutation((2, 1, 3))))
        assert w.diag == (1, 1, 1)
        assert w.perm == Permutation((2, 1, 3))

    def test_preimage_example(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3)), P(6, (4, 5, 6))])
        inst = build_instance(grp, 3)
        sigma = affine_perm(inst, scale=(2, 1))
        assert sigma == P(6, (2, 3))
        assert inst.orbit_gens[0].conj(sigma) == inst.orbit_gens[0] ** 2

    def test_xi_roundtrip(self):
        rng = random.Random(13)
        inst = random_instance(rng, 5, 3, 2)
        for _ in range(30):
            w = random_monomial(rng, 5, 3)
            assert xi_image(inst, affine_perm(inst, w.perm, w.diag)) == w

    def test_xi_homomorphism(self):
        rng = random.Random(17)
        inst = random_instance(rng, 3, 4, 2)
        for _ in range(20):
            ls = []
            for _ in range(2):
                w = random_monomial(rng, 3, 4)
                shift = [rng.randrange(3) for _ in range(4)]
                ls.append(affine_perm(inst, w.perm, w.diag, shift))
            l1, l2 = ls
            assert xi_image(inst, l1 * l2) == mono_product(
                xi_image(inst, l1), xi_image(inst, l2)
            )

    def test_equivariance(self):
        # conjugation on the group matches the monomial action on vectors
        rng = random.Random(19)
        inst = random_instance(rng, 5, 3, 2)
        for _ in range(30):
            v = tuple(rng.randrange(5) for _ in range(3))
            g = gamma_inv(inst, v)
            w = random_monomial(rng, 5, 3)
            l = affine_perm(inst, w.perm, w.diag)
            assert xi_image(inst, l) == w
            assert gamma_map(inst, g.conj(l)) == w.apply(v)


class TestStabMatrix:
    def test_e1_first_orbit(self):
        # stabilising point 1 stabilises its orbit, the first column
        inst = build_instance(e1_group(), 2)
        assert inst.point_orbit[1] == 0
        assert eliminate_column(inst.matrix, 1) == M(2, [[0, 1, 1]])
        fixed = gamma_inv(inst, (0, 1, 1))
        assert fixed.image(1) == 1

    def test_two_orbits_trivial(self):
        inst = build_instance(e1_group(), 2)
        got = eliminate_column(eliminate_column(inst.matrix, 1), 2)
        assert got.s == 0

    def test_zero_column_noop(self):
        m = M(2, [[0, 1, 1]])
        assert eliminate_column(m, 1) == m


class TestCodeToGroup:
    def test_repetition(self):
        grp = code_to_group(M(3, [[1, 1]]))
        assert grp.generators == (P(6, (1, 2, 3), (4, 5, 6)),)

    def test_identity_code(self):
        grp = code_to_group(M(2, [[1, 0], [0, 1]]))
        assert set(grp.generators) == {P(4, (1, 2)), P(4, (3, 4))}

    def test_e1_code(self):
        grp = code_to_group(M(2, [[1, 0, 1], [0, 1, 1]]))
        inst = build_instance(grp, 2)
        assert inst.matrix == M(2, [[1, 0, 1], [0, 1, 1]])

    def test_row_space_roundtrip(self):
        rng = random.Random(23)
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 5)
            dim = rng.randrange(1, k + 1)
            inst = random_instance(rng, p, k, dim)
            m2 = build_instance(code_to_group(inst.matrix), p).matrix
            # same row space
            from symnorm.gfp import in_row_space

            assert all(in_row_space(r, inst.matrix) for r in m2.rows)
            assert m2.s == inst.matrix.s

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            code_to_group(M(2, [[1, 1], [1, 1]]))


def centralizer(H, p):
    """The centraliser of H in the symmetric group on its orbits: per-orbit
    cycles plus exponent-matched swaps of equivalent orbits."""
    return PermGroup.from_gens(
        H.degree, reduce_equivalent_orbits(build_instance(H, p)).centralizer_gens
    )


class TestCentralizer:
    def test_e1_inequivalent(self):
        assert centralizer(e1_group(), 2).order() == 8

    def test_equivalent_orbits(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6))])
        c = centralizer(grp, 3)
        assert c.order() == 18
        assert c.contains(P(6, (1, 4), (2, 5), (3, 6)))

    def test_single_orbit(self):
        assert centralizer(PermGroup.from_gens(3, [P(3, (1, 2, 3))]), 3).order() == 3

    def test_centralizes_by_brute_force(self):
        rng = random.Random(29)
        for _ in range(10):
            p = rng.choice([2, 3])
            k = rng.randrange(1, 4)
            dim = rng.randrange(1, k + 1)
            inst = random_instance(rng, p, k, dim)
            row_gens = [gamma_inv(inst, r) for r in inst.matrix.rows]
            c = centralizer(PermGroup.from_gens(inst.degree, row_gens), p)
            for g in c.generators:
                for x in row_gens:
                    assert x.conj(g) == x


class TestEquivSwap:
    def test_swap_centralizes_scaled_columns(self):
        grp = code_to_group(M(3, [[1, 2]]))
        inst = build_instance(grp, 3)
        lead1 = next(x for x in inst.matrix.col(1) if x)
        lead2 = next(x for x in inst.matrix.col(2) if x)
        a = lead2 * pow(lead1, 1, 3) % 3
        sw = equiv_orbit_swap(inst, 1, 2, a)
        x = gamma_inv(inst, inst.matrix.rows[0])
        assert x.conj(sw) == x


class TestReduce:
    def test_identity_reduction(self):
        red = reduce_equivalent_orbits(build_instance(e1_group(), 2))
        assert red.reduced is red.instance
        assert red.class_sizes == (1, 1, 1)

    def test_diagonal_c3(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6))])
        red = reduce_equivalent_orbits(build_instance(grp, 3))
        assert red.reduced.orbits == ((1, 2, 3),)
        assert [gamma_inv(red.reduced, r) for r in red.reduced.matrix.rows] == [
            P(6, (1, 2, 3))
        ]
        assert red.class_sizes == (2,)
        u = P(6, (2, 3))
        theta_u = red.theta(u)
        assert theta_u == P(6, (2, 3), (5, 6))
        # the image normalises the original group
        h = grp.generators[0]
        assert grp.contains(h.conj(theta_u))

    def test_theta_normalises(self):
        grp = code_to_group(M(3, [[1, 2, 1, 2]]))
        red = reduce_equivalent_orbits(build_instance(grp, 3))
        assert red.reduced.orbits == ((1, 2, 3),)
        assert red.class_sizes == (4,)
        # exponent scaling on the representative orbit extends to all orbits
        sigma = exponent_scaling_perm(red.reduced, 0, 2)
        img = red.theta(sigma)
        for x in grp.generators:
            assert grp.contains(x.conj(img))


def repeated_columns_group(rng, p, copies):
    """The block group of a code of dimension 2 with len(copies) distinct
    points of the projective line as columns, point j repeated copies[j]
    times, every copy scaled at random, the columns in random order and all
    points relabelled at random.  PGL(2, p) is 3-transitive on the line, so
    the normaliser moves the class representatives."""
    line = [(1, a) for a in range(p)] + [(0, 1)]
    points = rng.sample(line, len(copies))
    cols = [pt for pt, m in zip(points, copies) for _ in range(m)]
    rng.shuffle(cols)
    scales = rng.choices(range(1, p), k=len(cols))
    rows = [[x * a % p for x, a in zip(row, scales)] for row in zip(*cols)]
    return conjugated(code_to_group(M(p, rows)), rng)


class TestThetaOracle:
    """ReduceResult.theta against its defining properties, on elements of
    the normaliser of the group on the class representatives."""

    @pytest.mark.parametrize(
        "p, copies",
        [(2, (2, 2, 1)), (3, (2, 2, 1, 1)), (5, (2, 2, 2, 1)), (7, (3, 3, 1))],
    )
    def test_properties(self, p, copies):
        rng = random.Random(p)
        moved = rejected = 0
        for _ in range(3):
            grp = repeated_columns_group(rng, p, copies)
            red = reduce_equivalent_orbits(build_instance(grp, p))
            reduced = red.reduced
            rep_group = PermGroup.from_gens(
                grp.degree, [gamma_inv(reduced, r) for r in reduced.matrix.rows]
            )
            gens = list(normalizer_in_sym(rep_group, p).generators)
            words = gens + [
                functools.reduce(operator.mul, rng.choices(gens, k=rng.randrange(2, 5)))
                for _ in range(20)
            ]
            chain = grp.chain()
            rep_points = [q for orb in reduced.orbits for q in orb]
            cycles = reduced.orbit_cycles
            kept = []
            for u in words:
                images = [reduced.point_orbit[u.image(c[0])] for c in cycles]
                if [red.class_sizes[j] for j in images] != list(red.class_sizes):
                    with pytest.raises(ValueError, match="different sizes"):
                        red.theta(u)
                    rejected += 1
                    continue
                kept.append(u)
                moved += images != sorted(images)
                img = red.theta(u)
                assert all(img.image(q) == u.image(q) for q in rep_points)
                assert all(chain.contains(x.conj(img)) for x in grp.generators)
            for u, v in zip(kept, kept[1:] + kept[:1]):
                assert red.theta(u * v) == red.theta(u) * red.theta(v)
        assert moved and rejected

    @pytest.mark.parametrize(
        "p, k, dim, seed", [(5, 7, 3, 0), (7, 8, 4, 1), (3, 8, 5, 1), (2, 10, 6, 3)]
    )
    def test_identity_when_nothing_collapses(self, p, k, dim, seed):
        # theta is u itself; the point-by-point path, run on an equal copy
        # of the reduced instance, agrees on every search generator
        inst = build_instance(gen_instance(p, k, dim, seed)[0], p)
        assert len(column_equiv_classes(inst.matrix)) == inst.k
        red = reduce_equivalent_orbits(inst)
        assert red.reduced is inst
        copy = instance_from_code(
            inst.field, inst.degree, inst.orbit_cycles, inst.matrix.rows
        )
        generic = dataclasses.replace(red, reduced=copy)
        gens = full_search(inst).generators + limit_depth_search(inst).generators
        assert len(gens) > inst.k  # more than the orbit cycles
        for u in gens:
            assert red.theta(u) is u
            assert generic.theta(u) == u

    def test_rejects_mixed_class_sizes(self):
        # columns (1, 0), (0, 1), (0, 2): classes of sizes 1 and 2, whose
        # representatives the identity code on them lets change places
        rng = random.Random(53)
        grp = conjugated(code_to_group(M(3, [[1, 0, 0], [0, 1, 2]])), rng)
        red = reduce_equivalent_orbits(build_instance(grp, 3))
        assert sorted(red.class_sizes) == [1, 2]
        swap = affine_perm(red.reduced, Permutation([2, 1]))
        with pytest.raises(ValueError, match="different sizes"):
            red.theta(swap)


def restrict(g, points):
    """The permutation agreeing with g on the g-invariant points and fixing
    all else."""
    images = list(range(1, g.degree + 1))
    for q in points:
        images[q - 1] = g.image(q)
    return Permutation(images)


def assert_same_instance(a, b):
    for f in dataclasses.fields(InPInstance):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def conjugated(grp, rng):
    """grp relabelled by a random permutation of all its points."""
    imgs = list(range(1, grp.degree + 1))
    rng.shuffle(imgs)
    s = Permutation(imgs)
    return PermGroup.from_gens(grp.degree, [g.conj(s) for g in grp.generators])


class TestInstanceFromCode:
    """The reduced and the dual instances, built from their codes, equal
    build_instance of the restricted and the dual permutation groups, field
    by field."""

    # (p, k, dim): bytes backing (degree <= 256) and index-table backing (259)
    CELLS = [(2, 10, 3), (3, 10, 2), (3, 8, 6), (5, 8, 2), (5, 8, 6), (7, 9, 5),
             (7, 37, 3)]

    def test_against_recognition(self):
        rng = random.Random(41)
        reduced = duals = big = 0
        for p, k, dim in self.CELLS:
            for seed in range(4):
                grp, _ = gen_instance(p, k, dim, seed)
                if seed % 2:
                    grp = conjugated(grp, rng)
                red = reduce_equivalent_orbits(build_instance(grp, p))
                points = [q for orb in red.reduced.orbits for q in orb]
                restricted = PermGroup.from_gens(
                    grp.degree, [restrict(x, points) for x in grp.generators]
                )
                assert_same_instance(red.reduced, build_instance(restricted, p))
                reduced += red.reduced is not red.instance
                for inst in dict.fromkeys((red.instance, red.reduced)):
                    dual = inst.dual
                    if not dual.s or not all(any(col) for col in zip(*dual.rows)):
                        continue  # the dual group would lose an orbit
                    dual_group = PermGroup.from_gens(
                        inst.degree, [gamma_inv(inst, row) for row in dual.rows]
                    )
                    from_code = instance_from_code(
                        inst.field, inst.degree, inst.orbit_cycles, dual.rows
                    )
                    assert_same_instance(from_code, build_instance(dual_group, p))
                    duals += 1
                    big += inst.degree > 256
        assert reduced >= 12 and duals >= 30 and big >= 4


class TestBuildLK:
    # the orbit-fixing part B comes from norm_b; with one orbit per direct
    # factor it is every per-orbit cycle and scaling map, and the orbit
    # bijections generate the orbit-exchange part K
    def test_shapes(self):
        inst = build_instance(e1_group(), 2)
        k_gens = [affine_perm(inst, swap_perm(3, 1, i)) for i in (2, 3)]
        b_gens = norm_b(inst)
        assert len(k_gens) == 2
        assert len(b_gens) == 3  # t = 1 for p = 2, no scaling maps

    def test_b_part_order(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3)), P(6, (4, 5, 6))])
        inst = build_instance(grp, 3)
        k_gens, b_gens = [affine_perm(inst, swap_perm(2, 1, 2))], norm_b(inst)
        assert PermGroup.from_gens(6, b_gens).order() == 36  # (3*2)^2
        full = PermGroup.from_gens(6, b_gens + k_gens)
        assert full.order() == 72
