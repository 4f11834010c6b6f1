import itertools
import math
import random
import re
from types import SimpleNamespace

import pytest

import symnorm.dihedral as dihedral_module
import symnorm.search as search_module
from symnorm.cli import gen_instance, main, random_full_rank
from symnorm.dihedral import build_dihedral, normalizer_dihedral
from symnorm.encode import NotInClass, block_perm, code_to_group
from symnorm.gfp import FpMatrix, InvariantViolation, matrix_rank
from symnorm.oracle import brute_normalizer, brute_normalizer_elements
from symnorm.perm import PermGroup, Permutation, format_group, orbits_of
from symnorm.search import SearchConfig, SearchTimeout, normalizer_in_sym


def P(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def M(p, rows):
    return FpMatrix.from_rows(p, rows)


def dihedral_group_from_codes(p, rot_matrix, refl_matrix):
    """Group on consecutive p-blocks: rotations from the first code's rows,
    products of block reflections from the second's."""
    k = rot_matrix.k
    gens = list(code_to_group(rot_matrix).generators)
    for row in refl_matrix.rows:
        # invert the block cycle around its first point where row is odd
        gens.append(block_perm(p, [p - 1 if bit % 2 else 1 for bit in row], [0] * k))
    return PermGroup.from_gens(p * k, gens)


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


def dihedral_power(p, k):
    """(D_p)^k on consecutive p-blocks: per block a rotation and the
    reflection fixing the block's first point."""
    n = p * k
    gens = []
    for b in range(0, n, p):
        gens.append(P(n, tuple(range(b + 1, b + p + 1))))
        gens.append(P(n, *[(b + 1 + u, b + 1 + p - u) for u in range(1, (p + 1) // 2)]))
    return gens


def word_generated(rng, degree, gens):
    """The same group on generators that are words in the given ones: one
    generator at a time is multiplied by another (Nielsen moves), then the
    list is shuffled and every point relabelled at random."""
    gens = list(gens)
    for _ in range(3 * len(gens)):
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] = gens[i] * gens[j] if rng.random() < 0.5 else gens[j] * gens[i]
    rng.shuffle(gens)
    imgs = list(range(1, degree + 1))
    rng.shuffle(imgs)
    sigma = Permutation(imgs)
    return PermGroup.from_gens(degree, [g.conj(sigma) for g in gens])


def section_average_complement(grp, p):
    """The complement as a section through F_2 pivot generators of the
    reflection patterns, averaged over all 2^rank patterns: the cocycle of
    the section is a product of commuting rotations of odd order p, so its
    (1/2^rank)-th power corrects the section to a homomorphism.  Costs
    2^rank products; an oracle for the closed form."""
    orbits = orbits_of(grp.generators, grp.support())
    pivots = []
    for x in grp.generators:
        # a reflection of an orbit fixes exactly one of its points
        w = [int(sum(x.image(q) == q for q in orb) == 1) for orb in orbits]
        elem = x
        for pvec, pelem in pivots:
            if w[pvec.index(1)]:
                w = [a ^ b for a, b in zip(w, pvec)]
                elem = elem * pelem
        if any(w):
            pivots.append((w, elem))
    rank = len(pivots)
    ident = Permutation.identity(grp.degree)
    section = {}
    for bits in itertools.product((0, 1), repeat=rank):
        g = ident
        for bit, (_, pelem) in zip(bits, pivots):
            if bit:
                g = g * pelem
        section[bits] = g
    lam = pow(2**rank, -1, p)
    gens = []
    for i in range(rank):
        q = tuple(int(j == i) for j in range(rank))
        sq = section[q]
        acc = ident
        for r, sr in section.items():
            qr = tuple(a ^ b for a, b in zip(q, r))
            acc = acc * (sq * sr * section[qr].inverse())
        gens.append(acc ** (-lam % p) * sq)
    return gens


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
            # the complement fixes exactly one point per orbit, alpha
            for i, orb in enumerate(inst.orbits):
                fixed = [q for q in orb if all(g.image(q) == q for g in h2.generators)]
                assert fixed == [inst.alpha[i]]

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_complement_matches_section_average(self, p):
        # word-generated instances with complement ranks 1-10, every point
        # relabelled; the generators must agree, in order
        rng = random.Random(p)
        for rank in range(1, 11):
            k = rank + rng.randrange(3)
            base = random_dihedral(rng, p, k, rng.randrange(1, k + 1), rank)
            grp = word_generated(rng, base.degree, base.generators)
            inst = build_dihedral(grp, p)
            assert inst.complement.order() == 2**rank
            assert list(inst.complement.generators) == section_average_complement(grp, p)

    def test_complement_matches_section_average_tuple_backing(self):
        rng = random.Random(259)
        base = random_dihedral(rng, 7, 37, 3, 5)
        grp = word_generated(rng, base.degree, base.generators)
        assert grp.degree == 259
        inst = build_dihedral(grp, 7)
        assert list(inst.complement.generators) == section_average_complement(grp, 7)

    def test_rank_has_no_limit(self):
        grp = PermGroup.from_gens(63, dihedral_power(3, 21))
        inst = build_dihedral(grp, 3)
        assert inst.rot_inst.s == 21
        assert inst.complement.order() == 2**21

    def test_rejects_cyclic_only(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6))])
        with pytest.raises(NotInClass):
            build_dihedral(grp, 3)

    @pytest.mark.parametrize(
        "degree, gens",
        [
            (5, [((1, 2, 3, 4, 5),), ((2, 3, 5, 4),)]),  # AGL(1, 5)
            (5, [((1, 2, 3, 4, 5),), ((1, 2),)]),  # S_5
            (6, [((1, 2, 3),), ((4, 5, 6),), ((5, 6),)]),  # [1, 2, 3] cyclic
        ],
    )
    def test_rejects_other_orbit_groups(self, degree, gens, tmp_path, capsys):
        grp = PermGroup.from_gens(degree, [P(degree, *c) for c in gens])
        p = 5 if degree == 5 else 3
        with pytest.raises(NotInClass, match=r"orbit \[1, 2, 3"):
            build_dihedral(grp, p)
        path = tmp_path / "grp.txt"
        path.write_text(format_group(p, degree, grp.generators))
        assert main(["compute", "--in", str(path), "--method", "dihedral"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rejects_wrong_size(self):
        grp = PermGroup.from_gens(4, [P(4, (1, 2, 3, 4)), P(4, (2, 4))])
        with pytest.raises(NotInClass):
            build_dihedral(grp, 3)

    def test_rejects_even_prime(self):
        grp = PermGroup.from_gens(2, [P(2, (1, 2))])
        with pytest.raises(NotInClass):
            build_dihedral(grp, 2)


# one group per rejection path of the dihedral class that
# test_rejects_other_orbit_groups does not take (a generator that is not
# affine, a scale other than +-1, an orbit without a reflection), and the
# text the error must hold: the orbit, or p
DIHEDRAL_REJECTIONS = [
    ("size", 3, 4, [((1, 2, 3, 4),), ((2, 4),)], r"orbit \[1, 2, 3, 4\] has size 4"),
    ("no-p-cycle", 5, 5, [((1, 2, 3),), ((3, 4),), ((4, 5),)],
     r"p-cycle on orbit \[1, 2, 3, 4, 5\]"),
    ("not-prime", 9, 9, [(tuple(range(1, 10)),), ((2, 9), (3, 8), (4, 7), (5, 6))],
     r"orbit size 9 is not prime"),
    ("even", 2, 2, [((1, 2),)], r"odd prime orbit size, not 2"),
    ("trivial", 3, 3, [], r"no orbits of size 3"),
]


class TestRecognition:
    def test_generating_set_does_not_matter(self):
        # the rotation code and its cycles do not depend on the generating
        # set; alpha follows the order of the generators, so it is checked
        # against repeats appended at the end
        rng = random.Random(13)
        for p, k, dim in [(3, 6, 2), (5, 5, 3), (7, 8, 3), (7, 37, 3)]:
            for seed in range(3):
                base, _ = gen_instance(p, k, dim, seed, dihedral=True)
                for grp in (base, word_generated(rng, base.degree, base.generators)):
                    inst = build_dihedral(grp, p)
                    gens = list(grp.generators)
                    repeated = gens + [rng.choice(gens) for _ in range(3)]
                    again = build_dihedral(PermGroup(grp.degree, tuple(repeated)), p)
                    assert again.alpha == inst.alpha
                    gens += [rng.choice(gens) * rng.choice(gens) for _ in range(2)]
                    gens += [rng.choice(gens) for _ in range(2)]
                    rng.shuffle(gens)
                    other = build_dihedral(PermGroup(grp.degree, tuple(gens)), p)
                    assert other.rot_inst.orbit_cycles == inst.rot_inst.orbit_cycles
                    assert other.rot_inst.matrix == inst.rot_inst.matrix

    @pytest.mark.parametrize(
        "p, degree, gens, match", [c[1:] for c in DIHEDRAL_REJECTIONS],
        ids=[c[0] for c in DIHEDRAL_REJECTIONS],
    )
    def test_rejections_name_orbit_or_p(self, p, degree, gens, match, tmp_path, capsys):
        grp = PermGroup.from_gens(degree, [P(degree, *c) for c in gens])
        with pytest.raises(NotInClass, match=match):
            build_dihedral(grp, p)
        path = tmp_path / "grp.txt"
        path.write_text(format_group(p, degree, grp.generators))
        assert main(["compute", "--in", str(path), "--method", "dihedral"]) == 2
        assert re.search(match, capsys.readouterr().err)


def transversal_kappa(inst):
    """kappa by the transversal-block route: the complement restricted to
    one two-point block per orbit, the points u steps either side of
    alpha_i on its cycle (u the step from alpha to the least other point of
    the orbit holding the least point), normalised by normalizer_in_sym
    over F_2, and the block permutations its generators induce."""
    rot, p = inst.rot_inst, inst.p
    first = min(range(inst.k), key=lambda i: inst.orbits[i][0])
    rest = [q for q in inst.orbits[first] if q != inst.alpha[first]]
    u = rot.point_exp[rest[0]] - rot.point_exp[inst.alpha[first]]
    blocks = [
        frozenset(cyc[(rot.point_exp[a] + d) % p] for d in (u, -u))
        for cyc, a in zip(rot.orbit_cycles, inst.alpha)
    ]
    restricted = []
    for g in inst.complement.generators:
        images = list(range(1, inst.degree + 1))
        for q in frozenset().union(*blocks):
            images[q - 1] = g.image(q)
        restricted.append(Permutation(images))
    res = normalizer_in_sym(PermGroup.from_gens(inst.degree, restricted), 2)
    lookup = {blk: i + 1 for i, blk in enumerate(blocks)}
    induced = [
        Permutation([lookup[frozenset(g.image(q) for q in blk)] for blk in blocks])
        for g in res.generators
    ]
    return PermGroup.from_gens(inst.k, induced)


class _Kappa(Exception):
    """Carries the kappa group out of normalizer_dihedral before the
    rotation search."""


def sign_code_kappa(inst, monkeypatch):
    """The kappa group that normalizer_dihedral hands the rotation search."""

    def stop(rot, cfg, allowed):
        raise _Kappa(allowed)

    with monkeypatch.context() as patch, pytest.raises(_Kappa) as caught:
        patch.setattr(dihedral_module, "full_search", stop)
        normalizer_dihedral(inst)
    return caught.value.args[0]


class TestKappa:
    """kappa, read off the normaliser of the complement's sign code,
    against the transversal-block route: the same group, by order and
    mutual membership."""

    @staticmethod
    def groups():
        rng = random.Random(23)
        cells = [(3, 6, 2), (5, 5, 3), (7, 6, 2), (3, 10, 4), (3, 8, 3), (5, 8, 3),
                 (3, 14, 5), (11, 6, 2), (13, 5, 2), (7, 37, 3)]
        for p, k, dim in cells:
            for seed in range(1 if k > 30 else 3):
                base, _ = gen_instance(p, k, dim, seed, dihedral=True)
                yield p, base
                yield p, word_generated(rng, base.degree, base.generators)
        for p, k in [(3, 4), (5, 3), (7, 3), (3, 8)]:
            base = PermGroup.from_gens(p * k, dihedral_power(p, k))
            yield p, base
            yield p, word_generated(rng, base.degree, base.generators)
        # one reflection of every orbit: the sign code is the repetition code
        for p, t, b in [(3, 1, 4), (5, 2, 3), (7, 3, 2)]:
            rot = M(p, [[int(i // b == j) for i in range(t * b)] for j in range(t)])
            base = dihedral_group_from_codes(p, rot, M(2, [[1] * (t * b)]))
            yield p, base
            yield p, word_generated(rng, base.degree, base.generators)

    def test_same_group_as_transversal_blocks(self, monkeypatch):
        moved = big = 0
        for p, grp in self.groups():
            inst = build_dihedral(grp, p)
            new, ref = sign_code_kappa(inst, monkeypatch), transversal_kappa(inst)
            assert new.order() == ref.order()
            assert all(ref.contains(g) for g in new.generators)
            assert all(new.contains(g) for g in ref.generators)
            moved += new.order() > 1
            big += grp.degree > 256
        assert moved >= 20 and big == 2

    def test_closed_form_order(self, monkeypatch):
        # |kappa| = |N_sign| / 2^k, the kernel being the swaps within the
        # pairs, against the order of a chain over kappa's generators
        for p, grp in self.groups():
            kappa = sign_code_kappa(build_dihedral(grp, p), monkeypatch)
            assert kappa.known_order == kappa.chain().order()

    def test_kappa_too_large_fails_the_final_check(self, monkeypatch):
        # every orbit permutation allowed: the rotation search then finds
        # elements that do not normalise the group, and the check of the
        # output generators refuses them
        grp, _ = gen_instance(3, 6, 2, 1, dihedral=True)
        inst = build_dihedral(grp, 3)
        search = dihedral_module.full_search
        k = inst.k
        sym = PermGroup.from_gens(k, [P(k, (1, 2)), P(k, tuple(range(1, k + 1)))])
        assert sign_code_kappa(inst, monkeypatch).order() < sym.order()

        def everything(rot, cfg, allowed):
            return search(rot, cfg, allowed=sym)

        monkeypatch.setattr(dihedral_module, "full_search", everything)
        with pytest.raises(InvariantViolation, match="fails to normalise"):
            normalizer_dihedral(inst)

    def test_one_verification_per_call(self, monkeypatch):
        checked = []
        verify = search_module.verify_normalises

        def counted(H, gens, order):
            checked.append(H)
            return verify(H, gens, order)

        monkeypatch.setattr(dihedral_module, "verify_normalises", counted)
        monkeypatch.setattr(search_module, "verify_normalises", counted)
        grp, _ = gen_instance(3, 6, 2, 0, dihedral=True)
        inst = build_dihedral(grp, 3)
        normalizer_dihedral(inst)
        assert checked == [grp]
        cyclic, _ = gen_instance(3, 6, 2, 0)
        normalizer_in_sym(cyclic, 3)
        assert checked == [grp, cyclic]


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

    @pytest.mark.parametrize(
        "case",
        [("gen", 3, 6, 2, 0), ("gen", 5, 5, 3, 1), ("gen", 7, 6, 2, 2),
         ("gen", 3, 10, 4, 3), ("blocks", 3, 1, 4), ("blocks", 5, 2, 3),
         ("blocks", 7, 3, 2), ("blocks", 3, 2, 6)],
        ids=str,
    )
    @pytest.mark.parametrize("relabel", [False, True])
    def test_lifts_keep_the_fixed_points(self, case, relabel, monkeypatch):
        # every lifted generator of the rotation normaliser maps the set of
        # alpha points onto itself; on the one-reflection repetition blocks
        # the rotation code has s < k and the rotation search walks its tree.
        # As drawn, every alpha_i is the least point of its cycle; relabelled
        # at random, alpha_i sits anywhere on it
        if case[0] == "gen":
            p, k, dim, seed = case[1:]
            grp, _ = gen_instance(p, k, dim, seed, dihedral=True)
        else:
            p, t, b = case[1:]
            k = t * b
            rot = M(p, [[int(i // b == j) for i in range(k)] for j in range(t)])
            grp = dihedral_group_from_codes(p, rot, M(2, [[1] * k]))
        if relabel:
            imgs = list(range(1, grp.degree + 1))
            random.Random(len(imgs)).shuffle(imgs)
            sigma = Permutation(imgs)
            grp = PermGroup.from_gens(len(imgs), [g.conj(sigma) for g in grp.generators])
        inst = build_dihedral(grp, p)
        lifts = []
        build = dihedral_module.affine_perm

        def recording(*args, **kwargs):
            lifts.append(build(*args, **kwargs))
            return lifts[-1]

        monkeypatch.setattr(dihedral_module, "affine_perm", recording)
        res = normalizer_dihedral(inst)
        if case[0] == "blocks":
            assert inst.rot_inst.s < inst.k
            assert "rotations_closed_form" not in res.stats
        alpha = set(inst.alpha)
        assert len(lifts) > inst.k  # more than the orbit cycles
        for g in lifts:
            assert {g.image(a) for a in alpha} == alpha
        group = PermGroup.from_gens(grp.degree, res.generators)
        assert all(group.contains(g) for g in lifts)

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
        block_search = dihedral_module.instance_normalizer

        def timed_block_search(*args, **kwargs):
            t0 = clock.now
            res = block_search(*args, **kwargs)
            spans.append(clock.now - t0)
            return res

        monkeypatch.setattr(dihedral_module, "instance_normalizer", timed_block_search)
        # neither code is all of F_p^k, so both phases search: rotations
        # on a repetition block and three free orbits, signs that vary on
        # the free orbits
        rot = M(3, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                    [0, 0, 0, 0, 0, 1]])
        signs = M(2, [[1, 1, 1, 1, 0, 1], [0, 0, 0, 1, 1, 0]])
        inst = build_dihedral(dihedral_group_from_codes(3, rot, signs), 3)
        assert inst.rot_inst.s == 4 < inst.k
        start = clock.now
        full = normalizer_dihedral(inst, SearchConfig(time_limit=1e9))
        assert "blocks_closed_form" not in full.stats
        assert "rotations_closed_form" not in full.stats
        assert full.stats["blocks_nodes"] > 1 and full.stats["rotations_nodes"] > 1
        total = clock.now - start
        first = spans[0]
        second = total - first
        # each search alone fits in the limit, the two together do not
        limit = (total + max(first, second)) / 2
        assert max(first, second) < limit < total
        with pytest.raises(SearchTimeout):
            normalizer_dihedral(inst, SearchConfig(time_limit=limit))
        assert normalizer_dihedral(inst, SearchConfig(time_limit=total)).order == full.order


class TestClosedOrders:
    # N_{S_p}(D_p) = AGL(1, p), so the normaliser of (D_p)^k is
    # AGL(1, p) wr S_k, of order (p (p - 1))^k k!
    @pytest.mark.parametrize(
        "p, k", [(3, 1), (3, 4), (3, 12), (5, 2), (5, 7), (5, 12), (7, 3), (7, 12)]
    )
    def test_dihedral_power(self, p, k):
        expect = (p * (p - 1)) ** k * math.factorial(k)
        grp = PermGroup.from_gens(p * k, dihedral_power(p, k))
        assert normalizer_dihedral(build_dihedral(grp, p)).order == expect
        scrambled = word_generated(random.Random(k), p * k, grp.generators)
        assert normalizer_dihedral(build_dihedral(scrambled, p)).order == expect

    # one reflection of every orbit over rotations whose code is the direct
    # sum of t repetition codes of length b: the normaliser is MAut(C) times
    # the p^t translations in C, (p - 1)^t (b!)^t t! p^t
    @pytest.mark.parametrize(
        "p, t, b", [(3, 1, 4), (5, 2, 3), (7, 3, 2), (3, 2, 6), (5, 3, 4), (7, 4, 3)]
    )
    def test_one_reflection_repetition_blocks(self, p, t, b):
        k = t * b
        rot = M(p, [[int(i // b == j) for i in range(k)] for j in range(t)])
        grp = dihedral_group_from_codes(p, rot, M(2, [[1] * k]))
        inst = build_dihedral(grp, p)
        assert inst.rot_inst.s == t < k
        expect = (p * (p - 1)) ** t * math.factorial(b) ** t * math.factorial(t)
        assert normalizer_dihedral(inst).order == expect


class TestClosedFormOrder:
    # the closed-form order against sympy's Schreier-Sims on the result
    # generators, for instances relabelled by a random permutation of all
    # points; (13, 20, 3) has degree 260 and runs on the index-table backing.
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
