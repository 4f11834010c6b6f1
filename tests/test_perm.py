import random

import numpy as np
import pytest

from symnorm.perm import (
    PermGroup,
    Permutation,
    StabChain,
    format_group,
    orbits_of,
    parse_group,
    parse_permutation,
)

try:
    from hypothesis import given, settings, strategies as st
    from sympy.combinatorics import Permutation as SympyPermutation

    HAVE_ORACLES = True
except ImportError:
    HAVE_ORACLES = False


def P(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def brute_elements(degree, gens):
    ident = tuple(range(1, degree + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for imgs in frontier:
            for g in gens:
                prod = tuple(g.images[x - 1] for x in imgs)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def random_group(rng, degree, ngens):
    pts = list(range(1, degree + 1))
    gens = []
    for _ in range(ngens):
        imgs = pts[:]
        rng.shuffle(imgs)
        gens.append(Permutation(imgs))
    return gens


class TestPermutation:
    def test_right_action(self):
        g = P(3, (1, 2))
        h = P(3, (2, 3))
        assert (g * h).image(1) == 3  # 1 ->g 2 ->h 3

    def test_inverse_and_power(self):
        g = P(5, (1, 2, 3, 4, 5))
        assert (g * g.inverse()).is_identity()
        assert g**5 == Permutation.identity(5)
        assert g**-2 == g**3

    def test_conjugation(self):
        x = P(3, (1, 2, 3))
        s = P(3, (2, 3))
        assert x.conj(s) == P(3, (1, 3, 2))
        assert x.conj(s) == s.inverse() * x * s

    def test_cycle_string_roundtrip(self):
        rng = random.Random(1)
        for _ in range(50):
            imgs = list(range(1, 9))
            rng.shuffle(imgs)
            g = Permutation(imgs)
            assert parse_permutation(g.cycle_string(), 8) == g

    def test_image_array_form(self):
        g = P(4, (1, 2), (3, 4))
        assert parse_permutation("[2 1 4 3]", 4) == g
        assert parse_permutation("[2, 1, 4, 3]", 4) == g
        with pytest.raises(ValueError):
            parse_permutation("[2 1 4]", 4)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 2", 4)
        with pytest.raises(ValueError):
            parse_permutation("(1 2)(2 3)", 4)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_order(self):
        # the order of an element is the order of the cyclic group it generates
        assert PermGroup.from_gens(6, [P(6, (1, 2), (3, 4, 5))]).order() == 6


class TestOrbitsRestrict:
    def test_orbits_example(self):
        g = P(4, (1, 2), (3, 4))
        assert orbits_of([g], range(1, 5)) == [[1, 2], [3, 4]]

    def test_trivial_group(self):
        grp = PermGroup.trivial(3)
        assert orbits_of(grp.generators, range(1, 4)) == [[1], [2], [3]]

    def test_two_generator_orbits(self):
        a = P(6, (1, 2, 3), (4, 5, 6))
        b = P(6, (1, 2, 3))
        assert orbits_of([a, b], range(1, 7)) == [[1, 2, 3], [4, 5, 6]]


class TestStabChain:
    def test_s3(self):
        grp = PermGroup.from_gens(3, [P(3, (1, 2)), P(3, (1, 2, 3))])
        assert grp.order() == 6
        assert grp.contains(P(3, (1, 3)))

    def test_order_two(self):
        grp = PermGroup.from_gens(4, [P(4, (1, 2), (3, 4))])
        assert grp.order() == 2
        assert StabChain(4, grp.generators, base_prefix=(1,)).stabilizer_gens(1) == []

    def test_diagonal_c3(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6))])
        assert grp.order() == 3
        assert not grp.contains(P(6, (1, 2, 3)))

    def test_order_matches_enumeration(self):
        rng = random.Random(13)
        for _ in range(40):
            degree = rng.randrange(2, 8)
            gens = random_group(rng, degree, rng.randrange(1, 3))
            grp = PermGroup.from_gens(degree, gens)
            assert grp.order() == len(brute_elements(degree, gens))

    def test_membership_matches_enumeration(self):
        rng = random.Random(19)
        for _ in range(20):
            degree = rng.randrange(2, 7)
            gens = random_group(rng, degree, 2)
            grp = PermGroup.from_gens(degree, gens)
            elems = brute_elements(degree, gens)
            for _ in range(10):
                imgs = list(range(1, degree + 1))
                rng.shuffle(imgs)
                assert grp.contains(Permutation(imgs)) == (tuple(imgs) in elems)

    def test_point_stabilizer(self):
        gens = [P(4, (1, 2)), P(4, (1, 2, 3, 4))]  # S4

        def stabilizer(points):
            ch = StabChain(4, gens, base_prefix=points)
            return PermGroup.from_gens(4, ch.stabilizer_gens(len(points)))

        stab = stabilizer((1,))
        assert stab.order() == 6
        assert all(g.image(1) == 1 for g in stab.generators)
        assert stabilizer((1, 2)).order() == 2

    def test_prefix_chain_orbits(self):
        ch = StabChain(4, [P(4, (1, 2)), P(4, (1, 2, 3, 4))], base_prefix=(1, 2, 3, 4))
        assert ch.order() == 24
        assert ch.orbit_under_stabilizer(0, 1) == {1, 2, 3, 4}
        assert ch.orbit_under_stabilizer(1, 2) == {2, 3, 4}
        assert ch.orbit_under_stabilizer(2, 3) == {3, 4}

    def test_big_order(self):
        n = 30
        gens = [
            Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
            P(n, (1, 2)),
        ]
        grp = PermGroup.from_gens(n, gens)
        import math

        assert grp.order() == math.factorial(30)


def sympy_perm(g):
    comb = pytest.importorskip("sympy.combinatorics")
    return comb.Permutation([x - 1 for x in g.images])


def sympy_group(gens):
    comb = pytest.importorskip("sympy.combinatorics")
    return comb.PermutationGroup([sympy_perm(g) for g in gens])


def scattered_gens(rng, degree, ngens):
    """Single cycles of length 2-5 on an 8-point support that always holds
    the last point, so degrees above 256 move points past the byte range."""
    support = [degree] + rng.sample(range(1, degree), 7)
    return [
        Permutation.from_cycles(degree, [rng.sample(support, rng.randrange(2, 6))])
        for _ in range(ngens)
    ]


class TestStabChainExtend:
    """A chain grown one generator at a time answers like a fresh chain and
    like sympy's Schreier-Sims, on both permutation backings."""

    @staticmethod
    def check_growth(rng, degree, gens):
        grown = StabChain(degree, ())
        assert grown.order() == 1
        for i, g in enumerate(gens, start=1):
            grown.extend(g)
            fresh = StabChain(degree, gens[:i])
            ref = sympy_group(gens[:i])
            assert grown.order() == fresh.order() == ref.order()
            probes = [rng.choice(gens[:i]) * rng.choice(gens) for _ in range(4)]
            probes += scattered_gens(rng, degree, 4)
            for h in probes:
                assert grown.contains(h) == fresh.contains(h) == ref.contains(sympy_perm(h))

    @pytest.mark.parametrize("degree", [9, 256, 257, 300])
    def test_matches_fresh_chain_and_sympy(self, degree):
        rng = random.Random(degree)
        for _ in range(6):
            self.check_growth(rng, degree, scattered_gens(rng, degree, 4))

    def test_backings(self):
        assert isinstance(P(256, (1, 256))._b, bytes)
        assert P(257, (1, 257))._b.dtype == np.uint16
        # the largest image fits uint16 only 0-based; the inverse's images
        # are read off its table
        table = P(65536, (1, 65536)).inverse()
        got = (table._b.dtype, table.images[0], table.image(1))
        assert got == (np.uint16, 65536, 65536)
        assert P(65537, (1, 65537))._b.dtype == np.uint32

    def test_degree_70000(self):
        # past 65,536 points the index table is uint32
        n = 70_000
        g = P(n, (1, n), (2, 65_537, 69_999))
        h = P(n, (n, 65_536, 3))
        assert g._b.dtype == np.uint32
        gh = g * h
        assert gh == P(n, (1, 65_536, 3, n), (2, 65_537, 69_999))
        assert gh.image(1) == 65_536 and gh.image(n) == 1 and gh.image(3) == n
        assert gh.support() == (1, 2, 3, 65_536, 65_537, 69_999, n)
        assert g.inverse() == P(n, (1, n), (2, 69_999, 65_537))
        assert (g * g.inverse()).is_identity() and not g.is_identity()
        assert (g.inverse() * g) == Permutation.identity(n)
        assert g.conj(h) == h.inverse() * g * h == P(n, (1, 65_536), (2, 65_537, 69_999))
        imgs = gh.images
        assert len(imgs) == n and imgs[0] == 65_536 and imgs[n - 1] == 1
        assert all(type(x) is int for x in imgs[:3]) and Permutation(imgs) == gh
        assert sorted(imgs) == list(range(1, n + 1))

    @pytest.mark.parametrize("degree", [12, 256, 257, 300])
    def test_five_ways_to_one_permutation(self, degree):
        # the chain's _known set, verify_normalises' own set and from_gens
        # rely on computed and constructed copies comparing and hashing equal
        cycles = [(1, degree, 3), (2, degree - 1)]
        t = P(degree, (1, 2, degree))
        ident = Permutation.identity(degree)
        images = list(range(1, degree + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        ways = [
            Permutation(images),
            Permutation.from_cycles(degree, cycles),
            t.inverse() * (t * Permutation(images)),
            Permutation(images).inverse().inverse(),
            Permutation(images).conj(ident),
        ]
        assert len(set(ways)) == 1 and len({hash(g) for g in ways}) == 1
        assert all(g == ways[0] and g.images == tuple(images) for g in ways)
        grp = PermGroup.from_gens(degree, ways + [ident, t])
        assert grp.generators == (ways[0], t)
        # the identity shares the cached tables and still acts as one
        built = Permutation(range(1, degree + 1))
        assert ident == built and hash(ident) == hash(built)
        assert ident.images == built.images and ident.is_identity()
        assert ident.inverse() == ident and ident.conj(t) == ident
        assert ident * t == t == t * ident and t ** 3 == ident

    def test_repeated_and_identity_generators(self):
        g = P(300, (1, 299, 300))
        ch = StabChain(300, ())
        for h in (g, Permutation.identity(300), g, g * g):
            ch.extend(h)
        assert ch.order() == 3
        assert not ch.contains(P(300, (1, 300)))

    def test_base_prefix_orbits(self):
        gens = [P(5, (1, 2)), P(5, (2, 3, 4)), P(5, (4, 5))]
        ch = StabChain(5, (), base_prefix=(1, 2, 3, 4, 5))
        for g in gens:
            ch.extend(g)
        fresh = StabChain(5, gens, base_prefix=(1, 2, 3, 4, 5))
        for d in range(5):
            for pt in range(d + 1, 6):
                assert ch.orbit_under_stabilizer(d, pt) == fresh.orbit_under_stabilizer(d, pt)
        assert ch.order() == 120

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            StabChain(4, ()).extend(P(5, (1, 2)))


def random_word(rng, degree, gens, length=8):
    g = Permutation.identity(degree)
    for _ in range(length):
        g = g * rng.choice(gens)
    return g


def counted_builds(monkeypatch) -> list:
    """Record every deterministic Schreier-Sims build a chain runs."""
    builds = []
    real = StabChain._build

    def build(chain):
        builds.append(chain)
        return real(chain)

    monkeypatch.setattr(StabChain, "_build", build)
    return builds


class TestKnownOrderChain:
    """A chain filled up to the group's known order answers like the
    deterministic chain, without a Schreier-Sims build; a claimed order it
    cannot reach sends it to the full build."""

    @staticmethod
    def groups():
        from symnorm.cli import gen_instance

        for p, k, dim, seed, dihedral in [(3, 10, 2, 0, False), (5, 8, 3, 1, False),
                                          (7, 37, 3, 0, False), (3, 8, 3, 1, True),
                                          (5, 6, 2, 0, True), (7, 6, 2, 2, True)]:
            yield gen_instance(p, k, dim, seed, dihedral=dihedral)[0]
        yield PermGroup.from_gens(12, [P(12, tuple(range(1, 13))), P(12, (1, 2))])
        # S_8 on points past the byte range
        pts = [3, 40, 257, 120, 299, 7, 300, 200]
        yield PermGroup.from_gens(300, [P(300, tuple(pts)), P(300, (pts[0], pts[1]))])

    def test_same_order_and_membership(self, monkeypatch):
        rng = random.Random(7)
        backings = set()
        for grp in self.groups():
            n, gens = grp.degree, grp.generators
            ref = StabChain(n, gens)
            builds = counted_builds(monkeypatch)
            filled = StabChain(n, gens, order=ref.order())
            assert builds == [] and filled.order() == ref.order()
            monkeypatch.undo()
            support = grp.support()
            for _ in range(6):
                g = random_word(rng, n, gens)
                a, b = rng.sample(support, 2)
                for h in (g, g * P(n, (a, b)), P(n, tuple(rng.sample(support, 3)))):
                    assert filled.contains(h) == ref.contains(h)
            backings.add(isinstance(gens[0]._b, bytes))
        assert backings == {False, True}

    def test_dihedral_at_degree_259(self, monkeypatch):
        # the deterministic chain of this group takes seconds: check the
        # fill against recognition's order and certain (non-)members
        from symnorm.cli import gen_instance
        from symnorm.dihedral import build_dihedral

        grp, _ = gen_instance(7, 37, 3, 0, dihedral=True)
        inst = build_dihedral(grp, 7)
        order = 2 ** len(inst.signs) * 7**inst.rot_inst.s
        builds = counted_builds(monkeypatch)
        filled = StabChain(259, grp.generators, order=order)
        assert builds == [] and filled.order() == order
        rng = random.Random(3)
        for _ in range(10):
            assert filled.contains(random_word(rng, 259, grp.generators, 20))
        # a transposition on one orbit: not in the dihedral group of order 14
        a, b = inst.orbits[-1][:2]
        assert not filled.contains(P(259, (a, b)))

    @pytest.mark.parametrize("degree", [4, 9, 300])
    def test_unreachable_order_falls_back(self, monkeypatch, degree):
        # S_4 on points 1..3 and the last point: an order too large, and
        # one too small that no product of orbit lengths equals
        gens = [P(degree, (1, 2)), P(degree, (1, 2, 3, degree))]
        ref = StabChain(degree, gens)
        for claimed in (48, 5, 23):
            builds = counted_builds(monkeypatch)
            chain = StabChain(degree, gens, order=claimed)
            assert len(builds) == 1 and chain.order() == 24
            assert all(chain.contains(h) == ref.contains(h) for h in
                       [P(degree, (1, degree)), P(degree, (2, 3)), P(degree, (degree - 1, degree))])
            monkeypatch.undo()

    def test_known_order_of_group(self):
        grp = PermGroup.from_gens(4, [P(4, (1, 2)), P(4, (1, 2, 3, 4))], known_order=24)
        assert grp.order() == grp.chain().order() == 24
        assert PermGroup.from_gens(3, [P(3, (1, 2))]).known_order is None


class TestGroupText:
    def test_roundtrip(self):
        gens = [P(6, (1, 2), (5, 6)), P(6, (3, 4), (5, 6))]
        p, n, parsed = parse_group(format_group(2, 6, gens))
        assert (p, n) == (2, 6)
        assert parsed == gens

    def test_parse_error_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_group("2 4\n(1 2)\n(1 9)")


if HAVE_ORACLES:
    # degree ranges of the two backings: a byte table up to 256, a numpy
    # index table above
    BACKINGS = {"bytes": (1, 256), "table": (257, 300)}

    @st.composite
    def perm_pairs(draw, backing):
        lo, hi = BACKINGS[backing]
        pts = list(range(1, draw(st.integers(lo, hi)) + 1))
        g = Permutation(draw(st.permutations(pts)))
        h = Permutation(draw(st.permutations(pts)))
        assert isinstance(g._b, bytes) == (backing == "bytes")
        return g, h

    def to_sympy(g):
        return SympyPermutation([x - 1 for x in g.images])

    def from_sympy(q):
        return tuple(x + 1 for x in q.array_form)

    @pytest.mark.parametrize("backing", sorted(BACKINGS))
    class TestAlgebraAgainstSympy:
        """Permutation arithmetic on both backings against sympy, whose
        product p*q likewise applies p first."""

        @settings(max_examples=40, deadline=None)
        @given(data=st.data())
        def test_product_inverse_conj(self, backing, data):
            g, h = data.draw(perm_pairs(backing))
            sg, sh = to_sympy(g), to_sympy(h)
            assert (g * h).images == from_sympy(sg * sh)
            assert g.inverse().images == from_sympy(~sg)
            assert g.conj(h).images == from_sympy(sg ^ sh)  # h^-1 g h

        @settings(max_examples=40, deadline=None)
        @given(data=st.data(), e=st.integers(-20, 20))
        def test_power_and_image(self, backing, data, e):
            g, _ = data.draw(perm_pairs(backing))
            assert (g**e).images == from_sympy(to_sympy(g) ** e)
            i = data.draw(st.integers(1, g.degree))
            assert g.image(i) == to_sympy(g)(i - 1) + 1

        @settings(max_examples=40, deadline=None)
        @given(data=st.data())
        def test_computed_equals_constructed(self, backing, data):
            # products come from _from_table on either backing; they must
            # compare and hash like a constructed copy
            g, h = data.draw(perm_pairs(backing))
            for x in (g * h, g.inverse(), g.conj(h), g**-3):
                y = Permutation(x.images)
                assert x == y and hash(x) == hash(y)
            assert (g * g.inverse()).is_identity()
            assert g * g.inverse() == Permutation.identity(g.degree)

        @settings(max_examples=40, deadline=None)
        @given(data=st.data())
        def test_cycle_string_round_trip(self, backing, data):
            g, _ = data.draw(perm_pairs(backing))
            assert parse_permutation(g.cycle_string(), g.degree) == g

    def on_support(degree, support, images):
        """The permutation of 1..degree sending support[i] to images[i]."""
        imgs = list(range(1, degree + 1))
        for x, y in zip(support, images):
            imgs[x - 1] = y
        return Permutation(imgs)

    @st.composite
    def generator_sets(draw, backing):
        # each generator permutes a part of one support of at most 9 points,
        # so the groups range from cyclic to full symmetric on the support
        lo, hi = BACKINGS[backing]
        degree = draw(st.integers(lo, hi))
        support = draw(
            st.lists(st.integers(1, degree), min_size=1, max_size=9, unique=True)
        )
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            part = draw(st.lists(st.sampled_from(support), min_size=1, unique=True))
            gens.append(on_support(degree, part, draw(st.permutations(part))))
        return degree, support, gens

    @pytest.mark.parametrize("backing", sorted(BACKINGS))
    class TestStabChainAgainstSympy:
        """Order and membership of a chain built from random generators
        against sympy's Schreier-Sims, on both backings."""

        @settings(max_examples=30, deadline=None)
        @given(data=st.data())
        def test_order_and_contains(self, backing, data):
            degree, support, gens = data.draw(generator_sets(backing))
            chain = StabChain(degree, gens)
            ref = sympy_group(gens)
            assert chain.order() == ref.order()
            # group elements: words in the generators and their inverses
            words = st.lists(st.sampled_from(gens + [g.inverse() for g in gens]),
                             min_size=1, max_size=6)
            for _ in range(3):
                g = Permutation.identity(degree)
                for h in data.draw(words):
                    g = g * h
                assert chain.contains(g) and ref.contains(sympy_perm(g))
            # random permutations of the support, mostly outside the group
            for _ in range(3):
                g = on_support(degree, support, data.draw(st.permutations(support)))
                assert chain.contains(g) == ref.contains(sympy_perm(g))
            # a point outside the support is fixed by the group
            outside = sorted(set(range(1, degree + 1)) - set(support))
            if outside:
                g = P(degree, (support[0], data.draw(st.sampled_from(outside))))
                assert not chain.contains(g) and not ref.contains(sympy_perm(g))
