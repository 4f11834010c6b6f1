import itertools
import math
import random
import sys
from types import SimpleNamespace

import pytest

import symnorm.dihedral as dihedral_module
import symnorm.search as search_module
from symnorm.cli import gen_instance
from symnorm.dihedral import build_dihedral, normalizer_dihedral
from symnorm.encode import (
    affine_parts,
    block_perm,
    build_instance,
    code_to_group,
    decompose_bk,
    exponent_scaling_perm,
    gamma_inv,
    gamma_map,
    reduce_equivalent_orbits,
)
from symnorm.gfp import (
    FpMatrix,
    InvariantViolation,
    column_equiv_classes,
    dual_matrix,
    in_row_space,
    matrix_rank,
    member_row_space,
    min_weight_vectors,
    normalized_column,
    scalings_matching_columns,
    weight_enumerator,
)
from symnorm.oracle import brute_maut, brute_normalizer, brute_normalizer_elements
from symnorm.perm import PermGroup, Permutation, StabChain
from symnorm.search import (
    FoundGroup,
    _class_sizes,
    SearchConfig,
    SearchTimeout,
    all_diff_refiner,
    build_ld_sets,
    check_lds,
    compare_stabs,
    deep_prune,
    domains_init,
    full_search,
    limit_depth_search,
    norm_b,
    normalizer_in_sym,
    verify_normalises,
)


def P(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def M(p, rows):
    return FpMatrix.from_rows(p, rows)


def e1_group():
    return PermGroup.from_gens(6, [P(6, (1, 2), (5, 6)), P(6, (3, 4), (5, 6))])


def random_code(rng, p, k, dim, distinct_cols=False):
    """Full-rank dim x k matrix without zero columns."""
    if distinct_cols and (p**dim - 1) // (p - 1) < k:
        raise ValueError("not enough distinct column classes at this dimension")
    while True:
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(dim)]
        m = M(p, rows)
        if matrix_rank(m) != dim:
            continue
        cols = [m.col(j) for j in range(1, k + 1)]
        if any(not any(c) for c in cols):
            continue
        if distinct_cols:
            norm = {normalized_column(c, p) for c in cols}
            if len(norm) != k:
                continue
        return m


def draw_dims(rng, p, k, distinct_cols=False):
    """A feasible code dimension between 1 and k."""
    lo = 1
    if distinct_cols:
        while (p**lo - 1) // (p - 1) < k:
            lo += 1
    return rng.randrange(lo, k + 1)


class TestNormB:
    def test_e1_order(self):
        inst = build_instance(e1_group(), 2)
        grp = PermGroup.from_gens(6, norm_b(inst))
        assert grp.order() == 8

    def test_single_component_p3(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6))])
        inst = build_instance(grp, 3)
        nb = PermGroup.from_gens(6, norm_b(inst))
        assert nb.order() == 18

    def test_two_components_p3(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3)), P(6, (4, 5, 6))])
        inst = build_instance(grp, 3)
        nb = PermGroup.from_gens(6, norm_b(inst))
        assert nb.order() == 36

    def test_against_brute_force_over_b(self):
        # enumerate all orbit-fixing candidates and keep the normalising ones
        rng = random.Random(3)
        for _ in range(12):
            k = rng.randrange(1, 4)
            dim = rng.randrange(1, k + 1)
            m = random_code(rng, 3, k, dim)
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
            assert got == expected


class TestDomainsInit:
    def test_e1_domains_and_side_additions(self):
        inst = build_instance(e1_group(), 2)
        found = FoundGroup(inst)
        doms = domains_init(inst, found)
        assert doms == [{1, 2, 3}] * 3
        row_gens = [gamma_inv(inst, r) for r in inst.matrix.rows]
        # the dual swaps already generate the full orbit exchange
        for g in found.gens:
            for x in row_gens:
                assert member_row_space(
                    gamma_map(inst, x.conj(g)), inst.matrix
                ) is not None
        # the k orbit gens of norm_b come first, then the two swaps
        assert found.gens[: inst.k] == list(inst.orbit_gens)
        assert len(found.gens) == inst.k + 2

    def test_k1(self):
        inst = build_instance(PermGroup.from_gens(3, [P(3, (1, 2, 3))]), 3)
        found = FoundGroup(inst)
        assert domains_init(inst, found) == [{1}]

    def test_isolated_column(self):
        # the only minimum-weight words are the scalings of (0,0,1,0), so
        # column 3 has incidence 2 and every other column 0
        inst = build_instance(
            code_to_group(M(3, [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 0]])), 3
        )
        assert min_weight_vectors(inst.matrix) == (1, (0, 0, 2, 0))
        found = FoundGroup(inst)
        doms = domains_init(inst, found)
        assert doms[2] == {3}
        # confirmed by the monomial automorphisms: nothing moves column 3
        for w in brute_maut(inst.matrix):
            assert w.perm.image(3) == 3


class TestCheckLds:
    def test_e1_span_is_everything(self):
        # the images of orbits 1,2 span the whole space, so the span test
        # alone removes nothing (distinctness is enforced elsewhere)
        inst = build_instance(e1_group(), 2)
        lds = build_ld_sets(inst.matrix, range(1, 3))
        assert lds == [(3, 1, 2)]
        doms = check_lds(inst.matrix, lds, (1, 2), [{1, 2, 3}] * 3)
        assert doms[2] == {1, 2, 3}
        doms = check_lds(inst.matrix, lds, (2, 1), [{1, 2, 3}] * 3)
        assert doms[2] == {1, 2, 3}

    def test_no_trigger_without_single_unassigned(self):
        inst = build_instance(e1_group(), 2)
        lds = build_ld_sets(inst.matrix, range(1, 3))
        doms = check_lds(inst.matrix, lds, (1,), [{1, 2, 3}] * 3)
        assert doms == [{1, 2, 3}] * 3

    def test_restriction_to_span(self):
        m = M(2, [[1, 0, 1, 1], [0, 1, 0, 1]])
        lds = build_ld_sets(m, range(1, 3))
        assert lds == [(3, 1), (4, 1, 2)]
        # orbit 1 mapped to 2: the image of orbit 3 must lie in <col 2>
        doms = check_lds(m, lds, (2,), [{1, 2, 3, 4}] * 4)
        assert doms[2] == {2}
        assert doms[3] == {1, 2, 3, 4}  # its set still has two unassigned

    def test_dual_sets(self):
        # the dual of the code above is (-M0^T | I_2) = [[1,0,1,0],[1,1,0,1]]
        # over F_2, with its unit columns 3 and 4: column 1 is their sum and
        # column 2 equals column 4
        m = M(2, [[1, 0, 1, 1], [0, 1, 0, 1]])
        dual = dual_matrix(m)
        assert dual.rows == ((1, 0, 1, 0), (1, 1, 0, 1))
        lds = build_ld_sets(dual, range(3, 5))
        assert lds == [(1, 3, 4), (2, 4)]
        # one assigned orbit leaves two unassigned members in each set
        doms = check_lds(dual, lds, (1,), [{1, 2, 3, 4}] * 4)
        assert doms == [{1, 2, 3, 4}] * 4
        # orbit 2 mapped to 2: the image of orbit 4 must lie in the span of
        # dual column 2, (0, 1), which holds columns 2 and 4
        doms = check_lds(dual, lds, (4, 2), [{1, 2, 3, 4}] * 4)
        assert doms == [{1, 2, 3, 4}] * 3 + [{2, 4}]


# e_2 lies in this code over F_5, so coordinate 2 is a direct factor: dual
# column 2 is zero and the dual's dependent set of column 2 is (2,)
DIRECT_FACTOR = M(5, [[1, 0, 0, 1, 1, 1, 1], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 2, 3, 4]])


class TestLdDepthIndex:
    """The search hands check_lds only the dependent sets that first have a
    single unassigned member at the node's depth; the domains come out as
    the scan over every set gives them, and the counters do not move."""

    def test_index(self):
        cfg = SearchConfig()
        dual = dual_matrix(DIRECT_FACTOR)
        code = search_module._Code(dual, range(4, 8), "prune_stabs_dual", cfg)
        assert build_ld_sets(dual, range(4, 8)) == [(1, 4, 5, 6, 7), (2,), (3, 4, 5, 6, 7)]
        assert code.ld_sets == [[], [(2,)], [], [], [], [], [(1, 4, 5, 6, 7), (3, 4, 5, 6, 7)], []]
        # column 1 is zero: its set (1,) is assigned before the rule starts
        m = M(2, [[0, 1, 0], [0, 0, 1]])
        assert build_ld_sets(m, (2, 3)) == [(1,)]
        assert search_module._Code(m, (2, 3), "x", cfg).ld_sets == [[]] * 4
        assert search_module._Code(dual, range(4, 8), "x", SearchConfig(use_lds=False)).ld_sets == [[]] * 8

    @staticmethod
    def groups():
        for p, dim in ((5, 4), (5, 6), (5, 8), (2, 6), (3, 6)):  # the grid cells
            yield gen_instance(p, 20, dim, 0)[0], p
        yield gen_instance(7, 37, 3, 0)[0], 7  # the wide cell
        yield code_to_group(DIRECT_FACTOR), 5

    def test_same_domains_as_all_sets(self, monkeypatch):
        real = search_module._Search._recurse
        seen = {"nodes": 0, "singletons": 0}

        def recurse(search, alpha, doms, im_stabs):
            d = len(alpha)
            pivots = (range(1, search.s + 1), range(search.s + 1, search.k + 1))
            if 1 <= d < search.k:
                for code, piv in zip(search.codes, pivots):
                    every = build_ld_sets(code.matrix, piv)
                    got = check_lds(code.matrix, code.ld_sets[d], alpha, doms)
                    assert got == check_lds(code.matrix, every, alpha, doms)
                    seen["singletons"] += any(len(lds) == 1 for lds in code.ld_sets[d])
                seen["nodes"] += 1
            return real(search, alpha, doms, im_stabs)

        monkeypatch.setattr(search_module._Search, "_recurse", recurse)
        for grp, p in self.groups():
            for method in ("full", "limitdepth"):
                normalizer_in_sym(grp, p, method)
        assert seen["nodes"] > 300 and seen["singletons"] > 0

    # node and prune counters of cli.compute before the index was added;
    # two depth-limited entries were recorded again when the depth-limited
    # node started to jump back after a find as a leaf does, and the nodes of
    # every depth-limited entry when it started to find its scalings by a
    # backtrack over their coordinates, one node per partial scaling (from
    # 71, 1054, 16429, 24, 48, 40 and 63 nodes, in the order below)
    COUNTERS = {
        (5, 20, 4, "full"): {"nodes": 21, "prune_stabs": 2},
        (5, 20, 4, "limitdepth"): {"nodes": 20, "prune_stabs": 2},
        (5, 20, 6, "full"): {"nodes": 45, "prune_alldiff": 1, "prune_stabs": 22,
                             "prune_stabs_dual": 1},
        (5, 20, 6, "limitdepth"): {"nodes": 51, "prune_alldiff": 1, "prune_stabs": 22},
        (5, 20, 8, "full"): {"nodes": 57, "prune_stabs": 35, "prune_stabs_dual": 1},
        (5, 20, 8, "limitdepth"): {"nodes": 74, "prune_stabs": 35, "prune_stabs_dual": 1},
        (2, 20, 6, "full"): {"nodes": 48, "prune_stabs": 8, "prune_stabs_dual": 1},
        (2, 20, 6, "limitdepth"): {"nodes": 34, "prune_stabs": 8, "prune_stabs_dual": 1},
        (3, 20, 6, "full"): {"nodes": 30, "prune_stabs": 8, "prune_stabs_dual": 1},
        (3, 20, 6, "limitdepth"): {"nodes": 27, "prune_stabs": 8, "prune_stabs_dual": 1},
        (7, 37, 3, "full"): {"nodes": 29},
        (7, 37, 3, "limitdepth"): {"nodes": 17},
        "direct factor full": {"nodes": 62, "prune_minimality": 9},
        "direct factor limitdepth": {"nodes": 78, "prune_minimality": 7},
    }

    def test_counters(self):
        from symnorm.cli import compute
        from symnorm.perm import format_group

        for key, want in self.COUNTERS.items():
            if isinstance(key, tuple):
                p, k, dim, method = key
                text = gen_instance(p, k, dim, 0)[1]
            else:
                grp, method = code_to_group(DIRECT_FACTOR), key.split()[-1]
                text = format_group(5, grp.degree, grp.generators)
            counters = compute(text, method).counters
            got = {c: v for c, v in counters.items() if c.startswith(("nodes", "prune_"))}
            assert got == want, key


class TestCompareStabs:
    def test_identity_prefix_passes(self):
        inst = build_instance(e1_group(), 2)
        ok, doms = compare_stabs(
            inst.matrix,
            _class_sizes(inst.matrix),
            inst.matrix,
            (),
            [{1, 2, 3}] * 3,
        )
        assert ok and doms == [{1, 2, 3}] * 3

    def test_class_size_multiset_mismatch_fails(self):
        a = M(2, [[1, 0, 1, 1], [0, 1, 1, 0]])  # column classes {1,4},{2},{3}
        b = M(2, [[1, 0, 1, 1], [0, 1, 0, 0]])  # column classes {1,3,4},{2}
        ok, _ = compare_stabs(a, _class_sizes(a), b, (1,), [{1, 2, 3, 4}] * 4)
        assert not ok

    def test_weight_enumerator_gate(self):
        # equal class-size profiles, different weight distributions
        a = M(2, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
        b = M(2, [[1, 0, 0, 0, 0], [0, 1, 0, 1, 1]])
        sizes = _class_sizes(a)
        assert sizes[0] == _class_sizes(b)[0]
        assert weight_enumerator(a) != weight_enumerator(b)
        ok, _ = compare_stabs(a, sizes, b, (1,), [{1, 2, 3, 4, 5}] * 5)
        assert not ok
        # the same pair widened to 2^18 words, past weight_enumerator's
        # budget: it refuses both codes and the pair passes
        s, k = 18, 21
        unit = [[int(i == j) for j in range(s)] for i in range(s)]
        a = M(2, [row + [0, 0, 0] for row in unit])
        b = M(2, [row + [0, row[-1], row[-1]] for row in unit])
        sizes = _class_sizes(a)
        assert sizes[0] == _class_sizes(b)[0]
        assert weight_enumerator(a) is None
        assert weight_enumerator(a, budget=1 << 18) != weight_enumerator(
            b, budget=1 << 18
        )
        ok2, _ = compare_stabs(a, sizes, b, (1,), [set(range(1, k + 1))] * k)
        assert ok2

    def test_dimension_mismatch_fails(self):
        a = M(2, [[1, 0, 1], [0, 1, 1]])
        b = M(2, [[1, 0, 1]])
        ok, _ = compare_stabs(a, _class_sizes(a), b, (1,), [{1, 2, 3}] * 3)
        assert not ok


class TestDeepPrune:
    def test_no_fire_keeps_domains(self):
        inst = build_instance(e1_group(), 2)
        doms = deep_prune(inst.matrix, (1, 2, 3), [{1}, {2}, {3}])
        assert doms == [{1}, {2}, {3}]

    def test_restricts_to_kernel(self):
        # column 4 depends only on row 2; sending 1,2,3 to 1,2,3 and forcing
        # row-1 condition restricts later images
        m = M(2, [[1, 0, 1, 0], [0, 1, 0, 1]])
        doms = deep_prune(m, (1, 2, 3), [{1}, {2}, {3}, {3, 4}])
        # for i = row 1: hot = {u : M[1, alpha_u] != 0} = {1}; M[1,4] = 0
        # fails the all-zero test, so row 1 fires only for t where expansion
        # avoids row 1: t=4 has M[1,4]=0 -> images must have M[1,j]=0
        assert doms[3] == {4}


class TestAllDiff:
    def test_singleton_propagation(self):
        assert all_diff_refiner([{1}, {1, 2}]) == [{1}, {2}]

    def test_hall_set(self):
        got = all_diff_refiner([{1, 2}, {1, 2}, {1, 2, 3}])
        assert got == [{1, 2}, {1, 2}, {3}]

    def test_dead_branch(self):
        assert all_diff_refiner([{1}, {1}]) is None

    def test_overfull_group_dead(self):
        assert all_diff_refiner([{1, 2}, {1, 2}, {1, 2}]) is None


class TestSharedDomains:
    """A node and its children share domain sets, so every rule must leave
    the sets it is given unchanged."""

    def test_rules_leave_their_input_sets_alone(self):
        wide = {1, 2, 3}
        assert all_diff_refiner([{1}, wide, wide]) == [{1}, {2, 3}, {2, 3}]
        assert wide == {1, 2, 3}

        pair = {3, 4}
        m = M(2, [[1, 0, 1, 0], [0, 1, 0, 1]])
        assert deep_prune(m, (1, 2, 3), [{1}, {2}, {3}, pair])[3] == {4}
        assert pair == {3, 4}

        # column classes {1, 2}, {3} against {2, 3}, {1}
        a, b = M(2, [[1, 1, 0]]), M(2, [[0, 1, 1]])
        ok, doms = compare_stabs(a, _class_sizes(a), b, (), [wide] * 3)
        assert ok and doms == [{2, 3}, {2, 3}, {1}]
        assert wide == {1, 2, 3}


class TestFullSearch:
    def test_e1_order(self):
        inst = build_instance(e1_group(), 2)
        res = full_search(inst)
        assert res.order == 48
        assert res.order == 2**3 * len(brute_maut(inst.matrix))

    def test_k1(self):
        inst = build_instance(PermGroup.from_gens(3, [P(3, (1, 2, 3))]), 3)
        res = full_search(inst)
        assert res.order == 6

    def test_soundness_of_generators(self):
        rng = random.Random(7)
        for _ in range(10):
            p = rng.choice([2, 3])
            k = rng.randrange(2, 5)
            dim = draw_dims(rng, p, k, distinct_cols=True)
            m = random_code(rng, p, k, dim, distinct_cols=True)
            inst = build_instance(code_to_group(m), p)
            res = full_search(inst)
            row_gens = [gamma_inv(inst, r) for r in inst.matrix.rows]
            for g in res.generators:
                for x in row_gens:
                    assert member_row_space(
                        gamma_map(inst, x.conj(g)), inst.matrix
                    ) is not None

    def test_order_formula_random(self):
        rng = random.Random(11)
        for _ in range(25):
            p = rng.choice([2, 3])
            k = rng.randrange(1, 5)
            dim = draw_dims(rng, p, k, distinct_cols=True)
            m = random_code(rng, p, k, dim, distinct_cols=True)
            inst = build_instance(code_to_group(m), p)
            res = full_search(inst)
            assert res.order == p**k * len(brute_maut(inst.matrix))

    def test_dual_symmetry_of_generators(self):
        rng = random.Random(13)
        for _ in range(8):
            p = rng.choice([2, 3])
            k = rng.randrange(2, 5)
            dim = max(1, min(k - 1, draw_dims(rng, p, k, distinct_cols=True)))
            while (p**dim - 1) // (p - 1) < k:
                dim += 1
            m = random_code(rng, p, k, dim, distinct_cols=True)
            inst = build_instance(code_to_group(m), p)
            res = full_search(inst)
            for g in res.generators:
                b, kap = decompose_bk(inst, g)
                mirror = b.inverse() * kap
                for row in inst.dual.rows:
                    x = gamma_inv(inst, row)
                    assert in_row_space(gamma_map(inst, x.conj(mirror)), inst.dual)


class TestPipeline:
    def test_e1_vs_brute(self):
        grp = e1_group()
        res = normalizer_in_sym(grp, 2)
        assert res.order == brute_normalizer(grp).order()

    def test_equivalent_orbits_vs_brute(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3), (4, 5, 6))])
        res = normalizer_in_sym(grp, 3)
        assert res.order == brute_normalizer(grp).order()

    def test_full_code_s_equals_k(self):
        grp = PermGroup.from_gens(6, [P(6, (1, 2, 3)), P(6, (4, 5, 6))])
        res = normalizer_in_sym(grp, 3)
        assert res.order == brute_normalizer(grp).order()  # 72

    def test_dual_swap_path(self):
        # dim 2 of 3: s > k/2 triggers the swap for the full method
        m = M(3, [[1, 0, 1], [0, 1, 2]])
        grp = code_to_group(m)
        res = normalizer_in_sym(grp, 3)
        assert res.stats.get("dual_swapped") == 1
        assert res.order == brute_normalizer(grp).order()
        # the depth-limited method must agree whether or not it swaps
        res2 = normalizer_in_sym(grp, 3, method="limitdepth")
        assert res2.order == res.order

    def test_small_exhaustive_vs_brute(self):
        rng = random.Random(17)
        for _ in range(15):
            p = 2
            k = rng.randrange(1, 4)
            dim = rng.randrange(1, k + 1)
            m = random_code(rng, p, k, dim)
            grp = code_to_group(m)
            res = normalizer_in_sym(grp, p)
            assert res.order == brute_normalizer(grp).order()

    def test_not_in_class(self):
        from symnorm.encode import NotInClass

        grp = PermGroup.from_gens(3, [P(3, (1, 2, 3)), P(3, (1, 2))])
        with pytest.raises(NotInClass):
            normalizer_in_sym(grp, 3)


class TestLimitDepth:
    def test_e1_matches_full(self):
        inst = build_instance(e1_group(), 2)
        assert limit_depth_search(inst).order == full_search(inst).order

    def test_cross_method_random(self):
        rng = random.Random(19)
        for _ in range(15):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 6)
            dim = draw_dims(rng, p, k, distinct_cols=True)
            m = random_code(rng, p, k, dim, distinct_cols=True)
            inst = build_instance(code_to_group(m), p)
            full = full_search(inst)
            ld = limit_depth_search(inst)
            assert full.order == ld.order, m.rows

    def test_pipeline_cross_method(self):
        rng = random.Random(23)
        for _ in range(10):
            p = rng.choice([2, 3])
            k = rng.randrange(1, 5)
            dim = rng.randrange(1, k + 1)
            m = random_code(rng, p, k, dim)
            grp = code_to_group(m)
            a = normalizer_in_sym(grp, p, method="full")
            b = normalizer_in_sym(grp, p, method="limitdepth")
            assert a.order == b.order

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cross_method_odd_primes(self, p):
        # the depth-limited search tries one scaling per scalar class, so
        # the classes are larger than at p = 2; dim 1 leaves a code with
        # s = 1 once the equivalent orbits are collapsed
        for k, dim in ((4, 1), (5, 2), (6, 3), (7, 4)):
            for seed in range(2):
                grp, _ = gen_instance(p, k, dim, seed)
                full = normalizer_in_sym(grp, p, method="full")
                ld = normalizer_in_sym(grp, p, method="limitdepth")
                assert ld.order == full.order, (k, dim, seed)


def reference_scalings(p, cols, targets):
    """The depth-limited node's scaling loop, one scaling at a time, as it
    ran in Python: image columns matched by a dict of normalised targets."""
    s, f, n = len(cols), len(cols[0]), len(targets[0])
    lookup, lead_inv = {}, {}
    for t in range(n):
        col = tuple(row[t] for row in targets)
        lookup[normalized_column(col, p)] = t
        lead_inv[t] = pow(next(x for x in col if x), p - 2, p)
    out = []
    for rest in itertools.product(range(1, p), repeat=s - 1):
        v = (1,) + rest
        match, scale = [], []
        for j in range(f):
            col = tuple(v[r] * cols[r][j] % p for r in range(s))
            t = lookup.get(normalized_column(col, p))
            if t is None:
                break
            match.append(t)
            scale.append(next(x for x in col if x) * lead_inv[t] % p)
        else:
            out.append((v, match, scale))
    return out


def reference_partial_scalings(p, cols, targets):
    """How many partial scalings v[:r + 1], r < s, the backtrack tries:
    v[:1] = (1,), then p - 1 values of v[r] for each v[:r] under which
    every column, scaled to lead 1 on its rows before r, agrees there with
    a target of its zero pattern; none when some column's pattern has no
    target."""
    s = len(cols)
    ccols, tcols = list(zip(*cols)), list(zip(*targets))

    def pattern(col):
        return tuple(x != 0 for x in col)

    if not {pattern(c) for c in ccols} <= {pattern(t) for t in tcols}:
        return 0

    def prefix_matches(v):
        r = len(v)
        return all(
            any(
                pattern(t) == pattern(c)
                and normalized_column([x * y % p for x, y in zip(v, c)], p)
                == normalized_column(t[:r], p)
                for t in tcols
            )
            for c in ccols
        )

    return 1 + sum(
        (p - 1) * prefix_matches((1,) + rest)
        for r in range(1, s)
        for rest in itertools.product(range(1, p), repeat=r - 1)
    )


def random_match_problem(rng, p, s, n, f, zero_prob, noise=0.25):
    """n pairwise inequivalent nonzero target columns of length s, and f
    columns, each a scaled target divided entrywise by one hidden scaling
    (so that scaling matches them all), or with probability noise a random
    nonzero column."""
    keys, targets = set(), []
    while len(targets) < n:
        col = [rng.randrange(1, p) if rng.random() >= zero_prob else 0 for _ in range(s)]
        key = normalized_column(col, p)
        if any(col) and key not in keys:
            keys.add(key)
            targets.append(col)
    hidden = [rng.randrange(1, p) for _ in range(s)]
    cols = []
    for _ in range(f):
        if rng.random() < noise:
            col = [rng.randrange(p) for _ in range(s)]
            col[rng.randrange(s)] = rng.randrange(1, p)
        else:
            c, tcol = rng.randrange(1, p), rng.choice(targets)
            col = [c * x * pow(h, p - 2, p) % p for x, h in zip(tcol, hidden)]
        cols.append(col)
    # both as lists of rows
    return [list(r) for r in zip(*cols)], [list(r) for r in zip(*targets)]


def run_kernel(p, cols, targets):
    ticks = []
    out = list(scalings_matching_columns(p, cols, targets, ticks.append))
    return out, ticks


class TestScalingKernel:
    """gfp.scalings_matching_columns, which finds the depth-limited node's
    scalings by a backtrack over their coordinates, against a loop over
    every scaling; it ticks once per partial scaling it tries."""

    @pytest.mark.parametrize(
        "p,s_max", [(2, 8), (3, 8), (5, 6), (7, 5), (11, 4), (13, 4)]
    )
    def test_matches_reference(self, p, s_max):
        rng = random.Random(p)
        matched = 0  # problems with a surviving scaling
        for _ in range(25):
            s = rng.randrange(1 if p > 2 else 2, s_max + 1)
            zero_prob = rng.choice([0.0, 0.3, 0.6])
            # the classes of columns without zeros number (p-1)^(s-1)
            classes = (p**s - 1) // (p - 1) if zero_prob else (p - 1) ** (s - 1)
            n = min(rng.randrange(1, 7), classes)
            cols, targets = random_match_problem(
                rng, p, s, n, rng.randrange(1, 5), zero_prob
            )
            out, ticks = run_kernel(p, cols, targets)
            assert out == reference_scalings(p, cols, targets), (cols, targets)
            assert ticks == [1] * reference_partial_scalings(p, cols, targets)
            assert len(ticks) <= sum((p - 1) ** r for r in range(s))
            matched += bool(out)
        assert 5 <= matched <= 20

    def test_many_scalings_survive(self):
        # p = 11, s = 6: of 10^5 scalings, the columns below fix v[3] / v[2],
        # v[4] and v[5], so 100 of them survive
        p = 11
        tcols = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0),
                 (1, 0, 0, 0, 3, 4), (0, 0, 0, 0, 0, 5)]
        hidden = (1, 4, 2, 9, 3, 5)
        cols = [
            [c * x * pow(h, p - 2, p) % p for x, h in zip(tcols[t], hidden)]
            for t, c in ((1, 7), (2, 3), (3, 5))
        ]
        cols, targets = [list(r) for r in zip(*cols)], [list(r) for r in zip(*tcols)]
        out, ticks = run_kernel(p, cols, targets)
        assert len(out) == 100
        assert out == reference_scalings(p, cols, targets)
        assert ticks == [1] * reference_partial_scalings(p, cols, targets)
        # v[1] and v[2] run free, and each fixed coordinate after them
        # tries p - 1 values for each of the 100 survivors
        assert len(ticks) == 1 + 10 + 100 + 3 * 1000

    def test_p2_long_columns(self):
        # p = 2, s = 70: the targets differ only below row 64, where a
        # column packed into a base-p integer would overflow int64
        s = 70
        tails = [
            (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0), (1, 1, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0)
        ]
        targets = [list(r) for r in zip(*[(1,) * 64 + t for t in tails])]
        order = [2, 0, 3, 1]
        cols = [[row[t] for t in order] for row in targets]
        out, ticks = run_kernel(2, cols, targets)
        assert out == [((1,) * s, order, [1] * 4)] == reference_scalings(2, cols, targets)
        assert ticks == [1] * s == [1] * reference_partial_scalings(2, cols, targets)
        cols[-1][0] ^= 1  # now a column no target has
        assert run_kernel(2, cols, targets)[0] == []

    def test_time_limit_zero_raises(self):
        grp, _ = gen_instance(11, 7, 6, 0)
        with pytest.raises(SearchTimeout):
            limit_depth_search(build_instance(grp, 11), SearchConfig(time_limit=0))
        with pytest.raises(SearchTimeout):
            normalizer_in_sym(grp, 11, "limitdepth", SearchConfig(time_limit=0))

    def test_deadline_stops_node_between_partial_scalings(self, monkeypatch):
        # a fake monotonic clock that advances one second per reading; the
        # search ticks, and so reads it, once per node above the depth limit
        # and once per partial scaling within it
        clock = SimpleNamespace(now=0.0, reads=[])

        def monotonic():
            clock.now += 1.0
            clock.reads.append(clock.now)
            return clock.now

        monkeypatch.setattr(search_module, "time", SimpleNamespace(monotonic=monotonic))
        scaling_reads = []  # the reading each partial scaling's tick makes
        real_kernel = search_module.scalings_matching_columns

        def kernel(p, cols, targets, tick):
            def scaling_tick(count):
                scaling_reads.append(clock.now + 1.0)
                tick(count)

            return real_kernel(p, cols, targets, scaling_tick)

        monkeypatch.setattr(search_module, "scalings_matching_columns", kernel)
        inst = build_instance(gen_instance(11, 7, 6, 0)[0], 11)
        res = limit_depth_search(inst, SearchConfig(time_limit=1e9))
        assert res.stats["depth_nodes"] == 1 and len(scaling_reads) > 3
        full_reads, full_scalings = list(clock.reads), list(scaling_reads)

        # the same search again, with the deadline just before the reading
        # of the node's third partial scaling: two run, the third raises
        clock.now, clock.reads = 0.0, []
        scaling_reads.clear()
        limit = full_scalings[2] - full_reads[0] - 0.5  # the deadline's base
        with pytest.raises(SearchTimeout):
            limit_depth_search(inst, SearchConfig(time_limit=limit))
        assert scaling_reads == full_scalings[:3]
        assert clock.reads == full_reads[: full_reads.index(full_scalings[2]) + 1]


class TestPruningSafety:
    def test_toggles_do_not_change_result(self):
        rng = random.Random(29)
        toggles = [
            "use_lds",
            "use_stabs",
            "use_deep",
            "use_alldiff",
            "use_dual_partitions",
        ]
        for _ in range(6):
            p = rng.choice([2, 3])
            k = rng.randrange(2, 6)
            dim = draw_dims(rng, p, k, distinct_cols=True)
            m = random_code(rng, p, k, dim, distinct_cols=True)
            inst = build_instance(code_to_group(m), p)
            base = full_search(inst)
            all_off = full_search(
                inst,
                SearchConfig(
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
                cfg = SearchConfig(**{name: False})
                res = full_search(inst, cfg)
                assert res.order == base.order, name


def sympy_order(gens):
    comb = pytest.importorskip("sympy.combinatorics")
    return comb.PermutationGroup(
        [comb.Permutation([x - 1 for x in g.images]) for g in gens]
    ).order()


class TestKnownOrders:
    """The pipeline takes its orders from closed forms, never from a chain
    over the result; sympy's Schreier-Sims recomputes them from the
    returned generators."""

    @pytest.mark.parametrize("p,k,dim", [(2, 10, 3), (3, 10, 2), (5, 8, 2), (7, 9, 2)])
    def test_equivalent_orbits(self, p, k, dim):
        for seed in range(6):
            grp, _ = gen_instance(p, k, dim, seed)
            red = reduce_equivalent_orbits(build_instance(grp, p))
            assert red.reduced.k < red.instance.k
            for method in ("full", "limitdepth"):
                res = normalizer_in_sym(grp, p, method=method)
                assert res.order == sympy_order(res.generators)
                # the domains keep class sizes, so no leaf mixes them
                assert "leaf_outside_target" not in res.stats

    @pytest.mark.parametrize("p,k,dim,seed", [(3, 10, 2, 4), (5, 8, 2, 1), (5, 8, 6, 1)])
    def test_dual_swapped(self, p, k, dim, seed):
        # the first two also collapse equivalent orbits, the last does not
        grp, _ = gen_instance(p, k, dim, seed)
        res = normalizer_in_sym(grp, p)
        assert res.stats.get("dual_swapped") == 1
        assert res.order == sympy_order(res.generators)
        assert normalizer_in_sym(grp, p, method="limitdepth").order == res.order

    def test_degree_above_256(self):
        grp, _ = gen_instance(7, 37, 3, 0)
        assert grp.degree == 259
        res = normalizer_in_sym(grp, 7)
        assert res.order == sympy_order(res.generators)


def repetition_rows(k):
    return [[1] * k]


def sum_zero_rows(k):
    """The dual of the repetition code: e_i - e_k for i < k."""
    return [[int(j == i) - int(j == k - 1) for j in range(k)] for i in range(k - 1)]


def simplex_rows(m):
    """The binary simplex code: every non-zero vector of F_2^m a column."""
    return [[(v >> i) & 1 for v in range(1, 2**m)] for i in range(m)]


def gl2_order(m):
    return math.prod(2**m - 2**i for i in range(m))


KNOWN_FAMILIES = [
    # the repetition code and its dual: p^k (p - 1) k!
    *[(f"repetition {p},{k}", p, repetition_rows(k), p**k * (p - 1) * math.factorial(k))
      for p, k in [(3, 8), (5, 6), (2, 10), (37, 7)]],
    *[(f"sum-zero {p},{k}", p, sum_zero_rows(k), p**k * (p - 1) * math.factorial(k))
      for p, k in [(3, 8), (5, 6), (2, 10), (7, 12), (37, 7)]],
    # binary simplex codes: 2^k |GL(m, 2)|, k = 2^m - 1
    *[(f"simplex {m}", 2, simplex_rows(m), 2 ** (2**m - 1) * gl2_order(m))
      for m in (2, 3, 4, 5)],
]


class TestKnownOrderFamilies:
    """Codes whose normaliser orders have closed forms, on redundant,
    shuffled generating sets with every point relabelled; the repetition
    code over F_37 with k = 7 has degree 259 (index-table backing).  Both
    methods run on every family."""

    @pytest.mark.parametrize("name,p,rows,order", KNOWN_FAMILIES,
                             ids=[case[0] for case in KNOWN_FAMILIES])
    def test_order(self, name, p, rows, order):
        k = len(rows[0])
        grp = redundant_relabelled(random.Random(k), p * k, code_to_group(M(p, rows)).generators)
        for method in ("full", "limitdepth"):
            res = normalizer_in_sym(grp, p, method)
            assert res.order == order
            # the depth node of sum-zero 7,12 and 37,7 has (p - 1)^(k - 2) =
            # 60,466,176 scalings, each one a node when all were tried
            assert res.stats["nodes"] < 1000
        assert res.order == sympy_order(res.generators)


def cyclic_power(p, k):
    """C_p^k on consecutive p-blocks, one p-cycle per block."""
    n = p * k
    return [P(n, tuple(range(b + 1, b + p + 1))) for b in range(0, n, p)]


def dihedral_power(p, k):
    """(D_p)^k on consecutive p-blocks: per block a rotation and the
    reflection fixing the block's first point."""
    n = p * k
    gens = cyclic_power(p, k)
    for b in range(0, n, p):
        gens.append(P(n, *[(b + 1 + u, b + 1 + p - u) for u in range(1, (p + 1) // 2)]))
    return gens


def redundant_relabelled(rng, degree, gens):
    """The same group on a redundant generating set, every generator's
    product with a random other one added, shuffled, with every point
    relabelled at random."""
    gens = list(gens)
    gens += [g * rng.choice(gens) for g in gens]
    rng.shuffle(gens)
    imgs = list(range(1, degree + 1))
    rng.shuffle(imgs)
    sigma = Permutation(imgs)
    return PermGroup.from_gens(degree, [g.conj(sigma) for g in gens])


def assert_closed_form(stats, prefixes=("",)):
    for pre in prefixes:
        assert stats[f"{pre}nodes"] == 0 and stats[f"{pre}closed_form"] == 1


class TestFullSpace:
    """When the code is all of F_p^k, every allowed orbit permutation
    normalises and the search returns the normaliser in closed form,
    visiting no node.  Known orders check it at large degree and the
    brute-force oracle, by mutual membership, at degree <= 9."""

    @pytest.mark.parametrize("method", ["full", "limitdepth"])
    @pytest.mark.parametrize("p,k", [(3, 30), (37, 7), (2, 12)])
    def test_cyclic_power(self, p, k, method):
        # AGL(1, p) wr S_k, of order (p (p - 1))^k k!; C_37^7 has degree
        # 259 and runs on the index-table backing
        grp = redundant_relabelled(random.Random(p * k), p * k, cyclic_power(p, k))
        res = normalizer_in_sym(grp, p, method)
        assert res.order == (p * (p - 1)) ** k * math.factorial(k)
        assert_closed_form(res.stats)

    def test_dihedral_power(self):
        # AGL(1, 3) wr S_20: the sign code and the rotation code are full
        grp = redundant_relabelled(random.Random(20), 60, dihedral_power(3, 20))
        res = normalizer_dihedral(build_dihedral(grp, 3))
        assert res.order == 6**20 * math.factorial(20)
        assert_closed_form(res.stats, ("blocks_", "rotations_"))

    @pytest.mark.parametrize(
        "p,rows,dihedral",
        [
            (2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], False),
            (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], False),
            (7, [[1]], False),
            # two orbits moved together, two alone: the reduced code is
            # F_2^3 with class sizes (2, 1, 1)
            (2, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], False),
            (3, [[1, 0], [0, 1]], True),
            (5, [[1]], True),
            (7, [[1]], True),
        ],
    )
    def test_same_group_as_oracle(self, p, rows, dihedral):
        k = len(rows[0])  # for (D_p)^k only k is read
        gens = dihedral_power(p, k) if dihedral else code_to_group(M(p, rows)).generators
        grp = redundant_relabelled(random.Random(k), p * k, gens)
        if dihedral:
            res = normalizer_dihedral(build_dihedral(grp, p))
            assert_closed_form(res.stats, ("blocks_", "rotations_"))
        else:
            res = normalizer_in_sym(grp, p)
            assert_closed_form(res.stats)
        got, ref = PermGroup.from_gens(grp.degree, res.generators), brute_normalizer(grp)
        assert res.order == got.order() == ref.order()
        assert all(ref.contains(g) for g in got.generators)
        assert all(got.contains(g) for g in ref.generators)

    def test_young_subgroup_of_class_sizes(self):
        # classes of sizes 2, 2, 1, 1, 1 over F_3: the reduced code is F_3^5
        # and the allowed orbit permutations keep the sizes, S_2 x S_3
        rows = [[1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 1]]
        grp = code_to_group(M(3, rows))
        res = normalizer_in_sym(grp, 3)
        assert_closed_form(res.stats)
        # per class of m equal orbits: 3^m shifts, 2 common scalings, m!
        # orders inside the class; then the classes of equal size permuted
        assert res.order == (3**2 * 2 * 2) ** 2 * 2 * (3 * 2) ** 3 * math.factorial(3)
        assert res.order == sympy_order(res.generators)

    def test_time_limit_zero_raises(self):
        with pytest.raises(SearchTimeout):
            normalizer_in_sym(PermGroup.from_gens(12, cyclic_power(3, 4)), 3,
                              cfg=SearchConfig(time_limit=0))
        inst = build_dihedral(PermGroup.from_gens(12, dihedral_power(3, 4)), 3)
        with pytest.raises(SearchTimeout):
            normalizer_dihedral(inst, SearchConfig(time_limit=0))

    def test_lifts_are_checked(self, monkeypatch):
        # each lift goes through the found group's element test: one that
        # does not permute the orbits raises, as a wrong leaf lift does
        inst = build_instance(PermGroup.from_gens(9, cyclic_power(3, 3)), 3)
        a, b = inst.orbit_cycles[0][0], inst.orbit_cycles[1][0]
        real = search_module.affine_perm

        def wrong_lift(inst, pi=None, **kwargs):  # norm_b's scalings stay
            return real(inst, pi, **kwargs) if pi is None else P(9, (a, b))

        monkeypatch.setattr(search_module, "affine_perm", wrong_lift)
        with pytest.raises(InvariantViolation, match="outside the overgroup"):
            full_search(inst)


def chains_in_searches(monkeypatch) -> tuple[list, list]:
    """Record the allowed group of every search run, and every
    PermGroup.chain call made while one runs."""
    runs, chains = [], []
    real_run, real_chain = search_module._Search.run, PermGroup.chain

    def run(self):
        runs.append(self.allowed)
        try:
            return real_run(self)
        finally:
            runs.append(None)  # the search has returned

    def chain(self):
        if runs and runs[-1] is not None:
            chains.append(self)
        return real_chain(self)

    monkeypatch.setattr(search_module._Search, "run", run)
    monkeypatch.setattr(PermGroup, "chain", chain)
    return runs, chains


class TestAllowedGroup:
    """The search's one restriction, a group on the orbit indices: a Young
    group is tested by the cells it keeps, any other group by a sift."""

    @pytest.mark.parametrize("method", ["full", "limitdepth"])
    def test_young_builds_no_chain_collapsed(self, monkeypatch, method):
        # classes of sizes (2, 3, 2, 1, 1): the allowed group swaps the two
        # representatives of size 2 and the two of size 1, S_2 x S_1 x S_2
        grp, _ = gen_instance(7, 9, 2, 0)
        red = reduce_equivalent_orbits(build_instance(grp, 7))
        assert red.class_sizes == (2, 3, 2, 1, 1)
        runs, chains = chains_in_searches(monkeypatch)
        res = normalizer_in_sym(grp, 7, method)
        assert res.stats["found"] >= 1 and res.stats["nodes"] > 0
        assert [g.known_order for g in runs if g is not None] == [2 * 1 * 2]
        assert chains == []

    def test_young_builds_no_chain_dihedral(self, monkeypatch):
        # orbits 1 and 2 carry the same rotations and reflections (u -> -u
        # on the blocks of sign patterns (1 1 0) and (0 0 1)): kappa is
        # S_2 x S_1, and the rotation code (1 1 0), (0 0 1) is not F_3^3, so
        # the rotation search walks its tree
        rot = code_to_group(M(3, [[1, 1, 0], [0, 0, 1]])).generators
        refl = [block_perm(3, scale, [0] * 3) for scale in ([2, 2, 1], [1, 1, 2])]
        grp = PermGroup.from_gens(9, [*rot, *refl])
        runs, chains = chains_in_searches(monkeypatch)
        res = normalizer_dihedral(build_dihedral(grp, 3))
        assert res.order == 72
        assert res.stats["rotations_leaves"] >= 1
        kappa = [g for g in runs if g is not None][-1]
        assert kappa.known_order == 2
        assert chains == []

    @pytest.mark.parametrize("method", ["full", "limitdepth"])
    @pytest.mark.parametrize(
        "rows,order",
        [
            ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], 64),
            ([[1, 0, 0, 1], [0, 1, 1, 0]], 32),
            ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]], 16),
            ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 64),
        ],
    )
    def test_not_young_matches_brute_force(self, monkeypatch, rows, order, method):
        # <(1 2 3 4)> is not Young, so membership is a sift; the normalising
        # elements whose orbit permutation it holds, against brute force
        grp = code_to_group(M(2, rows))
        inst = build_instance(grp, 2)
        cyc4 = PermGroup.from_gens(4, [P(4, (1, 2, 3, 4))])
        ref = {
            g
            for g in brute_normalizer_elements(grp)
            if cyc4.contains(affine_parts(inst, g)[0])
        }
        runs, chains = chains_in_searches(monkeypatch)
        search = full_search if method == "full" else limit_depth_search
        res = search(inst, allowed=cyc4)
        assert res.order == len(ref) == order
        assert set(PermGroup.from_gens(grp.degree, res.generators).elements()) == ref
        if "closed_form" not in res.stats:
            assert chains


class TestRecognition:
    def test_one_build_instance_per_call(self, monkeypatch):
        # orbits collapse and the search runs on the dual code: the reduced
        # and the dual instance come from their codes, so H is recognised once
        grp, _ = gen_instance(3, 10, 2, 4)
        inst = build_instance(grp, 3)
        assert len(column_equiv_classes(inst.matrix)) < inst.k
        calls = []
        real = build_instance

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # every module binding build_instance, wherever it was imported
        for name, mod in list(sys.modules.items()):
            if name == "symnorm" or name.startswith("symnorm."):
                for key, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, key, counting)
        res = normalizer_in_sym(grp, 3)
        assert res.stats.get("dual_swapped") == 1
        assert len(calls) == 1


def record_searches(monkeypatch) -> list:
    """Record (instance, result, allowed) for every full_search and
    limit_depth_search call, the pipelines' own calls included."""
    runs = []
    for name in ("full_search", "limit_depth_search"):
        real = getattr(search_module, name)

        def recording(inst, *args, _real=real, **kwargs):
            res = _real(inst, *args, **kwargs)
            runs.append((inst, res, kwargs.get("allowed")))
            return res

        monkeypatch.setattr(search_module, name, recording)
        if hasattr(dihedral_module, name):
            monkeypatch.setattr(dihedral_module, name, recording)
    return runs


ORDER_CASES = [
    # plain: pairwise inequivalent orbits, no dual swap
    (3, 7, 3, 1, "full"),
    (5, 7, 3, 0, "full"),
    (7, 7, 3, 0, "limitdepth"),
    # equivalent orbits collapsed before the search
    (2, 8, 4, 0, "full"),
    (3, 6, 3, 0, "limitdepth"),
    (7, 9, 2, 0, "full"),
    # the search runs on the dual code
    (3, 10, 2, 4, "full"),
    (5, 8, 6, 1, "full"),
    (3, 8, 5, 2, "full"),
    (5, 6, 2, 0, "limitdepth"),
    (5, 7, 5, 0, "limitdepth"),
    # normalizer_dihedral: a p = 2 block search, then the rotation search
    # restricted to a kappa group (c = k there, the rotation code is F_p^k)
    (3, 6, 2, 0, "dihedral"),
    (5, 5, 3, 0, "dihedral"),
    (7, 4, 2, 1, "dihedral"),
]


class TestFoundGroupOrder:
    """The search's order is the closed form p^k (p-1)^c |index group|; a
    chain over its generators on all points, built here as the reference,
    and sympy recompute it."""

    @pytest.mark.parametrize("p,k,dim,seed,method", ORDER_CASES)
    def test_closed_form_matches_chain_and_sympy(
        self, monkeypatch, p, k, dim, seed, method
    ):
        runs = record_searches(monkeypatch)
        grp, _ = gen_instance(p, k, dim, seed, dihedral=method == "dihedral")
        if method == "dihedral":
            normalizer_dihedral(build_dihedral(grp, p))
            # the rotation search over F_p, restricted to kappa
            assert any(inst.p == p and kappa is not None for inst, _, kappa in runs)
        else:
            normalizer_in_sym(grp, p, method=method)
        assert runs
        for inst, res, _ in runs:
            assert res.order == StabChain(inst.degree, res.generators).order()
            assert res.order == sympy_order(res.generators)


class TestIndexChainOnly:
    """The found group lives on orbit indices: no chain the search builds
    has degree above k."""

    @pytest.mark.parametrize("p,k,dim,seed", [(3, 7, 3, 1), (5, 7, 3, 0), (7, 7, 3, 0)])
    def test_no_chain_above_k(self, monkeypatch, p, k, dim, seed):
        degrees = []
        real = search_module.StabChain

        def recording(degree, *args, **kwargs):
            degrees.append(degree)
            return real(degree, *args, **kwargs)

        monkeypatch.setattr(search_module, "StabChain", recording)
        inst = build_instance(gen_instance(p, k, dim, seed)[0], p)
        for search in (full_search, limit_depth_search):
            degrees.clear()
            assert search(inst).stats["found"] >= 1
            assert degrees and max(degrees) <= inst.k


class TestVerification:
    # the found group verifies every new generator, so a wrong lift from
    # kappa_feasible stops the pipeline with the named exception
    @pytest.mark.parametrize("wrong", ["outside_overgroup", "not_normalising"])
    def test_wrong_lift_raises(self, monkeypatch, wrong):
        def bad_feasible(inst, pi, own=None):
            if wrong == "outside_overgroup":
                cyc = inst.orbit_cycles[0]
                return Permutation.from_cycles(inst.degree, [(cyc[1], cyc[2])])
            return exponent_scaling_perm(inst, 0, 2)

        grp, _ = gen_instance(5, 6, 3, seed=0)
        assert normalizer_in_sym(grp, 5).stats["found"] >= 1
        monkeypatch.setattr(search_module, "kappa_feasible", bad_feasible)
        with pytest.raises(InvariantViolation):
            normalizer_in_sym(grp, 5)

    def test_verify_skips_own_generators(self, monkeypatch):
        # generators of H lie in H, so verify_normalises sifts nothing for
        # them, nor for conjugates that are generators of H; every other
        # conjugate is sifted, and a wrong generator raises
        H = e1_group()
        own = set(H.generators)
        sifts = []
        real = StabChain.contains

        def counting(chain, g):
            sifts.append(g)
            return real(chain, g)

        monkeypatch.setattr(StabChain, "contains", counting)
        verify_normalises(H, H.generators, 4)
        assert sifts == []
        # (1 3)(2 4) swaps the two generators; (3 5)(4 6) fixes the second
        # and sends the first to (1 2)(3 4), which is not a generator
        for g in (P(6, (1, 3), (2, 4)), P(6, (3, 5), (4, 6))):
            sifts.clear()
            verify_normalises(H, [g], 4)
            assert sifts == [x.conj(g) for x in H.generators if x.conj(g) not in own]
        assert sifts == [P(6, (1, 2), (3, 4))]
        with pytest.raises(InvariantViolation):
            verify_normalises(H, list(H.generators) + [P(6, (1, 5))], 4)

    def test_too_small_order_rechecked(self, monkeypatch):
        # a claimed |H| below the true one stops the fill early; conjugates
        # that fail to sift through that chain are accepted by H's full
        # chain, so a correct normaliser still passes
        cases = [(PermGroup.from_gens(3, [P(3, (2, 3)), P(3, (1, 2, 3))]), [P(3, (1, 2))])]
        for p, k, dim, seed, dihedral in [(3, 6, 2, 0, True), (5, 6, 3, 0, False)]:
            grp, _ = gen_instance(p, k, dim, seed, dihedral=dihedral)
            res = (normalizer_dihedral(build_dihedral(grp, p)) if dihedral
                   else normalizer_in_sym(grp, p))
            cases.append((grp, res.generators))
        for H, gens in cases:
            # the order of the chain on H's generators alone, before any fill
            with monkeypatch.context() as patch:
                patch.setattr(StabChain, "_fill", lambda chain, order: True)
                claimed = StabChain(H.degree, H.generators, order=1).order()
            assert claimed < H.order()
            rechecks = []
            real = PermGroup.contains

            def counting(grp, g):
                rechecks.append(g)
                return real(grp, g)

            with monkeypatch.context() as patch:
                patch.setattr(PermGroup, "contains", counting)
                verify_normalises(H, gens, claimed)
            assert rechecks

    def test_wrong_order_never_accepts(self):
        # whatever order is claimed, a non-normalising generator raises
        H = gen_instance(3, 6, 2, 0)[0]
        bad = P(H.degree, (1, 2))
        for claimed in (1, 3, H.order(), 2 * H.order()):
            with pytest.raises(InvariantViolation):
                verify_normalises(H, [bad], claimed)

    def test_found_group_rejects_non_normalising(self):
        inst = build_instance(code_to_group(M(3, [[1, 0, 1], [0, 1, 1]])), 3)
        found = FoundGroup(inst)
        before = list(found.gens)
        assert not found.add(inst.orbit_gens[0])  # preloaded from norm_b
        with pytest.raises(InvariantViolation):
            found.add(exponent_scaling_perm(inst, 0, 2))
        assert found.gens == before
