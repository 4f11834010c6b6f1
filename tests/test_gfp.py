import itertools
import random

import pytest

from symnorm.gfp import (
    FpMatrix,
    Partition,
    PrimeField,
    column_equiv_classes,
    dual_matrix,
    format_matrix,
    identity_matrix,
    in_row_space,
    mat_inverse,
    mat_mul,
    matrix_rank,
    member_row_space,
    min_weight_vectors,
    prec_key,
    primitive_root,
    row_combination,
    rref_standard,
    weight_enumerator,
)


def M(p, rows):
    return FpMatrix.from_rows(p, rows)


def all_codewords(m):
    p = m.p
    out = set()
    for coeffs in itertools.product(range(p), repeat=m.s):
        out.add(row_combination(coeffs, m))
    return out


class TestPrimeField:
    def test_primitive_roots(self):
        assert primitive_root(2) == 1
        assert primitive_root(3) == 2
        assert primitive_root(5) == 2
        assert primitive_root(7) == 3
        assert primitive_root(11) == 2

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(9)

    def test_inverse_and_log(self):
        f = PrimeField(11)
        for a in range(1, 11):
            assert 10 % f.order_of(a) == 0
        # every unit has a logarithm base the primitive element
        assert {pow(f.t, e, 11) for e in range(10)} == set(range(1, 11))


class TestRref:
    def test_already_reduced(self):
        m = M(2, [[1, 0, 1], [0, 1, 1]])
        res = rref_standard(m)
        assert res.mstd == m
        assert res.pivots == (1, 2)
        assert res.row_transform == identity_matrix(2, 2)
        assert res.is_standard

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            rref_standard(M(2, [[1, 1], [1, 1]]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            rref_standard(M(3, [[0, 0], [0, 0]]))

    def test_row_swap_case(self):
        m = M(3, [[0, 1, 1], [1, 0, 2]])
        res = rref_standard(m)
        assert res.mstd == M(3, [[1, 0, 2], [0, 1, 1]])
        assert res.pivots == (1, 2)
        assert mat_mul(res.row_transform, m) == res.mstd

    def test_transform_property_random(self):
        rng = random.Random(7)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 7)
            s = rng.randrange(1, k + 1)
            rows = [[rng.randrange(p) for _ in range(k)] for _ in range(s)]
            m = M(p, rows)
            try:
                res = rref_standard(m)
            except ValueError:
                continue
            assert mat_mul(res.row_transform, m) == res.mstd
            assert res.pivots == tuple(sorted(res.pivots))


class TestDual:
    def test_binary_example(self):
        m = M(2, [[1, 0, 1], [0, 1, 1]])
        assert dual_matrix(m) == M(2, [[1, 1, 1]])

    def test_full_space_dual_is_zero(self):
        for p in (2, 3, 5):
            d = dual_matrix(identity_matrix(p, 3))
            assert d.s == 0 and d.k == 3

    def test_ternary_example(self):
        m = M(3, [[1, 0, 1, 2], [0, 1, 1, 1]])
        assert dual_matrix(m) == M(3, [[2, 2, 1, 0], [1, 2, 0, 1]])

    def test_orthogonality_and_rank_random(self):
        rng = random.Random(11)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            k = rng.randrange(2, 7)
            s = rng.randrange(1, k)
            m0 = [[rng.randrange(p) for _ in range(k - s)] for _ in range(s)]
            rows = [
                [1 if i == j else 0 for j in range(s)] + m0[i] for i in range(s)
            ]
            m = M(p, rows)
            d = dual_matrix(m)
            for r1 in m.rows:
                for r2 in d.rows:
                    assert sum(a * b for a, b in zip(r1, r2)) % p == 0
            assert matrix_rank(m) + matrix_rank(d) == k


class TestMemberRowSpace:
    def test_in_space(self):
        m = M(2, [[1, 0, 1], [0, 1, 1]])
        assert member_row_space((1, 1, 0), m) == (1, 1)

    def test_zero(self):
        m = M(2, [[1, 0, 1], [0, 1, 1]])
        assert member_row_space((0, 0, 0), m) == (0, 0)

    def test_not_member(self):
        m = M(2, [[1, 0, 1], [0, 1, 1]])
        assert member_row_space((1, 0, 0), m) is None
        # cross-check by enumerating all four codewords
        assert (1, 0, 0) not in all_codewords(m)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            member_row_space((1, 0), M(2, [[1, 0, 1]]))

    def test_recovers_random_coefficients(self):
        rng = random.Random(3)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 7)
            s = rng.randrange(1, k + 1)
            m0 = [[rng.randrange(p) for _ in range(k - s)] for _ in range(s)]
            rows = [
                [1 if i == j else 0 for j in range(s)] + m0[i] for i in range(s)
            ]
            m = M(p, rows)
            coeffs = tuple(rng.randrange(p) for _ in range(s))
            v = row_combination(coeffs, m)
            assert member_row_space(v, m) == coeffs


class TestColumnClasses:
    def test_distinct_columns(self):
        m = M(2, [[1, 0, 1], [0, 1, 1]])
        assert column_equiv_classes(m).cells == ((1,), (2,), (3,))

    def test_identical_columns(self):
        assert column_equiv_classes(M(3, [[1, 1]])).cells == ((1, 2),)

    def test_scaled_columns(self):
        m = M(3, [[1, 0, 2], [0, 1, 0]])
        assert column_equiv_classes(m).cells == ((1, 3), (2,))

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="column 2"):
            column_equiv_classes(M(2, [[1, 0], [1, 0]]))

    def test_zero_columns_grouped_when_allowed(self):
        m = M(3, [[1, 0, 0, 2]])
        part = column_equiv_classes(m, allow_zero=True)
        assert part.cells == ((1, 4), (2, 3))

    def test_invariant_under_column_scaling(self):
        rng = random.Random(5)
        for _ in range(50):
            p = rng.choice([3, 5])
            k = rng.randrange(2, 6)
            s = rng.randrange(1, k + 1)
            rows = [[rng.randrange(p) for _ in range(k)] for _ in range(s)]
            if any(not any(r[j] for r in rows) for j in range(k)):
                continue
            m = M(p, rows)
            j = rng.randrange(k)
            a = rng.randrange(1, p)
            scaled = M(p, [r[:j] + [r[j] * a] + r[j + 1 :] for r in rows])
            assert column_equiv_classes(m) == column_equiv_classes(scaled)


class TestMinWeight:
    def test_binary_example(self):
        m, vecs = min_weight_vectors(M(2, [[1, 0, 1], [0, 1, 1]]))
        assert m == 2
        assert vecs == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_identity_units(self):
        m, vecs = min_weight_vectors(identity_matrix(3, 3))
        assert m == 1
        assert vecs == {
            tuple(a if i == j else 0 for j in range(3))
            for i in range(3)
            for a in (1, 2)
        }

    def test_repetition(self):
        m, vecs = min_weight_vectors(M(3, [[1, 1, 1]]))
        assert m == 3
        assert vecs == {(1, 1, 1), (2, 2, 2)}

    def test_agrees_with_enumeration(self):
        rng = random.Random(17)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 7)
            s = rng.randrange(1, k + 1)
            if p**s > 10**5:
                continue
            m0 = [[rng.randrange(p) for _ in range(k - s)] for _ in range(s)]
            rows = [
                [1 if i == j else 0 for j in range(s)] + m0[i] for i in range(s)
            ]
            mat = M(p, rows)
            words = {w for w in all_codewords(mat) if any(w)}
            wmin = min(sum(1 for x in w if x) for w in words)
            expect = {w for w in words if sum(1 for x in w if x) == wmin}
            got_m, got = min_weight_vectors(mat)
            assert got_m == wmin
            assert got == expect


class TestWeightEnumerator:
    def test_binary_example(self):
        we = weight_enumerator(M(2, [[1, 0, 1], [0, 1, 1]]))
        assert we.counts == (0, 3, 0)

    def test_empty_code(self):
        we = weight_enumerator(FpMatrix(3, 4, ()))
        assert we.counts == (0, 0, 0, 0)

    def test_repetition(self):
        we = weight_enumerator(M(3, [[1, 1, 1]]))
        assert we.counts == (0, 0, 2)

    def test_budget_refusal(self):
        m = identity_matrix(2, 30)
        assert weight_enumerator(m, budget=1 << 20) is None

    def test_total_count(self):
        rng = random.Random(23)
        for _ in range(30):
            p = rng.choice([2, 3])
            k = rng.randrange(2, 7)
            s = rng.randrange(1, k + 1)
            m0 = [[rng.randrange(p) for _ in range(k - s)] for _ in range(s)]
            rows = [
                [1 if i == j else 0 for j in range(s)] + m0[i] for i in range(s)
            ]
            we = weight_enumerator(M(p, rows))
            assert sum(we.counts) == p**s - 1


class TestPrecOrder:
    def test_equal(self):
        m = M(2, [[1, 0], [0, 1]])
        assert prec_key(m) == prec_key(M(2, [[1, 0], [0, 1]]))

    def test_reversed_column_comparison(self):
        a = M(2, [[1, 0], [0, 0]])
        b = M(2, [[1, 0], [0, 1]])
        assert prec_key(a) < prec_key(b)

    def test_first_column_decides(self):
        a = M(2, [[0, 1]])
        b = M(2, [[1, 0]])
        assert prec_key(a) < prec_key(b)

    def test_total_order_on_random_triples(self):
        rng = random.Random(29)
        for _ in range(200):
            mats = [
                M(3, [[rng.randrange(3) for _ in range(3)] for _ in range(2)])
                for _ in range(3)
            ]
            a, b, c = mats
            ka, kb, kc = prec_key(a), prec_key(b), prec_key(c)
            # antisymmetry: equal keys only for equal matrices
            assert (ka == kb) == (a == b)
            # transitivity via the key
            assert sorted(mats, key=prec_key) == sorted(
                sorted(mats, key=prec_key), key=prec_key
            )
            if ka <= kb and kb <= kc:
                assert ka <= kc


class TestPartition:
    def test_from_keys(self):
        part = Partition.from_keys(["a", "b", "a", "c"])
        assert part.cells == ((1, 3), (2,), (4,))

    def test_bad_cells(self):
        with pytest.raises(ValueError):
            Partition.from_cells(3, [[1, 2]])


class TestMisc:
    def test_mat_inverse(self):
        rng = random.Random(31)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(1, 5)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            m = M(p, rows)
            try:
                inv = mat_inverse(m)
            except ValueError:
                assert matrix_rank(m) < n
                continue
            assert mat_mul(m, inv) == identity_matrix(p, n)

    def test_in_row_space_general(self):
        m = M(3, [[2, 2, 1, 0], [1, 2, 0, 1]])
        assert in_row_space((0, 0, 0, 0), m)
        assert in_row_space(row_combination((1, 2), m), m)
        assert not in_row_space((1, 0, 0, 0), m)

    def test_matrix_text_roundtrip(self):
        m = M(3, [[1, 0, 1, 2], [0, 1, 1, 1]])
        header, *lines = format_matrix(m).splitlines()
        assert header == "3 2 4"
        assert M(3, [[int(x) for x in ln.split()] for ln in lines]) == m
