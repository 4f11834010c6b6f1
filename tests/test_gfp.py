import itertools
import random

import numpy as np
import pytest

from symnorm import gfp
from symnorm.gfp import (
    FpMatrix,
    PrimeField,
    column_equiv_classes,
    dual_matrix,
    format_matrix,
    identity_matrix,
    in_row_space,
    independent_rows,
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

try:
    from hypothesis import given, settings, strategies as st
    from sympy import GF, Matrix
    from sympy.polys.matrices import DomainMatrix
    from sympy.matrices.exceptions import NonInvertibleMatrixError

    HAVE_ORACLES = True
except ImportError:
    HAVE_ORACLES = False


def M(p, rows):
    return FpMatrix.from_rows(p, rows)


def brute_weights(p, rows, k):
    """Weight counts of the words of all p^s coefficient vectors, each
    reduced mod p.  The vectors go in steps of at most 2^14 that share
    their leading coefficients, which bounds the memory at large p^s."""
    s = len(rows)
    mat = np.array(rows, dtype=np.int64).reshape(s, k)
    low = max(r for r in range(s + 1) if p**r <= 1 << 14 or r == 0)
    tails = np.array(list(itertools.product(range(p), repeat=low)), dtype=np.int64)
    tail_words = tails.reshape(p**low, low) @ mat[s - low :]
    hist = np.zeros(k + 1, dtype=np.int64)
    for head in itertools.product(range(p), repeat=s - low):
        words = (np.array(head, dtype=np.int64) @ mat[: s - low] + tail_words) % p
        hist += np.bincount(np.count_nonzero(words, axis=1), minlength=k + 1)
    return tuple(int(x) for x in hist[1:])


def same_row_space(a, b):
    return matrix_rank(a) == matrix_rank(b) and all(in_row_space(r, a) for r in b.rows)


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
        # every unit has a logarithm base the primitive element
        for p in (2, 3, 5, 7, 11, 13):
            f = PrimeField(p)
            assert {pow(f.t, e, p) for e in range(p - 1)} == set(range(1, p))


class TestFpMatrixEntries:
    def test_entries_checked_on_every_row(self):
        assert FpMatrix(5, 3, ((0, 4, 2), (4, 0, 0))).rows[1] == (4, 0, 0)
        for bad in ((0, 5, 1), (-1, 0, 0), (0, 0, 7)):
            with pytest.raises(ValueError, match="canonical residues"):
                FpMatrix(5, 3, ((1, 0, 0), bad))
        with pytest.raises(ValueError, match="ragged"):
            FpMatrix(5, 3, ((1, 0, 0), (1, 0)))


class TestRref:
    def test_already_reduced(self):
        m = M(2, [[1, 0, 1], [0, 1, 1]])
        res = rref_standard(m)
        assert res.mstd == m
        assert res.pivots == (1, 2)
        assert same_row_space(res.mstd, m)
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
        assert same_row_space(res.mstd, m)

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
            assert same_row_space(res.mstd, m)
            assert matrix_rank(res.mstd) == m.s
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
        assert column_equiv_classes(m) == ((1,), (2,), (3,))

    def test_identical_columns(self):
        assert column_equiv_classes(M(3, [[1, 1]])) == ((1, 2),)

    def test_scaled_columns(self):
        m = M(3, [[1, 0, 2], [0, 1, 0]])
        assert column_equiv_classes(m) == ((1, 3), (2,))

    def test_zero_columns_grouped_when_allowed(self):
        m = M(3, [[1, 0, 0, 2]])
        assert column_equiv_classes(m) == ((1, 4), (2, 3))

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


def incidence_of(words, k):
    """Per column, the number of the given words nonzero there."""
    return tuple(sum(1 for w in words if w[j]) for j in range(k))


def brute_incidence(p, rows):
    """Minimum weight and its column incidence over the words of all p^s
    coefficient vectors, each reduced mod p; one first coefficient at a
    time, to keep the arrays small."""
    s = len(rows)
    rows = np.array(rows, dtype=np.int64)
    rest = np.indices((p,) * (s - 1)).reshape(s - 1, p ** (s - 1)).T @ rows[1:]

    def blocks():
        for c in range(p):
            nz = (c * rows[0] + rest) % p != 0
            yield nz, nz.sum(axis=1)

    d = min(int(w[w > 0].min()) for _, w in blocks() if w.any())
    incidence = sum(nz[w == d].sum(axis=0) for nz, w in blocks())
    return d, tuple(int(x) for x in incidence)


class TestMinWeight:
    def test_binary_example(self):
        m, inc = min_weight_vectors(M(2, [[1, 0, 1], [0, 1, 1]]))
        assert m == 2
        assert inc == incidence_of({(1, 1, 0), (1, 0, 1), (0, 1, 1)}, 3)

    def test_identity_units(self):
        m, inc = min_weight_vectors(identity_matrix(3, 3))
        assert m == 1
        assert inc == incidence_of(
            {
                tuple(a if i == j else 0 for j in range(3))
                for i in range(3)
                for a in (1, 2)
            },
            3,
        )

    def test_repetition(self):
        m, inc = min_weight_vectors(M(3, [[1, 1, 1]]))
        assert m == 3
        assert inc == incidence_of({(1, 1, 1), (2, 2, 2)}, 3)

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
            assert got == incidence_of(expect, k)

    def test_incidence_against_brute_force(self):
        rng = random.Random(41)
        cases = []
        for p in (2, 3, 5, 7, 11):
            for s in range(1, 7):
                k = rng.randrange(s, s + 7)
                m0 = [[rng.randrange(p) for _ in range(k - s)] for _ in range(s)]
                for j in range(k - s):
                    if rng.random() < 0.2:
                        for r in m0:
                            r[j] = 0
                cases.append(
                    (p, [[int(i == j) for j in range(s)] + m0[i] for i in range(s)])
                )
        # d = 2 < s = 4: words with three or four coefficients are not built
        cases.append((3, [[1, 0, 0, 0, 1], [0, 1, 0, 0, 2], [0, 0, 1, 0, 1],
                          [0, 0, 0, 1, 1]]))
        cases.append((5, [[int(i == j) for j in range(5)] for i in range(5)]))
        # at p = 251 the sum 250 + 6 = 256 leaves one byte; at p = 257 the
        # entries themselves do
        cases.append((251, [[1, 0, 250], [0, 1, 6]]))
        cases.append((257, [[1, 0, 256, 3, 128], [0, 1, 255, 0, 200]]))
        cut = 0
        for p, rows in cases:
            expect = brute_incidence(p, rows)
            assert min_weight_vectors(M(p, rows)) == expect, (p, rows)
            cut += expect[0] < len(rows)
        assert cut >= 3

    def test_rejects_non_standard_and_empty_code(self):
        with pytest.raises(ValueError, match="standard form"):
            min_weight_vectors(M(3, [[0, 1, 1], [1, 0, 1]]))
        with pytest.raises(ValueError, match="empty code"):
            min_weight_vectors(FpMatrix(3, 4, ()))


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

    def test_budget_boundary(self):
        # the refusal tests p^s, not the number of words enumerated
        m = identity_matrix(3, 4)
        assert weight_enumerator(m, budget=81).counts == (8, 24, 32, 16)
        assert weight_enumerator(m, budget=80) is None

    def test_head_only(self):
        # s = 1 and s = 2: the head covers every row and there is no tail
        assert weight_enumerator(M(5, [[2, 0, 3, 0]])).counts == (0, 4, 0, 0)
        assert weight_enumerator(M(3, [[1, 0, 1], [0, 1, 1]])).counts == (0, 6, 2)
        assert weight_enumerator(M(3, [[1, 1, 1], [2, 2, 2]])).counts == (0, 0, 6)
        # entries beyond one byte
        assert weight_enumerator(M(257, [[1, 256, 0]])).counts == (0, 256, 0)

    def test_against_brute_force(self):
        # rows neither in standard form nor independent, with zero columns
        rng = random.Random(37)
        cases = [(p, s) for p in (2, 3, 5, 7, 11) for s in range(7)]
        cases += [(2, 16), (3, 10)]  # several chunks of pairs
        for p, s in cases:
            for _ in range(3):
                k = rng.randrange(max(1, s), s + 7)
                rows = [[rng.randrange(p) for _ in range(k)] for _ in range(s)]
                for j in range(k):
                    if rng.random() < 0.2:
                        for r in rows:
                            r[j] = 0
                m = FpMatrix.from_rows(p, rows, k)
                if p**s > 1 << 20:  # 11^6: refused
                    assert weight_enumerator(m, budget=1 << 20) is None
                    continue
                we = weight_enumerator(m, budget=1 << 20)
                assert we.counts == brute_weights(p, rows, k), (
                    p,
                    rows,
                )

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

    @staticmethod
    def random_rows(rng, p, s, k, zero=0.2):
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(s)]
        for j in range(k):
            if rng.random() < zero:
                for r in rows:
                    r[j] = 0
        return rows

    def test_steps_of_head_words(self, monkeypatch):
        # blocks so small that the head words go in many steps, down to one
        # word per step, with and without a short last step
        rng = random.Random(41)
        cases = [(2, 9, 12), (3, 6, 9), (5, 4, 7), (7, 3, 5), (2, 12, 16)]
        for entries in (1, 50, 333, 4096):
            monkeypatch.setattr(gfp, "_BLOCK_ENTRIES", entries)
            for p, s, k in cases:
                rows = self.random_rows(rng, p, s, k)
                we = weight_enumerator(FpMatrix.from_rows(p, rows, k))
                assert we.counts == brute_weights(p, rows, k), (entries, p, rows)

    def test_large_field(self):
        # p = 257: a one-hot width of 257 k', so a step holds a few of the
        # 258 head words of s = 2, or the one head word of s = 1
        rng = random.Random(43)
        for s, k in ((1, 64), (2, 64), (2, 100)):
            rows = self.random_rows(rng, 257, s, k, zero=0.1)
            we = weight_enumerator(FpMatrix.from_rows(257, rows, k))
            assert we.counts == brute_weights(257, rows, k), (s, k)

    def test_one_row(self):
        # s = 1: one projective head word and an empty tail
        rng = random.Random(47)
        for p in (2, 3, 5, 7, 11, 13, 101):
            for k in (1, 2, 9, 40):
                rows = self.random_rows(rng, p, 1, k)
                we = weight_enumerator(FpMatrix.from_rows(p, rows, k))
                assert we.counts == brute_weights(p, rows, k), (p, rows)

    def test_repeated_and_zero_columns_at_large_budget(self):
        # p = 2, s = 20 under budget 2^20: 2^20 words, head words in several
        # steps; the columns repeat, and six of them are zero
        rng = random.Random(53)
        base = self.random_rows(rng, 2, 20, 24, zero=0)
        cols = [[r[j] for r in base] for j in range(24)]
        cols += [cols[j] for j in (0, 0, 3, 5, 5, 5, 11)] + [[0] * 20] * 6
        rng.shuffle(cols)
        k = len(cols)
        m = FpMatrix.from_rows(2, [[col[i] for col in cols] for i in range(20)], k)
        assert matrix_rank(m) == 20
        we = weight_enumerator(m, budget=1 << 20)
        assert we.counts == brute_weights(2, m.rows, k)
        assert sum(we.counts) == (1 << 20) - 1


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


# ---------------------------------------------------------------------------
# the row reductions against sympy over GF(p)

if HAVE_ORACLES:

    @st.composite
    def matrices(draw, square=False):
        p = draw(st.sampled_from([2, 3, 5, 7]))
        s = draw(st.integers(1, 6))
        k = s if square else draw(st.integers(1, 8))
        entries = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
        return M(p, draw(st.lists(entries, min_size=s, max_size=s)))

    def sympy_matrix(m):
        field = GF(m.p)
        return DomainMatrix([[field(x) for x in r] for r in m.rows], (m.s, m.k), field)

    def sympy_rank(p, rows, k):
        return sympy_matrix(FpMatrix(p, k, tuple(rows))).rank() if rows else 0

    oracle_settings = settings(max_examples=80, deadline=None)

    class TestAgainstSympy:
        @oracle_settings
        @given(matrices())
        def test_rref_standard(self, m):
            ref, pivots = sympy_matrix(m).rref()
            if len(pivots) < m.s:
                with pytest.raises(ValueError):
                    rref_standard(m)
                return
            res = rref_standard(m)
            assert res.pivots == tuple(c + 1 for c in pivots)
            assert [list(r) for r in res.mstd.rows] == [
                [int(x) % m.p for x in r] for r in ref.to_list()
            ]

        @oracle_settings
        @given(matrices())
        def test_matrix_rank(self, m):
            assert matrix_rank(m) == sympy_matrix(m).rank()

        @oracle_settings
        @given(matrices())
        def test_independent_rows_span(self, m):
            picked = independent_rows(m.p, m.rows)
            assert all(r in m.rows for r in picked)
            rank = sympy_matrix(m).rank()
            assert len(picked) == rank == sympy_rank(m.p, picked, m.k)

        @oracle_settings
        @given(matrices(), st.data())
        def test_in_row_space(self, m, data):
            v = tuple(data.draw(st.integers(0, m.p - 1)) for _ in range(m.k))
            grown = sympy_rank(m.p, m.rows + (v,), m.k)
            assert in_row_space(v, m) == (grown == sympy_matrix(m).rank())

        @oracle_settings
        @given(matrices(square=True))
        def test_mat_inverse(self, m):
            try:
                ref = Matrix(m.rows).inv_mod(m.p)
            except NonInvertibleMatrixError:
                with pytest.raises(ValueError, match="singular"):
                    mat_inverse(m)
                return
            assert [list(r) for r in mat_inverse(m).rows] == ref.tolist()

        @oracle_settings
        @given(matrices())
        def test_column_equiv_classes(self, m):
            p = m.p

            def equivalent(i, j):
                return any(
                    all(y == a * x % p for x, y in zip(m.col(i), m.col(j)))
                    for a in range(1, p)
                )

            cells = column_equiv_classes(m)
            assert sorted(j for c in cells for j in c) == list(range(1, m.k + 1))
            assert [c[0] for c in cells] == sorted(c[0] for c in cells)
            cell_of = {j: c for c in cells for j in c}
            for i in range(1, m.k + 1):
                for j in range(1, m.k + 1):
                    assert (cell_of[i] == cell_of[j]) == equivalent(i, j)

else:

    @pytest.mark.skip(reason="the oracle tests need hypothesis and sympy")
    def test_against_sympy():
        pass
