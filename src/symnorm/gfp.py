"""Exact linear algebra over prime fields F_p.

Vectors and matrices hold canonical residues 0..p-1 and every operation
reduces eagerly, so results are bit-for-bit reproducible.  Matrices are
immutable; operations return fresh values.  Besides plain row reduction
this module provides the code-theoretic primitives the normaliser search
is built on: standard-form generator matrices, dual codes, row-space
membership, column equivalence, minimum-weight codewords, weight
enumerators and the reversed-column ordering used for canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np


class BudgetExceeded(Exception):
    """An enumeration would exceed its configured budget."""


class InvariantViolation(Exception):
    """An internal consistency check failed: a derived result does not hold
    (for instance a found element that does not normalise the input)."""


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of F_p."""
    if p == 2:
        return 1
    # prime factors of p-1
    m = p - 1
    factors = []
    d, rest = 2, m
    while d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        factors.append(rest)
    for t in range(2, p):
        if all(pow(t, m // q, p) != 1 for q in factors):
            return t
    raise ArithmeticError(f"no primitive root mod {p}")  # unreachable for prime p


@dataclass(frozen=True)
class PrimeField:
    """The field F_p together with a fixed primitive element t."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @cached_property
    def t(self) -> int:
        return primitive_root(self.p)


@dataclass(frozen=True)
class FpMatrix:
    """An s x k matrix over F_p; rows may be empty (the zero code)."""

    p: int
    k: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("matrix needs at least one column")
        for r in self.rows:
            if len(r) != self.k:
                raise ValueError("ragged rows")
            if min(r) < 0 or max(r) >= self.p:
                raise ValueError("entries must be canonical residues")

    @classmethod
    def from_rows(cls, p: int, rows, k: int | None = None) -> "FpMatrix":
        rows = tuple(tuple(x % p for x in r) for r in rows)
        if k is None:
            if not rows:
                raise ValueError("column count needed for an empty matrix")
            k = len(rows[0])
        return cls(p, k, rows)

    @property
    def s(self) -> int:
        return len(self.rows)

    def col(self, j: int) -> tuple[int, ...]:
        """Column j, 1-based."""
        return tuple(r[j - 1] for r in self.rows)

    def is_standard(self) -> bool:
        """First s columns form the identity."""
        if self.s > self.k:
            return False
        return all(
            self.rows[i][j] == (1 if i == j else 0)
            for i in range(self.s)
            for j in range(self.s)
        )

    def permute_columns(self, new_order: tuple[int, ...]) -> "FpMatrix":
        """Column j of the result is column new_order[j-1] of self (1-based)."""
        rows = tuple(tuple(r[j - 1] for j in new_order) for r in self.rows)
        return FpMatrix(self.p, self.k, rows)

    def __str__(self) -> str:
        return format_matrix(self)


def identity_matrix(p: int, s: int) -> FpMatrix:
    rows = tuple(tuple(1 if i == j else 0 for j in range(s)) for i in range(s))
    return FpMatrix(p, s, rows)


def mat_mul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    if a.p != b.p or a.k != b.s:
        raise ValueError("dimension mismatch")
    p = a.p
    rows = tuple(
        tuple(sum(ra[i] * b.rows[i][j] for i in range(a.k)) % p for j in range(b.k))
        for ra in a.rows
    )
    return FpMatrix(p, b.k, rows)


def row_combination(coeffs, m: FpMatrix) -> tuple[int, ...]:
    """coeffs . m as a row vector."""
    if len(coeffs) != m.s:
        raise ValueError("coefficient length mismatch")
    p = m.p
    return tuple(
        sum(c * m.rows[i][j] for i, c in enumerate(coeffs)) % p for j in range(m.k)
    )


def mat_inverse(a: FpMatrix) -> FpMatrix:
    """Inverse of a square matrix: the right half of the reduced [a | I]."""
    if a.s != a.k:
        raise ValueError("not square")
    p, n = a.p, a.s
    ident = identity_matrix(p, n).rows
    res = rref_standard(FpMatrix(p, 2 * n, tuple(r + e for r, e in zip(a.rows, ident))))
    if not res.is_standard:
        raise ValueError("singular matrix")
    return FpMatrix(p, n, tuple(r[n:] for r in res.mstd.rows))


# ---------------------------------------------------------------------------
# row reduction and standard form


@dataclass(frozen=True)
class RrefResult:
    mstd: FpMatrix
    pivots: tuple[int, ...]  # 1-based column indices

    @property
    def is_standard(self) -> bool:
        return self.pivots == tuple(range(1, len(self.pivots) + 1))


def rref_standard(m: FpMatrix) -> RrefResult:
    """Reduced row echelon form and its pivot columns.

    The input rows must form a basis of their span: rank-deficient input is
    rejected so callers cannot silently lose track of the code dimension.
    """
    p, k, s = m.p, m.k, m.s
    if s == 0 or all(all(x == 0 for x in r) for r in m.rows):
        raise ValueError("zero matrix: the trivial code has no generator matrix")
    work = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for col in range(k):
        if r == s:
            break
        piv = next((i for i in range(r, s) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(s):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(col + 1)
        r += 1
    if r < s:
        raise ValueError("rank-deficient input: rows are not a basis")
    return RrefResult(FpMatrix.from_rows(p, work, k), tuple(pivots))


class VectorSpan:
    """Incremental span of vectors over F_p with membership tests."""

    def __init__(self, p: int, vectors=()):
        self.p = p
        self.rows: list[list[int]] = []
        for v in vectors:
            self.add(v)

    def _reduce(self, v):
        w = [x % self.p for x in v]
        for b in self.rows:
            lead = next(i for i, x in enumerate(b) if x)
            if w[lead]:
                f = w[lead]
                w = [(x - f * y) % self.p for x, y in zip(w, b)]
        return w

    def add(self, v) -> bool:
        """Extend the span by v; False when v already lies in it."""
        w = self._reduce(v)
        if not any(w):
            return False
        lead = next(i for i, x in enumerate(w) if x)
        inv = pow(w[lead], self.p - 2, self.p)
        self.rows.append([x * inv % self.p for x in w])
        return True

    def contains(self, v) -> bool:
        return not any(self._reduce(v))


def independent_rows(p: int, vectors) -> list[tuple[int, ...]]:
    """Subset of the given vectors forming a basis of their span (greedy)."""
    span = VectorSpan(p)
    return [tuple(x % p for x in v) for v in vectors if span.add(v)]


def matrix_rank(m: FpMatrix) -> int:
    return len(VectorSpan(m.p, m.rows).rows)


def in_row_space(v, m: FpMatrix) -> bool:
    """Membership in the row space of an arbitrary (not nec. standard) matrix."""
    if len(v) != m.k:
        raise ValueError("length mismatch")
    return VectorSpan(m.p, m.rows).contains(v)


def dual_matrix(mstd: FpMatrix) -> FpMatrix:
    """Generator matrix of the dual code, for mstd = (I_s | M0).

    Returns (-M0^T | I_{k-s}); the sign makes every row orthogonal to every
    row of mstd for odd p as well.  s == k yields the empty 0 x k matrix.
    """
    if not mstd.is_standard():
        raise ValueError("matrix is not in standard form")
    p, s, k = mstd.p, mstd.s, mstd.k
    if s == k:
        return FpMatrix(p, k, ())
    rows = []
    for j in range(k - s):
        row = [(-mstd.rows[i][s + j]) % p for i in range(s)]
        row += [1 if jj == j else 0 for jj in range(k - s)]
        rows.append(tuple(row))
    return FpMatrix(p, k, tuple(rows))


def member_row_space(v, mstd: FpMatrix) -> tuple[int, ...] | None:
    """Coefficients c with c . mstd == v, or None if v is outside the code.

    Standard form means codewords are determined by their first s
    coordinates, so c is just the leading slice of v.
    """
    if len(v) != mstd.k:
        raise ValueError("length mismatch")
    if not mstd.is_standard():
        raise ValueError("matrix is not in standard form")
    p = mstd.p
    c = tuple(x % p for x in v[: mstd.s])
    if row_combination(c, mstd) == tuple(x % p for x in v):
        return c
    return None


def normalized_column(col, p: int) -> tuple[int, ...]:
    """Scale so the first nonzero entry is 1; the zero column stays zero."""
    lead = next((x for x in col if x), 0)
    if lead == 0:
        return tuple(col)
    inv = pow(lead, p - 2, p)
    return tuple(x * inv % p for x in col)


def column_equiv_classes(m: FpMatrix) -> tuple[tuple[int, ...], ...]:
    """Columns (1-based) grouped by equality up to nonzero scaling, zero
    columns forming one class; classes in order of their least column."""
    p = m.p
    inv: dict[int, int] = {}  # inverses of the leading entries met so far
    classes: dict[tuple[int, ...], list[int]] = {}
    # with no rows every column is the empty column
    for j, col in enumerate(zip(*m.rows) if m.rows else [()] * m.k, start=1):
        lead = next((x for x in col if x), 0)
        if lead > 1:
            if lead not in inv:
                inv[lead] = pow(lead, p - 2, p)
            f = inv[lead]
            col = tuple(x * f % p for x in col)
        classes.setdefault(col, []).append(j)
    return tuple(tuple(c) for c in classes.values())


# ---------------------------------------------------------------------------
# codeword enumeration


@dataclass(frozen=True)
class WeightEnumerator:
    """counts[i-1] = number of codewords of weight i, for i = 1..k."""

    counts: tuple[int, ...]


# words built per numpy step in min_weight_vectors and scalings_matching_columns,
# and entries of a one-hot or product block per step in weight_enumerator
_WORD_CHUNK, _BLOCK_ENTRIES = 1 << 13, 1 << 18


@lru_cache(maxsize=64)
def _coefficient_grid(p: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """All coefficient tuples of length r over F_p in lexicographic order (one
    empty tuple for r = 0), and the mask of those whose first nonzero entry
    is 1, one per scalar class; read-only, as the cache shares them."""
    grid = np.indices((p,) * r).reshape(r, p**r).T
    nz = grid != 0
    leading_one = np.where(nz & (nz.cumsum(axis=1) == 1), grid, 0).sum(axis=1) == 1
    grid.flags.writeable = leading_one.flags.writeable = False
    return grid, leading_one


def min_weight_vectors(mstd: FpMatrix) -> tuple[int, tuple[int, ...]]:
    """The minimum weight d of the code and its column incidence:
    incidence[j] is the number of weight-d codewords nonzero at column j+1.

    Words v and c.v have the same support, so one word per scalar class is
    enumerated (coefficient vectors whose first nonzero entry is 1) and the
    counts are multiplied by p - 1.  In standard form a word with r nonzero
    coefficients weighs at least r, so words with r + 1 of them are built,
    each as a word with r plus one scaled row, only while r + 1 is at most
    the least weight seen so far.  The extension runs depth first in steps
    of at most _WORD_CHUNK words, which bounds its temporaries.
    """
    if not mstd.is_standard():
        raise ValueError("matrix is not in standard form")
    if mstd.s < 1:
        raise ValueError("empty code")
    p, s, k = mstd.p, mstd.s, mstd.k
    dtype = np.min_scalar_type(2 * p - 2)  # holds a sum before its reduction
    rows = np.array(mstd.rows, dtype=np.int64)
    # scaled[i, c - 1] = c * row i
    scaled = (np.arange(1, p)[None, :, None] * rows[:, None, :] % p).astype(dtype)
    step = max(1, _WORD_CHUNK // (p - 1))  # pairs per step, p - 1 words each
    best = k + 1
    incidence = np.zeros(k, dtype=np.int64)

    def extend(words: np.ndarray, last: np.ndarray, r: int) -> None:
        # words: r nonzero coefficients, the last one on row last[i]
        nonlocal best, incidence
        weights = np.count_nonzero(words, axis=1)
        wmin = int(weights.min())
        if wmin < best:
            best = wmin
            incidence = np.zeros(k, dtype=np.int64)
        if wmin == best:
            incidence += np.count_nonzero(words[weights == best], axis=0)
        if r >= best:
            return
        # (word, row) pairs: each word takes every row after its last one
        word, row = np.nonzero(last[:, None] < np.arange(s))
        for start in range(0, len(word), step):
            w, i = word[start : start + step], row[start : start + step]
            grown = words[w][:, None, :] + scaled[i]
            grown = np.where(grown >= p, grown - p, grown)
            extend(grown.reshape(-1, k), np.repeat(i, p - 1), r + 1)

    extend(scaled[:, 0], np.arange(s), 1)
    return best, tuple(int(x) * (p - 1) for x in incidence)


def weight_enumerator(mstd: FpMatrix, budget: int = 1 << 17) -> WeightEnumerator | None:
    """Weight distribution of the p^s codewords of the row space of mstd.

    Returns None when p^s exceeds the budget; callers treat that as a
    refusal and skip whatever test needed the enumerator.

    Words v and c.v have equal weight, so one word per scalar class is
    enumerated (coefficient vectors whose first nonzero entry is 1) and the
    histogram is multiplied by p - 1.  The coefficients split into a head
    and a tail: the classes are every projective head word plus every tail
    word, and every projective tail word alone.  On the k' nonzero columns
    h + t vanishes where h = -t, so it weighs k' minus the dot product of the
    one-hot encodings (width k' p) of h and -t: one matrix product weighs a
    step of head words against every tail word.  Its entries and partial
    sums are integers of at most k', exact in float32 while k' < 2^24
    (float64 beyond).  The steps keep each one-hot and product block within
    _BLOCK_ENTRIES entries; the tail's block has p^ceil(s/2) k'.
    """
    p, s, k = mstd.p, mstd.s, mstd.k
    if s == 0:
        return WeightEnumerator(tuple([0] * k))
    if p**s > budget:
        return None
    rows = np.array(mstd.rows, dtype=np.int64)
    rows = rows[:, rows.any(axis=0)]  # zero columns add no weight
    width = rows.shape[1]
    lo = s // 2 + 1  # the head, cut down by the scalar, takes the larger half
    head_grid, head_one = _coefficient_grid(p, lo)
    head = head_grid[head_one] @ rows[:lo] % p
    tail_grid, tail_one = _coefficient_grid(p, s - lo)
    tail = tail_grid @ rows[lo:] % p
    hist = np.bincount(np.count_nonzero(tail[tail_one], axis=1), minlength=k + 1)
    one_hot = np.eye(p, dtype=np.float32 if width < 1 << 24 else np.float64)
    neg_tail = one_hot.take(-tail % p, axis=0).reshape(len(tail), width * p)
    step = max(1, _BLOCK_ENTRIES // (width * p + len(tail)))
    for start in range(0, len(head), step):
        words = head[start : start + step]
        block = one_hot.take(words, axis=0).reshape(len(words), width * p)
        equal = block @ neg_tail.T  # per pair, the coordinates where h = -t
        hist += np.bincount((width - equal).astype(np.intp).ravel(), minlength=k + 1)
    return WeightEnumerator(tuple(int(x) * (p - 1) for x in hist[1 : k + 1]))


def scalings_matching_columns(p: int, cols, targets, tick):
    """The scalings v of F_p^s with v[0] = 1 under which every column of
    cols, multiplied entrywise by v, is a nonzero multiple of a column of
    targets; in lexicographic order of v.

    cols (s x f) and targets (s x n) are lists of rows of canonical
    residues, and the target columns are nonzero and pairwise inequivalent
    under scaling, so each column matches at most one.  Yields (v, match,
    scale) per such v: column j of cols times v is scale[j] times target
    column match[j] (0-based).

    v has no zero entry, so v o c has the zero pattern of c and its leading
    entry in c's leading row r0.  Scaled by 1 / (v[r0] c[r0]), so that this
    entry is 1, it is compared entry by entry on c's other nonzero rows with
    the normalised targets of c's zero pattern only.  The (p-1)^(s-1)
    scalings are built from their indices, with their entrywise inverses,
    in steps of _WORD_CHUNK in the smallest dtype that holds (p-1)^2, and
    filtered one column at a time; tick(count) is called before each step.
    """
    s = len(cols)
    total = (p - 1) ** (s - 1)
    dtype = np.min_scalar_type((p - 1) ** 2)  # holds a product before its reduction
    inv = [0] + [pow(x, p - 2, p) for x in range(1, p)]
    t_cols = list(zip(*targets))
    t_lead_inv = [inv[next(x for x in col if x)] for col in t_cols]
    t_norm = np.array(
        [[x * li % p for x in col] for col, li in zip(t_cols, t_lead_inv)], dtype=dtype
    ).T
    patterns = [tuple(x != 0 for x in col) for col in t_cols]
    # per column: the targets of its zero pattern, its leading row and
    # entry, and its other nonzero rows with their entries over the leading one
    plan = []
    for c in zip(*cols):
        pattern = tuple(x != 0 for x in c)
        cand = [t for t, pat in enumerate(patterns) if pat == pattern]
        if not cand:  # a zero pattern no target has: nothing matches
            tick(total)
            return
        rows = [r for r in range(s) if c[r]]
        lead = c[rows[0]]
        others = [(r, c[r] * inv[lead] % p) for r in rows[1:]]
        plan.append((np.array(cand), rows[0], lead, others))
    inv, t_lead_inv = np.array(inv, dtype=dtype), np.array(t_lead_inv, dtype=dtype)

    for start in range(0, total, _WORD_CHUNK):
        stop = min(total, start + _WORD_CHUNK)
        tick(stop - start)
        v = np.ones((stop - start, s), dtype=dtype)
        v_inv = np.ones((stop - start, s), dtype=dtype)
        idx = np.arange(start, stop)
        for r in range(s - 1, 0, -1):  # the last coordinate varies fastest
            idx, digit = np.divmod(idx, p - 1)
            v[:, r] += digit.astype(dtype)
            v_inv[:, r] = inv[digit + 1]
        picks = []  # per column so far: matched target and scale of each row left
        for cand, r0, lead, rows in plan:
            w = v_inv[:, r0]
            hit = np.ones((len(v), len(cand)), dtype=bool)
            for r, x in rows:
                hit &= (v[:, r] * x % p * w % p)[:, None] == t_norm[r, cand]
            keep = hit.any(axis=1)
            v, v_inv, hit = v[keep], v_inv[keep], hit[keep]
            picks = [(m[keep], sc[keep]) for m, sc in picks]
            if not len(v):
                break
            m = cand[np.nonzero(hit)[1]]  # one hit per row: the targets differ
            picks.append((m, v[:, r0] * lead % p * t_lead_inv[m] % p))
        else:
            picks = [(m.tolist(), sc.tolist()) for m, sc in picks]
            for i, row in enumerate(v.tolist()):
                yield tuple(row), [m[i] for m, _ in picks], [sc[i] for _, sc in picks]


# ---------------------------------------------------------------------------
# the column ordering used for canonical representatives


def prec_key(m: FpMatrix) -> tuple:
    """Sort key realising the matrix ordering: columns compared left to
    right, each column read bottom row first."""
    return tuple(tuple(reversed(m.col(j))) for j in range(1, m.k + 1))


# ---------------------------------------------------------------------------
# text exchange format


def format_matrix(m: FpMatrix) -> str:
    lines = [f"{m.p} {m.s} {m.k}"]
    lines += [" ".join(str(x) for x in r) for r in m.rows]
    return "\n".join(lines)
