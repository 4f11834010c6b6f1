"""Brute-force ground truth for tests and acceptance runs.

Everything here enumerates exhaustively and is meant to be obviously
correct rather than fast: monomial automorphism groups by trying every
scaled coordinate permutation, normalisers by trying every element of the
ambient symmetric group, and canonical representatives by walking a full
row-transform/column-scaling orbit.  Budgets guard against accidentally
enormous enumerations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from symnorm.encode import MonomialElement
from symnorm.gfp import (
    BudgetExceeded,
    FpMatrix,
    InvariantViolation,
    VectorSpan,
    prec_key,
)
from symnorm.perm import PermGroup, Permutation


@dataclass(frozen=True)
class OracleBudget:
    max_elements: int = 10**7
    max_orbit: int = 10**7


def brute_maut(
    m: FpMatrix, budget: OracleBudget = OracleBudget()
) -> list[MonomialElement]:
    """Every monomial map that stabilises the row space of m (any
    generator matrix)."""
    p, k = m.p, m.k
    total = (p - 1) ** k * factorial(k)
    if total > budget.max_elements:
        raise BudgetExceeded(f"monomial group has {total} elements")
    span = VectorSpan(p, m.rows)
    out = []
    for imgs in itertools.permutations(range(1, k + 1)):
        perm = Permutation(imgs)
        for diag in itertools.product(range(1, p), repeat=k):
            w = MonomialElement(p, diag, perm)
            if all(span.contains(w.apply(r)) for r in m.rows):
                out.append(w)
    return out


def brute_normalizer(H: PermGroup, budget: OracleBudget = OracleBudget()) -> PermGroup:
    """The normaliser of H in the symmetric group on its degree n points,
    by testing every element."""
    n = H.degree
    if factorial(n) > budget.max_elements:
        raise BudgetExceeded(f"S_{n} has {factorial(n)} elements")
    elements = {g.images for g in H.elements(limit=budget.max_elements)}
    found: list[Permutation] = []
    grp = PermGroup.trivial(n)
    for imgs in itertools.permutations(range(1, n + 1)):
        sigma = Permutation(imgs)
        if all(x.conj(sigma).images in elements for x in H.generators):
            if not grp.contains(sigma):
                found.append(sigma)
                grp = PermGroup.from_gens(n, found)
    return grp


def brute_normalizer_elements(
    H: PermGroup, budget: OracleBudget = OracleBudget()
) -> list[Permutation]:
    """Every element of the normaliser of H in its symmetric group.

    Same exhaustive test as brute_normalizer (conjugate each generator by
    every element of S_n and check membership), but the S_n sweep is done
    in one vectorised pass, so degrees up to 8 stay cheap.
    """
    import numpy as np

    n = H.degree
    if factorial(n) > budget.max_elements:
        raise BudgetExceeded(f"S_{n} has {factorial(n)} elements")
    elements = {g.images for g in H.elements(limit=budget.max_elements)}
    keys = {_tuple_key(img, n) for img in elements}
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    rows = np.arange(perms.shape[0])[:, None]
    mask = np.ones(perms.shape[0], dtype=bool)
    weights = (n + 1) ** np.arange(n, dtype=np.int64)
    key_arr = np.fromiter(sorted(keys), dtype=np.int64, count=len(keys))
    for x in H.generators:
        ximg = np.array([x.images[i] - 1 for i in range(n)], dtype=np.int64)
        conj = np.empty_like(perms)
        conj[rows, perms] = perms[:, ximg]
        conj_keys = ((conj + 1) * weights).sum(axis=1)
        mask &= np.isin(conj_keys, key_arr)
    return [
        Permutation(tuple(int(x) + 1 for x in row)) for row in perms[mask]
    ]


def _tuple_key(images, n: int) -> int:
    return sum(x * (n + 1) ** i for i, x in enumerate(images))


def _all_invertible(p: int, s: int):
    from symnorm.gfp import FpMatrix as _F, matrix_rank

    for entries in itertools.product(range(p), repeat=s * s):
        rows = [entries[i * s : (i + 1) * s] for i in range(s)]
        m = _F.from_rows(p, rows, s)
        if matrix_rank(m) == s:
            yield m


def brute_canon_rep(a: FpMatrix, budget: OracleBudget = OracleBudget()) -> FpMatrix:
    """Least matrix reachable from a by invertible row transforms and
    nonzero column scalings, under the reversed-column ordering."""
    p, s, k = a.p, a.s, a.k
    gl_size = 1
    for i in range(s):
        gl_size *= p**s - p**i
    if gl_size * (p - 1) ** k > budget.max_orbit:
        raise BudgetExceeded("orbit too large to enumerate")
    from symnorm.gfp import mat_mul

    best = None
    best_key = None
    for r in _all_invertible(p, s):
        base = mat_mul(r, a)
        for diag in itertools.product(range(1, p), repeat=k):
            cand = FpMatrix.from_rows(
                p,
                [tuple(x * diag[j] % p for j, x in enumerate(row)) for row in base.rows],
                k,
            )
            key = prec_key(cand)
            if best_key is None or key < best_key:
                best, best_key = cand, key
    if best is None:
        raise InvariantViolation("the identity row transform is always tried")
    return best
