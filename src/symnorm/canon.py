"""Canonical representatives of codes under row transforms and column
scalings, and the per-orbit-permutation feasibility test built on them.

A standard-form generator matrix is reduced to the least element of its
orbit under invertible row operations and nonzero column scalings, scanning
columns left to right and rows bottom to top, with the column scalings
tracked so two reductions can be compared and their quotient lifted back to
a permutation.  Whether some orbit-fixing permutation completes a given
orbit permutation to a normalising element is decided by comparing the
representatives of the original code and the column-permuted code.
"""

from __future__ import annotations

from dataclasses import dataclass

from symnorm.encode import InPInstance, affine_perm
from symnorm.gfp import FpMatrix, rref_standard
from symnorm.perm import Permutation


def support_partitions(a: FpMatrix) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each column count j, the cells (1-based rows, in order of their
    least row) of the finest partition of the rows whose cells contain the
    support of every one of the first j columns.

    The matrix must be in standard form, so the first s partitions are
    discrete; after that, each column merges the cells its support meets.
    """
    if not a.is_standard():
        raise ValueError("matrix is not in standard form")
    s, k = a.s, a.k
    ids = list(range(s))
    out = []
    for j in range(1, k + 1):
        if j > s:
            supp_ids = {ids[i] for i in range(s) if a.rows[i][j - 1]}
            if len(supp_ids) > 1:
                target = min(supp_ids)
                ids = [target if x in supp_ids else x for x in ids]
        cells: dict[int, list[int]] = {}
        for i, cid in enumerate(ids):
            cells.setdefault(cid, []).append(i + 1)
        out.append(tuple(tuple(c) for c in cells.values()))
    return tuple(out)


@dataclass(frozen=True)
class CanonResult:
    """rep together with the column scalings that produced it: some row
    scaling of input . diag(col_scalings) equals rep."""

    rep: FpMatrix
    col_scalings: tuple[int, ...]


def canonical_rep(a: FpMatrix) -> CanonResult:
    """The least matrix obtainable from a by row transforms and column
    scalings, under the reversed-column ordering.

    Columns are fixed greedily left to right.  Once the first j columns
    are fixed, the residual freedom is one scalar per cell of the j-th
    support partition (rows of a cell scale together, compensated on the
    columns already fixed), so in column j+1 exactly the bottom-most
    nonzero entry of each cell can be normalised to 1 and nothing else can
    improve.  Only row scalings are applied.
    """
    if not a.is_standard():
        raise ValueError("matrix is not in standard form")
    p, s, k = a.p, a.s, a.k
    cell_rows = []  # per column: 0-based row -> its 0-based cell
    for cells in support_partitions(a):
        zero_based = [tuple(i - 1 for i in c) for c in cells]
        cell_rows.append({i: c for c in zero_based for i in c})
    work = [list(r) for r in a.rows]
    col_scale = [1] * k
    for j0 in range(s - 1, k - 1):
        for i0 in range(s - 1, -1, -1):
            cell = cell_rows[j0][i0]
            val = work[i0][j0 + 1]
            if val == 0 or any(work[u][j0 + 1] for u in cell if u > i0):
                continue
            inv = pow(val, p - 2, p)
            for r in cell:
                work[r] = [x * inv % p for x in work[r]]
            for l0 in range(j0 + 1):
                if any(work[q][l0] for q in cell):
                    for r in range(s):
                        work[r][l0] = work[r][l0] * val % p
                    col_scale[l0] = col_scale[l0] * val % p
    return CanonResult(FpMatrix.from_rows(p, work, k), tuple(col_scale))


def permuted_code_matrix(inst: InPInstance, pi: Permutation) -> FpMatrix:
    """Generator matrix of the code with coordinates pulled back along pi:
    column j of the result is column pi(j) of the instance matrix."""
    if pi.degree != inst.k:
        raise ValueError("index permutation must have degree k")
    order = tuple(pi.image(j) for j in range(1, inst.k + 1))
    return inst.matrix.permute_columns(order)


def kappa_feasible(
    inst: InPInstance, pi: Permutation, own: CanonResult | None = None
) -> Permutation | None:
    """An orbit-fixing element b completing the orbit permutation pi to a
    normalising element, or None when no such element exists.  own is
    canonical_rep(inst.matrix), which a caller testing many pi computes
    once; it is computed here when not given.

    The permuted code is re-reduced; if its pivots move away from the
    leading columns, no column scaling can align the two codes (the rank
    of the leading projection is a scaling invariant) and the answer is
    immediately negative.  Otherwise the codes match exactly when their
    canonical representatives do, and the quotient of tracked column
    scalings lifts to b.  The search's found group verifies b * kappa
    before keeping it.
    """
    p = inst.p
    permuted = permuted_code_matrix(inst, pi)
    reduced = rref_standard(permuted)
    if not reduced.is_standard:
        return None
    if own is None:
        own = canonical_rep(inst.matrix)
    other = canonical_rep(reduced.mstd)
    if own.rep != other.rep:
        return None
    diag = tuple(
        d1 * pow(d2, p - 2, p) % p
        for d1, d2 in zip(own.col_scalings, other.col_scalings)
    )
    return affine_perm(inst, scale=diag)
