"""Property tests for the coordinates (pi, scale, shift) of the overgroup
L = B K, on the bytes backing (degree <= 256) and the index-table backing
above it (the instance keyed "tuple", after the backing it replaced)."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symnorm.encode import (  # noqa: E402
    affine_parts,
    affine_perm,
    build_instance,
    decompose_bk,
)
from symnorm.gfp import FpMatrix, matrix_rank  # noqa: E402
from symnorm.perm import PermGroup, Permutation  # noqa: E402


def scattered_instance(seed, p, k, dim, extra):
    """The group of a random code on p*k points plus `extra` fixed points,
    with every point relabelled by one random permutation."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(dim)]
        m = FpMatrix.from_rows(p, rows, k)
        if matrix_rank(m) == dim and all(any(m.col(j)) for j in range(1, k + 1)):
            break
    n = p * k + extra
    relabel = list(range(1, n + 1))
    rng.shuffle(relabel)
    sigma = Permutation(relabel)
    gens = []
    for row in m.rows:
        imgs = list(range(1, n + 1))
        for i, r in enumerate(row):
            for u in range(p):
                imgs[p * i + u] = p * i + (u + r) % p + 1
        gens.append(Permutation(imgs).conj(sigma))
    return build_instance(PermGroup.from_gens(n, gens), p)


INSTANCES = {
    "bytes": scattered_instance(1, 5, 6, 3, extra=4),  # degree 34
    "tuple": scattered_instance(2, 7, 37, 3, extra=2),  # degree 261
}


@st.composite
def coordinates(draw, inst):
    k, p = inst.k, inst.p
    pi = Permutation(draw(st.permutations(range(1, k + 1))))
    scale = draw(st.lists(st.integers(1, p - 1), min_size=k, max_size=k))
    shift = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    return pi, tuple(scale), tuple(shift)


def test_backings():
    assert INSTANCES["bytes"].degree <= 256 < INSTANCES["tuple"].degree
    assert INSTANCES["tuple"].degree == 261 and INSTANCES["tuple"].k == 37


@pytest.mark.parametrize("backing", sorted(INSTANCES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_and_split(backing, data):
    inst = INSTANCES[backing]
    pi, scale, shift = data.draw(coordinates(inst))
    l = affine_perm(inst, pi, scale, shift)
    assert affine_parts(inst, l) == (pi, scale, shift)
    b, kap = decompose_bk(inst, l)
    assert b * kap == l
    assert affine_parts(inst, b) == (Permutation.identity(inst.k), scale, shift)
    assert affine_parts(inst, kap) == (pi, (1,) * inst.k, (0,) * inst.k)


@pytest.mark.parametrize("backing", sorted(INSTANCES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rejects_transposition_inside_orbit(backing, data):
    # p >= 5: an affine map of Z_p fixing p - 2 >= 3 points is the identity
    inst = INSTANCES[backing]
    assert inst.p >= 5
    l = affine_perm(inst, *data.draw(coordinates(inst)))
    cyc = inst.orbit_cycles[data.draw(st.integers(0, inst.k - 1))]
    u, w = data.draw(
        st.lists(st.integers(0, inst.p - 1), min_size=2, max_size=2, unique=True)
    )
    t = Permutation.from_cycles(inst.degree, [(cyc[u], cyc[w])])
    with pytest.raises(ValueError):
        affine_parts(inst, l * t)
    with pytest.raises(ValueError):
        decompose_bk(inst, t * l)


@pytest.mark.parametrize("backing", sorted(INSTANCES))
def test_rejects_moved_outside_points_and_bad_coordinates(backing):
    inst = INSTANCES[backing]
    outside = [x for x in range(1, inst.degree + 1) if x not in inst.point_orbit]
    t = Permutation.from_cycles(inst.degree, [tuple(outside[:2])])
    with pytest.raises(ValueError):
        affine_parts(inst, t)
    with pytest.raises(ValueError):
        affine_perm(inst, scale=(0,) + (1,) * (inst.k - 1))
    with pytest.raises(ValueError):
        affine_perm(inst, Permutation.identity(inst.k + 1))
    with pytest.raises(ValueError):
        affine_perm(inst, shift=(0,) * (inst.k - 1))
