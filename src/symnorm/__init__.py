"""Normalisers in symmetric groups for orbit-wise cyclic and dihedral groups.

The pipeline translates a group whose orbit restrictions are regular
p-cycles into a linear code over F_p, searches the orbit permutations with
code-theoretic pruning, and lifts the monomial automorphisms it finds back
to permutations.  Brute-force oracles, a dihedral extension and a CLI with
a benchmark harness round out the package.
"""

from symnorm.canon import CanonResult, canonical_rep, kappa_feasible, support_partitions
from symnorm.dihedral import DihedralInstance, build_dihedral, normalizer_dihedral
from symnorm.encode import (
    InPInstance,
    MonomialElement,
    NotInClass,
    build_instance,
    code_to_group,
    reduce_equivalent_orbits,
)
from symnorm.gfp import (
    FpMatrix,
    InvariantViolation,
    PrimeField,
    WeightEnumerator,
)
from symnorm.oracle import brute_canon_rep, brute_maut, brute_normalizer
from symnorm.perm import PermGroup, Permutation, StabChain
from symnorm.search import (
    NormalizerResult,
    SearchConfig,
    SearchTimeout,
    full_search,
    limit_depth_search,
    normalizer_in_sym,
)

__all__ = [
    "CanonResult",
    "DihedralInstance",
    "FpMatrix",
    "InPInstance",
    "InvariantViolation",
    "MonomialElement",
    "NormalizerResult",
    "NotInClass",
    "PermGroup",
    "Permutation",
    "PrimeField",
    "SearchConfig",
    "SearchTimeout",
    "StabChain",
    "WeightEnumerator",
    "brute_canon_rep",
    "brute_maut",
    "brute_normalizer",
    "build_dihedral",
    "build_instance",
    "canonical_rep",
    "code_to_group",
    "full_search",
    "kappa_feasible",
    "limit_depth_search",
    "normalizer_dihedral",
    "normalizer_in_sym",
    "reduce_equivalent_orbits",
    "support_partitions",
]

__version__ = "0.1.0"
