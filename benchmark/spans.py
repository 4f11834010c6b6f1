"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the symnorm modules from outside:
every call becomes a span with a name, a start, an end and a link to the
span that was open when it started.  Nothing in the package changes.
Because ``search.py``, ``dihedral.py`` and ``cli.py`` bind many of these
functions with ``from ... import``, a function is replaced in every module
namespace that holds it, not only where it is defined.

Spans live in flat arrays while the run lasts and are written out once, at
the end.  A span's self time is its duration minus the durations of its
direct child spans; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute) -> span name.  "StabChain.__init__" is the chain
# build: construction places the generators and runs Schreier-Sims.
TARGETS = {
    ("perm", "StabChain.__init__"): "perm.stabchain_build",
    ("perm", "StabChain.contains"): "perm.stabchain_contains",
    ("gfp", "weight_enumerator"): "gfp.weight_enumerator",
    ("gfp", "min_weight_vectors"): "gfp.min_weight_vectors",
    ("gfp", "member_row_space"): "gfp.member_row_space",
    ("encode", "eliminate_column"): "encode.eliminate_column",
    ("encode", "reduce_equivalent_orbits"): "encode.reduce_equivalent_orbits",
    ("encode", "build_instance"): "encode.build_instance",
    ("encode", "decompose_bk"): "encode.decompose_bk",
    ("canon", "kappa_feasible"): "canon.kappa_feasible",
    ("canon", "canonical_rep"): "canon.canonical_rep",
    ("search", "full_search"): "search.full_search",
    ("search", "limit_depth_search"): "search.limit_depth_search",
    ("search", "normalizer_in_sym"): "search.normalizer_in_sym",
    ("search", "domains_init"): "search.domains_init",
    ("search", "compare_stabs"): "search.compare_stabs",
    ("search", "check_lds"): "search.check_lds",
    ("search", "deep_prune"): "search.deep_prune",
    ("search", "all_diff_refiner"): "search.all_diff_refiner",
    ("dihedral", "build_dihedral"): "dihedral.build_dihedral",
    ("dihedral", "normalizer_dihedral"): "dihedral.normalizer_dihedral",
    ("cli", "gen_instance"): "cli.gen_instance",
    ("cli", "compute"): "cli.compute",
}

SEARCHES = ("search.full_search", "search.limit_depth_search")
PIPELINES = ("search.normalizer_in_sym", "dihedral.normalizer_dihedral")

# search counters kept from NormalizerResult.stats, and the prune rules
# among them (the lds and deep rules only shrink domains and count nothing)
PRUNE_RULES = ("minimality", "stabs", "stabs_dual", "alldiff")
SEARCH_COUNTERS = ("nodes", "leaves", "found") + tuple(
    f"prune_{rule}" for rule in PRUNE_RULES
)


def _count_search(counts, args, kwargs, result):
    for key in SEARCH_COUNTERS:
        counts[f"search.{key}"] += result.stats.get(key, 0)


def _count_full_search(counts, args, kwargs, result):
    # leaf yield needs full-depth searches: the depth-limited variant also
    # counts elements found by its scaling enumeration, which has no leaves
    _count_search(counts, args, kwargs, result)
    counts["search.full.leaves"] += result.stats.get("leaves", 0)
    counts["search.full.found"] += result.stats.get("found", 0)


def _count_words(counts, args, kwargs, result):
    # p^s codewords are enumerated unless the budget refuses the matrix
    if result is not None:
        mstd = args[0]
        counts["gfp.weight_enumerator.words"] += mstd.p**mstd.s


def _count_accepts(counts, args, kwargs, result):
    if result is not None:
        counts["canon.kappa_feasible.accepted"] += 1


OBSERVERS = {
    "search.full_search": _count_full_search,
    "search.limit_depth_search": _count_search,
    "gfp.weight_enumerator": _count_words,
    "canon.kappa_feasible": _count_accepts,
}


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct child spans
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Replace every target in every symnorm namespace that binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sys.modules.items()
            if key == "symnorm" or key.startswith("symnorm.")
        ]
        for (mod, attr), name in TARGETS.items():
            owner = sys.modules[f"symnorm.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def _patch(self, obj, key, wrapper):
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, wrapper)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack, counts = self._stack, self.counts
        name_id, parent, start, end, child = (
            self.name_id, self.parent, self.start, self.end, self.child
        )

        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1] if stack else -1
            name_id.append(nid)
            parent.append(up)
            end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[idx] = t1
                stack.pop()
                if up >= 0:
                    child[up] += t1 - t0
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- results ---------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "child": np.frombuffer(self.child, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write every span: names, then one column per field (npz)."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def summary(self) -> dict:
        """Per span name: calls, total time and self time, plus the split
        of chain-build time by the stage that caused it."""
        cols = self.columns()
        nid, dur = cols["name_id"], cols["end"] - cols["start"]
        self_time = dur - cols["child"]
        out = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        out["perm.stabchain_build"].update(self._build_split(cols, dur))
        return out

    def _build_split(self, cols, dur) -> dict:
        """Chain builds inside a search (the nearest enclosing search or
        pipeline span is a search) and in assembly (the direct parent is a
        pipeline function: final order and verification)."""
        names = self.names
        nid, parent = cols["name_id"], cols["parent"]
        search_ids = {names.index(n) for n in SEARCHES if n in names}
        pipe_ids = {names.index(n) for n in PIPELINES if n in names}
        stage: dict[int, int] = {}

        def stage_of(idx):
            # -1: outside any search or pipeline, else the enclosing name id
            path = []
            while idx >= 0 and idx not in stage:
                if int(nid[idx]) in search_ids or int(nid[idx]) in pipe_ids:
                    stage[idx] = int(nid[idx])
                    break
                path.append(idx)
                idx = int(parent[idx])
            found = stage.get(idx, -1) if idx >= 0 else -1
            for j in path:
                stage[j] = found
            return found

        build = names.index("perm.stabchain_build")
        in_search = in_assembly = 0.0
        for idx in np.flatnonzero(nid == build):
            up = int(parent[idx])
            if up < 0:
                continue
            if stage_of(up) in search_ids:
                in_search += dur[idx]
            if int(nid[up]) in pipe_ids:
                in_assembly += dur[idx]
        return {"in_search_s": float(in_search), "in_assembly_s": float(in_assembly)}
