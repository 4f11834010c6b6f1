import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symnorm.cli as cli_module
from symnorm.cli import (
    BenchCell,
    RunRecord,
    bench,
    compute,
    format_bench_table,
    gen_instance,
    instance_hash,
    main,
    parse_family,
)
from symnorm.gfp import InvariantViolation
from symnorm.oracle import brute_normalizer
from symnorm.perm import PermGroup, parse_group, parse_permutation
from symnorm.search import SearchConfig


class TestGen:
    def test_deterministic(self):
        _, a = gen_instance(2, 4, 2, seed=1)
        _, b = gen_instance(2, 4, 2, seed=1)
        assert a == b
        _, c = gen_instance(2, 4, 2, seed=2)
        assert c != a

    def test_full_rank_forces_identity_code(self):
        grp, text = gen_instance(3, 2, 2, seed=0)
        # rank 2 on two blocks: the group is the full product
        assert grp.order() == 9

    def test_dihedral_mode(self):
        grp, text = gen_instance(3, 2, 1, seed=5, dihedral=True)
        p, n, gens = parse_group(text)
        assert (p, n) == (3, 6)
        from symnorm.dihedral import build_dihedral

        inst = build_dihedral(grp, 3)
        assert inst.k == 2

    def test_dihedral_needs_odd(self):
        with pytest.raises(ValueError):
            gen_instance(2, 3, 1, seed=0, dihedral=True)

    # SHA-256 of the text of every instance the benchmark's workloads draw
    # (p, k, dim, dihedral, instance seed): the benchmark regenerates its
    # inputs through gen_instance, so these texts must not change
    WORKLOAD_TEXTS = {
        (5, 20, 4, False, 0): "0607fd561e1a0ba0d795f693c8af7017ed6c9560d69e7750511d24bca6bcc95b",
        (5, 20, 6, False, 0): "39398e5af66257c7af6e57e641656972a15d76240f07be9031b1352e1472789b",
        (5, 20, 8, False, 0): "3703f6000568f8ea71e9b83997d6f3be694ff91d7dc3d1108dbbc0562480407d",
        (2, 20, 6, False, 0): "94ce51138b5db32c588bfc2a9b8058547bceb8acc761c1a72aa7da544e42e5b8",
        (3, 20, 6, False, 0): "66eeadea7755b8658780cc19b8824b5309f0b2f1244fa509fc7fda74223b653c",
        (11, 20, 6, False, 0): "49367a64100785433cdd54fff704961afdaf6cb40eeaf82aab7d87f62df9fb12",
        (3, 12, 4, True, 0): "9ef2c57d2ba3fc02c27b4cc443c5212e234c5d2d7da40200ca2198f2f988491d",
        (3, 12, 4, True, 1): "b2e4b5546e512c69e845fdc4a7890bacfda190304f48b1bae85e3878274cebe8",
        (3, 12, 4, True, 2): "2223c20f818123775b987b06c40d02f8ebc90d846114175128d59bdd9ec2e87b",
        (3, 16, 5, True, 0): "c6022bcc27d64dd070154089ce26fc1a5bfb7b0f1ebf4f7efec93c2f54922da1",
        (5, 12, 4, True, 0): "77526a9e1a5a080078d2977583bdd51b689616d241dc168afe88737739cf405d",
        (7, 12, 4, True, 0): "1ef427d772cf71df725552fc7f80ad838f1eca4f162d6a19bd88c486e493ae8c",
        (7, 37, 3, False, 0): "6da20d51e3bdf501dbe47c7780fe318659e6fbcb024f9e7f066cbb986f204378",
    }

    def test_workload_texts_pinned(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        drawn = {
            (c.p, c.k, c.dim, c.dihedral, seed)
            for w in workloads.WORKLOADS.values()
            for c in w.cells
            for seed in range(c.count)
        }
        assert drawn == set(self.WORKLOAD_TEXTS)
        for (p, k, dim, dihedral, seed), digest in self.WORKLOAD_TEXTS.items():
            _, text = gen_instance(p, k, dim, seed, dihedral=dihedral)
            assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCompute:
    def test_full_on_e1(self):
        text = "2 6\n(1 2)(5 6)\n(3 4)(5 6)"
        rec = compute(text)
        assert rec.order == "48"
        assert rec.counters["nodes"] >= 1
        assert not rec.timed_out

    def test_cross_method(self):
        text = "2 6\n(1 2)(5 6)\n(3 4)(5 6)"
        assert compute(text, "limitdepth").order == "48"
        assert compute(text, "oracle").order == "48"

    def test_oracle_in_support(self):
        # points 3 and 4 are fixed: every method works in Sym({1, 2})
        text = "2 4\n(1 2)"
        assert compute(text).order == "2"
        rec = compute(text, "oracle")
        assert rec.order == "2"
        assert rec.generators == ["(1 2)"]

    def test_generators_reverify_after_roundtrip(self):
        grp, text = gen_instance(3, 3, 2, seed=9)
        rec = compute(text)
        p, n, gens = parse_group(text)
        H = PermGroup.from_gens(n, gens)
        chain = H.chain()
        for gline in rec.generators:
            g = parse_permutation(gline, n)
            for x in H.generators:
                assert chain.contains(x.conj(g))

    def test_dihedral_method(self):
        _, text = gen_instance(3, 2, 1, seed=3, dihedral=True)
        rec = compute(text, "dihedral")
        p, n, gens = parse_group(text)
        grp = PermGroup.from_gens(n, gens)
        assert rec.order == str(brute_normalizer(grp).order())

    def test_no_prune_flags_keep_order(self):
        _, text = gen_instance(3, 4, 2, seed=4)
        base = compute(text)
        loose = compute(
            text,
            config=SearchConfig(
                use_lds=False,
                use_stabs=False,
                use_deep=False,
                use_alldiff=False,
                use_dual_partitions=False,
            ),
        )
        assert base.order == loose.order
        assert base.counters["nodes"] <= loose.counters["nodes"]

    def test_timeout_censors(self):
        _, text = gen_instance(3, 6, 3, seed=8)
        rec = compute(text, config=SearchConfig(time_limit=0.0))
        assert rec.timed_out and rec.order is None

    def test_json_fields(self):
        text = "2 6\n(1 2)(5 6)\n(3 4)(5 6)"
        rec = compute(text)
        payload = json.loads(rec.to_json())
        assert set(payload) == {f.name for f in dataclasses.fields(RunRecord)}
        assert payload["order"] == "48"
        assert payload["instance"] == instance_hash(
            2, 6, PermGroup.from_gens(6, parse_group(text)[2]).generators
        )


class TestFamily:
    def test_parse(self):
        cells = parse_family("p=3,k=10,dim=5; p=5,k=8,dim=4,dihedral")
        assert cells[0] == BenchCell(3, 10, 5, False)
        assert cells[1] == BenchCell(5, 8, 4, True)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_family("p=3,k=10")

    def test_bench_single_trial(self):
        table = bench([BenchCell(2, 3, 2)], trials=1, time_limit=60)
        entry = table[0]
        assert entry["censored"] == 0
        assert entry["median_s"] == entry["lower_q_s"] == entry["upper_q_s"]
        text = format_bench_table(table)
        assert "p=2 k=3 dim=2" in text

    def test_bench_quartiles(self):
        table = bench([BenchCell(2, 3, 2)], trials=4, time_limit=60)
        entry = table[0]
        assert entry["lower_q_s"] <= entry["median_s"] <= entry["upper_q_s"]


class TestMain:
    def test_gen_and_compute_files(self, tmp_path, capsys):
        path = tmp_path / "grp.txt"
        assert main(["gen", "--p", "2", "--k", "3", "--dim", "2", "--seed", "1",
                     "--out", str(path)]) == 0
        assert main(["compute", "--in", str(path), "--method", "full"]) == 0
        out = capsys.readouterr().out
        assert "order" in out

    def test_compute_json(self, tmp_path, capsys):
        path = tmp_path / "grp.txt"
        main(["gen", "--p", "2", "--k", "2", "--dim", "1", "--seed", "0",
              "--out", str(path)])
        assert main(["compute", "--in", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "order" in payload

    def test_malformed_input_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\n(1 2\n")
        assert main(["compute", "--in", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["3 -1", "3", "3 x", "3 4 5"])
    def test_bad_group_header_is_rejected(self, tmp_path, capsys, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n")
        assert main(["compute", "--in", str(path), "--method", "oracle"]) == 2
        out = capsys.readouterr()
        assert f"bad group header {header!r}" in out.err and out.out == ""

    def test_not_in_class_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n(1 2 3)\n")
        assert main(["compute", "--in", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_invariant_violation_is_diagnosed(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantViolation("result generator fails to normalise the input")

        monkeypatch.setattr(cli_module, "normalizer_in_sym", broken)
        path = tmp_path / "grp.txt"
        main(["gen", "--p", "3", "--k", "3", "--dim", "2", "--seed", "0",
              "--out", str(path)])
        assert main(["compute", "--in", str(path)]) == 2
        assert "fails to normalise" in capsys.readouterr().err

    def test_unknown_prune_rule(self, tmp_path, capsys):
        path = tmp_path / "grp.txt"
        main(["gen", "--p", "2", "--k", "2", "--dim", "1", "--seed", "0",
              "--out", str(path)])
        assert main(["compute", "--in", str(path), "--no-prune", "bogus"]) == 2

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_gen_rejects_non_prime_p(self, p):
        # in a child process with a timeout: an unchecked p=1 redraws forever
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "symnorm.cli", "gen", "--p", str(p), "--k", "3",
             "--dim", "1"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2
        assert "prime" in done.stderr

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("compute", ["--time-limit", "-1"]),
            ("compute", ["--time-limit", "nan"]),
            ("compute", ["--time-limit", "inf"]),
            ("bench", ["--timeout", "0"]),
            ("bench", ["--timeout", "-5"]),
            ("bench", ["--timeout", "inf"]),
            ("bench", ["--trials", "0"]),
        ],
    )
    def test_bad_limits_are_rejected(self, tmp_path, capsys, command, flags):
        path = tmp_path / "grp.txt"
        main(["gen", "--p", "2", "--k", "2", "--dim", "1", "--seed", "0",
              "--out", str(path)])
        target = ["--in", str(path)] if command == "compute" else [
            "--family", "p=2,k=3,dim=2"]
        assert main([command, *target, *flags]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and out.out == ""

    def test_bench_command(self, capsys):
        assert main(["bench", "--family", "p=2,k=3,dim=2", "--trials", "2",
                     "--timeout", "30"]) == 0
        assert "median" in capsys.readouterr().out
