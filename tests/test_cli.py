import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from braidrev import (B3Rep, CycMatrix, CycRat, DimVector, QuiverRep, build_rep, cli, families,
                      parse_braid, parse_cycrat, trace_of)
from conftest import stable_rep
from test_quiver import direct_sum


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "braidrev", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture
def no_digit_limit():
    """Python's limit on int <-> str digits (absent before 3.10.7), lifted
    in this process for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="module")
def example_quiver_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "quiver.json"
    V = QuiverRep(DimVector(1, 1, 1, 0, 1), CycMatrix([[1, 1], [2, 1]]))
    path.write_text(json.dumps(V.to_obj()))
    return path


@pytest.fixture(scope="module")
def example_rep_file(tmp_path_factory, example_quiver_file):
    path = tmp_path_factory.mktemp("data") / "rep.json"
    V = QuiverRep.from_obj(json.loads(example_quiver_file.read_text()))
    path.write_text(json.dumps(build_rep(V).to_obj()))
    return path


class TestClassify:
    def test_n6_text(self):
        result = run_cli("classify", "--n", "6")
        assert result.returncode == 0
        assert "(3,3;3,2,1)" in result.stdout
        assert "(3,3;3,1,2)" in result.stdout
        assert "(4,2;2,2,2)" in result.stdout
        assert "fixed 3, detecting 1" in result.stdout

    def test_n1(self):
        result = run_cli("classify", "--n", "1")
        assert result.returncode == 0
        assert "(1,0;1,0,0)" in result.stdout and "dim 1" in result.stdout

    def test_n2_mirror_pair(self):
        result = run_cli("classify", "--n", "2")
        assert result.returncode == 0
        assert "(1,1;1,1,0)" in result.stdout and "(1,1;1,0,1)" in result.stdout

    def test_json_output(self):
        result = run_cli("classify", "--n", "4", "--output", "json")
        payload = json.loads(result.stdout)
        assert payload[0]["verdict"] == "fixed"

    def test_invalid_n(self):
        assert run_cli("classify", "--n", "0").returncode == 2


class TestVerify:
    def test_even(self):
        result = run_cli("verify", "--family", "even", "--k", "2", "--trials", "3")
        assert result.returncode == 0
        assert "all identities hold" in result.stdout

    def test_odd(self):
        result = run_cli("verify", "--family", "odd", "--k", "1", "--trials", "2")
        assert result.returncode == 0

    def test_dim42(self):
        result = run_cli("verify", "--family", "dim42", "--trials", "1")
        assert result.returncode == 0
        assert "jumping_lines_match=ok" in result.stdout

    def test_twodim(self):
        result = run_cli("verify", "--family", "twodim", "--trials", "3")
        assert result.returncode == 0

    def test_missing_k(self):
        assert run_cli("verify", "--family", "even").returncode == 2

    def test_unknown_family(self):
        assert run_cli("verify", "--family", "nope").returncode == 2

    def test_json_reports(self):
        result = run_cli(
            "verify", "--family", "even", "--k", "1", "--trials", "2",
            "--output", "json",
        )
        payload = json.loads(result.stdout)
        assert len(payload) == 2
        assert all(item["isomorphic"] for item in payload)


class TestReversion:
    def test_detecting_component_separates(self):
        result = run_cli(
            "reversion", "--alpha", "3,3,2,2,2",
            "--braid", "s1^-2 s2 s1^-1 s2 s1^-1 s2^2",
            "--trials", "2",
        )
        assert result.returncode == 0
        assert "verdict: separates" in result.stdout

    def test_fixed_component_never_separates(self):
        result = run_cli(
            "reversion", "--alpha", "4,2,2,2,2",
            "--braid", "s1^-2 s2 s1^-1 s2 s1^-1 s2^2",
            "--trials", "2",
        )
        assert result.returncode == 0
        assert "verdict: no separation" in result.stdout

    def test_empty_braid(self):
        result = run_cli(
            "reversion", "--alpha", "2,1,1,1,1", "--braid", "", "--trials", "1"
        )
        assert result.returncode == 0
        assert "Tr(w) = 3" in result.stdout

    def test_bad_alpha(self):
        assert run_cli("reversion", "--alpha", "1,2", "--braid", "s1").returncode == 2

    def test_non_simple_alpha(self):
        assert (
            run_cli("reversion", "--alpha", "5,2,3,2,2", "--braid", "s1").returncode
            == 2
        )

    def test_bad_braid(self):
        assert (
            run_cli("reversion", "--alpha", "2,1,1,1,1", "--braid", "s9").returncode
            == 2
        )

    @pytest.mark.parametrize(
        "alpha,separates,message",
        [
            ("2,1,1,1,1", True, "INCONSISTENT: separation observed on a fixed component"),
            ("3,3,2,2,2", False, "INCONSISTENT: the detection braid failed to separate"),
        ],
        ids=["fixed-separates", "detecting-equal"],
    )
    def test_inconsistent(self, monkeypatch, capsys, alpha, separates, message):
        # traces that all differ, or all agree, contradict the verdict
        count = itertools.count()
        monkeypatch.setattr(cli, "trace_of",
                            lambda phi, word: CycRat(next(count) if separates else 0))
        assert cli.main(["reversion", "--alpha", alpha, "--trials", "1"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == message
        assert err == ""


class TestFileCommands:
    def test_build(self, example_quiver_file):
        result = run_cli("build", "--quiver", str(example_quiver_file))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["n"] == 2
        assert payload["X1"]["rows"] == 2

    def test_build_to_file(self, example_quiver_file, tmp_path):
        out = tmp_path / "rep.json"
        result = run_cli("build", "--quiver", str(example_quiver_file), "--out", str(out))
        assert result.returncode == 0
        assert json.loads(out.read_text())["n"] == 2

    def test_trace_braid_relation(self, example_rep_file):
        first = run_cli("trace", "--rep", str(example_rep_file), "--braid", "s1 s2 s1")
        second = run_cli("trace", "--rep", str(example_rep_file), "--braid", "s2 s1 s2")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout.split("=")[-1] == second.stdout.split("=")[-1]

    def test_trace_empty_word(self, example_rep_file):
        result = run_cli("trace", "--rep", str(example_rep_file), "--braid", "")
        assert result.returncode == 0
        assert result.stdout.strip().endswith("= 2")

    def test_trace_longer_than_the_digit_limit(self, no_digit_limit):
        # Python refuses int <-> str conversions past 4300 digits by
        # default; the CLI lifts that limit, so exact values of any length
        # print, and the test lifts it to read this one back
        result = run_cli("trace", "--rep", str(GOLDEN / "build_isom_v.stdout"),
                         "--braid", "s1^500", "--output", "json")
        assert result.returncode == 0 and result.stderr == ""
        text = json.loads(result.stdout)["trace"]
        assert len(text) > 4300
        assert parse_cycrat(text) == trace_of(B3Rep.from_obj(REP_5), parse_braid("s1^500"))

    def test_isom_self(self, example_quiver_file):
        result = run_cli(
            "isom", "--rep1", str(example_quiver_file),
            "--rep2", str(example_quiver_file),
        )
        assert result.returncode == 0
        assert "witness found" in result.stdout

    def test_isom_json(self, example_quiver_file):
        result = run_cli(
            "isom", "--rep1", str(example_quiver_file),
            "--rep2", str(example_quiver_file), "--output", "json",
        )
        payload = json.loads(result.stdout)
        assert payload["hom_dim"] == 1 and payload["witness"] is not None

    def isom(self, tmp_path, capsys, V, W):
        paths = [tmp_path / "v.json", tmp_path / "w.json"]
        for path, rep in zip(paths, (V, W)):
            path.write_text(json.dumps(rep.to_obj()))
        code = cli.main(["isom", "--rep1", str(paths[0]), "--rep2", str(paths[1]),
                         "--seed", "0"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        return out.splitlines()

    def test_isom_not_isomorphic(self, tmp_path, capsys):
        V, W = (stable_rep((2, 1, 1, 1, 1), seed) for seed in (1, 2))
        assert self.isom(tmp_path, capsys, V, W) == [
            "hom-space dimension: 0",
            "not isomorphic: no invertible intertwiner exists"]

    def test_isom_inconclusive(self, tmp_path, capsys):
        # U + U + X and U + U + Y with X, Y not isomorphic: every morphism
        # vanishes on X, so none of the 4-dimensional hom space is invertible
        U = QuiverRep(DimVector(1, 0, 1, 0, 0), CycMatrix([[1]]))
        S, T = (direct_sum(direct_sum(U, U), stable_rep((2, 1, 1, 1, 1), seed))
                for seed in (1, 2))
        assert self.isom(tmp_path, capsys, S, T) == [
            "hom-space dimension: 4",
            "inconclusive-nonstable: nonzero hom space, no invertible element found"]

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("trace", "--rep", str(bad), "--braid", "s1").returncode == 2

    def test_missing_file(self):
        assert (
            run_cli("trace", "--rep", "/nonexistent.json", "--braid", "s1").returncode
            == 2
        )


DIMS_2 = DimVector(1, 1, 1, 0, 1).to_obj()
SINGULAR_QUIVER = {"dims": DIMS_2,
                   "B": {"rows": 2, "cols": 2, "entries": [["1", "1"], ["1", "1"]]}}


ZERO_QUIVER = {"dims": DimVector(0, 0, 0, 0, 0).to_obj(),
               "B": {"rows": 0, "cols": 0, "entries": []}}
# true == 1, so only the type check rejects it
BOOL_COLS_QUIVER = {"dims": DimVector(1, 0, 1, 0, 0).to_obj(),
                    "B": {"rows": 1, "cols": True, "entries": [["1"]]}}


# the 5 x 5 golden ``build`` output, and the 1 x 1 representation, for
# which a declared size of true would equal the size
GOLDEN = Path(__file__).resolve().parent / "golden"
REP_5 = json.loads((GOLDEN / "build_isom_v.stdout").read_text(encoding="utf-8"))
REP_1 = build_rep(QuiverRep(DimVector(1, 0, 1, 0, 0), CycMatrix([[1]]))).to_obj()
# well-formed, but X1 X2 X1 != X2 X1 X2: B3Rep.from_obj checks the relations
RELATIONS_FAIL = B3Rep(CycMatrix.diagonal([2, 1]), CycMatrix.identity(2)).to_obj()
# a (4,2;2,2,2) quiver, to pair with the (1,1;1,0,1) one of quiver_with()
QUIVER_42222 = str(Path(__file__).resolve().parent / "golden" / "isom_sum_s.json")


def quiver_with(*entry, shape=None, **dims):
    """A valid 2 x 2 quiver object with B[0][1] (if given), B's declared
    (rows, cols) (if given) and some dimensions replaced."""
    B = {"rows": 2, "cols": 2, "entries": [["1", "1"], ["2", "1"]]}
    if entry:
        (B["entries"][0][1],) = entry
    if shape:
        B["rows"], B["cols"] = shape
    return {"dims": dict(DIMS_2, **dims), "B": B}



class TestMalformedInput:
    @pytest.mark.parametrize(
        "args,content",
        [
            (["isom", "--rep1", "{f}", "--rep2", "{f}"], SINGULAR_QUIVER),
            (["build", "--quiver", "{f}"], {"dims": DIMS_2}),
            (["isom", "--rep1", "{f}", "--rep2", "{f}"], {"dims": DIMS_2}),
            (["build", "--quiver", "{f}"], []),
            (["trace", "--rep", "{f}", "--braid", "s1"], []),
            (["build", "--quiver", "{f}"], quiver_with(1.5)),
            (["build", "--quiver", "{f}"], quiver_with(None)),
            (["build", "--quiver", "{f}"], quiver_with(["1"])),
            (["build", "--quiver", "{f}"], quiver_with("1/0")),
            (["build", "--quiver", "{f}"], quiver_with("1+1/0w")),
            (["build", "--quiver", "{f}"], quiver_with(a=1.5)),
            (["build", "--quiver", "{f}"], quiver_with(b=True)),
            (["build", "--quiver", "{f}"], quiver_with(x="1")),
            (["isom", "--rep1", "{f}", "--rep2", "{f}"], ZERO_QUIVER),
            (["build", "--quiver", "{f}"], ZERO_QUIVER),
            (["build", "--quiver", "{f}"], quiver_with(shape=(2.0, 2))),
            (["build", "--quiver", "{f}"], BOOL_COLS_QUIVER),
            (["build", "--quiver", "{f}"], quiver_with(shape=("2", 2))),
            (["trace", "--rep", "{f}", "--braid", "s1"], dict(REP_5, n=5.9)),
            (["trace", "--rep", "{f}", "--braid", "s1"], dict(REP_5, n="5")),
            (["trace", "--rep", "{f}", "--braid", "s1"], dict(REP_1, n=True)),
            (["trace", "--rep", "{f}", "--braid", "s1"], RELATIONS_FAIL),
            (["classify", "--n", "0"], None),
            (["verify", "--family", "even", "--k", "0"], None),
            (["verify", "--family", "dim42", "--trials", "0"], None),
            (["verify", "--family", "dim42", "--k", "5", "--trials", "1"], None),
            (["verify", "--family", "twodim", "--k", "5", "--trials", "1"], None),
            (["reversion", "--alpha", "2,1,1,1,1", "--trials", "0"], None),
            (["jumping", "--n", "1"], None),
            (["isom", "--rep1", "{f}", "--rep2", QUIVER_42222], quiver_with()),
        ],
        ids=["isom-singular-B", "build-no-B", "isom-no-B", "build-list",
             "trace-list", "entry-float", "entry-null",
             "entry-list", "entry-zero-denominator", "entry-zero-denominator-w",
             "dims-float", "dims-bool", "dims-string", "isom-zero-dims",
             "build-zero-dims", "rows-float", "cols-bool", "rows-string",
             "n-float", "n-string", "n-bool", "trace-relations-fail",
             "classify-n-0", "verify-k-0",
             "verify-trials-0", "verify-dim42-k", "verify-twodim-k",
             "reversion-trials-0", "jumping-n-1",
             "isom-dims-differ"],
    )
    def test_usage_error_without_traceback(self, tmp_path, args, content):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        result = run_cli(*(a.replace("{f}", str(path)) for a in args))
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 1000 + "]" * 1000)
        for args in (["build", "--quiver", str(path)],
                     ["isom", "--rep1", str(path), "--rep2", str(path)],
                     ["trace", "--rep", str(path), "--braid", "s1"]):
            result = run_cli(*args)
            assert result.returncode == 2
            assert "error:" in result.stderr and "nested too deeply" in result.stderr
            assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--family", "even", "--k", "1", "--trials", "1"],
            ["verify", "--family", "odd", "--k", "1", "--trials", "1"],
            ["verify", "--family", "dim42", "--trials", "1"],
            ["verify", "--family", "twodim", "--trials", "1"],
            ["reversion", "--alpha", "3,3,2,2,2", "--trials", "1"],
            ["reversion", "--alpha", "2,1,1,1,1", "--trials", "1"],
            ["jumping", "--n", "2"],
        ],
        ids=["even", "odd", "dim42", "twodim", "reversion-33222",
             "reversion-21111", "jumping"],
    )
    def test_sampling_failure(self, monkeypatch, capsys, args):
        # every sampler is bounded by families.ATTEMPTS, and main turns
        # the SamplingError into a usage error
        monkeypatch.setattr(families, "ATTEMPTS", 0)
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no ") and err.endswith(" in 0 attempts\n")

    @pytest.mark.parametrize(
        "args,content,message",
        [
            (["build", "--quiver", "{f}"], quiver_with("x"),
             "error: B: entries[0][1]: not a valid Q(w) literal: 'x'"),
            (["trace", "--rep", "{f}", "--braid", "s1"],
             dict(REP_1, X2=dict(REP_1["X2"], cols=2)),
             "error: X2: entries are not a grid of the declared shape 1x2"),
            (["build", "--quiver", "{f}"], quiver_with(a=1.5),
             "error: dims: dimension vector entries must be integers"),
        ],
        ids=["entry", "X2-shape", "dims"],
    )
    def test_error_names_json_path(self, tmp_path, args, content, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        result = run_cli(*(a.replace("{f}", str(path)) for a in args))
        assert result.returncode == 2
        assert result.stderr.startswith(message)
        assert "Traceback" not in result.stderr

    def test_build_out_missing_directory(self, tmp_path, example_quiver_file):
        out = tmp_path / "missing" / "rep.json"
        result = run_cli("build", "--quiver", str(example_quiver_file), "--out", str(out))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error:" in result.stderr and "Traceback" not in result.stderr


class TestJumpingExperimental:
    def test_n2_runs(self):
        result = run_cli("jumping", "--n", "2", "--trials", "1")
        assert result.returncode == 0
        assert ("tau V has the same pencil for every B: its products C_i2 B_i2 "
                "are the transposes of V's") in result.stdout.splitlines()
        assert "proportional:" not in result.stdout

    def test_json_matches_text(self):
        args = ("jumping", "--n", "2", "--trials", "2", "--seed", "3")
        text = run_cli(*args).stdout.splitlines()
        result = run_cli(*args, "--output", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["dims"] == DimVector(4, 2, 2, 2, 2).to_obj()
        assert [t["trial"] for t in payload["trials"]] == [0, 1]
        for t in payload["trials"]:
            assert set(t) == {"trial", "pencil"}
            assert f"trial {t['trial']}: pencil      {t['pencil']}" in text

    def test_one_pencil_per_trial(self, monkeypatch, capsys):
        # tau V's pencil is V's, so only V's is computed
        calls = []
        pencil = families.jumping_pencil

        def counted(V):
            calls.append(V)
            return pencil(V)

        monkeypatch.setattr(families, "jumping_pencil", counted)
        assert cli.main(["jumping", "--n", "2", "--trials", "3"]) == 0
        assert len(calls) == 3
        assert capsys.readouterr().out.count(": pencil ") == 3

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_rejects_too_few_trials(self, trials):
        result = run_cli("jumping", "--n", "2", "--trials", trials)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error:" in result.stderr and "Traceback" not in result.stderr


class TestDeterminism:
    def test_classify_bytes_identical(self):
        a = run_cli("classify", "--n", "8")
        b = run_cli("classify", "--n", "8")
        assert a.stdout == b.stdout

    def test_verify_bytes_identical(self):
        args = ("verify", "--family", "even", "--k", "2", "--trials", "2",
                "--seed", "5")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_seed_changes_output(self):
        base = ("reversion", "--alpha", "3,3,2,2,2", "--trials", "1")
        a = run_cli(*base, "--seed", "1")
        b = run_cli(*base, "--seed", "2")
        assert a.stdout != b.stdout
