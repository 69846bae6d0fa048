import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from clifflab import cli, curvature, structure
from clifflab.cli import main
from clifflab.reps import MatrixRep, build_even_rep, j_family
from clifflab.structure import StructureError, extend_hodge


FIXTURES = Path(__file__).parent / "fixtures"
# subprocesses import clifflab from this checkout's src, installed or not
SRC = str(Path(__file__).parent.parent / "src")
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
GENERATORS = [[0, -1, 1, 0]]


def run_cli(*argv):
    return main(list(argv))


class TestRepgen:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli("repgen", "--rank", "5", "--kind", "even", "--out", str(out)) == 0
        rep = MatrixRep.from_json(out.read_text())
        assert rep.rank == 5 and rep.kind == "even" and rep.dim == 8
        assert rep.validate() == []

    def test_full_kind_header(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli("repgen", "--rank", "2", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["kind"] == "full"
        assert data["dim"] == 4
        assert len(data["generators"]) == 2
        assert len(data["generators"][0]) == 16

    def test_unsupported_rank_errors_cleanly(self, tmp_path):
        code = run_cli("repgen", "--rank", "30", "--out", str(tmp_path / "x.json"))
        assert code == 2

    def test_ranks_above_the_hard_ceiling_are_refused(self, tmp_path, monkeypatch, capsys):
        # r = 24 would write 23 generators of 4096^2 JSON integers each; it
        # is refused before anything is built, whatever the cap asks
        monkeypatch.setenv("CLIFFLAB_MAX_RANK", "24")
        out = tmp_path / "x.json"
        assert run_cli("repgen", "--rank", "24", "--kind", "even", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: rank 24 exceeds the configured cap 23"
            " (set CLIFFLAB_MAX_RANK to raise it, hard ceiling 23)\n"
        )
        assert not out.exists()


class TestVerify:
    def test_all_suites_pass_for_built_structure(self, tmp_path):
        rep_path = tmp_path / "rep.json"
        run_cli("repgen", "--rank", "3", "--kind", "even", "--out", str(rep_path))
        report_path = tmp_path / "report.json"
        code = run_cli(
            "verify", "--structure", str(rep_path), "--suite", "all", "--report", str(report_path)
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"]
        assert {s["suite"] for s in report["suites"]} == {
            "relations",
            "orthogonality",
            "hodge",
            "universality",
        }

    def test_broken_structure_fails_with_witness(self, tmp_path):
        fam = j_family(build_even_rep(3))
        mats = dict(fam.mats)
        mats[(1, 3)] = mats[(1, 2)]
        rows = [
            {"i": i, "j": j, "matrix": m.reshape(-1).tolist()} for (i, j), m in mats.items()
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "n": 4, "r": 3, "J": rows}))
        code = run_cli("verify", "--structure", str(path), "--suite", "relations")
        assert code == 1

    def test_missing_file_is_io_error(self):
        assert run_cli("verify", "--structure", "/nonexistent/s.json") == 3

    def test_malformed_file_is_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("verify", "--structure", str(bad))
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [1.5, 2**63, True], ids=["float", "at least 2^63", "bool"]
    )
    def test_non_int64_entry_is_input_error(self, tmp_path, entry):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({"n": 2, "r": 2, "J": [{"i": 1, "j": 2, "matrix": [0, entry, -1, 0]}]}))
        assert run_cli("verify", "--structure", str(path), "--suite", "relations") == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 2, "r": 2, "J": [{"i": 1, "j": 2, "matrix": [0, 1, -1]}]},
            {"n": 2, "r": 2, "J": 5},
            [1, 2],
        ],
        ids=["wrong entry count", "J not a list", "not an object"],
    )
    def test_malformed_family_is_input_error(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run_cli("verify", "--structure", str(path)) == 2

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"r": 2, "J": []}, "the family has no field 'n'"),
            ({"n": 2, "J": []}, "the family has no field 'r'"),
            ({"n": 2, "r": 2}, "the family has no field 'J'"),
            ({"n": 2, "r": 2, "J": [{"j": 2, "matrix": [0, -1, 1, 0]}]}, "J entry 0 has no field 'i'"),
            ({"n": 2, "r": 3, "J": [{"i": 1, "j": 2, "matrix": [0, -1, 1, 0]}, {"i": 1}]}, "J entry 1 has no field 'j'"),
            ({"n": 2, "r": 2, "J": [{"i": 1, "j": 2}]}, "J entry 0 has no field 'matrix'"),
            ({"rank": 2, "kind": "even", "generators": GENERATORS}, "the representation has no field 'dim'"),
            ({"dim": 2, "kind": "even", "generators": GENERATORS}, "the representation has no field 'rank'"),
            ({"dim": 2, "rank": 2, "generators": GENERATORS}, "the representation has no field 'kind'"),
            ({"dim": 2, "rank": 2, "kind": "even"}, "the representation has no field 'generators'"),
        ],
        ids=["n", "r", "J", "i", "j", "matrix", "dim", "rank", "kind", "generators"],
    )
    def test_missing_field_is_named(self, tmp_path, capsys, payload, message):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(payload))
        assert run_cli("verify", "--structure", str(path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit", ["float generator entry", "rank without its generators"])
    def test_malformed_repgen_is_input_error(self, tmp_path, edit):
        rep_path = tmp_path / "rep.json"
        run_cli("repgen", "--rank", "3", "--kind", "even", "--out", str(rep_path))
        data = json.loads(rep_path.read_text())
        if edit == "float generator entry":
            data["generators"][0][1] = 0.5
        else:
            data["rank"] = 5
        rep_path.write_text(json.dumps(data))
        assert run_cli("verify", "--structure", str(rep_path)) == 2

    def test_int64_max_entry_fails_exactly(self, tmp_path):
        w = 2**63 - 1
        path = tmp_path / "wrap.json"
        path.write_text(json.dumps({"n": 2, "r": 2, "J": [{"i": 1, "j": 2, "matrix": [0, w, -w, 0]}]}))
        report_path = tmp_path / "report.json"
        code = run_cli("verify", "--structure", str(path), "--suite", "relations", "--report", str(report_path))
        assert code == 1
        failures = json.loads(report_path.read_text())["suites"][0]["failures"]
        assert failures == [{"identity": "unit_square", "indices": [1, 2], "residual": str(w * w - 1)}]

    @pytest.mark.parametrize("r", [3, 7])
    def test_explicit_family_passes_all_suites(self, tmp_path, r):
        fam = j_family(build_even_rep(r))
        rows = [{"i": i, "j": j, "matrix": m.reshape(-1).tolist()} for (i, j), m in fam.mats.items()]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": fam.n, "r": r, "J": rows}))
        report_path = tmp_path / "report.json"
        assert run_cli("verify", "--structure", str(path), "--suite", "all", "--report", str(report_path)) == 0
        hodge = [s for s in json.loads(report_path.read_text())["suites"] if s["suite"] == "hodge"]
        assert hodge[0]["data"] == {"extension_rank": r}

    def test_hodge_suite_reports_rejection_for_rank5(self, tmp_path):
        rep_path = tmp_path / "rep.json"
        run_cli("repgen", "--rank", "5", "--kind", "even", "--out", str(rep_path))
        report_path = tmp_path / "report.json"
        code = run_cli(
            "verify", "--structure", str(rep_path), "--suite", "hodge", "--report", str(report_path)
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert not report["passed"]


class TestCurvature:
    def test_cp4_spectrum(self, tmp_path):
        out = tmp_path / "cp4.json"
        assert run_cli("curvature", "--model", "cp4", "--check", "spectrum", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        eig = data["suites"][0]["data"]["eigenvalues"]
        assert eig == [
            {"value": "0", "multiplicity": 12},
            {"value": "4", "multiplicity": 15},
            {"value": "20", "multiplicity": 1},
        ]

    def test_s8_all_checks(self, tmp_path):
        out = tmp_path / "s8.json"
        assert run_cli("curvature", "--model", "s8", "--check", "all", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["passed"]
        assert data["config"]["expected_scal"] == "224"

    def test_all_runs_the_identity_suite_once(self, tmp_path, monkeypatch):
        # cc takes the identities report instead of running the suite again
        calls = []
        suite = curvature.verify_parallel_identities
        monkeypatch.setattr(curvature, "verify_parallel_identities", lambda *args: calls.append(args) or suite(*args))
        out = tmp_path / "op2.json"
        assert run_cli("curvature", "--model", "op2", "--check", "all", "--out", str(out)) == 0
        assert len(calls) == 1
        assert out.read_bytes() == (FIXTURES / "curvature_op2.json").read_bytes()

    @pytest.mark.parametrize("model", ["s8", "cp4", "hp2", "op2"])
    def test_report_bytes_match_fixture(self, tmp_path, model):
        out = tmp_path / f"{model}.json"
        assert run_cli("curvature", "--model", model, "--check", "all", "--out", str(out)) == 0
        assert out.read_bytes() == (FIXTURES / f"curvature_{model}.json").read_bytes()


class TestClassify:
    def test_table_markdown(self, capsys):
        assert run_cli("classify", "--table", "3", "--format", "markdown") == 0
        out = capsys.readouterr().out
        assert "curvature constancy" in out
        assert "F4/Spin(9)" in out

    def test_candidate_verdict(self, capsys):
        assert run_cli("classify", "--candidate", "case4", "--p", "5", "--q", "2") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reason"] == "fails_divisibility_b"

    def test_table_or_candidate_required(self):
        assert run_cli("classify") == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["case1"], "case1 needs --n"),
            (["case3", "--p", "4"], "case3 needs --q"),
            (["case8"], "case8 needs --group"),
            (["case9"], "case9 needs --subcase"),
            (["case9", "--subcase", "so"], "case9 needs --n"),
            (["caseX"], "invalid choice: 'caseX'"),
            (["case8", "--group", "G2"], "invalid choice: 'G2'"),
        ],
    )
    def test_candidate_names_its_missing_or_bad_input(self, capsys, argv, message):
        assert run_cli("classify", "--candidate", *argv) == 2
        assert message in capsys.readouterr().err


class TestEmitTables:
    def test_writes_four_files_byte_stable(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("emit-tables", "--dir", str(d1)) == 0
        assert run_cli("emit-tables", "--dir", str(d2)) == 0
        names = ["table1.md", "table2.md", "table3.md", "tables.json"]
        assert sorted(p.name for p in d1.iterdir()) == sorted(names)
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_csv_format(self, tmp_path):
        assert run_cli("emit-tables", "--dir", str(tmp_path / "c"), "--format", "csv") == 0
        raw = (tmp_path / "c" / "table3.csv").read_bytes()
        assert b"\r\n" in raw
        assert b"32k(k+3)" in raw

    @pytest.mark.skipif(os.geteuid() == 0, reason="root bypasses directory permissions")
    def test_read_only_dir_is_io_error(self, tmp_path):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            assert run_cli("emit-tables", "--dir", str(ro)) == 3
        finally:
            ro.chmod(stat.S_IRWXU)


@pytest.fixture(scope="module")
def verify_all_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify_all") / "report.json"
    assert run_cli("verify-all", "--seed", "0", "--out", str(path)) == 0
    return path.read_bytes()


class TestVerifyAll:
    def test_passes_and_is_deterministic(self, verify_all_report, tmp_path):
        # the second run is a fresh interpreter under -O, so no check of the
        # registry may live in an assert
        again = tmp_path / "again.json"
        result = subprocess.run(
            [sys.executable, "-O", "-m", "clifflab.cli", "verify-all", "--seed", "0", "--out", str(again)],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0, result.stderr
        assert again.read_bytes() == verify_all_report
        report = json.loads(verify_all_report)
        assert report["passed"]
        assert report["timing"] is None
        assert [s["suite"] for s in report["suites"]] == [
            "dimension_tables",
            "relation_sweep",
            "rank4_split",
            "hodge_extension",
            "universality",
            "triality",
            "curvature_models",
            "centralizers",
            "classification",
        ]
        models = next(s for s in report["suites"] if s["suite"] == "curvature_models")["data"]
        assert models["op2"]["spectrum"] == {"0": 84, "8": 36}

    def test_each_model_is_scanned_once(self, monkeypatch, tmp_path):
        # build_model certifies the symmetries; curvature_models does not
        # scan the built operator again
        calls = []
        scan = curvature.CurvatureOperator.symmetry_violations
        monkeypatch.setattr(curvature.CurvatureOperator, "symmetry_violations", lambda op: calls.append(op.n) or scan(op))
        monkeypatch.setattr(cli, "VERIFY_ALL_SUITES", {"curvature_models": cli.VERIFY_ALL_SUITES["curvature_models"]})
        assert run_cli("verify-all", "--out", str(tmp_path / "report.json")) == 0
        assert calls == [8, 8, 8, 16]

    def test_failing_sub_check_is_reported_with_its_context(self, monkeypatch, tmp_path):
        def broken(s):
            if s.r == 7:
                raise StructureError("extension fails anticommutation at (1, 2)")
            return extend_hodge(s)

        monkeypatch.setattr(structure, "extend_hodge", broken)
        # two suites keep the run short; the loop is the one verify-all runs
        monkeypatch.setattr(
            cli, "VERIFY_ALL_SUITES", {k: cli.VERIFY_ALL_SUITES[k] for k in ("dimension_tables", "hodge_extension")}
        )
        out = tmp_path / "report.json"
        assert run_cli("verify-all", "--out", str(out)) == 1
        report = json.loads(out.read_text())
        assert not report["passed"]
        dims, hodge = report["suites"]
        assert dims["passed"]
        assert hodge["passed"] is False
        assert hodge["failures"] == [
            {
                "identity": "r=7/hodge_extension",
                "indices": [],
                "residual": "extension fails anticommutation at (1, 2)",
            }
        ]
        assert hodge["data"] == {"rejected_ranks": [5, 6]}

    def test_timings_name_every_suite(self, tmp_path, verify_all_report):
        out = tmp_path / "report.json"
        assert run_cli("verify-all", "--timings", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        timing = report.pop("timing")
        assert list(timing) == ["seconds", "suites"]
        assert list(timing["suites"]) == list(cli.VERIFY_ALL_SUITES)
        assert all(isinstance(t, float) and t >= 0 for t in [timing["seconds"], *timing["suites"].values()])
        # everything but the timing is the report of a run without the flag
        plain = json.loads(verify_all_report)
        assert plain.pop("timing") is None and report == plain

    def test_exit_code_and_usage(self):
        assert run_cli("no-such-command") == 2


def test_every_suite_has_one_shape(tmp_path, capsys, verify_all_report):
    rep_path = tmp_path / "rep.json"
    run_cli("repgen", "--rank", "5", "--kind", "even", "--out", str(rep_path))
    reports = [json.loads(verify_all_report)]
    for argv in (
        ["verify", "--structure", str(rep_path), "--suite", "all"],
        *(["curvature", "--model", m, "--check", "all"] for m in ("s8", "cp4", "hp2", "op2")),
    ):
        run_cli(*argv)
        reports.append(json.loads(capsys.readouterr().out))
    for report in reports:
        assert report["schema"] == 2
        assert report["suites"]
        for suite in report["suites"]:
            assert set(suite) == {"suite", "passed", "failures", "data"}
            assert suite["passed"] == (suite["failures"] == [])
        assert report["passed"] == all(s["passed"] for s in report["suites"])


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "tables"
        result = subprocess.run(
            [sys.executable, "-m", "clifflab.cli", "emit-tables", "--dir", str(out)],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0
        assert (out / "tables.json").exists()

    def test_version(self):
        result = subprocess.run(
            [sys.executable, "-m", "clifflab.cli", "--version"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0
        assert "clifflab" in result.stdout
