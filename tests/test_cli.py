"""Command-line interface tests."""

import pytest

from repro.cli import main


@pytest.fixture
def violating_trace(tmp_path):
    path = tmp_path / "viol.std"
    path.write_text(
        "t1|begin\nt2|begin\nt1|w(x)\nt2|r(x)\nt2|w(y)\nt1|r(y)\nt2|end\nt1|end\n"
    )
    return path


@pytest.fixture
def clean_trace(tmp_path):
    path = tmp_path / "ok.std"
    path.write_text("t1|begin\nt1|w(x)\nt1|end\n")
    return path


class TestCheck:
    def test_serializable_exits_zero(self, clean_trace, capsys):
        assert main(["check", str(clean_trace)]) == 0
        assert "✓" in capsys.readouterr().out

    def test_violation_exits_one(self, violating_trace, capsys):
        assert main(["check", str(violating_trace)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_algorithm_choice(self, violating_trace):
        assert main(["check", str(violating_trace), "--analysis", "velodrome"]) == 1

    def test_algorithm_alias_removed(self, violating_trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(violating_trace), "--algorithm", "velodrome"])
        assert excinfo.value.code == 2
        assert "--algorithm" in capsys.readouterr().err

    def test_ill_formed_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.std"
        path.write_text("t1|end\n")
        assert main(["check", str(path)]) == 2
        assert "ill-formed" in capsys.readouterr().err

    def test_binary_garbage_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.std"
        path.write_bytes(b"garbage\x00\xff\xfe")
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(path)])
        assert excinfo.value.code == 2
        assert "cannot load" in capsys.readouterr().err

    def test_no_validate_skips_check(self, tmp_path):
        path = tmp_path / "open.std"
        path.write_text("t1|acq(l)\nt2|acq(l)\n")  # double acquire
        assert main(["check", str(path), "--no-validate"]) == 0

    def test_analysis_co_run(self, violating_trace, capsys):
        code = main(
            ["check", str(violating_trace), "--analysis", "aerodrome,races"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "[aerodrome]" in out
        assert "[races]" in out

    def test_explicit_algorithm_joins_analysis_list(
        self, violating_trace, capsys
    ):
        code = main(
            ["check", str(violating_trace), "--analysis", "velodrome,races"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "[velodrome]" in out
        assert "[races]" in out

    def test_json_report_validates(self, violating_trace, capsys):
        import json

        from repro.api import validate_report

        assert main(["check", str(violating_trace), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        validate_report(document)
        assert document["verdict"] == "fail"


class TestMetainfo:
    def test_prints_counts(self, violating_trace, capsys):
        assert main(["metainfo", str(violating_trace)]) == 0
        out = capsys.readouterr().out
        assert "events=8" in out
        assert "threads=2" in out


class TestGenerate:
    def test_writes_trace(self, tmp_path, capsys):
        out_path = tmp_path / "t.std"
        code = main(
            ["generate", "crypt", "-o", str(out_path), "--scale", "0.05", "--seed", "1"]
        )
        assert code == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out
        # And the generated file is analyzable.
        assert main(["check", str(out_path)]) == 1  # crypt violates


class TestTables:
    def test_table2_small_scale(self, capsys):
        assert main(["table2", "--scale", "0.02", "--timeout", "30"]) == 0
        out = capsys.readouterr().out
        assert "Program" in out
        assert "batik" in out
        assert "Paper vs. measured" in out


class TestScaling:
    def test_scaling_command(self, capsys):
        code = main(
            ["scaling", "--benchmark", "raytracer", "--sizes", "300,600"]
        )
        assert code == 0
        assert "Scaling" in capsys.readouterr().out


class TestExplain:
    def test_explains_violation(self, violating_trace, capsys):
        assert main(["explain", str(violating_trace)]) == 1
        out = capsys.readouterr().out
        assert "witness cycle" in out
        assert "≤CHB" in out

    def test_nothing_to_explain(self, clean_trace, capsys):
        assert main(["explain", str(clean_trace)]) == 0
        assert "nothing to explain" in capsys.readouterr().out


class TestRaces:
    def test_reports_races(self, violating_trace, capsys):
        assert main(["races", str(violating_trace)]) == 1
        assert "race" in capsys.readouterr().out

    def test_race_free(self, tmp_path, capsys):
        path = tmp_path / "sync.std"
        path.write_text(
            "t1|acq(l)\nt1|w(x)\nt1|rel(l)\nt2|acq(l)\nt2|r(x)\nt2|rel(l)\n"
        )
        assert main(["races", str(path)]) == 0
        assert "no happens-before" in capsys.readouterr().out


class TestCausal:
    def test_blames_cycle_members(self, violating_trace, capsys):
        assert main(["causal", str(violating_trace)]) == 1
        assert "cycles" in capsys.readouterr().out

    def test_all_atomic(self, clean_trace, capsys):
        assert main(["causal", str(clean_trace)]) == 0
        assert "causally atomic" in capsys.readouterr().out


class TestAlgorithms:
    def test_lists_all(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("aerodrome", "velodrome", "doublechecker"):
            assert name in out


class TestBench:
    def test_empty_runs_dir_writes_no_mirror(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["bench", "--scale", "0.01", "--repeats", "1", "--tables", "1",
             "--no-scaling", "--no-session", "--no-ingest", "--jobs", "0",
             "--no-service", "--no-cluster", "--runs-dir", "",
             "-o", "bench.json"]
        )
        assert code == 0
        assert (tmp_path / "bench.json").exists()
        assert not (tmp_path / "runs").exists()
        assert "wrote bench.json" in capsys.readouterr().out

    def test_bad_tables_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--tables", "3"])
        assert excinfo.value.code == 2
        assert "knows tables 1 and 2" in capsys.readouterr().err


class TestSubmit:
    def test_encoding_option_removed(self, clean_trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", str(clean_trace), "--encoding", "text"])
        assert excinfo.value.code == 2
        assert "--encoding" in capsys.readouterr().err
