"""Unit tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


class TestParsing:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStorage:
    def test_prints_table2(self, capsys):
        assert main(["storage", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "s3+simpledb+sqs" in out
        assert "121.8MB" in out  # paper comparison included by default

    def test_no_paper_flag(self, capsys):
        assert main(["storage", "--scale", "0.1", "--no-paper"]) == 0
        out = capsys.readouterr().out
        assert "121.8MB" not in out


class TestQueries:
    def test_prints_table3(self, capsys):
        assert main(["queries", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Q1" in out and "SimpleDB ops" in out


class TestCosts:
    def test_prints_cost_table(self, capsys):
        assert main(["costs", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "storage $/mo" in out


class TestFigures:
    def test_all_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "architecture: s3" in out
        assert "architecture: s3+simpledb+sqs" in out
        assert "commit-daemon" in out

    def test_single_architecture_with_dot(self, capsys):
        assert main(["figures", "--architecture", "s3", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("architecture:") == 1
        assert "digraph" in out


class TestDemo:
    def test_demo_roundtrip(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "consistent=True" in out
        assert "TOTAL" in out

    def test_demo_architecture_choice(self, capsys):
        assert main(["demo", "--architecture", "s3"]) == 0
        assert "via s3" in capsys.readouterr().out

    def test_demo_ddb_indexes(self, capsys):
        assert main(
            ["demo", "--shards", "2", "--backend", "ddb",
             "--ddb-indexes", "name,input"]
        ) == 0
        out = capsys.readouterr().out
        assert "gsi-name(name" in out and "gsi-input(input" in out
        assert "Q2 outputs-of(analyze): 1 file(s)" in out

    def test_demo_rejects_malformed_index_spec(self, capsys):
        assert main(
            ["demo", "--backend", "ddb", "--ddb-indexes", "name,+type"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_demo_help_documents_index_knob(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "--help"])
        out = capsys.readouterr().out
        assert "--ddb-indexes" in out and "REPRO_" not in out

    @pytest.mark.parametrize("spec", ["shards=abc", "shards=0", "bogus"])
    def test_demo_rejects_malformed_migrate_before_running(self, capsys, spec):
        """The spec is parsed before the demo stores anything: nothing
        reaches stdout, only the error."""
        assert main(["demo", "--migrate", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "flag", ["--shards", "--concurrency", "--write-batch"]
    )
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5"])
    def test_demo_integer_flags_name_the_knob(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer >= 1" in captured.err


class TestAdvise:
    def test_advise_summary(self, capsys):
        assert main(["advise", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "dedup:" in out and "placement:" in out
        assert "stage transition" in out


class TestProperties:
    def test_properties_exit_code_tracks_match(self, capsys):
        assert main(["--seed", "5", "properties"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert out.count("yes") >= 10


class TestExport:
    def test_prov_json(self, capsys):
        assert main(["export", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        import json

        document = json.loads(out)
        assert document["entity"] and document["activity"]
        assert document["used"] and document["wasGeneratedBy"]

    def test_lineage_dot_with_focus(self, capsys):
        assert main(
            ["export", "--scale", "0.05", "--format", "dot",
             "--focus", "linux/vmlinux:v0001"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph lineage")
        assert "vmlinux" in out


class TestReplay:
    RUN = Path(__file__).resolve().parents[1] / "regressions" / "two_a3_clients_crash_and_migrate.json"

    def test_replays_the_committed_run_file(self, capsys):
        assert main(["replay", str(self.RUN)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert out.endswith("stored provenance: 8 refs\n")

    def test_a_truncated_file_exits_2_and_applies_nothing(self, tmp_path, capsys, monkeypatch):
        import repro.sim

        def never(run):
            raise AssertionError("a malformed run file was applied")

        monkeypatch.setattr(repro.sim.Cloud, "from_run", staticmethod(never))
        truncated = tmp_path / "truncated.json"
        truncated.write_text(self.RUN.read_text()[:-40])
        assert main(["replay", str(truncated)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not JSON" in captured.err

    def test_a_run_that_does_not_replay_exits_2(self, tmp_path, capsys):
        extra = tmp_path / "extra_store.json"
        extra.write_text(self.RUN.read_text().replace(
            '["cloud","settle",null]', '["client-0","store",null],\n["cloud","settle",null]'
        ))
        assert main(["replay", str(extra)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step 11: client-0 has no pending event" in captured.err
