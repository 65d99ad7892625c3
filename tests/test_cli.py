"""Tests for the ``repro-sttgpu`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.experiments.runner import EXPERIMENTS


def run_runner_module(*argv):
    """``python -m repro.experiments.runner ARGV`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestUnknownExperiment:
    def test_exit_code_2(self, capsys):
        assert main(["experiments", "nope"]) == 2

    def test_sorted_names_and_usage_hint(self, capsys):
        main(["experiments", "zzz", "aaa"])
        err = capsys.readouterr().err
        # unknown names reported sorted
        assert err.index("'aaa'") < err.index("'zzz'")
        # the full registry, sorted, plus a usage hint
        assert ", ".join(sorted(EXPERIMENTS)) in err
        assert "usage: repro-sttgpu experiments" in err

    def test_valid_names_not_rerun_before_failing(self, capsys):
        """Validation happens up front: nothing is printed to stdout."""
        main(["experiments", "fig3", "nope"])
        assert capsys.readouterr().out == ""


class TestExperimentsCommand:
    def test_runs_subset_and_prints_tables(self, capsys):
        assert main(["experiments", "table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_jobs_and_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        code = main([
            "experiments", "fig3",
            "--trace-length", "800", "--benchmarks", "nn",
            "--jobs", "2", "--manifest", str(manifest),
        ])
        assert code == 0
        document = json.loads(manifest.read_text())
        assert document["run"]["jobs"] == 2
        assert document["totals"]["jobs"] == 1
        assert "wrote manifest" in capsys.readouterr().out

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["experiments", "fig3", "--trace-length", "800",
                "--benchmarks", "nn", "--cache-dir", cache,
                "--manifest", str(tmp_path / "m.json")]
        assert main(args) == 0
        assert main(args) == 0
        document = json.loads((tmp_path / "m.json").read_text())
        assert document["totals"]["cache_hits"] == 1
        assert document["totals"]["cache_misses"] == 0

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        main(["experiments", "table1", "--json", str(out_file)])
        document = json.loads(out_file.read_text())
        assert "table1" in document["experiments"]


class TestRunnerModule:
    """``python -m repro.experiments.runner`` is ``repro-sttgpu experiments``."""

    @pytest.mark.parametrize("argv, message", [
        (["nope"], "unknown experiment(s): 'nope'"),
        (["fig3", "--jobs", "0"], "--jobs must be >= 1, got 0"),
    ])
    def test_bad_input_exits_two_with_the_cli_message(self, argv, message):
        result = run_runner_module(*argv)
        assert result.returncode == 2
        assert f"repro-sttgpu experiments: {message}" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_prints_what_the_cli_prints(self, capsys):
        result = run_runner_module("table1", "table2")
        assert result.returncode == 0
        assert main(["experiments", "table1", "table2"]) == 0
        assert result.stdout == capsys.readouterr().out


class TestOtherCommands:
    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        assert "bfs" in capsys.readouterr().out

    def test_simulate_unknown_config(self, capsys):
        assert main(["simulate", "bfs", "nope"]) == 2

    def test_simulate_shards_requires_sharded_engine(self, capsys):
        assert main(["simulate", "bfs", "C1", "--engine", "soa",
                     "--shards", "4"]) == 2
        assert "--engine sharded" in capsys.readouterr().err

    def test_simulate_workers_requires_sharded_engine(self, capsys):
        assert main(["simulate", "bfs", "C1", "--workers", "2"]) == 2
        assert "--engine sharded" in capsys.readouterr().err

    def test_simulate_sharded_defaults_to_four_shards(self, capsys):
        assert main(["simulate", "bfs", "C1", "--engine", "sharded",
                     "--workers", "1"]) == 0
        assert "(4 shards, 1 workers)" in capsys.readouterr().out


class TestDiffCommand:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["diff", "lbm", "--config", "oracle-small",
                     "--accesses", "400", "--out", str(out)])
        assert code == 0
        assert "OK (models agree" in capsys.readouterr().out
        from repro.oracle import validate_report

        report = validate_report(json.loads(out.read_text()))
        assert report["divergence"] is None
        assert report["checked_accesses"] == 400

    def test_mutant_diverges_and_shrinks(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["diff", "lbm", "--config", "oracle-small",
                     "--accesses", "2000", "--mutant", "drop-lr-return",
                     "--shrink", "--out", str(out)])
        assert code == 1
        stdout = capsys.readouterr().out
        assert "DIVERGED" in stdout
        assert "shrunk to" in stdout
        report = json.loads(out.read_text())
        assert report["mutant"] == "drop-lr-return"
        assert 1 <= len(report["shrunk"]["accesses"]) <= 50

    def test_report_is_byte_reproducible(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["diff", "cfd", "--config", "oracle-small",
                         "--seed", "3", "--accesses", "300",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trace_out_records_divergence_event(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        code = main(["diff", "lbm", "--config", "oracle-small",
                     "--accesses", "200", "--mutant", "probe-order",
                     "--trace-out", str(trace_file)])
        assert code == 1
        trace = json.loads(trace_file.read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "oracle.divergence" in names

    def test_unknown_config_exits_two(self, capsys):
        assert main(["diff", "lbm", "--config", "nope"]) == 2
        assert "unknown config" in capsys.readouterr().err

    def test_non_twopart_config_exits_two(self, capsys):
        assert main(["diff", "lbm", "--config", "baseline"]) == 2
        assert "two-part" in capsys.readouterr().err


class TestPredictCommand:
    def test_prediction_prints_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "prediction.json"
        code = main(["predict", "bfs", "C1", "--trace-length", "1200",
                     "--json", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "IPC" in stdout and "via" in stdout
        prediction = json.loads(out.read_text())
        assert prediction["benchmark"] == "bfs"
        assert prediction["config"] == "C1"
        assert 0.0 <= prediction["l2_hit_rate"] <= 1.0

    def test_compare_prints_relative_errors(self, capsys):
        code = main(["predict", "nn", "C2", "--trace-length", "1200",
                     "--compare"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "vs trace-driven engine" in stdout
        assert "rel err" in stdout

    def test_cache_dir_is_reused(self, tmp_path, capsys):
        args = ["predict", "kmeans", "C1", "--trace-length", "900",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # second run answers from the cache
        assert capsys.readouterr().out == first
        assert any(tmp_path.iterdir())  # anchors/features were persisted

    def test_unknown_config_exits_two(self, capsys):
        assert main(["predict", "bfs", "C9"]) == 2
        assert "C9" in capsys.readouterr().err

    def test_submit_predict_usage_errors(self, capsys):
        assert main(["submit", "--predict"]) == 2
        assert "BENCHMARK CONFIG" in capsys.readouterr().err
        assert main(["submit", "--predict", "bfs", "C1",
                     "--engine", "soa"]) == 2
        assert "engine-independent" in capsys.readouterr().err
