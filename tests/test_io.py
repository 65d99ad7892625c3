"""Tests for result serialization."""

import json

import pytest

from repro.errors import ReproError
from repro.experiments import table1, table2
from repro.io import (
    SCHEMA_VERSION,
    experiment_result_from_dict,
    experiment_result_to_dict,
    save_experiments,
    simulation_result_to_dict,
)


class TestExperimentSerialization:
    def test_roundtrip_via_dict(self):
        original = table1.run()
        payload = experiment_result_to_dict(original)
        restored = experiment_result_from_dict(payload)
        assert restored.name == original.name
        assert restored.headers == original.headers
        assert restored.rows == original.rows
        assert restored.extras == pytest.approx(original.extras)

    def test_roundtrip_via_file(self, tmp_path):
        results = {"table1": table1.run(), "table2": table2.run()}
        path = tmp_path / "battery.json"
        save_experiments(results, path)
        restored = json.loads(path.read_text())["experiments"]
        assert set(restored) == {"table1", "table2"}
        assert (
            experiment_result_from_dict(restored["table2"]).rows
            == results["table2"].rows
        )

    def test_schema_version_stamped(self, tmp_path):
        path = tmp_path / "battery.json"
        save_experiments({"table1": table1.run()}, path)
        document = json.loads(path.read_text())
        assert document["schema_version"] == SCHEMA_VERSION

    def test_from_dict_missing_key(self):
        with pytest.raises(ReproError):
            experiment_result_from_dict({"name": "x"})


class TestSimulationSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.config import baseline_sram
        from repro.gpu.simulator import simulate
        from repro.workloads import build_workload

        return simulate(baseline_sram(), build_workload("nn", num_accesses=800))

    def test_dict_is_json_able(self, result):
        payload = simulation_result_to_dict(result)
        text = json.dumps(payload)
        assert json.loads(text)["workload"] == "nn"

    def test_derived_total_power_included(self, result):
        payload = simulation_result_to_dict(result)
        assert payload["l2_total_power_w"] == pytest.approx(result.l2_total_power_w)


class TestCLIJson:
    def test_experiments_json_flag(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "out.json"
        code = cli_main(["experiments", "table1", "--json", str(path)])
        assert code == 0
        restored = json.loads(path.read_text())["experiments"]
        assert "table1" in restored
