"""Docs invariants: link integrity and experiment-registry coverage."""

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.experiments.runner import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_docs_links  # noqa: E402  (scripts/ is not a package)


class TestLinks:
    def test_all_relative_links_resolve(self):
        failures = check_docs_links.check(
            check_docs_links.default_files(REPO_ROOT)
        )
        assert not failures, "\n".join(failures)

    def test_default_scan_covers_readme_and_docs(self):
        files = {p.name for p in check_docs_links.default_files(REPO_ROOT)}
        assert "README.md" in files
        assert "experiments.md" in files
        assert "architecture.md" in files
        assert "metrics.md" in files
        assert "engine.md" in files
        assert "EXPERIMENTS.md" in files
        assert "DESIGN.md" in files
        assert "service.md" in files

    def test_broken_link_is_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](does-not-exist.md)")
        assert check_docs_links.check([doc])

    def test_stale_names_and_paths_are_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "`repro.workloads.trace.Trace` and `repro.gpu.l1.GPUL1Cache(config)`"
            " resolve, as do `tests/test_docs.py::TestLinks` and\n"
            "`src/repro/cli.py:12`.  Fenced code is not scanned:\n\n"
            "```\nrepro.gone\n```\n"
        )
        assert check_docs_links.check([doc]) == []
        doc.write_text(
            "`repro.gpu.gone`, `repro.workloads.trace.Gone`,\n"
            "`repro.workloads.profiles.BenchmarkProfile.gone_field` and\n"
            "`tests/test_gone.py::test_x` are stale; `repro.gpu` is not"
        )
        failures = check_docs_links.check([doc])
        assert len(failures) == 4, failures
        for reference in ("repro.gpu.gone", "repro.workloads.trace.Gone",
                          "BenchmarkProfile.gone_field", "tests/test_gone.py"):
            assert any(reference in line for line in failures), reference


class TestExperimentDocs:
    def test_every_registry_entry_has_a_section(self):
        text = (REPO_ROOT / "docs" / "experiments.md").read_text()
        for name in EXPERIMENTS:
            assert f"## `{name}`" in text, (
                f"docs/experiments.md is missing a section for {name!r}"
            )

    def test_cross_linked_from_architecture_and_readme(self):
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
        readme = (REPO_ROOT / "README.md").read_text()
        assert "experiments.md" in architecture
        assert "docs/experiments.md" in readme

    def test_experiments_md_documents_runner_formats(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "manifest" in text.lower()
        assert "cache" in text.lower()

    def test_experiments_md_documents_trace_validation(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "## Validating paper claims from a trace" in text
        assert "perfetto" in text.lower()


class TestEngineDocs:
    """docs/engine.md must document the SoA engine and stay linked in."""

    def test_engine_md_covers_the_contract(self):
        text = (REPO_ROOT / "docs" / "engine.md").read_text()
        # the selectable flag, the equivalence protocol and the
        # extension guide are the document's reason to exist
        assert "--engine" in text
        assert "byte-identical" in text
        assert "## Equivalence" in text
        assert "## Adding an engine" in text

    def test_engine_md_documents_every_soa_vector(self):
        """One section per flat vector: the docs track the actual layout."""
        from repro.engine.soa_array import SoaCacheArray

        text = (REPO_ROOT / "docs" / "engine.md").read_text()
        array = SoaCacheArray(1024, 2, 64)
        vectors = [
            name for name in vars(array)
            if name.endswith("_vec") or name == "tag_to_way"
        ]
        assert vectors, "SoaCacheArray should expose flat vectors"
        missing = [name for name in vectors if f"`{name}`" not in text]
        assert not missing, (
            f"docs/engine.md does not document SoA vectors: {missing}"
        )

    def test_engine_names_match_the_registry(self):
        from repro.engine import DEFAULT_ENGINE, ENGINES

        text = (REPO_ROOT / "docs" / "engine.md").read_text()
        for engine in ENGINES:
            assert f"`{engine}`" in text
        assert DEFAULT_ENGINE in text

    def test_cross_linked_from_readme_architecture_and_performance(self):
        readme = (REPO_ROOT / "README.md").read_text()
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
        performance = (REPO_ROOT / "docs" / "performance.md").read_text()
        assert "docs/engine.md" in readme
        assert "engine.md" in architecture
        assert "engine.md" in performance

    def test_experiments_md_has_a_choosing_an_engine_note(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "## Choosing an engine" in text
        assert "--engine" in text


class TestMetricsDocs:
    """docs/metrics.md must stay in sync with the instrumentation."""

    def test_every_emitted_counter_name_is_documented(self):
        import re

        src_root = REPO_ROOT / "src" / "repro"
        text = (REPO_ROOT / "docs" / "metrics.md").read_text()
        emitted = set()
        call_re = re.compile(
            r"""tracer\.(?:count|set_counter|observe|event|sample)\(\s*
                f?['"]([^'"]+)['"]""",
            re.VERBOSE,
        )
        for path in src_root.glob("**/*.py"):
            emitted.update(call_re.findall(path.read_text()))
        assert emitted, "instrumentation sites should be discoverable"
        missing = []
        for name in sorted(emitted):
            # f-string names ("l2.buffer.{self.name}.pushes") are documented
            # with a <name>/<array> placeholder; match on the literal parts
            # (an unterminated "{..." capture is a truncated f-string tail)
            parts = [p for p in re.split(r"\{[^}]*\}?", name) if p]
            if not all(part in text for part in parts):
                missing.append(name)
        assert not missing, (
            f"docs/metrics.md does not document counters/events: {missing}"
        )

    def test_result_fields_mapped_to_paper_claims(self):
        import dataclasses

        from repro.gpu.metrics import SimulationResult

        text = (REPO_ROOT / "docs" / "metrics.md").read_text()
        for claim_field in (
            "lr_write_share", "buffer_overflow_rate", "refresh_writes",
            "data_losses", "migrations_to_lr", "l2_dynamic_power_w",
        ):
            assert claim_field in {
                f.name for f in dataclasses.fields(SimulationResult)
            }
            assert f"`{claim_field}`" in text, (
                f"docs/metrics.md must map {claim_field!r} to a paper claim"
            )

    def test_cross_linked_from_architecture_experiments_and_readme(self):
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
        experiments = (REPO_ROOT / "docs" / "experiments.md").read_text()
        readme = (REPO_ROOT / "README.md").read_text()
        assert "metrics.md" in architecture
        assert "metrics.md" in experiments
        assert "docs/metrics.md" in readme


class TestShardingDocs:
    """docs/sharding.md must document the sharded engine and stay linked."""

    def test_sharding_md_covers_the_contract(self):
        text = (REPO_ROOT / "docs" / "sharding.md").read_text()
        # routing, merge determinism, topology and the break-even guide
        # are the document's reason to exist
        assert "bank hash" in text.lower()
        assert "--shards" in text
        assert "byte-identical" in text
        assert "## The deterministic-merge protocol" in text
        assert "## Worker topology" in text
        assert "## When `sharded` beats `soa`" in text

    def test_sharding_md_documents_the_approximation_honestly(self):
        """Multi-shard replay is an approximation; the doc must say so
        rather than implying soa-equality at every shard count."""
        text = (REPO_ROOT / "docs" / "sharding.md").read_text()
        assert "approximat" in text.lower()
        assert "`--shards 1`" in text or "--shards 1" in text

    def test_cross_linked_from_readme_engine_and_architecture(self):
        readme = (REPO_ROOT / "README.md").read_text()
        engine = (REPO_ROOT / "docs" / "engine.md").read_text()
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
        performance = (REPO_ROOT / "docs" / "performance.md").read_text()
        assert "docs/sharding.md" in readme
        assert "sharding.md" in engine
        assert "sharding.md" in architecture
        assert "sharding.md" in performance

    def test_default_scan_covers_sharding_md(self):
        import check_docs_links

        files = {p.name for p in check_docs_links.default_files(REPO_ROOT)}
        assert "sharding.md" in files


class TestServiceDocs:
    """docs/service.md's quickstart must actually run against a live
    server — the same no-stale-examples rule the README gets."""

    def _console_cases(self):
        text = (REPO_ROOT / "docs" / "service.md").read_text()
        match = re.search(r"```console\n(.*?)```", text, re.S)
        assert match, "docs/service.md must keep the submit console example"
        cases = []
        for line in match.group(1).splitlines():
            if line.startswith("$ repro-sttgpu "):
                argv = line[len("$ repro-sttgpu "):].split("#")[0].split()
                cases.append((argv, []))
            elif line.strip() and cases:
                cases[-1][1].append(line.rstrip())
        return cases

    def test_service_md_covers_the_contract(self):
        text = (REPO_ROOT / "docs" / "service.md").read_text()
        # the byte-identity promise, the dedup/eviction/drain semantics
        # and the gate policy are the document's reason to exist
        assert "byte-identical" in text
        assert "coalesc" in text.lower()
        assert "## Dedup semantics (request coalescing)" in text
        assert "## The shared result store" in text
        assert "## Draining shutdown" in text
        assert "## Load measurement and pinned payloads" in text
        assert "Digest changes always fail" in text

    def test_quickstart_runs_against_a_live_server(self):
        import tempfile

        from repro.service import (
            ServerThread,
            SharedResultStore,
            SimulationServer,
        )
        from repro.service.pool import ShardedWorkerPool

        cases = self._console_cases()
        assert cases, "docs/service.md quickstart has no submit commands"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        with tempfile.TemporaryDirectory() as tmp:
            server = SimulationServer(
                port=0,
                store=SharedResultStore(tmp),
                pool=ShardedWorkerPool(shards=1),
                log=lambda line: None,
            )
            with ServerThread(server) as running:
                for argv, expected in cases:
                    assert expected, f"{argv}: example must show output"
                    # the doc shows the default port; replay on the live one
                    argv = [
                        str(running.port) if arg == "8642" else arg
                        for arg in argv
                    ]
                    proc = subprocess.run(
                        [sys.executable, "-m", "repro.cli", *argv],
                        capture_output=True, text=True, env=env, timeout=600,
                    )
                    assert proc.returncode == 0, (argv, proc.stderr)
                    for line in expected:
                        assert line in proc.stdout, (
                            f"docs/service.md example {' '.join(argv)} no "
                            f"longer prints {line!r}:\n{proc.stdout}"
                        )

    def test_cross_linked_from_readme_architecture_and_performance(self):
        readme = (REPO_ROOT / "README.md").read_text()
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
        performance = (REPO_ROOT / "docs" / "performance.md").read_text()
        metrics = (REPO_ROOT / "docs" / "metrics.md").read_text()
        assert "docs/service.md" in readme
        assert "service.md" in architecture
        assert "service.md" in performance
        assert "service.md" in metrics


class TestReadmeQuickstart:
    """The README's per-engine examples must actually run and print what
    they claim — a stale quickstart is worse than none."""

    def _engine_cases(self):
        readme = (REPO_ROOT / "README.md").read_text()
        match = re.search(r"```console\n(.*?)```", readme, re.S)
        assert match, "README must keep the per-engine console example"
        cases = []
        for line in match.group(1).splitlines():
            if line.startswith("$ repro-sttgpu "):
                argv = line[len("$ repro-sttgpu "):].split("#")[0].split()
                cases.append((argv, []))
            elif line.strip() and cases:
                cases[-1][1].append(line.rstrip())
        return cases

    def test_one_example_per_engine(self):
        from repro.engine import ENGINES

        cases = self._engine_cases()
        exercised = {
            argv[argv.index("--engine") + 1]
            for argv, _ in cases if "--engine" in argv
        }
        assert exercised == set(ENGINES)

    def test_examples_run_and_print_the_documented_output(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        for argv, expected in self._engine_cases():
            assert expected, f"{argv}: example must show expected output"
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                capture_output=True, text=True, env=env, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            for line in expected:
                assert line in proc.stdout, (
                    f"README example {' '.join(argv)} no longer prints "
                    f"{line!r}:\n{proc.stdout}"
                )
