"""The command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.trees.dtd import BIBLIOGRAPHY_DTD
from repro.trees.xml import BIBLIOGRAPHY_EXAMPLE


@pytest.fixture()
def document_file(tmp_path):
    path = tmp_path / "bib.xml"
    path.write_text(BIBLIOGRAPHY_EXAMPLE)
    return str(path)


@pytest.fixture()
def dtd_file(tmp_path):
    path = tmp_path / "bib.dtd"
    path.write_text(BIBLIOGRAPHY_DTD)
    return str(path)


class TestCLI:
    def test_query(self, document_file, capsys):
        assert main(["query", document_file, "//author"]) == 0
        out = capsys.readouterr().out
        assert out.count("<author>") == 4

    def test_query_with_validation(self, document_file, dtd_file, capsys):
        assert main(["query", document_file, "//year", "--dtd", dtd_file]) == 0
        out = capsys.readouterr().out
        assert "1995" in out and "1970" in out

    def test_query_validation_failure(self, tmp_path, dtd_file, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<bibliography><book><title>x</title></book></bibliography>")
        assert main(["query", str(bad), "//title", "--dtd", dtd_file]) == 2

    def test_validate_ok(self, document_file, dtd_file, capsys):
        assert main(["validate", document_file, dtd_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, dtd_file, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<bibliography><book><title>x</title></book></bibliography>")
        assert main(["validate", str(bad), dtd_file]) == 1
        assert "book" in capsys.readouterr().out

    def test_tree(self, document_file, capsys):
        assert main(["tree", document_file]) == 0
        out = capsys.readouterr().out
        assert "bibliography" in out.splitlines()[0]


class TestDecideCLI:
    def test_emptiness_with_witness(self, dtd_file, capsys):
        assert main(["decide", "emptiness", dtd_file, "//author"]) == 1
        out = capsys.readouterr().out
        assert "witness:" in out and "marked node:" in out

    def test_emptiness_empty(self, dtd_file, capsys):
        # No DTD-valid document has an author with a book child.
        assert main(["decide", "emptiness", dtd_file, "/author/book"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_containment_holds(self, dtd_file, capsys):
        assert (
            main(["decide", "containment", dtd_file, "/book/author", "//author"])
            == 0
        )
        assert "contained" in capsys.readouterr().out

    def test_containment_counterexample(self, dtd_file, capsys):
        assert (
            main(["decide", "containment", dtd_file, "//author", "/book/author"])
            == 1
        )
        out = capsys.readouterr().out
        assert "witness:" in out and "marked node:" in out

    def test_budget_exceeded(self, dtd_file, capsys):
        assert (
            main(["decide", "emptiness", dtd_file, "//author", "--budget", "1"])
            == 2
        )
        assert "budget exceeded" in capsys.readouterr().err

    def test_wrong_pattern_count(self, dtd_file, capsys):
        assert main(["decide", "containment", dtd_file, "//author"]) == 2

    @pytest.mark.parametrize(
        "args",
        [["emptiness", "//author"], ["containment", "//author", "/book/author"]],
        ids=["emptiness", "containment"],
    )
    def test_output_does_not_depend_on_the_hash_seed(self, dtd_file, args):
        """Fresh interpreters under three hash seeds print the same witness."""
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "decide", args[0], dtd_file]
                + args[1:],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert completed.returncode == 1, completed.stderr
            outputs.add(completed.stdout)
        assert len(outputs) == 1, outputs


class TestStatsFlag:
    def _stderr_report(self, err: str) -> dict:
        return json.loads(err[err.index("{"):])

    def test_query_stats_report_on_stderr(self, document_file, capsys):
        assert main(["query", document_file, "//author", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("<author>") == 4  # stdout untouched
        report = self._stderr_report(captured.err)
        assert report["counters"]["pipeline.selects"] == 1
        assert report["counters"]["trees.evaluations"] == 1
        assert "cli.query" in report["spans"]
        assert "pipeline.cached_pattern" in report["caches"]

    def test_query_without_stats_is_silent(self, document_file, capsys):
        assert main(["query", document_file, "//author"]) == 0
        assert "{" not in capsys.readouterr().err

    def test_decide_stats_report_on_stderr(self, dtd_file, capsys):
        assert main(["decide", "emptiness", dtd_file, "//author", "--stats"]) == 1
        captured = capsys.readouterr()
        report = self._stderr_report(captured.err)
        assert report["counters"]["antichain.searches"] > 0
        assert "cli.decide" in report["spans"]

    def test_decide_stats_survives_budget_trip(self, dtd_file, capsys):
        code = main(
            ["decide", "emptiness", dtd_file, "//author", "--budget", "1", "--stats"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "budget exceeded" in captured.err
        report = self._stderr_report(captured.err[captured.err.index("{"):])
        assert "counters" in report


class TestJobsFlag:
    """``--jobs`` on query/profile: sharded runs and the serial bypass."""

    @pytest.fixture()
    def corpus_files(self, tmp_path):
        from repro.trees.xml import make_bibliography

        paths = []
        for index in range(3):
            path = tmp_path / f"bib{index}.xml"
            path.write_text(make_bibliography(2, 3 + index))
            paths.append(str(path))
        return paths

    def test_query_multi_document_serial(self, corpus_files, capsys):
        assert main(["query", *corpus_files, "//author"]) == 0
        out = capsys.readouterr().out
        for path in corpus_files:
            assert f"== {path}" in out

    def test_query_jobs_matches_serial_output(self, corpus_files, capsys):
        assert main(["query", *corpus_files, "//author"]) == 0
        serial = capsys.readouterr()
        assert main(["query", *corpus_files, "//author", "--jobs", "2"]) == 0
        parallel = capsys.readouterr()
        assert parallel.out == serial.out
        assert "match(es)" in parallel.err

    def test_query_jobs_1_bypasses_the_pool(self, document_file, capsys):
        assert main(
            ["query", document_file, "//author", "--jobs", "1", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.err[captured.err.index("{"):])
        assert not any(name.startswith("parallel.") for name in report["counters"])
        # The serial single-document path is the historical one.
        assert report["counters"]["pipeline.selects"] == 1

    def test_query_jobs_emits_parallel_counters(self, corpus_files, capsys):
        assert main(
            ["query", *corpus_files, "//author", "--jobs", "2", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.err[captured.err.index("{"):])
        assert report["counters"]["parallel.chunks"] >= 1
        assert report["counters"]["parallel.items"] == len(corpus_files)
        assert report["counters"]["parallel.workers"] >= 1
        assert report["gauges"]["parallel.worker_items_max"] >= 1

    def test_profile_jobs_1_serial_fast_path(self, capsys):
        assert main(["profile", "--jobs", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workload"] == {"kind": "builtin", "jobs": 1}
        assert "profile.parallel" in report["spans"]
        assert not any(name.startswith("parallel.") for name in report["counters"])
        assert report["counters"]["pipeline.corpus_selects"] == 1

    def test_profile_jobs_2_shards(self, capsys):
        assert main(["profile", "--jobs", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workload"]["jobs"] == 2
        assert report["counters"]["parallel.chunks"] >= 2
        assert report["counters"]["parallel.items"] == 6

    def test_query_rejects_nonpositive_jobs(self, document_file, capsys):
        assert main(["query", document_file, "//author", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert main(["profile", "--jobs", "-2"]) == 2

    def test_profile_document_with_jobs(self, document_file, capsys):
        code = main(
            ["profile", "--document", document_file, "--pattern", "//author",
             "--repeat", "4", "--jobs", "2"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workload"]["jobs"] == 2
        assert report["counters"]["parallel.items"] == 4


class TestProfileCLI:
    #: The counters ISSUE acceptance requires nonzero from the built-in suite.
    REQUIRED = (
        "table.intern_hits",
        "table.sweeps",
        "closure.scans",
        "closure.prunes",
        "pipeline.pattern_cache_hits",
    )

    def test_builtin_suite(self, capsys):
        assert main(["profile"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workload"] == {"kind": "builtin"}
        for name in self.REQUIRED:
            assert report["counters"][name] > 0, name
        assert set(report["spans"]) >= {
            "profile.total",
            "profile.strings",
            "profile.pipeline",
            "profile.decision",
        }

    def test_document_workload(self, document_file, capsys):
        code = main(
            ["profile", "--document", document_file, "--pattern", "//author",
             "--repeat", "4"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workload"]["kind"] == "document"
        assert report["counters"]["pipeline.selects"] == 4
        assert report["counters"]["pipeline.pattern_cache_hits"] >= 3

    def test_document_requires_pattern(self, document_file, capsys):
        assert main(["profile", "--document", document_file]) == 2
