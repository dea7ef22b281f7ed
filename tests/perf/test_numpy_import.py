"""Default-engine paths never import numpy; ``engine="numpy"`` does.

Importing numpy roughly doubles the import time of a cold ``repro
query``, so only the one resolver :func:`repro.perf.registry.numpy_kernel`
may import the kernels, on an ``engine="numpy"`` request.  Each check
runs in a fresh interpreter (this test process may already hold numpy)
and drives every user-facing answer path: ``Document.select``,
``select_iter``, ``batch_select``, ``repro query``, ``repro decide`` and
one served query.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs every answer path once with the engine named in argv[2]
#: ("default" for none) and prints whether numpy got loaded, plus the
#: answers, as JSON.
SCRIPT = """
import asyncio, contextlib, io, json, sys
from pathlib import Path

from repro.cli import main
from repro.core.pipeline import Document, batch_select
from repro.serve import DocumentStore, QueryServer
from repro.trees.dtd import BIBLIOGRAPHY_DTD
from repro.trees.xml import BIBLIOGRAPHY_EXAMPLE

workdir = Path(sys.argv[1])
engine = None if sys.argv[2] == "default" else sys.argv[2]
xml_file = workdir / "bib.xml"
xml_file.write_text(BIBLIOGRAPHY_EXAMPLE)
dtd_file = workdir / "bib.dtd"
dtd_file.write_text(BIBLIOGRAPHY_DTD)

document = Document.from_text(BIBLIOGRAPHY_EXAMPLE)
answers = {
    "select": document.select("//author", engine=engine),
    "select_iter": list(document.select_iter("//author", engine=engine)),
    "batch_select": batch_select([document], "//author", engine=engine),
}
engine_flag = [] if engine is None else ["--engine", engine]
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    answers["query_exit"] = main(["query", str(xml_file), "//author"] + engine_flag)
    answers["decide_exit"] = main(["decide", "emptiness", str(dtd_file), "//author"])
answers["cli_stdout"] = stdout.getvalue()

store = DocumentStore()
store.load("bib", BIBLIOGRAPHY_EXAMPLE)
frame = {"id": 1, "op": "query", "doc": "bib", "query": "//author"}
if engine is not None:
    frame["engine"] = engine
response = asyncio.run(QueryServer(store).handle_frame(frame))
answers["served"] = response["result"]["paths"]
print(json.dumps({"numpy_loaded": "numpy" in sys.modules, "answers": answers}))
"""


def _run_paths(tmp_path, engine: str, seed: str = "0") -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), engine],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_default_paths_leave_numpy_unloaded(tmp_path):
    result = _run_paths(tmp_path, "default")
    assert not result["numpy_loaded"]
    answers = result["answers"]
    assert answers["select"] and answers["select"] == answers["select_iter"]
    assert answers["query_exit"] == 0
    assert answers["decide_exit"] == 1  # non-empty: a witness is printed


def test_numpy_engine_loads_numpy_and_agrees(tmp_path):
    """Under another hash seed too: no answer depends on set order."""
    pytest.importorskip("numpy")
    default = _run_paths(tmp_path, "default")
    vectorized = _run_paths(tmp_path, "numpy", seed="1")
    assert vectorized["numpy_loaded"]
    assert vectorized["answers"] == default["answers"]
