#!/usr/bin/env python3
"""Documentation lints, run by the CI ``docs`` job.

Five checks, all dependency-free:

1. **Docstring coverage** over ``src/repro``: every module, public
   class, and public function/method should carry a docstring.  The
   floor is a ratchet — raise ``COVERAGE_FLOOR`` as coverage improves,
   never lower it.
2. **CLI sync**: every ``repro ...`` invocation inside the fenced code
   blocks of README.md and docs/SERVE.md must parse against the real
   :func:`repro.cli.build_parser`, so the documented flags can never
   drift from the implementation.
3. **Query-string sync** over every Markdown file in the repo: each
   line of an ```` ```xpath ```` / ```` ```mso ```` fence, every quoted
   ``"xpath:…"`` / ``"mso:…"`` literal, and every ``--xpath "…"`` /
   ``--mso "…"`` flag inside any fence must parse through the real
   :mod:`repro.lang` parsers — documented queries can never go stale.
4. **Serve-protocol sync**: docs/SERVE.md must document every ``op``
   and error ``kind`` the server defines
   (:data:`repro.serve.protocol.OPS` / ``ERROR_KINDS``), and every
   frame line in its ```` ```json ```` fences must be well-formed —
   a JSON object whose ``op`` / ``error.kind`` the server knows.
5. **Counter-glossary sync**: every counter named in the metrics tables
   of DESIGN.md's "Metrics contract" section appears as a string literal
   under ``src/repro``, and every literal name passed to ``incr`` /
   ``gauge_max`` there has a row (docstrings are skipped on both sides).

Exit code 0 when all pass; 1 with a report otherwise.
"""

from __future__ import annotations

import ast
import json
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

COVERAGE_FLOOR = 0.97

#: A fenced code block; group 1 is the info string, group 2 the body.
_LANG_FENCE = re.compile(r"```([a-zA-Z-]*)\n(.*?)```", re.DOTALL)

#: A fenced code block; group 1 is the body.
_FENCE = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)

#: Prefixed query-string literals and CLI query flags inside fences.
_PREFIXED = re.compile(r"""["'](xpath|mso):(.*?)["']""")
_FLAGGED = re.compile(r"""--(xpath|mso)\s+"([^"]*)"|--(xpath|mso)\s+'([^']*)'""")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _documented(node: ast.AST) -> bool:
    return ast.get_docstring(node) is not None


def docstring_coverage(root: Path) -> tuple[int, int, list[str]]:
    """(documented, total, missing) over modules/classes/functions."""
    documented = total = 0
    missing: list[str] = []

    def tally(node: ast.AST, where: str) -> None:
        nonlocal documented, total
        total += 1
        if _documented(node):
            documented += 1
        else:
            missing.append(where)

    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(REPO)
        tree = ast.parse(path.read_text())
        if path.name != "__init__.py" or tree.body:
            tally(tree, str(rel))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_public(node.name):
                tally(node, f"{rel}::{node.name}")
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and _is_public(item.name):
                        tally(item, f"{rel}::{node.name}.{item.name}")
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and _is_public(node.name):
                parents = [
                    p
                    for p in ast.walk(tree)
                    if isinstance(p, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and node in ast.walk(p)
                    and p is not node
                ]
                if parents:
                    continue  # methods handled under their class; skip nested
                tally(node, f"{rel}::{node.name}")
    return documented, total, missing


def readme_cli_lines(readme: Path) -> list[str]:
    """Every ``repro ...`` command line inside the README's code fences."""
    lines: list[str] = []
    for block in _FENCE.findall(readme.read_text()):
        for line in block.splitlines():
            stripped = line.strip()
            if stripped.startswith("repro "):
                lines.append(stripped)
    return lines


def check_cli_sync(readme: Path) -> list[str]:
    """README ``repro`` invocations that the real parser rejects."""
    from repro.cli import build_parser

    problems: list[str] = []
    lines = readme_cli_lines(readme)
    if not lines:
        return [f"no `repro ...` lines found in {readme.name} code blocks"]
    for line in lines:
        argv = shlex.split(line)[1:]
        parser = build_parser()
        try:
            parser.parse_args(argv)
        except SystemExit:
            problems.append(line)
    return problems


def doc_query_strings(path: Path) -> list[tuple[str, str, str]]:
    """``(syntax, query, where)`` for every query string in one doc.

    Collected from three places: dedicated ```` ```xpath ```` /
    ```` ```mso ```` fences (one query per line, ``#`` lines skipped),
    quoted ``"xpath:…"`` / ``"mso:…"`` literals in any fence, and
    ``--xpath`` / ``--mso`` flag arguments in any fence.
    """
    found: list[tuple[str, str, str]] = []
    where = str(path.relative_to(REPO))
    for language, body in _LANG_FENCE.findall(path.read_text()):
        if language in ("xpath", "mso"):
            for line in body.splitlines():
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    found.append((language, stripped, where))
            continue
        if language in ("text", "ebnf"):
            continue  # transcripts may show deliberately malformed queries
        for syntax, query in _PREFIXED.findall(body):
            found.append((syntax, query, where))
        for match in _FLAGGED.finditer(body):
            syntax = match.group(1) or match.group(3)
            query = match.group(2) or match.group(4)
            found.append((syntax, query, where))
    return found


def check_serve_doc(path: Path) -> tuple[int, list[str]]:
    """(checked, problems): SERVE.md vs the real protocol module.

    Every op and error kind the server defines must be named (in
    backticks) somewhere in the document, and every frame line inside
    a ```` ```json ```` fence must be a JSON object the protocol could
    accept — known ``op`` on requests, known ``error.kind`` on error
    responses.
    """
    from repro.serve.protocol import ERROR_KINDS, OPS

    checked = 0
    problems: list[str] = []
    if not path.exists():
        return 0, [f"{path.name} is missing"]
    text = path.read_text()
    for name in (*OPS, *ERROR_KINDS):
        checked += 1
        if f"`{name}`" not in text:
            problems.append(f"{path.name}: op/kind `{name}` undocumented")
    for language, body in _LANG_FENCE.findall(text):
        if language != "json":
            continue
        for line in body.splitlines():
            stripped = line.strip()
            if not stripped.startswith("{"):
                continue
            checked += 1
            where = f"{path.name}: {stripped[:60]}…"
            try:
                frame = json.loads(stripped)
            except ValueError as error:
                problems.append(f"{where} — not JSON: {error}")
                continue
            if not isinstance(frame, dict):
                problems.append(f"{where} — frame is not an object")
            elif "error" in frame:
                kind = frame["error"].get("kind")
                if kind not in ERROR_KINDS:
                    problems.append(f"{where} — unknown error kind {kind!r}")
            elif "ok" not in frame and frame.get("op") not in OPS:
                problems.append(f"{where} — unknown op {frame.get('op')!r}")
    return checked, problems


def glossary_names(design_text: str) -> set[str]:
    """Counter names in the first column of the metrics-contract tables.

    A cell may list several names separated by `` / ``; after the first,
    a name without a dot is shorthand: ``_misses`` replaces the previous
    name's last ``_`` suffix (``strings.select_cache_hits`` →
    ``strings.select_cache_misses``) and ``cache_misses`` takes the
    previous name's namespace (``compile.cache_misses``).
    """
    start = design_text.index("### Metrics contract")
    end = design_text.find("\n## ", start)
    names: set[str] = set()
    for line in design_text[start:end].splitlines():
        if not line.startswith("| `"):
            continue
        previous = ""
        for raw in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if "." in raw:
                name = raw
            elif raw.startswith("_"):
                name = previous.rsplit("_", 1)[0] + raw
            else:
                name = previous.split(".", 1)[0] + "." + raw
            names.add(name)
            previous = name
    return names


def counter_literals(root: Path) -> tuple[set[str], dict[str, str]]:
    """(every non-docstring string literal, counter name → first emitter).

    Emitted names are the literal first arguments of ``incr`` /
    ``gauge_max`` calls; the value is the ``file:line`` of the first one.
    """
    literals: set[str] = set()
    emitted: dict[str, str] = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and _documented(node):
                docstrings.add(id(node.body[0].value))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                literals.add(node.value)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("incr", "gauge_max")
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                emitted.setdefault(
                    node.args[0].value,
                    f"{path.relative_to(REPO)}:{node.lineno}",
                )
    return literals, emitted


def check_counter_glossary(design: Path, root: Path) -> tuple[int, list[str]]:
    """(checked, problems): DESIGN.md's counter rows vs the code."""
    documented = glossary_names(design.read_text())
    literals, emitted = counter_literals(root)
    problems = [
        f"{design.name} documents `{name}`, but no code under "
        f"{root.relative_to(REPO)} names it"
        for name in sorted(documented - literals)
    ]
    problems += [
        f"{where} emits `{name}`, which has no {design.name} row"
        for name, where in sorted(emitted.items())
        if name not in documented
    ]
    return len(documented | set(emitted)), problems


def check_query_strings(root: Path) -> tuple[int, list[str]]:
    """(checked, problems) over every Markdown file in the repo."""
    from repro.lang import QuerySyntaxError, parse_mso, parse_xpath

    parsers = {"xpath": parse_xpath, "mso": parse_mso}
    checked = 0
    problems: list[str] = []
    for path in sorted(root.rglob("*.md")):
        if any(part.startswith(".") for part in path.parts):
            continue
        for syntax, query, where in doc_query_strings(path):
            checked += 1
            try:
                parsers[syntax](query)
            except QuerySyntaxError as error:
                problems.append(f"{where}: {syntax}:{query!r} — {error}")
    return checked, problems


def main() -> int:
    """Run every check and print a report."""
    failures = 0

    documented, total, missing = docstring_coverage(REPO / "src" / "repro")
    coverage = documented / total if total else 1.0
    print(f"docstring coverage: {documented}/{total} = {coverage:.1%} "
          f"(floor {COVERAGE_FLOOR:.0%})")
    if coverage < COVERAGE_FLOOR:
        failures += 1
        print("missing docstrings:")
        for where in missing:
            print(f"  {where}")

    for doc in (REPO / "README.md", REPO / "docs" / "SERVE.md"):
        problems = check_cli_sync(doc)
        checked = len(readme_cli_lines(doc))
        print(f"{doc.name} CLI sync: {checked - len(problems)}/{checked} "
              "invocations parse")
        if problems:
            failures += 1
            for line in problems:
                print(f"  rejected by the parser: {line}")

    checked, query_problems = check_query_strings(REPO)
    print(f"doc query-string sync: {checked - len(query_problems)}/{checked} "
          "queries parse")
    if not checked:
        failures += 1
        print("  no query strings found in any Markdown file")
    if query_problems:
        failures += 1
        for line in query_problems:
            print(f"  {line}")

    checked, serve_problems = check_serve_doc(REPO / "docs" / "SERVE.md")
    print(f"serve protocol sync: {checked - len(serve_problems)}/{checked} "
          "names and frames check out")
    if serve_problems:
        failures += 1
        for line in serve_problems:
            print(f"  {line}")

    checked, glossary_problems = check_counter_glossary(
        REPO / "DESIGN.md", REPO / "src" / "repro"
    )
    print(f"counter glossary sync: {checked - len(glossary_problems)}/"
          f"{checked} counter names check out")
    if glossary_problems:
        failures += 1
        for line in glossary_problems:
            print(f"  {line}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
