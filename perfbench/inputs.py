"""Seeded inputs for the end-to-end benchmark, and the checks on its answers.

Everything a run feeds the program comes from the workload seed through
the generators here: DTD-valid bibliographies, irregular random trees over
the same labels, queries from one template family in all three query
syntaxes, and decision cases whose verdicts follow from the templates.

The answer checks never ask the program: :func:`evaluate` walks this
module's own trees, :func:`dtd_valid` is a hand-written check of the
bibliography DTD, and decision verdicts are known from the templates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TEXT = "#text"
ROOT = "bibliography"
ENTRIES = ("book", "article")
FIELDS = ("author", "title", "year")
OWN_FIELD = {"book": "publisher", "article": "journal"}
ELEMENT_LABELS = (ROOT, "book", "article", "author", "title", "publisher", "journal", "year")
SYNTAXES = ("legacy", "xpath", "mso")
SHAPES = ("desc", "child", "filter")

#: The bibliography DTD the program validates against (Figure 2 of the paper).
BIB_DTD = """\
<!ELEMENT bibliography (book | article)+>
<!ELEMENT article (author+, title, journal, year)>
<!ELEMENT book (author+, title, publisher, year)>
<!ELEMENT author PCDATA>
<!ELEMENT title PCDATA>
<!ELEMENT journal PCDATA>
<!ELEMENT year PCDATA>
<!ELEMENT publisher PCDATA>
"""

#: Label sets (as the program sees them: element labels plus ``#text``).
MIXED = tuple(sorted(ELEMENT_LABELS + (TEXT,)))
ARTICLES = tuple(sorted((ROOT, "article", "author", "title", "journal", "year", TEXT)))


class Node:
    """An immutable document node; text chunks are ``#text`` leaves."""

    __slots__ = ("label", "children", "text")

    def __init__(self, label: str, children: tuple = (), text: str | None = None):
        self.label = label
        self.children = tuple(children)
        self.text = text


def leaf(label: str, text: str) -> Node:
    """An element holding one text chunk."""
    return Node(label, (Node(TEXT, (), text),))


def size(node: Node) -> int:
    """Number of nodes, text leaves included."""
    return 1 + sum(size(child) for child in node.children)


def labels(node: Node) -> set[str]:
    """Every label in the tree."""
    found = {node.label}
    for child in node.children:
        found |= labels(child)
    return found


def to_xml(node: Node) -> str:
    """Compact XML text; the program's parser reads it back as ``node``."""
    if node.label == TEXT:
        return node.text
    inner = "".join(to_xml(child) for child in node.children)
    return f"<{node.label}>{inner}</{node.label}>"


def at(node: Node, path: tuple) -> Node:
    """The node at a child-index path."""
    for index in path:
        node = node.children[index]
    return node


def replaced(node: Node, path: tuple, new: Node | None) -> Node:
    """A copy with the subtree at ``path`` replaced (``None`` deletes it)."""
    if not path:
        raise ValueError("cannot edit the root")
    index, rest = path[0], path[1:]
    children = list(node.children)
    if rest:
        children[index] = replaced(children[index], rest, new)
    elif new is None:
        del children[index]
    else:
        children[index] = new
    return Node(node.label, children, node.text)


# -- document generators ------------------------------------------------


def _word(rng: random.Random, prefix: str) -> str:
    return prefix + "".join(rng.choices("abcdefghijklmnop", k=rng.randint(3, 8)))


def entry(rng: random.Random, kind: str) -> Node:
    """A DTD-valid book or article with 1-5 authors."""
    authors = [leaf("author", _word(rng, "A")) for _ in range(rng.randint(1, 5))]
    return Node(
        kind,
        authors
        + [
            leaf("title", _word(rng, "T")),
            leaf(OWN_FIELD[kind], _word(rng, "P")),
            leaf("year", str(rng.randint(1950, 2020))),
        ],
    )


def bibliography(rng: random.Random, entries: int, kinds: str, p_book: float) -> Node:
    """A DTD-valid bibliography; ``kinds`` is ``"mixed"`` or ``"articles"``."""
    if kinds == "articles":
        chosen = ["article"] * entries
    else:
        chosen = ["book" if rng.random() < p_book else "article" for _ in range(entries)]
        chosen[0], chosen[-1] = "book", "article"  # both kinds, so the label set is MIXED
    return Node(ROOT, [entry(rng, kind) for kind in chosen])


def irregular(rng: random.Random, nodes: int, alphabet: tuple = MIXED) -> Node:
    """A random tree over ``alphabet`` whose root is ``bibliography``.

    Not DTD-valid: any element may sit under any other, depth and fan-out
    are random, so few subtrees repeat.  Every label of ``alphabet``
    occurs, so the tree's label set is exactly ``alphabet``.
    """
    inner = [label for label in alphabet if label not in (ROOT, TEXT)]
    budget = [nodes - 1]

    def grow(depth: int) -> Node:
        label = rng.choice(inner)
        budget[0] -= 1
        if depth >= 6 or budget[0] <= 0 or rng.random() < 0.3:
            budget[0] -= 1
            return leaf(label, _word(rng, "x"))
        width = rng.randint(1, 4)
        return Node(label, [grow(depth + 1) for _ in range(width) if budget[0] > 0] or [Node(TEXT, (), "t")])

    children = []
    while budget[0] > 0:
        children.append(grow(1))
    present = labels(Node(ROOT, children))
    for label in inner:
        if label not in present:
            children.append(leaf(label, _word(rng, "m")))
    if TEXT in alphabet and TEXT not in labels(Node(ROOT, children)):
        children.append(leaf(inner[0], "t"))
    return Node(ROOT, children)


# -- the query template family -------------------------------------------


@dataclass(frozen=True)
class Query:
    """One query of the template family, in one syntax.

    Shapes: ``desc`` (every ``B``), ``child`` (every ``B`` child of an
    ``A``) and ``filter`` (every ``A`` with a ``C`` child).
    """

    shape: str
    syntax: str
    labels: tuple

    @property
    def text(self) -> str:
        """The query string as the program receives it."""
        a = self.labels
        if self.shape == "desc":
            forms = (f"//{a[0]}", f"xpath://{a[0]}", f"mso:lab_{a[0]}(x)")
        elif self.shape == "child":
            forms = (
                f"//{a[0]}/{a[1]}",
                f"xpath://{a[0]}/{a[1]}",
                f"mso:lab_{a[1]}(x) & exists y. (child(y, x) & lab_{a[0]}(y))",
            )
        else:
            forms = (
                f"//{a[0]}[has({a[1]})]",
                f"xpath://{a[0]}[{a[1]}]",
                f"mso:lab_{a[0]}(x) & exists y. (child(x, y) & lab_{a[1]}(y))",
            )
        return forms[SYNTAXES.index(self.syntax)]


def random_query(rng: random.Random, shape: str, syntax: str) -> Query:
    """A query of ``shape`` whose labels the seed picks."""
    if shape == "desc":
        return Query(shape, syntax, (rng.choice(FIELDS),))
    return Query(shape, syntax, (rng.choice(ENTRIES), rng.choice(FIELDS)))


def evaluate(query: Query, root: Node) -> list[tuple]:
    """The paths ``query`` selects on ``root``, in document order.

    Legacy patterns start below the root; XPath ``//`` and MSO range over
    every node, the root included.
    """
    out: list[tuple] = []
    first = query.labels[0]
    skip_root = query.syntax == "legacy"

    def walk(node: Node, path: tuple, parent: str | None) -> None:
        if not (skip_root and not path):
            if query.shape == "desc":
                hit = node.label == first
            elif query.shape == "child":
                hit = node.label == query.labels[1] and parent == first and (
                    not skip_root or len(path) >= 2
                )
            else:
                hit = node.label == first and any(
                    child.label == query.labels[1] for child in node.children
                )
            if hit:
                out.append(path)
        for index, child in enumerate(node.children):
            walk(child, path + (index,), node.label)

    walk(root, (), None)
    return out


# -- decision cases ------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """A ``repro decide`` command over the bibliography DTD.

    ``expect`` is ``"empty"``, ``"witness"``, ``"contained"`` or
    ``"counterexample"`` — known from the template, not from the program.
    """

    mode: str
    patterns: tuple
    expect: str


def decisions(rng: random.Random) -> list[tuple[str, Decision]]:
    """The decision cases of a run, each with its template.

    ``nonempty``: emptiness of ``//B`` (a witness exists), once for every
    field in the seed's order, because the cost differs by field.
    ``not_contained``: ``//B`` in ``//B2`` for two fields the seed picks (a
    counterexample exists: a document whose ``B`` is not a ``B2``).
    """
    fields = list(FIELDS)
    rng.shuffle(fields)
    cases = [("nonempty", Decision("emptiness", (Query("desc", "legacy", (field,)),), "witness"))
             for field in fields]
    first, second = rng.sample(FIELDS, 2)
    cases.append(("not_contained", Decision(
        "containment",
        (Query("desc", "legacy", (first,)), Query("desc", "legacy", (second,))),
        "counterexample",
    )))
    return cases


def parse_term(text: str) -> Node:
    """Read the CLI's witness rendering, e.g. ``bibliography(book(author))``."""
    position = 0

    def node() -> Node:
        nonlocal position
        start = position
        while position < len(text) and text[position] not in "(),":
            position += 1
        label = text[start:position].strip()
        if not label:
            raise ValueError(f"empty label at offset {start} in {text!r}")
        children = []
        if position < len(text) and text[position] == "(":
            position += 1
            while True:
                children.append(node())
                if position < len(text) and text[position] == ",":
                    position += 1
                    continue
                if position < len(text) and text[position] == ")":
                    position += 1
                    break
                raise ValueError(f"unbalanced term {text!r}")
        return Node(label, children)

    root = node()
    if text[position:].strip():
        raise ValueError(f"trailing text in term {text!r}")
    return root


def dtd_valid(node: Node, expected: str = ROOT) -> bool:
    """Is ``node`` a derivation tree of :data:`BIB_DTD`?"""
    if node.label != expected:
        return False
    kids = [child.label for child in node.children]
    if expected == ROOT:
        return bool(kids) and all(
            kind in ENTRIES and dtd_valid(child, kind) for kind, child in zip(kids, node.children)
        )
    if expected in ENTRIES:
        authors = 0
        while authors < len(kids) and kids[authors] == "author":
            authors += 1
        if authors == 0 or kids[authors:] != ["title", OWN_FIELD[expected], "year"]:
            return False
        return all(dtd_valid(child, child.label) for child in node.children)
    return all(child.label == TEXT and not child.children for child in node.children)


def check_decision(decision: Decision, returncode: int, stdout: str) -> str | None:
    """``None`` when the CLI's answer is right, else what is wrong.

    A witness is checked by structure, not text: it must be DTD-valid, the
    first pattern must select its marked node and (for containment) the
    second must not.
    """
    lines = stdout.strip().splitlines()
    if decision.expect in ("empty", "contained"):
        if returncode == 0 and lines == [decision.expect]:
            return None
        return f"expected {decision.expect!r}, got rc={returncode} {stdout[:200]!r}"
    if returncode != 1 or len(lines) != 2:
        return f"expected a witness, got rc={returncode} {stdout[:200]!r}"
    if not lines[0].startswith("witness: ") or not lines[1].startswith("marked node: "):
        return f"malformed witness output {stdout[:200]!r}"
    tree = parse_term(lines[0][len("witness: "):])
    marked = tuple(int(part) for part in lines[1][len("marked node: "):].strip("/").split("/") if part)
    return check_witness(decision, tree, marked)


def check_witness(decision: Decision, tree: Node, marked: tuple) -> str | None:
    """``None`` when ``tree`` with the node at ``marked`` is a right witness."""
    if not dtd_valid(tree):
        return f"witness is not DTD-valid (rooted at {tree.label!r}, {size(tree)} nodes)"
    first = decision.patterns[0]
    if marked not in evaluate(first, tree):
        return f"{first.text} does not select the witness's marked node {marked}"
    if len(decision.patterns) == 2 and marked in evaluate(decision.patterns[1], tree):
        return f"{decision.patterns[1].text} selects the witness's marked node {marked}"
    return None


def from_nested(nested: list) -> Node:
    """A tree from its ``[label, [children...]]`` JSON form."""
    label, children = nested
    return Node(label, [from_nested(child) for child in children])



def hash_seed(seed: int, index: int) -> int:
    """The ``PYTHONHASHSEED`` of the ``index``-th program process of a run."""
    return (seed * 7919 + index * 104729) % 4294967295
