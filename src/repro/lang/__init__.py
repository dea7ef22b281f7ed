"""Query-string frontend: XPath and MSO surface syntaxes.

This package turns strings into the compiled unary MSO queries the rest
of the library evaluates, in four stages shared by both syntaxes::

    tokenize ─→ parse ─→ lower ─→ compile
    (tokens)   (xpath/mso)  (logic.syntax)  (compile_trees / mso_to_sqa)

Three surface syntaxes are dispatched by prefix in
:func:`compile_query_string` (which backs the string overloads of
``Document.select`` / ``Corpus.select``):

* ``"xpath:..."`` — the XPath fragment of :mod:`repro.lang.xpath`
  (axes, ``//``, predicates with ``and``/``or``/``not()``).
* ``"mso:..."`` — the MSO formula syntax of :mod:`repro.lang.mso`
  (quantifiers, set variables, ``lab_a(x)``, ``child``/``desc``).
* anything else — the legacy path-pattern language of
  :mod:`repro.core.patterns`, unchanged.

All three meet at the same :class:`~repro.core.query.MSOQuery`, so the
compile cache, minimization, and every evaluation engine apply
identically.  Errors anywhere in the frontend raise
:class:`QuerySyntaxError` with the character offset of the problem
(relative to the query body, after any ``xpath:`` / ``mso:`` prefix).

The grammar reference is ``docs/QUERY_LANGUAGE.md``; the ``lang.*``
observability counters are listed in ``DESIGN.md``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import QuerySyntaxError
from .mso import mso_query, parse_mso, parse_mso_query
from .xpath import lower_xpath, parse_xpath, xpath_query

__all__ = [
    "QuerySyntaxError",
    "compile_query_sqa",
    "compile_query_string",
    "lower_xpath",
    "mso_query",
    "parse_mso",
    "parse_mso_query",
    "parse_xpath",
    "xpath_query",
]

#: Prefixes routing a query string to the new frontend.
PREFIXES = ("xpath:", "mso:")


def split_prefix(pattern: str) -> tuple[str | None, str]:
    """``("xpath"|"mso"|None, body)`` — which frontend a string targets."""
    for prefix in PREFIXES:
        if pattern.startswith(prefix):
            return prefix[:-1], pattern[len(prefix) :]
    return None, pattern


def compile_query_string(pattern: str, alphabet: Sequence[str], engine: str = "automaton"):
    """Compile any supported query string into an :class:`~repro.core.query.MSOQuery`.

    Dispatches on prefix: ``"xpath:"`` → :func:`xpath_query`, ``"mso:"``
    → :func:`mso_query`, no prefix → the legacy
    :func:`repro.core.patterns.compile_pattern` language.  ``engine``
    is the :class:`~repro.core.query.MSOQuery` evaluation strategy
    (``"automaton"``, ``"fast"`` or ``"naive"``); the strong query
    automaton route is :func:`compile_query_sqa`.
    """
    kind, body = split_prefix(pattern)
    if kind == "xpath":
        return xpath_query(body, alphabet, engine=engine)
    if kind == "mso":
        return mso_query(body, alphabet, engine=engine)
    from ..core.patterns import compile_pattern

    return compile_pattern(pattern, alphabet, engine=engine)


def compile_query_sqa(pattern: str, alphabet: Sequence[str], engine: str = "optimized"):
    """Compile a query string straight to a strong query automaton (§5).

    The same prefix dispatch as :func:`compile_query_string`, but routed
    through :func:`repro.unranked.mso_to_sqa.build_query_sqa` (Theorem
    5.17) instead of the marked-alphabet evaluator, returning the SQA^u.
    """
    from ..unranked.mso_to_sqa import build_query_sqa

    kind, body = split_prefix(pattern)
    if kind == "xpath":
        formula, var = lower_xpath(parse_xpath(body), alphabet)
    elif kind == "mso":
        formula, var = parse_mso_query(body)
    else:
        from ..core.patterns import compile_pattern

        query = compile_pattern(pattern, alphabet)
        formula, var = query.formula, query.var
    return build_query_sqa(formula, var, tuple(alphabet), engine=engine)
