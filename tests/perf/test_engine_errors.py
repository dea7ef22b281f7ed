"""Unknown ``engine=`` names fail uniformly at every entry point.

One ``ValueError`` format — ``unknown engine <name>: valid engines are
...`` — regardless of whether the bad name reaches a pipeline entry
point, the batch dispatcher, the kernel resolver, or a query wrapper's
constructor, and regardless of ``jobs=`` sharding (validation happens in
the parent, up front).  The MSO compilers share one check raising
``CompilationError: unknown compile engine``.  A misspelling never
degrades to a default.
"""

import pytest

from repro.core.pipeline import Corpus, Document, batch_select
from repro.core.query import (
    CompiledQuery,
    MSOQuery,
    RankedAutomatonQuery,
    UnrankedAutomatonQuery,
)
from repro.lang import compile_query_string
from repro.logic.compile_strings import CompilationError
from repro.logic.compile_trees import compile_tree_query
from repro.logic.syntax import Label, Var
from repro.perf.batch import _engine_call, batch_evaluate, evaluate_one
from repro.perf.registry import (
    VALID_ENGINES,
    numpy_kernel,
    unknown_engine,
    validate_engine,
)
from repro.ranked.examples import circuit_value_query
from repro.ranked.mso_to_qa import build_query_qar
from repro.strings.examples import odd_ones_query_automaton
from repro.unranked.examples import circuit_query_automaton
from repro.unranked.mso_to_sqa import build_query_sqa

DOC = "<a><b><c/></b><b/></a>"

MESSAGE = "unknown engine 'bogus': valid engines are 'naive', 'table', 'numpy'"


def document():
    return Document.from_text(DOC)


class TestUniformMessage:
    def test_helper_renders_the_one_format(self):
        assert str(unknown_engine("bogus")) == MESSAGE

    def test_validate_engine_accepts_all_valid_names(self):
        for name in (None,) + VALID_ENGINES:
            assert validate_engine(name) == name

    def test_document_select(self):
        with pytest.raises(ValueError) as excinfo:
            document().select("//b", engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_batch_select(self):
        with pytest.raises(ValueError) as excinfo:
            batch_select([document()], "//b", engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_batch_select_sharded_fails_in_parent(self):
        with pytest.raises(ValueError) as excinfo:
            batch_select([document()] * 2, "//b", jobs=2, engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_corpus_select(self):
        corpus = Corpus([document()])
        with pytest.raises(ValueError) as excinfo:
            corpus.select("//b", engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_engine_call_validates_up_front(self):
        qa = odd_ones_query_automaton()
        with pytest.raises(ValueError) as excinfo:
            _engine_call(qa, engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_batch_evaluate_and_evaluate_one(self):
        qa = odd_ones_query_automaton()
        for call in (
            lambda: batch_evaluate(qa, ["01"], engine="bogus"),
            lambda: evaluate_one(qa, "01", engine="bogus"),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == MESSAGE

    def test_kernel_resolvers_list_their_engines(self):
        expected = "unknown engine 'bogus': valid engines are 'table', 'numpy'"
        for trees in (False, True):
            with pytest.raises(ValueError) as excinfo:
                numpy_kernel("bogus", trees=trees)
            assert str(excinfo.value) == expected

    def test_every_entry_point_agrees(self):
        doc = document()
        messages = set()
        for call in (
            lambda: doc.select("//b", engine="bogus"),
            lambda: batch_select([doc], "//b", engine="bogus"),
            lambda: Corpus([doc]).select("//b", engine="bogus"),
            lambda: evaluate_one(
                odd_ones_query_automaton(), "01", engine="bogus"
            ),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            messages.add(str(excinfo.value))
        assert messages == {MESSAGE}


X = Var("x")
FORMULA = Label(X, "a")


class TestMisspellingsNeverDegrade:
    @pytest.mark.parametrize(
        "build",
        [compile_tree_query, build_query_qar, build_query_sqa],
        ids=["compile_tree_query", "build_query_qar", "build_query_sqa"],
    )
    def test_compile_builders_share_one_check(self, build):
        with pytest.raises(CompilationError) as excinfo:
            build(FORMULA, X, ["a", "b"], engine="naiv")
        assert str(excinfo.value) == "unknown compile engine 'naiv'"

    @pytest.mark.parametrize(
        "build, valid",
        [
            (
                lambda: MSOQuery(FORMULA, X, ("a", "b"), engine="naiv"),
                "'naive', 'automaton', 'fast'",
            ),
            (
                lambda: RankedAutomatonQuery(
                    circuit_value_query(), engine="simulat"
                ),
                "'simulate', 'behavior'",
            ),
            (
                lambda: UnrankedAutomatonQuery(
                    circuit_query_automaton(), engine="simulat"
                ),
                "'simulate', 'behavior', 'fast'",
            ),
            (
                lambda: CompiledQuery(
                    MSOQuery(FORMULA, X, ("a", "b")).compiled(),
                    engine="two-pass",
                ),
                "'two_pass', 'fast'",
            ),
        ],
        ids=["MSOQuery", "RankedAutomatonQuery", "UnrankedAutomatonQuery",
             "CompiledQuery"],
    )
    def test_query_wrappers_reject_at_construction(self, build, valid):
        with pytest.raises(ValueError, match=f"valid engines are {valid}$"):
            build()

    def test_query_string_has_no_sqa_engine(self):
        """The SQA route is ``compile_query_sqa``, not an engine name."""
        with pytest.raises(ValueError, match="unknown engine 'sqa'"):
            compile_query_string("//a", ["a", "b"], engine="sqa")
