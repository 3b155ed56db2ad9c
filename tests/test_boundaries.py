"""Fuzz the two file formats that arrive from outside the program.

Model files go to ``cap linf check`` and base-invariant tables to ``cap gw
evaluate --table``.  Each example substitutes a few tokens of a fixture and
keeps every other argument valid, so the run must end in a result or in an
integrity refusal (exit 0, 2 or 3): never a usage error, and never an
uncaught exception or a traceback.
"""

import contextlib
import io
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from symcap.cli import main

from conftest import FIXTURES, MODEL_NAMES

_TOKEN = re.compile(r"\s+|[|,*()\[\]=+^/]|[^\s|,*()\[\]=+^/]+")

# substitutes beyond the fixture's own tokens: numbers at and past the
# edges of each field, other section and flag words, stray separators
_EDGE_TOKENS = [
    "-1", "0", "-2", "99", "1/0", "1e3", "1.5", "", " ", "|", ",", "*", "(",
    ")", "[", "]", "=", "/", "^", "T", "t", "x", "none", "true", "module",
    "cdga", "Z2", "flags", "generators", "operations", "augmentations",
    "CP1", "CP3", "CP1xCP1", "\n",
]


def _content(path) -> str:
    """The file without its comments, which the parsers never read."""
    return "\n".join(line.split("#")[0] for line in path.read_text().splitlines())


_MODELS = {name: _content(FIXTURES / f"{name}.model") for name in MODEL_NAMES}
_TABLE = _content(FIXTURES / "base.tbl")


@st.composite
def _mutated(draw, text: str) -> str:
    tokens = _TOKEN.findall(text)
    # the layout is kept: only tokens that are not whitespace are replaced,
    # by the file's own tokens or, as often, by an edge token
    slots = [i for i, token in enumerate(tokens) if not token.isspace()]
    substitutes = st.one_of(
        st.sampled_from(_EDGE_TOKENS), st.sampled_from(sorted(set(tokens)))
    )
    for _ in range(draw(st.integers(1, 3))):
        tokens[draw(st.sampled_from(slots))] = draw(substitutes)
    return "".join(tokens)


def _model_files():
    return st.sampled_from(sorted(_MODELS)).flatmap(
        lambda name: _mutated(_MODELS[name])
    )


def _table_files():
    return _mutated(_TABLE)


def _run(text: str, *argv: str) -> tuple[int, str]:
    """Exit code and stderr of ``cap`` with ``text`` as the file ``FILE``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.NamedTemporaryFile("w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        argv = [fh.name if a == "FILE" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(text=_model_files())
def test_mutated_model_files_end_in_a_result_or_an_integrity_error(text):
    code, err = _run(text, "linf", "check", "FILE", "--l", "2")
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(text=_table_files())
def test_mutated_tables_end_in_a_result_or_an_integrity_error(text):
    code, err = _run(text, "gw", "evaluate", "CP2 d=2 <(T^4 p)>", "--table", "FILE")
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
