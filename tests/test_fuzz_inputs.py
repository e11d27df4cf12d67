"""Fuzzed input text and flag values for the parsers and the file commands.

``parse_cayley`` and ``parse_ifs`` either return a value that survives a
format round trip or raise a library error with a one-line message. ``ifsg
classify``, ``transform`` and ``product`` exit 0, or exit 2 with exactly one
stderr line, starting with ``error: ``; any other exception would escape
``cli.main`` and fail the test with its traceback. A transform parameter of
any type either works or raises a library error. The inputs mix noise
(arbitrary text and bytes) with near-valid lines of grade and table tokens
and with valid tables and grade maps, so the fuzz reaches the checks behind
the parsers too.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    TransformParams,
    builtin_library,
    enumerate_semigroups,
    format_cayley,
    format_ifs,
    ifs_eq,
    magnify,
    max_alpha,
    multiply,
    parse_cayley,
    parse_ifs,
    translate,
)
from ifsemigroups.cli import main
from ifsemigroups.errors import IfsgError

from conftest import grades, subjects

TABLES = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)] + [
    entry.semigroup for entry in builtin_library()
]

_TOKENS = st.sampled_from([
    "0", "1", "2", "3", "4", "-1", "1/2", "2/3", "0.25", "0.5", "1.0", "1e0", "1e-1",
    "1e5000", "1/0", "nan", "inf", "x", "٣", "#", "# note", "0x1", "1_0", "99999999",
])
_LINES = st.lists(
    st.lists(_TOKENS | st.integers(-2, 5).map(str), max_size=5).map(" ".join), max_size=6
).map("\n".join)
_NOISE = st.one_of(_LINES, st.text(max_size=60))
CAYLEY_TEXTS = st.one_of(_NOISE, st.sampled_from(TABLES).map(format_cayley))
IFS_TEXTS = st.one_of(_NOISE, subjects().map(format_ifs))
# a file's bytes: text as UTF-8, or raw bytes that may not decode
CAYLEY_FILES = CAYLEY_TEXTS.map(str.encode) | st.binary(max_size=40)
IFS_FILES = IFS_TEXTS.map(str.encode) | st.binary(max_size=40)
FLAG_VALUES = st.one_of(_TOKENS, grades.map(str), st.text(max_size=12))


@st.composite
def _matched_operands(draw):
    """A table and two valid grade maps over its carrier, as file bytes."""
    S = draw(st.sampled_from(TABLES))
    A, B = draw(subjects(order=S.order)), draw(subjects(order=S.order))
    return format_cayley(S).encode(), format_ifs(A).encode(), format_ifs(B).encode()


@settings(max_examples=200, deadline=None)
@given(CAYLEY_TEXTS)
def test_parse_cayley_round_trips_or_raises_a_one_line_error(text):
    try:
        S = parse_cayley(text)
    except IfsgError as exc:
        assert "\n" not in str(exc)
    else:
        assert parse_cayley(format_cayley(S)) == S


@settings(max_examples=200, deadline=None)
@given(IFS_TEXTS)
def test_parse_ifs_round_trips_or_raises_a_one_line_error(text):
    try:
        A = parse_ifs(text)
    except IfsgError as exc:
        assert "\n" not in str(exc)
    else:
        assert ifs_eq(parse_ifs(format_ifs(A)), A)


def _exits_cleanly(files, argv):
    """Write each of ``files`` (name -> bytes) to a temporary file, run
    ``ifsg`` in-process with ``argv(paths)``, and check its exit code and
    stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in files}
        for name, data in files.items():
            with open(paths[name], "wb") as fh:
                fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv(paths))
    message = err.getvalue()
    assert code in (0, 2)
    if code == 0:
        assert message == ""
    else:
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert message.endswith("\n") and "Traceback" not in message


@settings(max_examples=150, deadline=None)
@given(CAYLEY_FILES)
def test_classify_exits_zero_or_with_one_error_line(table):
    _exits_cleanly({"t": table}, lambda p: ["classify", p["t"]])


@st.composite
def _admissible_transform(draw):
    """A valid grade map's bytes, a beta in (0, 1] and an alpha within its bound."""
    A = draw(subjects())
    beta = draw(grades.filter(bool))
    return format_ifs(A).encode(), str(beta), str(max_alpha(A, beta) * draw(grades)), None


@settings(max_examples=150, deadline=None)
@given(st.tuples(IFS_FILES, FLAG_VALUES, FLAG_VALUES, st.none() | CAYLEY_FILES)
       | _admissible_transform())
def test_transform_exits_zero_or_with_one_error_line(args):
    subject, beta, alpha, table = args
    # '--flag=value' keeps a value that starts with '-' a value
    files = {"a": subject} if table is None else {"a": subject, "t": table}
    _exits_cleanly(files, lambda p: [
        "transform", p["a"], f"--beta={beta}", f"--alpha={alpha}",
        *([f"--cayley={p['t']}"] if table is not None else []),
    ])


@settings(max_examples=150, deadline=None)
@given(st.tuples(CAYLEY_FILES, IFS_FILES, IFS_FILES) | _matched_operands())
def test_product_exits_zero_or_with_one_error_line(files):
    table, left, right = files
    _exits_cleanly({"t": table, "a": left, "b": right},
                   lambda p: ["product", p["t"], p["a"], p["b"]])


# text, None, booleans, Decimals (NaN among them), floats and fractions of any size
PARAMETERS = st.one_of(st.text(max_size=8), st.none(), st.booleans(), st.decimals(),
                       st.floats(), st.fractions(), grades, st.integers(-2, 2))


@settings(max_examples=300, deadline=None)
@given(subjects(), PARAMETERS, PARAMETERS)
def test_transform_parameters_work_or_raise_a_library_error(A, beta, alpha):
    for call in (lambda: magnify(A, TransformParams(beta, alpha)), lambda: translate(A, alpha),
                 lambda: multiply(A, beta), lambda: max_alpha(A, beta)):
        try:
            call()
        except IfsgError as exc:
            assert "\n" not in str(exc)
