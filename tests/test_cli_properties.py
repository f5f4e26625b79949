"""The CLI in process on fuzzed arguments and malformed matrix files: every
subcommand exits only with a documented code and never with a traceback."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unimetric import cli
from unimetric.linalg import haar_unitaries

DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}
CHECK_COUNT = 13

X = np.array([[0, 1], [1, 0]], dtype=complex)
_rng = np.random.default_rng(22)
VALID_MATRICES = [
    np.eye(1),
    np.eye(2),
    X,
    np.diag([1.0, 1j]),
    np.eye(4),
    np.eye(4)[[0, 1, 3, 2]],
    np.eye(4)[[0, 2, 1, 3]],
    np.kron(X, X),
    *haar_unitaries(_rng, 2, 4),
    haar_unitaries(_rng, 1, 3)[0],
    np.eye(4)[:, :2],
    np.eye(3)[:, :2],
]


def matrix_text(rows, cols, data) -> str:
    return json.dumps({"rows": rows, "cols": cols, "data": data})


def valid_text(m) -> str:
    return matrix_text(*m.shape, [[float(z.real), float(z.imag)] for z in m.reshape(-1)])


json_junk = st.sampled_from([None, True, "1", [], [1], {"re": 1}, 1.5, -1])
entries = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 3)
pairs = st.lists(entries, min_size=2, max_size=2) | st.lists(entries | json_junk, max_size=3)


@st.composite
def shaped_text(draw):
    """A matrix file whose data has rows * cols entries of any float."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    data = draw(st.lists(pairs, min_size=rows * cols, max_size=rows * cols))
    return matrix_text(rows, cols, data)


malformed_files = st.one_of(
    shaped_text(),
    st.builds(
        matrix_text,
        st.integers(-1, 4) | json_junk,
        st.integers(-1, 4) | json_junk,
        st.lists(pairs | json_junk, max_size=6) | json_junk,
    ),
    st.sampled_from(["", "{", "null", "[]", '{"rows": 1}', '{"rows": 1, "cols": 1}']),
    st.text(max_size=30),
)


@st.composite
def matrix_files(draw):
    """A valid matrix three times in four, so that most calls get past loading."""
    if draw(st.integers(0, 3)):
        return valid_text(draw(st.sampled_from(VALID_MATRICES)))
    return draw(malformed_files)


# no free token starts with "-", so none abbreviates --output or --emit
junk = st.text(max_size=6).filter(lambda t: not t.startswith("-")) | st.sampled_from(
    ["-1", "--bogus", "-h", "--format"]
)
numbers = st.one_of(
    st.floats(0, 1).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.integers(-(10**400), 10**400).map(str),
    junk,
)
# optimizer knobs stay small: a huge count is a request for that much work
knobs = st.one_of(st.integers(-2, 5).map(str), junk)
ints = st.one_of(st.integers(-2, 3).map(str), st.integers().map(str), junk)
pauli_strings = st.text(alphabet="+-iIXYZ", max_size=5) | st.sampled_from(
    ["+ZZZZZZZZ", "+iXXXXXXXX", "+XZZXI"]
)
paulis = st.lists(pauli_strings, max_size=4).map(",".join) | junk


def _rejected(criteria: str) -> bool:
    """Whether selftest refuses this selection before running a check."""
    try:
        picked = [int(tok) for tok in criteria.split(",") if tok.strip()]
    except ValueError:
        return True
    return not picked or any(not 1 <= i <= CHECK_COUNT for i in picked)


# a full check can take a second, so selftest runs only the two fastest
criteria = st.sampled_from(["1", "12,1"]) | (st.text(max_size=8) | ints).filter(_rejected)

FILE = st.sampled_from(["{u}", "{v}", "{b}"] * 3 + ["{missing}", "{dir}"])
POSITIONALS = {"dist": 2, "distinguish": 2, "face-dist": 2, "sep-dist": 2, "numrange": 1}
OPTIONS = {
    "tensor": [("--d1", numbers), ("--d2", numbers)],
    "face-dist": [("--basis", FILE)],
    "sep-dist": [
        ("--dims", st.sampled_from(["2,2", "1,4", "4,1", "2,1", "1,1", "0,4", "2,x"]) | junk),
        ("--restarts", knobs),
        ("--max-alternations", knobs),
        ("--seed", ints),
    ],
    "nullspace": [("--gens", paulis)],
    "stabilizer": [("--gens", paulis)],
    "search": [
        ("--alpha", numbers),
        ("--N", numbers),
        ("--gamma", numbers),
        ("--theta", numbers),
        ("--epsilon", numbers),
    ],
    "numrange": [("--emit", st.just("{polygon}"))],
    "selftest": [("--seed", ints)],
}
COMMANDS = sorted(set(POSITIONALS) | set(OPTIONS))


@st.composite
def invocations(draw):
    """(argv with placeholders, matrix file texts) for one CLI call."""
    command = draw(st.sampled_from(COMMANDS))
    need = POSITIONALS.get(command, 0)
    short = need > 0 and draw(st.integers(0, 7)) == 0  # a positional missing
    argv = [command] + [draw(FILE) for _ in range(need - short)]
    for flag, values in OPTIONS.get(command, []):
        if draw(st.integers(0, 3)):  # present three times in four
            argv += [flag, draw(values)]
    if command == "selftest":
        argv += ["--criteria", draw(criteria)]
    else:
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["json", "text", "xml"]))]
        if draw(st.booleans()):
            argv += ["--output", "{report}"]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(junk))
    return argv, {name: draw(matrix_files()) for name in "uvb"}


def test_every_subcommand_is_fuzzed():
    assert COMMANDS == sorted([*cli._COMMANDS, "selftest"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call=invocations())
def test_fuzzed_calls_exit_with_documented_codes(call, workdir):
    argv, texts = call
    places = {"{dir}": str(workdir), "{missing}": str(workdir / "missing.json")}
    places["{report}"] = str(workdir / "report.out")
    places["{polygon}"] = str(workdir / "polygon.csv")
    for name, text in texts.items():
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        places[f"{{{name}}}"] = str(path)
    argv = [places.get(tok, tok) for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
            code = exc.code
    assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()
    if code != 0:
        assert err.getvalue(), (argv, code)
