"""The package's error policy: every check that an argument or input datum
can trip raises a domain error (``InputContractError`` or one of the
package's other error types), and the CLI turns exactly those into an
``Error:`` line, so that anything else shows its traceback. Every backward
time u and grid of them is read by ``EstimandWindow.check_u``, so that one
check decides what a u is, and every other number (t, m, q, tau0, a
window's t1 and t2, alpha, level, a critical value, a bandwidth and its
candidates) by ``model.check_numbers``, which alone words a range check
from the interval its caller passes, and every count and integer seed by
``model.check_count``, whose test for an integer, ``model._is_integer``, is
also the one of a cohort's delta and ptr entries. A cohort's ids are read
and checked for empty and repeated values by ``model.id_rows`` alone.

The tests' own ``match=`` patterns are held to the fault they name: none
is found in its test's ``tmp_path``, whose path starts every IngestError."""

import ast
import re
from pathlib import Path

import backproc
from backproc.cli import DOMAIN_ERRORS

SRC = Path(backproc.__file__).parent
BLANKET = {"ValueError", "RuntimeError", "Exception"}

# (module, enclosing function) of a blanket raise that guards an internal
# invariant, never an input, with the reason; none at present
ALLOWED: dict[tuple[str, str], str] = {}


def _enclosing(tree: ast.AST) -> dict:
    """The name of the outermost function around each node of the tree."""
    enclosing = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                enclosing.setdefault(inner, node.name)  # ast.walk meets outer functions first
    return enclosing


def _blanket_raises(path: Path):
    """(function, line, type) of each ``raise`` of a blanket type in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    enclosing = _enclosing(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BLANKET:
                yield enclosing.get(node, "<module>"), node.lineno, exc.id


def test_no_blanket_raise_outside_the_allowlist():
    raises = [(path.stem, function, f"{path.name}:{line} raises {name} in {function}")
              for path in sorted(SRC.glob("*.py"))
              for function, line, name in _blanket_raises(path)]
    found = [where for module, function, where in raises if (module, function) not in ALLOWED]
    assert not found, "\n".join(found)
    # an entry whose raise is gone would let a new one back in unnoticed
    assert set(ALLOWED) <= {(module, function) for module, function, _ in raises}


def test_the_cli_catches_only_domain_errors():
    assert not {exc.__name__ for exc in DOMAIN_ERRORS} & BLANKET
    assert backproc.InputContractError in DOMAIN_ERRORS


# the conversions of a backward time or a grid of them that only
# EstimandWindow.check_u (model.py) makes
BACKWARD_TIMES = {"u", "v", "grid"}
CONVERTERS = {"asarray", "atleast_1d", "array"}


def _converts(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "float"
    return (isinstance(func, ast.Attribute) and func.attr in CONVERTERS
            and isinstance(func.value, ast.Name) and func.value.id in {"np", "numpy"})


def _own_readings(path: Path, watched=BACKWARD_TIMES):
    """(function, line) of each call in the file that passes a parameter
    named in ``watched`` (u, v or grid by default), alone or in a list or
    tuple, to np.asarray, np.atleast_1d, np.array or float."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
        names = params & watched
        for node in ast.walk(function):
            if not (isinstance(node, ast.Call) and _converts(node.func)):
                continue
            items = [item for arg in node.args
                     for item in (arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else [arg])]
            if any(isinstance(item, ast.Name) and item.id in names for item in items):
                yield function.name, node.lineno


def test_only_the_window_reads_backward_times():
    found = [f"{path.name}:{line} converts a backward time in {function}"
             for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
             for function, line in _own_readings(path)]
    assert not found, "\n".join(found)
    # the guard sees the reader itself
    assert "check_u" in {function for function, _ in _own_readings(SRC / "model.py")}


# the numbers other than u that only model.check_numbers converts
NUMBERS = {"t", "m", "q", "qs", "tau0", "t1", "t2", "alpha", "level", "critical_value",
           "bandwidth", "candidates"}


def test_only_the_reader_reads_numbers(tmp_path):
    found = [f"{path.name}:{line} converts a number in {function}"
             for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
             for function, line in _own_readings(path, NUMBERS)]
    assert not found, "\n".join(found)
    # the guard sees each conversion that it forbids
    probe = tmp_path / "probe.py"
    probe.write_text("def f(t, m, q, qs, tau0):\n"
                     "    return float(t), np.array([m]), np.atleast_1d(q), np.asarray((qs, tau0))\n")
    assert [line for _, line in _own_readings(probe, NUMBERS)] == [2, 2, 2, 2]


# the wordings of a range check, which model.check_numbers alone words from
# the interval that its caller passes
RANGE_WORDS = ("must be in", "positive", "nonnegative")


def _range_checks(path: Path):
    """(function, line, kind) of each ``allow_nan`` keyword or parameter in the
    file (kind "allow_nan"), and of each InputContractError whose message, a
    string or the text of an f-string, says one of RANGE_WORDS (kind "message")."""
    tree = ast.parse(path.read_text(), filename=str(path))
    enclosing = _enclosing(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.keyword, ast.arg)) and node.arg == "allow_nan":
            kind = "allow_nan"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "InputContractError" and node.args):
            message = node.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            text = "".join(part.value for part in parts
                           if isinstance(part, ast.Constant) and isinstance(part.value, str))
            kind = "message" if any(word in text for word in RANGE_WORDS) else None
        else:
            kind = None
        if kind:
            yield enclosing.get(node, "<module>"), node.lineno, kind


def test_only_the_reader_words_a_range(tmp_path):
    # no module takes or passes allow_nan, and only the model words a range
    found = [f"{path.name}:{line} {'names allow_nan' if kind == 'allow_nan' else 'words a range'}"
             f" in {function}"
             for path in sorted(SRC.glob("*.py"))
             for function, line, kind in _range_checks(path)
             if kind == "allow_nan" or path.name != "model.py"]
    assert not found, "\n".join(found)
    # the guard sees each spelling that it forbids, and not another message
    probe = tmp_path / "probe.py"
    probe.write_text("def f(t, allow_nan=False):\n"
                     "    t = check_number('t', t, allow_nan=True)\n"
                     "    raise InputContractError(f'alpha must be in (0, 1), got {t}')\n"
                     "    raise InputContractError('level must be positive')\n"
                     "    raise InputContractError(f't={t}: must be ' f'nonnegative')\n"
                     "    raise InputContractError(f'{t} outside [t1, t2)')\n")
    assert sorted((line, kind) for _, line, kind in _range_checks(probe)) == [
        (1, "allow_nan"), (2, "allow_nan"), (3, "message"), (4, "message"), (5, "message")]


def _is_integer_type(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "int"
    return (isinstance(node, ast.Attribute) and node.attr == "integer"
            and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"})


def _integer_tests(path: Path):
    """(function, line) of each ``isinstance`` call in the file whose classes
    name int or np.integer, alone or in a tuple."""
    tree = ast.parse(path.read_text(), filename=str(path))
    enclosing = _enclosing(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1]
        classes = classes.elts if isinstance(classes, ast.Tuple) else [classes]
        if any(map(_is_integer_type, classes)):
            yield enclosing.get(node, "<module>"), node.lineno


def test_only_the_model_tests_for_integers(tmp_path):
    found = [f"{path.name}:{line} tests for an integer in {function}"
             for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
             for function, line in _integer_tests(path)]
    assert not found, "\n".join(found)
    # the model spells the rule once, and the guard sees each spelling that
    # it forbids
    assert {function for function, _ in _integer_tests(SRC / "model.py")} == {"_is_integer"}
    probe = tmp_path / "probe.py"
    probe.write_text("def f(m, seed):\n"
                     "    return (isinstance(m, (int, np.integer)), isinstance(seed, int),\n"
                     "            isinstance(m, numpy.integer))\n")
    assert [line for _, line in _integer_tests(probe)] == [2, 2, 3]


def _is_empty_text(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value == ""


def _is_empty_collection(node: ast.expr | None) -> bool:
    """Whether the node is ``set()``, ``dict()`` or ``{}``."""
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "dict"} and not node.args and not node.keywords)


def _id_scans(path: Path):
    """(function, line) of each scan in the file for an empty or a repeated
    value: a comparison with ``""``, ``len(set(...))``, and a membership
    test, ``add`` or ``setdefault`` on a name first bound to an empty set or
    dict, the record of the values seen so far."""
    tree = ast.parse(path.read_text(), filename=str(path))
    enclosing = _enclosing(tree)
    seen = {target.id for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_collection(node.value)
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found = any(map(_is_empty_text, operands)) or any(
                isinstance(op, (ast.In, ast.NotIn)) and isinstance(right, ast.Name)
                and right.id in seen for op, right in zip(node.ops, node.comparators))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            found = (node.func.id == "len" and len(node.args) == 1
                     and isinstance(node.args[0], ast.Call)
                     and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "set")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            found = (node.func.attr in {"add", "setdefault"}
                     and isinstance(node.func.value, ast.Name) and node.func.value.id in seen)
        else:
            found = False
        if found:
            yield enclosing.get(node, "<module>"), node.lineno


def test_only_the_model_scans_ids(tmp_path):
    found = [f"{path.name}:{line} scans for empty or repeated values in {function}"
             for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
             for function, line in _id_scans(path)]
    assert not found, "\n".join(found)
    # the model scans in one function, and the guard sees each spelling
    # that it forbids
    assert {function for function, _ in _id_scans(SRC / "model.py")} == {"id_rows"}
    probe = tmp_path / "probe.py"
    probe.write_text("def f(sids):\n"
                     "    seen: set[str] = set()\n"
                     "    first = {}\n"
                     "    ok = '' not in sids and len(set(sids)) == len(sids)\n"
                     "    for sid in sids:\n"
                     "        if sid == '' or sid in seen:\n"
                     "            seen.add(first.setdefault(sid, sid))\n")
    assert sorted(line for _, line in _id_scans(probe)) == [4, 4, 6, 6, 7, 7]


TESTS = Path(__file__).parent


def _path_matches(path: Path):
    """(test, line, pattern) of each constant ``match=`` pattern in the file
    that ``re.search`` finds in the name of the test around it, where the
    test takes ``tmp_path``: pytest names that directory after the test, so
    the pattern matches any message that names a file in it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        if "tmp_path" not in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
            continue
        for node in ast.walk(function):
            for keyword in node.keywords if isinstance(node, ast.Call) else ():
                pattern = keyword.value.value if isinstance(keyword.value, ast.Constant) else None
                if keyword.arg == "match" and isinstance(pattern, str) and re.search(
                        pattern, function.name):
                    yield function.name, node.lineno, pattern


def test_no_match_pattern_is_found_in_its_tests_path(tmp_path):
    found = [f"{path.name}:{line} match={pattern!r} is found in the path of {test}"
             for path in sorted(TESTS.glob("test_*.py"))
             for test, line, pattern in _path_matches(path)]
    assert not found, "\n".join(found)
    # the guard sees a pattern found in the test's name, and only that
    probe = tmp_path / "probe.py"
    probe.write_text("def test_bad_header(tmp_path):\n"
                     "    with pytest.raises(IngestError, match='header'):\n"
                     "        ingest(tmp_path)\n"
                     "    pytest.raises(IngestError, ingest, tmp_path, match=r'bad_h')\n"
                     "    with pytest.raises(IngestError, match=r's\\.csv: header must be'):\n"
                     "        ingest(tmp_path)\n"
                     "def test_bad_header_text():\n"
                     "    with pytest.raises(ValueError, match='header'):\n"
                     "        read('')\n")
    assert sorted(line for _, line, _ in _path_matches(probe)) == [2, 4]
