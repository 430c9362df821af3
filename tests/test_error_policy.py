"""The package's error policy: every check that an argument or input datum
can trip raises a domain error (``InputContractError`` or one of the
package's other error types), and the CLI turns exactly those into an
``Error:`` line, so that anything else shows its traceback."""

import ast
from pathlib import Path

import backproc
from backproc.cli import DOMAIN_ERRORS

SRC = Path(backproc.__file__).parent
BLANKET = {"ValueError", "RuntimeError", "Exception"}

# (module, enclosing function) of a blanket raise that guards an internal
# invariant, never an input, with the reason; none at present
ALLOWED: dict[tuple[str, str], str] = {}


def _blanket_raises(path: Path):
    """(function, line, type) of each ``raise`` of a blanket type in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    enclosing = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                enclosing.setdefault(inner, node.name)  # ast.walk meets outer functions first
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
