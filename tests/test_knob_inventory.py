"""The knob inventory: function parameters with a default over the package.

Every such parameter is a setting that tests and benchmarks would have to
cover.  The count may fall, never rise: a value that one caller needs is a
module constant, not a parameter.
"""

import ast
from pathlib import Path

import morphrec

# the inventory the ROADMAP keeps; lower it when a knob goes
MAX_DEFAULTED_PARAMETERS = 22


def _defaulted_parameters(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            out += [f"{name}({a.arg})" for a in named]
    return out


def test_defaulted_parameters_do_not_grow():
    src = Path(morphrec.__file__).parent
    knobs = []
    for path in sorted(src.glob("*.py")):
        knobs += [f"{path.name}:{k}" for k in _defaulted_parameters(ast.parse(path.read_text()))]
    assert len(knobs) <= MAX_DEFAULTED_PARAMETERS, knobs
