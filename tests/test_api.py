"""The public API stays small: ``omnisim.__all__`` is the whole of it."""

import ast
from pathlib import Path

import omnisim

MAX_PUBLIC_NAMES = 51  # ROADMAP: the public API gets smaller, not larger


def test_public_api_is_bounded_and_resolves():
    names = set(omnisim.__all__)
    assert len(names) == len(omnisim.__all__), "duplicate names in __all__"
    assert len(names) <= MAX_PUBLIC_NAMES
    missing = [name for name in names if not hasattr(omnisim, name)]
    assert not missing


def test_integer_checks_have_one_owner():
    """Only ``errors.require_int`` asks ``isinstance(..., np.integer)``, so
    no hand-written integer check (which takes a bool for a count) creeps back."""
    offenders = []
    for path in sorted(Path(omnisim.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "integer"
                            for sub in ast.walk(node.args[1]))):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"hand-written integer checks: {offenders}"
