"""Docstring coverage enforcement for the documented public surface.

The MkDocs API reference (mkdocstrings) renders ``repro.api``,
``repro.specs``, ``repro.store``, ``repro.experiments.base`` and the
engine's kernel, scheduler, sweep and vector modules; an undocumented
public object there is a hole in the site.  This test walks those modules with ``ast`` (no extra
dependency needed locally) and requires a docstring on **every** public
module, class, method and function -- the same 100% threshold the
``interrogate`` CI step enforces.

Private names (leading underscore) are exempt, as are nested function
definitions (implementation details) and ``__dunder__`` methods --
including ``__init__``, whose parameters this codebase documents in the
class docstring (the numpy convention mkdocstrings renders via
``merge_init_into_class``); the ``interrogate`` CI step mirrors that
with ``--ignore-init-method``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose public surface must be fully documented.
ENFORCED = [
    SRC / "api.py",
    SRC / "specs.py",
    SRC / "store.py",
    SRC / "experiments" / "base.py",
    SRC / "engine" / "sweep.py",
    SRC / "engine" / "vector.py",
    SRC / "engine" / "shard.py",
    SRC / "engine" / "__init__.py",
    SRC / "engine" / "capability.py",
    SRC / "engine" / "kernel.py",
    SRC / "engine" / "scheduler.py",
    SRC / "lint" / "__init__.py",
    SRC / "lint" / "diagnostics.py",
    SRC / "lint" / "rules.py",
    SRC / "lint" / "runner.py",
]


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_docstrings(path: Path):
    tree = ast.parse(path.read_text())
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{path.name}: module docstring")

    def walk(node, qualifier: str, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                relevant = (
                    not inside_function
                    and _is_public(name)
                    and not name.startswith("__")
                )
                if relevant and ast.get_docstring(child) is None:
                    missing.append(f"{path.name}:{child.lineno} {qualifier}{name}")
                walk(child, f"{qualifier}{name}.", True)
            elif isinstance(child, ast.ClassDef):
                if _is_public(child.name) and ast.get_docstring(child) is None:
                    missing.append(
                        f"{path.name}:{child.lineno} {qualifier}{child.name}"
                    )
                # Methods of private classes stay exempt along with their
                # class; public classes get their public methods checked.
                if _is_public(child.name):
                    walk(child, f"{qualifier}{child.name}.", inside_function)

    walk(tree, "", False)
    return missing


@pytest.mark.parametrize("path", ENFORCED, ids=lambda p: str(p.relative_to(SRC)))
def test_public_surface_is_fully_documented(path):
    missing = _missing_docstrings(path)
    assert not missing, (
        "undocumented public objects (add real docstrings, not stubs):\n  "
        + "\n  ".join(missing)
    )
