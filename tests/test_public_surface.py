"""Every public function and class of ldpma has a caller outside unit tests.

A module-level public name (no leading underscore) in ``src/ldpma`` must be
read by another statement of ``src/``, by ``bench/``, by ``scripts/`` or by
the acceptance sweep; the few that stay for another reason are listed in
ALLOWED with that reason. Unit tests do not count: a function whose only
caller is its own test is code no experiment reaches.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ldpma"
READERS = [*sorted((ROOT / "bench").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
DOTTED = re.compile(r"[A-Za-z_][\w.]*")

# public name -> why it stays although none of the readers above reads it
ALLOWED = {
    "rate_function_g": "the paper's rate function G; gprop_consistency's "
                       "certificates are checked against it",
}


def read_names(tree: ast.AST) -> set:
    """Identifiers a tree reads: names, attributes, imported names, and the
    parts of dotted string constants such as bench's traced names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def public_definitions():
    """(module, name, names the rest of src reads) per public def/class."""
    pieces = []  # (module, defined name or None, names the statement reads)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = (stmt.name if isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)) else None)
            pieces.append((path.stem, defined, read_names(stmt)))
    for module, defined, _ in pieces:
        if defined is None or defined.startswith("_"):
            continue
        others = set().union(*(reads for m, d, reads in pieces
                               if (m, d) != (module, defined)))
        yield module, defined, others


def test_every_public_name_has_a_caller():
    outside = set().union(*(read_names(ast.parse(p.read_text("utf-8")))
                            for p in READERS))
    definitions = list(public_definitions())
    orphans = [f"{module}.{name}" for module, name, src_reads in definitions
               if name not in src_reads | outside | set(ALLOWED)]
    assert not orphans, (
        f"public names that no definition in src/, bench/, scripts/ or the "
        f"acceptance sweep reads: {orphans}; delete them or list them in "
        f"ALLOWED with a reason")
    assert set(ALLOWED) <= {name for _, name, _ in definitions}
