"""Every public function and class of ldpma, and every module constant,
has a caller outside unit tests.

A module-level public name (no leading underscore) in ``src/ldpma``, and a
module-level UPPER_CASE constant whether private or not, must be read by
another statement of ``src/``, by ``bench/``, by ``scripts/`` or by the
acceptance sweep; the few that stay for another reason are listed in
ALLOWED with that reason. Unit tests do not count: a function whose only
caller is its own test is code no experiment reaches, and a constant whose
only reader was deleted tunes nothing.
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
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")

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


def defined_name(stmt: ast.stmt):
    """The name a module-level def, class or constant defines, else None."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return None if stmt.name.startswith("_") else stmt.name
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    if len(names) == 1 and CONSTANT.fullmatch(names[0]):
        return names[0]
    return None


def public_definitions():
    """(module, name, names the rest of src reads) per public def/class and
    per module constant."""
    pieces = []  # (module, defined name or None, names the statement reads)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            pieces.append((path.stem, defined_name(stmt), read_names(stmt)))
    for module, defined, _ in pieces:
        if defined is None:
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
        f"public names and constants that no definition in src/, bench/, "
        f"scripts/ or the acceptance sweep reads: {orphans}; delete them or "
        f"list them in ALLOWED with a reason")
    assert set(ALLOWED) <= {name for _, name, _ in definitions}
