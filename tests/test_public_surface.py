"""Every public function and class of ldpma, every module constant and
every defaulted parameter has a caller outside unit tests.

A module-level public name (no leading underscore) in ``src/ldpma``, and a
module-level UPPER_CASE constant whether private or not, must be read by
another statement of ``src/``, by ``bench/``, by ``scripts/`` or by the
acceptance sweep; the few that stay for another reason are listed in
ALLOWED with that reason. Unit tests do not count: a function whose only
caller is its own test is code no experiment reaches, and a constant whose
only reader was deleted tunes nothing.

Likewise every parameter with a default, of any function or method in
``src/ldpma``, must be passed, by keyword or by position, by some call in
``src/``, ``bench/``, ``scripts/`` or the acceptance sweep to a function
of that name; an option no caller sets is a branch no run takes. A
defaulted dataclass field is such a parameter of its class: some call to
the class, or to ``dataclasses.replace``, must pass it by keyword. Those
that stay for another reason are listed in ALLOWED_DEFAULTS.
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


# function.parameter -> why its default stays although no caller passes it
ALLOWED_DEFAULTS = {
    "solve_master.initial": "the warm start a continuation in beta needs: "
                            "each solve starts from the last potential",
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


def defaulted_parameters(tree: ast.AST):
    """(function, parameter, index among the call's positional arguments,
    or None if keyword-only) per parameter with a default, nested
    functions and methods included; self and cls take no call position."""
    bound = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef)
             and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield fn.name, arg.arg, i - (id(fn) in bound)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def defaulted_fields(tree: ast.AST):
    """(class, field) per field with a default of a dataclass; a field
    declared with init=False takes no argument and is skipped."""
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list)):
            continue
        for stmt in cls.body:
            if not (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    and isinstance(stmt.target, ast.Name)):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and any(
                    k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords):
                continue
            yield cls.name, stmt.target.id


def passes(call: ast.Call, parameter: str, position) -> bool:
    """Whether a call sets the parameter: by keyword, by position, or
    possibly through * or ** unpacking."""
    keywords = {k.arg for k in call.keywords}
    return (parameter in keywords or None in keywords
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = {}  # callee name -> the calls to it
    for path in [*sorted(SRC.glob("*.py")), *READERS]:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                calls.setdefault(name, []).append(node)
    # (module, function or class, parameter, call position, callees that
    # may set it); a dataclass field may also be set by dataclasses.replace
    defaults = [(path.stem, fn, parameter, position, (fn,))
                for path in sorted(SRC.glob("*.py"))
                for fn, parameter, position in defaulted_parameters(
                    ast.parse(path.read_text("utf-8")))]
    defaults += [(path.stem, cls, field, None, (cls, "replace"))
                 for path in sorted(SRC.glob("*.py"))
                 for cls, field in defaulted_fields(
                     ast.parse(path.read_text("utf-8")))]
    unset = [f"{module}.{fn}.{parameter}"
             for module, fn, parameter, position, setters in defaults
             if f"{fn}.{parameter}" not in ALLOWED_DEFAULTS
             and not any(passes(call, parameter, position)
                         for name in setters for call in calls.get(name, []))]
    assert not unset, (
        f"defaulted parameters that no call in src/, bench/, scripts/ or "
        f"the acceptance sweep passes: {unset}; delete the option or list "
        f"it in ALLOWED_DEFAULTS with a reason")
    assert set(ALLOWED_DEFAULTS) <= {f"{fn}.{parameter}"
                                     for _, fn, parameter, _, _ in defaults}
