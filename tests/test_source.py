"""Properties of the library source itself."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import lineflags

PACKAGE = Path(lineflags.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_no_assert_in_the_library():
    """Checks must survive ``python -O``, which strips ``assert``."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _exports(path, tree):
    """The names the module at ``path`` lists in ``__all__``, or () without
    one: a submodule's literal list, and the list the package builds."""
    if path.name == "__init__.py":
        return lineflags.__all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return ()


def _unused_imports(path, tree):
    """Names the module imports but neither uses nor lists in ``__all__``;
    ``from .m import *`` imports the names ``m`` exports."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*":
                    star = PACKAGE / f"{node.module}.py"
                    names = _exports(star, ast.parse(star.read_text(), filename=str(star)))
                else:
                    names = [alias.asname or alias.name]
                imported.update(dict.fromkeys(names, node.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exports(path, tree))
    return [(line, name) for name, line in imported.items() if name not in used]


def test_every_import_is_used_or_exported():
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in _unused_imports(path, ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _defined(tree):
    """The names a module binds at its top level by a definition or an
    assignment, not by an import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_every_exported_name_is_defined_where_it_is_exported():
    """Each submodule defines every name of its ``__all__``, and the
    package re-exports whole lists by ``from .m import *`` without
    spelling a public name, so a deleted function cannot leave a stale
    entry behind and a public name is listed once."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    package = trees.pop(PACKAGE / "__init__.py")
    owner = {}
    for path, tree in trees.items():
        names = _exports(path, tree)
        assert len(names) == len(set(names)), path.name
        assert set(names) - _defined(tree) == set(), path.name
        owner.update(dict.fromkeys(names, path.stem))
    assert len(lineflags.__all__) == len(set(lineflags.__all__))
    for name in lineflags.__all__:
        module = importlib.import_module(f"lineflags.{owner[name]}")
        assert getattr(lineflags, name) is getattr(module, name), name
    imports = [a for n in ast.walk(package) if isinstance(n, ast.ImportFrom) for a in n.names]
    spelled = {node.value for node in ast.walk(package) if isinstance(node, ast.Constant)}
    spelled |= set(_references(package)) | {a.asname or a.name for a in imports}
    assert spelled & set(lineflags.__all__) == set()


def _references(tree):
    """The names a tree refers to, as plain names or as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_helper_is_called():
    """A module-level ``_name`` function or class is referenced somewhere
    in the library outside its own definition, so no helper is left
    without callers."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    uses = Counter(name for tree in trees for name in _references(tree))
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in zip(SOURCES, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and uses[node.name] == Counter(_references(node))[node.name]
    ]
    assert found == []


def _calls(tree, names):
    """The calls in a tree of any of ``names``, as plain names or as
    attributes."""
    return [
        f"{node.lineno} {name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in names
    ]


def test_the_move_kernel_calls_no_validating_helper():
    """``normalize_decoration`` checks its input, so the per-orbit view
    of ``moves`` answers its question instead."""
    path = Path(lineflags.__file__).parent / "moves.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _calls(tree, ("normalize_decoration",)) == []


def test_the_degeneration_proof_calls_no_validating_helper():
    """``apply_move`` has validated both orbits of a family, so the proof
    in ``verify_move_degeneration`` reads their ranks and builds its
    standard configuration without checking them again."""
    path = Path(lineflags.__file__).parent / "witness.py"
    proof = {
        "verify_move_degeneration",
        "_family_det",
        "_p_det",
        "_p_mul",
        "_rational_root",
        "_standard",
        "_tables_of",
        "_unit_slots",
        "_adapted_slots",
    }
    functions = [
        node
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name in proof
    ]
    assert {node.name for node in functions} == proof
    validating = ("raise_if_invalid", "rank_table", "standard_configuration")
    assert [call for node in functions for call in _calls(node, validating)] == []


def _reached(trees, start):
    """The names of the calls reachable from the library function
    ``start``, following every call by name through the library's
    function and class definitions, nested ones too."""
    defs = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [call.split()[1] for node in defs.get(name, ()) for call in _calls(node, defs)]
    return seen


def test_the_oracle_reads_orbits_from_slot_counts():
    """Identification and the degeneration proof compare and invert the
    slot counts of ``_tables_of``; neither builds a rank table nor
    inverts one, at any depth of calls.  Inverting the two tables shares
    the reading of an orbit from its counts, ``_orbit_of``."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    tables = {
        "decorated_from_tables",
        "geometric_rank_tables",
        "_rank_table",
    }
    assert "_tables_of" in _reached(trees, "identify_orbit")
    assert "_tables_of" in _reached(trees, "verify_move_degeneration")
    assert _reached(trees, "identify_orbit") & tables == set()
    assert _reached(trees, "verify_move_degeneration") & tables == set()
    shared = _reached(trees, "identify_orbit") & _reached(trees, "decorated_from_tables")
    assert "_orbit_of" in shared
    assert "_rank_table" in _reached(trees, "geometric_rank_tables")


def test_each_mirror_pair_of_kinds_shares_one_checker():
    """Swapping the flags takes IIIa to IIIb and IVb to IVc; each pair is
    one checker bound to its two orientations, so neither can fork."""
    from lineflags.moves import _TRY

    assert _TRY["IIIa"].func is _TRY["IIIb"].func
    assert _TRY["IVb"].func is _TRY["IVc"].func


def test_only_apply_move_checks_the_anchor_shape():
    """``apply_move`` checks the number of anchors and their place in the
    grid for every kind, from one table; no checker states either clause
    again, nor does the rectangle clause that kind II shares."""
    from lineflags.moves import _SHAPE, _TRY

    clauses = {clause for _, _, clause in _SHAPE.values()} | {"anchor outside the grid"}
    checkers = {getattr(fn, "func", fn).__name__ for fn in _TRY.values()} | {"_rectangle_clause"}
    seen, stated = set(), []
    for name in ("moves.py", "twoflags.py"):
        path = PACKAGE / name
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name in checkers:
                seen.add(node.name)
                stated += [
                    f"{node.name}:{text.lineno} {text.value}"
                    for text in ast.walk(node)
                    if isinstance(text, ast.Constant) and isinstance(text.value, str)
                    and (text.value in clauses or text.value.startswith("expected "))
                ]
    assert seen == checkers
    assert stated == []


def test_only_fractions_and_json_are_imported_below_module_level():
    """A module imported inside a function is loaded on first use, not at
    start-up.  Only ``fractions``, for ``Fraction`` input, and ``json``,
    where JSON is read or written, are deferred so; any other import
    belongs at the top of its module."""
    deferred = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        kinds = (ast.Import, ast.ImportFrom)
        imports = {n for fn in functions for n in ast.walk(fn) if isinstance(n, kinds)}
        for node in sorted(imports, key=lambda n: n.lineno):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = ["." * node.level + (node.module or "")]
            deferred += [(f"{path.name}:{node.lineno}", name) for name in names]
    allowed = {"fractions", "json"}
    assert [f"{at} {name}" for at, name in deferred if name not in allowed] == []
    assert {name for _, name in deferred} == allowed
