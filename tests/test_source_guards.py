"""Guards over the library source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "jacwall").glob("*.py"))


def _lines_where(predicate, skip=None) -> list[str]:
    """'file:line' of every line of the library sources that the predicate holds for, outside the file skip."""
    assert SOURCES, "no library sources found"
    return [
        f"{path.name}:{lineno}"
        for path in SOURCES
        if path.name != skip
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if predicate(line)
    ]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library invariants must raise a JacwallError
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES, "no library sources found"
    assert found == []


def test_library_caches_are_bounded():
    # an unbounded cache keyed by (g, n) grows with every (g, n) a long-running process meets
    assert _lines_where(lambda line: "maxsize=None" in line) == []


def test_only_graphs_maps_pairs_to_positions():
    # the position of a pair in every pair-indexed vector is decided by graphs.pair_index alone
    assert _lines_where(lambda line: "enumerate(admissible_pairs(" in line, skip="graphs.py") == []


def test_library_makes_no_linear_preorder_lookups():
    # tuple.index is a linear scan; called per vertex it made the rank-0 tree routes O(V^2)
    assert _lines_where(lambda line: "order.index(" in line) == []


def test_integer_checks_have_one_spelling():
    # bool is an int subclass; "an int but not a bool" is spelled type(x) is int, as in check_gn
    assert _lines_where(lambda line: "isinstance(" in line and "bool" in line) == []


def test_only_jsonio_loads_json():
    # jsonio is the one input boundary: file loading and its repeated-key rule live there alone
    assert _lines_where(lambda line: "json.load" in line, skip="jsonio.py") == []


def test_only_graphs_reads_marking_masks():
    # how a side S is encoded as a mask is known to graphs alone; every d_S comes from graphs.side_sums
    assert _lines_where(lambda line: "_pair_by_key" in line or " in pair.S" in line, skip="graphs.py") == []


def test_container_types_come_from_collections_abc():
    # Iterable, Mapping and Sequence have one import source, and typing is not loaded at run time:
    # annotations are strings, record types are collections.namedtuple subclasses
    assert _lines_where(lambda line: line.lstrip().startswith(("import typing", "from typing "))) == []


def test_only_graphs_and_stability_walk_rooted_trees():
    # a graph parameter keeps the one walk from its first vertex; multidegrees reads it from there
    found = _lines_where(lambda line: "rooted_tree(" in line)
    assert [where for where in found if where.split(":")[0] not in ("graphs.py", "stability.py")] == []


def test_library_messages_write_values_through_repr_text():
    # !r in a message raised ValueError for a value holding an int over Python's digit limit, and
    # {sorted(...)} raised TypeError for values that do not compare; errors.sorted_text writes both
    assert _lines_where(lambda line: "!r}" in line or "{sorted(" in line) == []


def test_value_types_compare_one_way():
    # equality, hashing and the constructor from checked fields are graphs._Value's alone;
    # a value type gives only its _key(), so every value compares against its own type only
    protocol = ("__eq__", "__hash__", "_of")
    found = []
    for path in SOURCES:
        for owner in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            found += [
                (path.name, getattr(owner, "name", "<module>"), node.name, node.lineno)
                for node in ast.iter_child_nodes(owner)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in protocol
            ]
    outside = [
        f"{file}:{line} {owner}.{name}" for file, owner, name, line in found if (file, owner) != ("graphs.py", "_Value")
    ]
    assert outside == []
    assert [name for _, _, name, _ in found] == list(protocol)


# The paper's constructions that tests exercise as subjects, though no library code calls them.
PAPER_CONSTRUCTIONS = (
    "ell",
    "twist_label",
    "twist_parameter",
    "connecting_twist",
    "phi_from_slope",
    "two_vertex_graph",
    "twist_divisor_coeffs",
)


def _public_names() -> list[list[str]]:
    """The public module-level functions and classes of the library, and its public methods and properties."""
    module_level, members = [], []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                members += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module_level.append(node.name)
    return [[name for name in names if not name.startswith("_")] for names in (module_level, members)]


def _loaded_names(paths) -> tuple[set[str], set[str]]:
    """The names the code of the files reads as a bare name, and as an attribute (x.name)."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def test_every_public_name_has_a_reader():
    # a public name is read by library or benchmark code, or by the README, or is a paper construction;
    # only code counts: a name in a string or a comment, or assigned to, is not read.
    # A method or property is read as x.name, a module-level name as name or module.name.
    # An encoder X_to_json is read through its decoder X_from_json, whose format the CLI takes as input.
    names, attributes = _loaded_names([*SOURCES, *ROOT.glob("perfbench/*.py")])
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    module_level, members = _public_names()

    def read(name: str) -> bool:
        return name in names or name in attributes or bool(re.search(rf"\b{name}\b", readme)) or name in PAPER_CONSTRUCTIONS

    unread = [
        name
        for name in module_level
        if not (read(name) or name.endswith("_to_json") and read(name.removesuffix("_to_json") + "_from_json"))
    ]
    unread += [name for name in members if not (name in attributes or re.search(rf"\.{name}\b", readme))]
    assert module_level and members and unread == []


def test_jsonio_imports_only_errors_graphs_and_stability():
    # the input boundary reads no class or sheaf layer: class_to_json reads only a class's attributes
    tree = ast.parse((ROOT / "src" / "jacwall" / "jsonio.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported == {"errors", "graphs", "stability"}


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses loads inspect, ast, dis and tokenize, about 12 ms of every jacwall process start;
    # pytest itself imports all three, so the import runs in a fresh interpreter
    code = "import jacwall.cli, sys; print(sorted({'dataclasses', 'inspect', 'ast'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")
