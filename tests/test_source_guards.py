"""Guards over the library source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "jacwall").glob("*.py"))


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
    found = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "maxsize=None" in line
    ]
    assert SOURCES, "no library sources found"
    assert found == []


def test_only_graphs_maps_pairs_to_positions():
    # the position of a pair in every pair-indexed vector is decided by graphs.pair_index alone
    found = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        if path.name != "graphs.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "enumerate(admissible_pairs(" in line
    ]
    assert SOURCES, "no library sources found"
    assert found == []


def test_library_makes_no_linear_preorder_lookups():
    # tuple.index is a linear scan; called per vertex it made the rank-0 tree routes O(V^2)
    found = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "order.index(" in line
    ]
    assert SOURCES, "no library sources found"
    assert found == []


def test_integer_checks_have_one_spelling():
    # bool is an int subclass; "an int but not a bool" is spelled type(x) is int, as in check_gn
    found = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "isinstance(" in line and "bool" in line
    ]
    assert SOURCES, "no library sources found"
    assert found == []


def test_only_jsonio_loads_json():
    # jsonio is the one input boundary: file loading and its repeated-key rule live there alone
    found = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        if path.name != "jsonio.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "json.load" in line
    ]
    assert SOURCES, "no library sources found"
    assert found == []


def test_only_graphs_reads_marking_masks():
    # how a side S is encoded as a mask is known to graphs alone; every d_S comes from graphs.side_sums
    found = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        if path.name != "graphs.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "_pair_by_key" in line or " in pair.S" in line
    ]
    assert SOURCES, "no library sources found"
    assert found == []
