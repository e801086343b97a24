import inspect
import json
import sys

import pytest

import jacwall.cli as cli
from jacwall import errors
from jacwall.cli import main
from jacwall.divisor_classes import ClassComparison

PATH_GRAPH = {
    "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}, {"id": "v3", "genus": 1}],
    "edges": [["v1", "v2"], ["v2", "v3"]],
    "markings": {"1": "v1", "2": "v3"},
}

PHI_32 = {
    "g": 3,
    "n": 2,
    "coords": [
        {"i": 0, "S": [1, 2], "phi_plus": 0},
        {"i": 1, "S": [1], "phi_plus": "3/10"},
        {"i": 1, "S": [1, 2], "phi_plus": 0},
        {"i": 2, "S": [1], "phi_plus": "11/10"},
        {"i": 2, "S": [1, 2], "phi_plus": 0},
    ],
}

CANONICAL_22 = {
    "g": 2,
    "n": 2,
    "coords": [
        {"i": 0, "S": [1, 2], "phi_plus": "-1/2"},
        {"i": 1, "S": [1], "phi_plus": "1/2"},
        {"i": 1, "S": [1, 2], "phi_plus": "1/2"},
    ],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# -- polytope ------------------------------------------------------------------


def test_polytope_from_degrees(capsys):
    assert main(["polytope", "--g", "2", "--n", "2", "--from-degrees", "3,-2"]) == 0
    out = capsys.readouterr().out
    assert "(0,{1,2})  1" in out
    assert "(1,{1})    3" in out
    assert "theta-flat: false" in out


def test_polytope_json_golden(capsys):
    assert main(["polytope", "--g", "2", "--n", "2", "--from-degrees", "3,-2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == [
        {"S": [1, 2], "d": 1, "i": 0},
        {"S": [1], "d": 3, "i": 1},
        {"S": [1, 2], "d": 1, "i": 1},
    ]
    assert payload["theta_flat"] is False and payload["nondegenerate"] is True


def test_polytope_degenerate_names_wall(tmp_path, capsys):
    phi = write(tmp_path, "canonical.json", CANONICAL_22)
    assert main(["polytope", "--g", "2", "--n", "2", "--phi", phi]) == 3
    err = capsys.readouterr().err
    assert "(0,{1,2})" in err and "d=-1" in err and "d=0" in err


def test_polytope_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["polytope", "--g", "2", "--n", "2", "--phi", str(bad)]) == 2
    assert main(["polytope", "--g", "2", "--n", "2", "--from-degrees", "1,x"]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["polytope", "--g", "2", "--n", "2", "--phi", missing]) == 2
    capsys.readouterr()


def test_polytope_from_label_file(tmp_path, capsys):
    label = {
        "g": 2,
        "n": 2,
        "label": [
            {"i": 0, "S": [1, 2], "d": 0},
            {"i": 1, "S": [1], "d": 1},
            {"i": 1, "S": [1, 2], "d": 1},
        ],
    }
    path = write(tmp_path, "label.json", label)
    assert main(["polytope", "--g", "2", "--n", "2", "--from-label", path]) == 0
    out = capsys.readouterr().out
    assert "theta-flat: true" in out and "theta-reduced: true" in out


# -- stable-degree ----------------------------------------------------------------


def test_stable_degree_path(tmp_path, capsys):
    graph = write(tmp_path, "graph.json", PATH_GRAPH)
    phi = write(tmp_path, "phi.json", PHI_32)
    assert main(["stable-degree", "--graph", graph, "--phi", phi, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "v1      3/10  0" in out
    assert "v2      4/5   1" in out
    assert "v3      9/10  1" in out
    assert "verified: true" in out


def test_stable_degree_verify_json(tmp_path, capsys, monkeypatch):
    args = ["stable-degree", "--graph", write(tmp_path, "graph.json", PATH_GRAPH)]
    args += ["--phi", write(tmp_path, "phi.json", PHI_32), "--verify", "--json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    monkeypatch.setattr(cli, "all_stable_multidegrees_bruteforce", lambda pG, strict: [])
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["verified"] is False
    assert err == "error: brute force disagrees with the tree solver\n"


def test_stable_degree_two_vertex_from_degrees(tmp_path, capsys):
    graph = write(
        tmp_path,
        "tv.json",
        {
            "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}],
            "edges": [["v1", "v2"]],
            "markings": {"1": "v1", "2": "v2"},
        },
    )
    assert main(["stable-degree", "--graph", graph, "--from-degrees", "3,-2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == {"v1": 3, "v2": -2}


def test_stable_degree_rejects_positive_rank(tmp_path, capsys):
    graph = write(
        tmp_path,
        "cycle.json",
        {
            "vertices": [{"id": "a", "genus": 1}, {"id": "b", "genus": 1}],
            "edges": [["a", "b"], ["a", "b"]],
            "markings": {"1": "a", "2": "b"},
        },
    )
    assert main(["stable-degree", "--graph", graph, "--from-degrees", "1,1"]) == 4
    capsys.readouterr()


def test_stable_degree_degenerate_exit(tmp_path, capsys):
    graph = write(
        tmp_path,
        "tv.json",
        {
            "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}],
            "edges": [["v1", "v2"]],
            "markings": {"1": "v1", "2": "v2"},
        },
    )
    phi = write(tmp_path, "canonical.json", CANONICAL_22)
    assert main(["stable-degree", "--graph", graph, "--phi", phi]) == 3
    capsys.readouterr()


# -- pullback and wall-cross --------------------------------------------------------


def test_pullback_defaults_to_degree_parameter(capsys):
    assert main(["pullback", "--g", "2", "--n", "2", "--degrees", "3,-2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == "-1"
    assert payload["psi"] == {"1": "6", "2": "1"}
    assert payload["delta"] == []


def test_pullback_bad_degrees_exit(capsys):
    assert main(["pullback", "--g", "2", "--n", "2", "--degrees", "1,1"]) == 5
    capsys.readouterr()


def test_wall_cross_golden(capsys):
    assert (
        main(
            [
                "wall-cross",
                "--g",
                "2",
                "--n",
                "2",
                "--phi1",
                "fromdeg:3,-2",
                "--phi2",
                "label:0,1,1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "delta_(0,{1,2})  -1" in out
    assert "delta_(1,{1})    -3" in out


def test_wall_cross_canonical_is_degenerate(capsys):
    assert (
        main(["wall-cross", "--g", "2", "--n", "2", "--phi1", "canonical", "--phi2", "label:0,1,1"])
        == 3
    )
    capsys.readouterr()


# -- compare --------------------------------------------------------------------------


def test_compare_g2n2(capsys):
    assert main(["compare", "--g", "2", "--n", "2", "--degrees", "3,-2"]) == 0
    out = capsys.readouterr().out
    assert "T: (empty)" in out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_compare_g3n3_reports_t_set(capsys):
    assert main(["compare", "--g", "3", "--n", "3", "--degrees", "1,2,-1"]) == 0
    out = capsys.readouterr().out
    assert "T: (2,{1}), (3,{1})" in out
    assert "FAIL" not in out


def test_compare_mueller_only_requires_negative(capsys):
    assert main(["compare", "--g", "2", "--n", "2", "--degrees", "1,0", "--mueller"]) == 5
    capsys.readouterr()
    assert main(["compare", "--g", "2", "--n", "2", "--degrees", "1,0"]) == 0
    out = capsys.readouterr().out
    assert "mueller class undefined" in out


def test_compare_json_deterministic(capsys):
    args = ["compare", "--g", "3", "--n", "3", "--degrees", "1,2,-1", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["identities"] == {
        "pullback(phi_dvec) has no boundary terms": True,
        "pullback(flat phi) = stable-pairs": True,
        "hain = stable-pairs + delta_irr/8": True,
        "mueller + diff = stable-pairs": True,
    }
    assert payload["T"] == [{"i": 2, "S": [1]}, {"i": 3, "S": [1]}]


# -- error mapping and strict input ------------------------------------------------------

EXIT_CODES = {
    "MalformedInput": 2,
    "InvalidGN": 2,
    "InvalidParameter": 2,
    "DegenerateParameter": 3,
    "NotTreeLike": 4,
    "LoopEdge": 4,
    "InvalidGraph": 4,
    "GraphMismatch": 4,
    "DegreeSumMismatch": 5,
    "NoNegativeDegree": 5,
    "InadmissiblePair": 5,
    "NonAmple": 5,
    "EmptySubset": 5,
    "EmptyOrFullSubset": 5,
    "BasisMismatch": 5,
}
ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.JacwallError) and cls is not errors.JacwallError
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_exit_code(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]


def test_main_maps_any_error_to_its_exit_code(monkeypatch, capsys):
    for cls in ERROR_CLASSES:
        def boom(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "_cmd_polytope", boom)
        assert main(["polytope", "--g", "2", "--n", "2", "--from-degrees", "1,0"]) == cls.exit_code
        assert capsys.readouterr().err == "error: boom\n"


def test_from_degrees_rejects_underscore(capsys):
    assert main(["polytope", "--g", "2", "--n", "2", "--from-degrees=1_0,-9", "--json"]) == 2
    assert "integer list" in capsys.readouterr().err


def test_graph_marking_key_with_underscore_exits_2(tmp_path, capsys):
    lax = dict(PATH_GRAPH, markings={"0_1": "v1", "2": "v3"})
    graph = write(tmp_path, "lax.json", lax)
    assert main(["stable-degree", "--graph", graph, "--from-degrees", "1,1", "--json"]) == 2
    assert "marking keys must be integers" in capsys.readouterr().err


def test_repeated_vertex_id_is_named(tmp_path, capsys):
    dup = dict(PATH_GRAPH, vertices=PATH_GRAPH["vertices"] + [{"id": "v1", "genus": 0}])
    graph = write(tmp_path, "dup.json", dup)
    assert main(["stable-degree", "--graph", graph, "--from-degrees", "1,1"]) == 2
    assert "vertex id 'v1' is given twice" in capsys.readouterr().err


def test_parameter_with_complement_spelling_twice_exits_2(tmp_path, capsys):
    twice = dict(CANONICAL_22, coords=CANONICAL_22["coords"] + [{"i": 1, "S": [2], "phi_plus": "7/3"}])
    phi = write(tmp_path, "twice.json", twice)
    assert main(["polytope", "--g", "2", "--n", "2", "--phi", phi, "--json"]) == 2
    assert "given twice" in capsys.readouterr().err


def test_repeated_json_key_exits_2(tmp_path, capsys):
    # json.load alone keeps the last value, which would put marking 2 on v1 and exit 0
    graph = tmp_path / "dupkey.json"
    graph.write_text(
        '{"vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}],'
        ' "edges": [["v1", "v2"]], "markings": {"1": "v1", "2": "v2", "2": "v1"}}',
        encoding="utf-8",
    )
    assert main(["stable-degree", "--graph", str(graph), "--from-degrees", "1,0"]) == 2
    assert "key '2' is given twice" in capsys.readouterr().err


def test_parameter_file_for_other_gn_exits_2(tmp_path, capsys):
    phi = write(tmp_path, "phi32.json", PHI_32)
    expected = "parameter file has (g,n)=(3,2), expected (2,2)"
    assert main(["polytope", "--g", "2", "--n", "2", "--phi", phi]) == 2
    assert expected in capsys.readouterr().err
    for spec in (phi, "file:" + phi):
        assert main(["wall-cross", "--g", "2", "--n", "2", "--phi1", spec, "--phi2", "label:0,1,1"]) == 2
        assert expected in capsys.readouterr().err


def test_label_file_for_other_gn_exits_2(tmp_path, capsys):
    label = {"g": 2, "n": 2, "label": [{"i": 0, "S": [1, 2], "d": 0}, {"i": 1, "S": [1], "d": 1}]}
    label["label"].append({"i": 1, "S": [1, 2], "d": 1})
    path = write(tmp_path, "label22.json", label)
    assert main(["polytope", "--g", "3", "--n", "2", "--from-label", path]) == 2
    assert capsys.readouterr().err == "error: label file has (g,n)=(2,2), expected (3,2)\n"


def test_label_spec_of_wrong_length_exits_2(capsys):
    assert main(["wall-cross", "--g", "2", "--n", "2", "--phi1", "label:0,1", "--phi2", "label:0,1,1"]) == 2
    assert capsys.readouterr().err == "error: label spec needs 3 entries for (g,n)=(2,2), got 2\n"


LABEL_22 = {
    "g": 2,
    "n": 2,
    "label": [{"i": 0, "S": [1, 2], "d": 0}, {"i": 1, "S": [1], "d": 1}, {"i": 1, "S": [1, 2], "d": 1}],
}
TWO_VERTEX = {
    "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}],
    "edges": [["v1", "v2"]],
    "markings": {"1": "v1", "2": "v2"},
}
POLYTOPE_22 = ["polytope", "--g", "2", "--n", "2"]
STABLE_DEGREE = ["stable-degree", "--from-degrees", "1,0", "--graph"]


def _coords_22(last: dict) -> dict:
    return dict(CANONICAL_22, coords=CANONICAL_22["coords"][:2] + [last])


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (POLYTOPE_22 + ["--phi"], None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
        (
            POLYTOPE_22 + ["--phi"],
            "{not json",
            "{path} is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (STABLE_DEGREE, '{"vertices": [], "markings": {"1": "v1", "1": "v2"}}', "JSON object key '1' is given twice"),
        (POLYTOPE_22 + ["--phi"], PHI_32, "parameter file has (g,n)=(3,2), expected (2,2)"),
        (["polytope", "--g", "3", "--n", "2", "--from-label"], LABEL_22, "label file has (g,n)=(2,2), expected (3,2)"),
        (
            STABLE_DEGREE,
            dict(TWO_VERTEX, vertices=[{"id": "v1", "genus": 0}, {"id": "v2", "genus": 1}]),
            "invalid graph: unstable: genus-0 vertex v1 has valence 1 and 1 markings",
        ),
        (
            POLYTOPE_22 + ["--phi"],
            _coords_22({"i": 9, "S": [1], "phi_plus": 0}),
            "invalid pair: pair (9,{1}) is not admissible for (g,n)=(2,2)",
        ),
        (
            POLYTOPE_22 + ["--phi"],
            dict(CANONICAL_22, coords=CANONICAL_22["coords"][:2]),
            "invalid parameter: coordinates must cover exactly the admissible pairs of (g,n)=(2,2);"
            " missing ['(1,{1,2})'], stray []",
        ),
        (
            POLYTOPE_22 + ["--from-label"],
            dict(LABEL_22, label=LABEL_22["label"][1:]),
            "invalid label: label must cover exactly the admissible pairs of (g,n)=(2,2);"
            " missing ['(0,{1,2})'], stray []",
        ),
        (
            POLYTOPE_22 + ["--phi"],
            _coords_22({"i": 1, "S": [1, 2], "phi_plus": "1/3x"}),
            "expected an integer or 'p/q' string, got '1/3x'",
        ),
        (
            POLYTOPE_22 + ["--phi"],
            _coords_22({"i": 1, "S": [1, 2], "phi_plus": 0.5}),
            "expected an integer or 'p/q' string, got 0.5",
        ),
    ],
    ids=[
        "unreadable",
        "invalid-json",
        "repeated-key",
        "parameter-other-gn",
        "label-other-gn",
        "invalid-graph",
        "invalid-pair",
        "invalid-parameter",
        "invalid-label",
        "bad-rational",
        "float",
    ],
)
def test_bad_input_file_exits_2_with_one_error_line(argv, content, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.replace('{path}', str(path))}\n")


@pytest.mark.parametrize(
    "command", [POLYTOPE_22, ["pullback", "--g", "2", "--n", "2", "--degrees", "1,0"]], ids=["polytope", "pullback"]
)
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--phi=", "cannot read : [Errno 2] No such file or directory: ''"),
        ("--from-degrees=", "expected a comma-separated integer list, got ''"),
    ],
    ids=["phi", "from-degrees"],
)
def test_empty_parameter_source_is_malformed(command, flag, message, capsys):
    # a flag that is given counts even when its value is empty; pullback must not fall back to --degrees
    assert main(command + [flag]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["compare", "--g", "3", "--n", "3", "--degrees=-1,2,1"], "degrees=-1,2,1)"),
        (["polytope", "--g", "2", "--n", "2", "--from-degrees=-2,3"], "(1,{1})    -2"),
    ],
    ids=["degrees", "from-degrees"],
)
def test_negative_first_degree_list_is_joined_to_its_flag(argv, shown, capsys):
    # argparse reads a separate value starting with "-" as an option; the README gives the "=" form
    assert main(argv) == 0
    assert shown in capsys.readouterr().out
    with pytest.raises(SystemExit) as spaced:
        main([*argv[:-1], *argv[-1].split("=")])
    assert spaced.value.code == 2 and "expected one argument" in capsys.readouterr().err


BIG = "1" + "0" * 5000  # more digits than int() reads from text by default


def test_degrees_over_the_digit_limit_exit_2(capsys):
    assert main(["pullback", "--g", "2", "--n", "2", "--degrees", f"{BIG},0"]) == 2
    assert capsys.readouterr() == ("", f"error: expected a comma-separated integer list, got '{BIG},0'\n")


def test_parameter_file_number_over_the_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"g": 2, "n": 2, "coords": [{"i": 0, "S": [1, 2], "phi_plus": ' + BIG + "}]}", encoding="utf-8")
    assert main(POLYTOPE_22 + ["--phi", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


def test_seed_over_the_digit_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("JACWALL_SEED", BIG)
    assert main(["check", "--trials", "0"]) == 2
    assert capsys.readouterr() == ("", f"error: JACWALL_SEED must be an integer, got {BIG!r}\n")


def test_deeply_nested_file_exits_2(tmp_path, capsys):
    # the JSON decoder gives up on deep nesting with RecursionError, which is not a ValueError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(POLYTOPE_22 + ["--phi", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


_3000 = 10**2999  # 3,000 digits, under the limit on reading; the results come out longer
_4300 = 10**4300 - 1  # the longest integer that can be read
BIG_RESULT = [
    ["pullback", "--g", "2", "--n", "2", "--degrees", f"{_3000},{1 - _3000}"],
    ["compare", "--g", "2", "--n", "2", "--degrees", f"{_3000},{1 - _3000}"],
    ["polytope", "--g", "2", "--n", "4", "--from-degrees", f"{_4300},{_4300},{-_4300},{1 - _4300}"],
    ["wall-cross", "--g", "2", "--n", "4", "--phi1", f"fromdeg:{_4300},{_4300},{-_4300},{1 - _4300}",
     "--phi2", "fromdeg:1,0,0,0"],
]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", BIG_RESULT, ids=["pullback", "compare", "polytope", "wall-cross"])
def test_result_over_the_digit_limit_exits_2_with_nothing_printed(argv, json_flag, capsys):
    limit = sys.get_int_max_str_digits()
    assert main(argv + json_flag) == 2
    assert capsys.readouterr() == (
        "", f"error: a result has over {limit} digits, Python's limit for writing an integer\n"
    )


def test_degree_sum_past_the_digit_limit_exits_5_with_its_digit_count(capsys):
    # formatting the wrong sum of two 4,300-digit degrees raised ValueError, exit 1 with a traceback
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    assert main(["pullback", "--g", "2", "--n", "2", "--degrees", f"{nines},{nines}"]) == 5
    assert capsys.readouterr() == ("", (
        f"error: degrees must sum to g-1 = 1, got a number with {limit + 1} digits,"
        f" over Python's {limit}-digit limit for writing an integer\n"
    ))


def test_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"g": 2, "\xff": 1}')
    assert main(POLYTOPE_22 + ["--phi", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path} is not valid JSON: 'utf-8' codec can't decode")


@pytest.mark.parametrize("seed", ["abc", "1_0", ""])
def test_check_rejects_bad_seed(seed, capsys, monkeypatch):
    monkeypatch.setenv("JACWALL_SEED", seed)
    assert main(["check", "--trials", "1", "--max-vertices", "2"]) == 2
    assert capsys.readouterr().err == f"error: JACWALL_SEED must be an integer, got {seed!r}\n"


# -- check ------------------------------------------------------------------------------


def test_check_runs_clean(capsys, monkeypatch):
    monkeypatch.setenv("JACWALL_SEED", "7")
    assert main(["check", "--trials", "3", "--max-vertices", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "-3", "--trials must be a nonnegative integer, got -3"),
        ("--max-vertices", "-1", "--max-vertices must be a positive integer, got -1"),
        ("--max-vertices", "0", "--max-vertices must be a positive integer, got 0"),
    ],
    ids=["negative-trials", "negative-max-vertices", "zero-max-vertices"],
)
def test_check_rejects_bad_counts_before_any_output(flag, value, message, capsys):
    # --trials -3 used to pass with 0 cases; --max-vertices -1 failed only after two sweeps had printed
    assert main(["check", "--trials", "1", "--max-vertices", "2", flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_check_with_zero_trials_runs_the_corpus_sweep(capsys, monkeypatch):
    monkeypatch.setenv("JACWALL_SEED", "7")
    assert main(["check", "--trials", "0", "--max-vertices", "2"]) == 0
    assert capsys.readouterr().out == (
        "PASS wall-crossing consistency (0 cases)\n"
        "PASS class identities (0 cases)\n"
        "PASS unique stable multidegree (25 cases)\n"
    )


@pytest.mark.parametrize(
    "name, fake, failing",
    [
        ("wall_crossing", lambda phi1, phi2: None, 0),
        ("compare_classes", lambda g, n, degrees: ClassComparison({}, None, None, [("forced", False)]), 1),
        ("stable_multidegree", lambda pG: None, 2),
    ],
)
def test_check_reports_a_forced_failure(name, fake, failing, capsys, monkeypatch):
    monkeypatch.setenv("JACWALL_SEED", "7")
    monkeypatch.setattr(cli, name, fake)
    assert main(["check", "--trials", "2", "--max-vertices", "2"]) == 1
    sweeps = ["wall-crossing consistency (6", "class identities (6", "unique stable multidegree (25"]
    expected = [f"{'FAIL' if k == failing else 'PASS'} {sweep} cases)\n" for k, sweep in enumerate(sweeps)]
    assert capsys.readouterr() == ("".join(expected), "")


def test_check_seed_determinism(capsys, monkeypatch):
    monkeypatch.setenv("JACWALL_SEED", "11")
    assert main(["check", "--g", "2", "--n", "2", "--trials", "2", "--max-vertices", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--g", "2", "--n", "2", "--trials", "2", "--max-vertices", "2"]) == 0
    assert capsys.readouterr().out == first


def test_json_outputs_are_byte_identical(tmp_path, capsys):
    graph = write(tmp_path, "graph.json", PATH_GRAPH)
    phi = write(tmp_path, "phi.json", PHI_32)
    args = ["stable-degree", "--graph", graph, "--phi", phi, "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
