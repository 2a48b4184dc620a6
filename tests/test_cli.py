"""End-to-end tests of the command-line interface."""

import hashlib
import io
import json

import pytest

import spherestress as ss
from spherestress import cli
from spherestress import linalg
from spherestress.verify import EXPLAIN


ORACLE_SHA256 = "0b237a4f71e20c9c567f16b64205800ff2e3c491a86a4bdc4421709c9fafed55"
# ``verify --explain --json``: every statement id with its text
EXPLAIN_SHA256 = "45ad7b6740de88225cd43ee5afac9c6d7b97310421029d43499911f3ef10d6ab"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_catalog_name(self, capsys):
        code, out, _ = run(capsys, "info", "K-2-5")
        assert code == 0
        assert "g     = [1, 2, 3, 1]" in out

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "info", "octahedron", "--json")
        doc = json.loads(out)
        assert doc["h"] == [1, 3, 3, 1]
        assert doc["class"] == "S(1,2)"
        assert doc["flag"] is True

    # two disjoint triangles and a 2-ball read as a sphere class, gamma,
    # flag and level; info says it has not checked that they are spheres
    @pytest.mark.parametrize("facets, readouts", [
        ([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]],
         ["gamma = [1, 2]", "class S(2,1)", "level up to degree 0 (guaranteed)"]),
        ([[1, 2, 3], [1, 3, 4]], ["class S(1,2)  [flag]", "level up to degree 1 (guaranteed)"]),
    ])
    def test_non_sphere_readouts_say_unchecked(self, facets, readouts, capsys, monkeypatch):
        tests = []
        spy = tests.append
        for name in ("is_z2_homology_sphere", "z2_reduced_betti"):
            monkeypatch.setattr(ss.complex_core, name, spy)
        monkeypatch.setattr(ss.stress, "is_z2_homology_sphere", spy)
        doc = json.dumps({"facets": facets})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "info", "-")
        assert code == 0
        assert all(r in out for r in readouts)
        assert "not checked to be a sphere: gamma, class, flag and level assume one" in out
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "info", "-", "--json")
        assert code == 0 and json.loads(out)["sphere_checked"] is False
        assert tests == []

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(capsys, "info", "zonotope-9000")
        assert code == 2
        assert "unknown" in err

    def test_file_and_stdin(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(ss.complex_to_json(ss.cycle(5), name="pentagon"))
        code, out, _ = run(capsys, "info", str(path))
        assert code == 0 and "pentagon" in out
        monkeypatch.setattr("sys.stdin", io.StringIO('{"facets": [[1,2],[2,3],[1,3]]}'))
        code, out, _ = run(capsys, "info", "-")
        assert code == 0 and "h     = [1, 1, 1]" in out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "info", str(path))
        assert code == 2 and "malformed" in err

    def test_malformed_stdin_names_its_source(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{broken"))
        code, out, err = run(capsys, "info", "-")
        assert code == 2 and out == "" and "malformed complex on stdin" in err

    @pytest.mark.parametrize("name", [[1, 2], 5, None, True])
    def test_non_string_name_exits_2(self, name, capsys, monkeypatch):
        doc = {"name": name, "facets": [[1, 2], [2, 3], [3, 1]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "info", "-", "--json")
        assert code == 2 and out == ""
        assert "malformed complex on stdin" in err and "'name' must be a string" in err

    def test_non_list_facets_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"facets": 5}'))
        code, _, err = run(capsys, "info", "-")
        assert code == 2 and "facets" in err

    def test_zero_denominator_coordinate_exits_2(self, capsys, monkeypatch):
        doc = {"facets": [[1, 2], [2, 3], [1, 3]],
               "coordinates": {"1": ["1/0"], "2": ["1"], "3": ["2"]}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, _, err = run(capsys, "info", "-")
        assert code == 2 and "zero denominator" in err

    @pytest.mark.parametrize("facets", [
        '[["a", 2], [2, 3], [3, "a"]]',
        '[[true, 2], [2, 3], [3, true]]',
        '[[1.5, 2], [2, 3], [3, 1.5]]',
        '[["a", "b"], ["b", "c"], ["c", "a"]]',
    ], ids=["mixed-str", "bool", "float", "str"])
    def test_non_integer_labels_exit_2(self, facets, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f'{{"facets": {facets}}}'))
        code, out, err = run(capsys, "info", "-")
        assert code == 2 and out == "" and "integers" in err

    @pytest.mark.parametrize("coordinates", [
        [1, 2],
        {"1": 5, "2": 6, "3": 7},
        {"1": [True], "2": [1], "3": [2]},
        {"1": [0.1], "2": [1], "3": [2]},
    ], ids=["non-object", "non-list", "bool", "float"])
    def test_bad_coordinates_exit_2(self, coordinates, capsys, monkeypatch):
        doc = {"facets": [[1, 2], [2, 3], [1, 3]], "coordinates": coordinates}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "stress", "-", "--degree", "1",
                             "--embedding", "natural")
        assert code == 2 and out == "" and "coordinates" in err

    @pytest.mark.parametrize("coordinates", [
        {"1": [], "2": [], "3": []},
        {"1": [0, 1, 2], "2": [1, 0, 2], "3": [1, 1, 2]},
    ], ids=["empty", "wrong-length"])
    def test_coordinate_lists_of_length_not_dim_plus_1_exit_2(self, coordinates, capsys,
                                                               monkeypatch):
        doc = {"facets": [[1, 2], [2, 3], [1, 3]], "coordinates": coordinates}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "socle", "-", "--embedding", "natural")
        assert code == 2 and out == "" and "dim + 1 = 2" in err

    @pytest.mark.parametrize("key", [" 1", "+2"], ids=["space", "plus"])
    def test_non_canonical_coordinate_keys_exit_2(self, key, capsys, monkeypatch):
        coordinates = {"1": [1, 0], "2": [0, 1], "3": [1, 1]}
        coordinates[key] = coordinates.pop(key.strip(" +"))
        doc = {"facets": [[1, 2], [2, 3], [1, 3]], "coordinates": coordinates}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "info", "-")
        assert code == 2 and out == "" and json.dumps(key) in err

    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_info", broken)
        code, out, err = run(capsys, "info", "octahedron")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == "" and err == "internal error: RuntimeError('boom')\n"


    def test_directory_target_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "info", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {tmp_path}: ")


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "K-2-5" in out and "polytope-1" in out

    def test_build_pipes_into_info(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "catalog", "build", "K", "2", "6")
        assert code == 0
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "info", "-")
        assert code == 0
        assert "g     = [1, 2, 3, 1]" in out2

    def test_build_includes_natural_coordinates(self, capsys):
        code, out, _ = run(capsys, "catalog", "build", "polytope", "1")
        doc = json.loads(out)
        assert doc["coordinates"]["1"][0] == "1/1"

    def test_build_bad_family_exits_2(self, capsys):
        code, _, err = run(capsys, "catalog", "build", "dodecahedron")
        assert code == 2


# A disk, the 7-vertex torus and a non-pure complex: none is a sphere.
NON_SPHERES = {
    "disk": [[1, 2, 3]],
    "torus": [[(i + a) % 7 + 1 for a in t] for i in range(7) for t in ((0, 1, 3), (0, 2, 3))],
    "non-pure": [[1, 2, 3], [3, 4]],
}


def assert_rejected(name, code, out, err):
    assert code == 2 and out == ""
    if name == "non-pure":
        assert err == "error: homology sphere test needs a pure complex\n"
    else:
        assert err.startswith(f"error: {name} is not a GF(2) homology sphere")


class TestStressAndSocle:
    def test_stress_dim_natural(self, capsys):
        code, out, _ = run(capsys, "stress", "polytope-1", "--degree", "3",
                           "--embedding", "natural")
        assert code == 0
        assert "= 1" in out and "g_3 = 1" in out

    def test_stress_json_with_basis(self, capsys):
        code, out, _ = run(capsys, "stress", "octahedron", "--degree", "1",
                           "--json", "--basis", "--seed", "5")
        doc = json.loads(out)
        assert doc["dim"] == 2 == doc["g_k"]
        assert len(doc["basis"]) == 2

    def test_degenerate_embedding_exits_3(self, capsys, degenerate_second_seed):
        # the second seed puts the octahedron's vertices in a plane, where
        # the degree-1 stresses jump from g_1 = 2 to 3
        code, _, err = run(capsys, "stress", "octahedron", "--degree", "1")
        assert code == 3
        assert "degenerate embedding: dims 2 (seed 17) vs 3" in err

    # the dimension comes from the certificates mod p; only a printed
    # basis is eliminated over Q
    @pytest.mark.parametrize("basis", [False, True], ids=["dim", "basis"])
    @pytest.mark.parametrize("argv, dim", [
        pytest.param(["cross-5", "--degree", "2"], 5, id="cross-5"),
        pytest.param(["polytope-1", "--degree", "3", "--embedding", "natural"], 1,
                     id="polytope-1-natural")])
    def test_only_the_basis_is_eliminated_over_q(self, capsys, monkeypatch, argv, dim, basis):
        eliminations = []
        real = linalg.kernel_basis

        def kernel_basis(rows, columns):
            eliminations.append(len(columns))
            return real(rows, columns)
        monkeypatch.setattr(linalg, "kernel_basis", kernel_basis)
        code, out, _ = run(capsys, "stress", *argv, "--json", *(["--basis"] if basis else []))
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == dim
        assert len(doc.get("basis", [])) == (dim if basis else 0)
        assert len(eliminations) == int(basis)

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_degree_below_one_exits_2(self, capsys, degree):
        code, out, err = run(capsys, "stress", "K-2-4", "--degree", degree)
        assert (code, out) == (2, "")
        assert err == "error: stress spaces are computed for degree k >= 1\n"

    def test_natural_unavailable_exits_2(self, capsys):
        code, _, err = run(capsys, "stress", "K-2-4", "--degree", "1",
                           "--embedding", "natural")
        assert code == 2

    def test_socle(self, capsys):
        code, out, _ = run(capsys, "socle", "K-2-5", "--json")
        doc = json.loads(out)
        assert doc["socle"] == [0, 0, 1, 1]

    # the identity claims "=" below degree floor((d-1)/2), ">=" there, nothing above
    @pytest.mark.parametrize("name, socle, counts, relation", [
        ("octahedron", [0, 2], [0, 0], ["=", ">="]),
        ("K-2-5", [0, 0, 1, 1], [0, 0, 0, 0], ["=", "=", ">=", None]),
    ])
    def test_socle_says_which_relation_each_degree_claims(self, name, socle, counts,
                                                          relation, capsys):
        code, out, _ = run(capsys, "socle", name, "--json")
        doc = json.loads(out)
        assert code == 0
        assert (doc["socle"], doc["missing_counts"], doc["relation"]) == (socle, counts, relation)
        code, out, _ = run(capsys, "socle", name)
        shown = ", ".join(r or "none" for r in relation)
        assert code == 0 and f"claimed socle vs count by degree   = [{shown}]" in out

    @pytest.mark.parametrize("name", NON_SPHERES)
    def test_stress_rejects_non_spheres(self, name, capsys, monkeypatch):
        doc = {"name": name, "facets": NON_SPHERES[name]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert_rejected(name, *run(capsys, "stress", "-", "--degree", "1", "--json"))

    @pytest.mark.parametrize("name", NON_SPHERES)
    def test_socle_rejects_non_spheres(self, name, capsys, monkeypatch):
        doc = {"name": name, "facets": NON_SPHERES[name]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert_rejected(name, *run(capsys, "socle", "-", "--json"))


class TestSeqAndAlpha:
    def test_check_m_pass_and_fail(self, capsys):
        code, out, _ = run(capsys, "seq", "check-m", "1,2,3,1")
        assert code == 0 and "PASS" in out
        code, out, _ = run(capsys, "seq", "check-m", "1,2,4")
        assert code == 1 and "FAIL" in out

    def test_check_level(self, capsys):
        code, out, _ = run(capsys, "seq", "check-level", "1,2,3,1")
        assert code == 1
        code, out, _ = run(capsys, "seq", "check-level", "1 2 2")
        assert code == 0

    @pytest.mark.parametrize("action", ["check-m", "check-level"])
    @pytest.mark.parametrize("sequence", ["", " , "])
    def test_empty_sequence_exits_2(self, action, sequence, capsys):
        # exit 1 is kept for a check that fails on a real sequence
        code, out, err = run(capsys, "seq", action, sequence)
        assert code == 2 and out == "" and "at least one integer" in err

    def test_alpha(self, capsys):
        code, out, _ = run(capsys, "alpha", "octahedron", "--json")
        doc = json.loads(out)
        assert doc["alpha"] == 2
        assert doc["turan_bound"] == "6/5"

    def test_alpha_without_edges(self, capsys, monkeypatch):
        # the 0-sphere has no edges, so f_1 = 0 and f0^2/(2 f1 + f0) = 2
        monkeypatch.setattr("sys.stdin", io.StringIO('{"facets": [[1], [2]]}'))
        code, out, _ = run(capsys, "alpha", "-", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["alpha"] == 2
        assert doc["turan_bound"] == "2/1"


    def test_alpha_builds_no_face_level_above_the_edges(self, capsys, tmp_path, level_builds):
        path = tmp_path / "K-4-11.json"
        path.write_text(ss.complex_to_json(ss.catalog.build_K(4, 12).complex))
        level_builds.clear()
        code, out, _ = run(capsys, "alpha", str(path), "--json")
        doc = json.loads(out)
        assert code == 0 and doc["alpha"] == 1 and doc["turan_bound"] == "1/1"
        assert {k for _, k in level_builds} <= {-1, 0, 1}


    def test_info_builds_no_face_level(self, capsys, tmp_path, level_builds):
        # f, h, g, gamma and the missing faces come from the facet-mask walk
        path = tmp_path / "K-4-11.json"
        path.write_text(ss.complex_to_json(ss.catalog.build_K(4, 12).complex))
        level_builds.clear()
        code, out, _ = run(capsys, "info", str(path), "--json")
        doc = json.loads(out)
        assert code == 0 and sum(doc["f"]) == 31 ** 3 and doc["class"] == "S(4,11)"
        assert level_builds == []


class TestS24Command:
    def test_verify(self, capsys):
        code, out, _ = run(capsys, "s24", "verify", "K-2-4")
        assert code == 0 and "PASS" in out

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "s24", "reduce", "cyclejoin-3-5", "--json")
        doc = json.loads(out)
        assert doc["reduced"] is True and doc["final_f0"] == 8

    def test_probe(self, capsys):
        code, out, _ = run(capsys, "s24", "probe-nevo", "K-2-4")
        assert code == 0 and "probe" in out

    def test_wrong_class_exits_2(self, capsys):
        code, _, err = run(capsys, "s24", "verify", "octahedron")
        assert code == 2

    @pytest.mark.parametrize("action", ["reduce", "probe-nevo"])
    def test_ball_exits_2(self, action, capsys, monkeypatch):
        ball = '{"facets": [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(ball))
        code, out, err = run(capsys, "s24", action, "-")
        assert code == 2 and out == "" and "not a homology 4-sphere over GF(2)" in err


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one ``main`` call, argparse's own
    exit included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOneParserPerProcess:
    CALLS = [
        ("info", "octahedron", "--json"),
        ("alpha", "octahedron"),
        ("info",),  # argparse rejects it: the target is missing
        ("seq", "check-m", "1,2,4", "--json"),
        ("s24", "verify", "K-2-4"),
        ("catalog", "bogus"),  # argparse rejects the action
        ("verify", "--explain", "--json"),
        ("info", "K-2-5"),
    ]

    def test_calls_in_sequence_match_lone_calls(self, capsys):
        cli._build_parser.cache_clear()
        together = [outcome(capsys, argv) for argv in self.CALLS]
        assert cli._build_parser.cache_info().misses == 1
        alone = []
        for argv in self.CALLS:
            cli._build_parser.cache_clear()
            alone.append(outcome(capsys, argv))
        assert together == alone
        assert [code for code, _, _ in together] == [0, 0, 2, 1, 0, 2, 0, 0]
        assert "the following arguments are required: target" in together[2][2]


class TestVerify:
    def test_family_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--family", "sequences", "--json",
                             "--seed", "3")
        code2, out2, _ = run(capsys, "verify", "--family", "sequences", "--json",
                             "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2  # byte identical
        doc = json.loads(out1)
        assert doc["ok"] is True

    def test_counterexample_support(self, capsys):
        code, out, _ = run(capsys, "verify", "--counterexample", "support",
                           "--m", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        ids = {c["id"] for c in doc["checks"]}
        assert "counterexample-support-faces" in ids
        faces_row = next(c for c in doc["checks"]
                         if c["id"] == "counterexample-support-faces")
        assert faces_row["lhs"] == "27"

    def test_counterexample_level(self, capsys):
        code, out, _ = run(capsys, "verify", "--counterexample", "level",
                           "--u", "3", "--k", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        formula = next(c for c in doc["checks"]
                       if c["id"] == "counterexample-level-formula")
        assert formula["rhs"] == "[1, 2, 3, 1]"

    def test_every_statement_id_is_explained(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "s24", "--json")
        doc = json.loads(out)
        for row in doc["checks"]:
            assert row["id"] in EXPLAIN

    def test_explain_lists_ids(self, capsys):
        code, out, _ = run(capsys, "verify", "--explain")
        assert code == 0
        for key in EXPLAIN:
            assert key in out

    def test_explain_json_bytes(self, capsys):
        code, out, _ = run(capsys, "verify", "--explain", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXPLAIN_SHA256

    @pytest.mark.parametrize("argv", [["level", "--u", "9"], ["support", "--m", "3"]])
    def test_counterexample_caps_exit_before_building(self, capsys, monkeypatch, argv):
        built = []
        monkeypatch.setattr(ss.catalog, "build_K", lambda *a: built.append(a))
        monkeypatch.setattr(ss.catalog, "build_counterexample_polytope",
                            lambda *a: built.append(a))
        code, _, err = run(capsys, "verify", "--counterexample", *argv)
        assert code == 2 and "desk-scale cap" in err
        assert built == []

    @pytest.mark.parametrize("argv, message", [
        (["--u", "9"], "desk-scale cap: u <= 8"), (["--u", "2"], "need u >= 3k >= 3"),
        (["--m", "3"], "desk-scale cap: m <= 2"), (["--m", "0"], "need m >= 1")],
        ids=["u-9", "u-2", "m-3", "m-0"])
    def test_all_checks_counterexample_parameters_first(self, capsys, monkeypatch,
                                                         argv, message):
        built = []
        monkeypatch.setattr(ss.catalog, "build", lambda *a: built.append(a))
        code, _, err = run(capsys, "verify", "--all", *argv)
        assert code == 2 and message in err
        assert built == []

    def test_needs_a_selection(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "nope")
        assert code == 2


# Bad input of every kind: (argv, stdin, exit code, the one stderr line).
# "{tmp}" stands for a scratch directory holding disk.json, a 2-ball.
BAD_INPUT = [
    (["info", "nosuch"], None, 2, "error: unknown complex name or file: 'nosuch'"),
    (["info", "{tmp}"], None, 2, "error: cannot read {tmp}: Is a directory"),
    (["info", "-"], "{broken", 2,
     "error: malformed complex on stdin: malformed JSON: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    (["s24", "reduce", "cross-4"], None, 2,
     "error: expected a 4-dimensional complex, got dimension 3"),
    (["s24", "verify", "boundary-simplex-5"], None, 2,
     "error: missing faces of dimension 5 > 2"),
    (["s24", "probe-nevo", "octahedron"], None, 2,
     "error: expected a 4-dimensional complex, got dimension 2"),
    (["alpha", "K-3-7", "--cap-vertices", "3"], None, 2,
     "error: 11 vertices exceed the cap 3; use turan_bound for a lower bound"),
    (["catalog", "build"], None, 2,
     "error: catalog build needs a family and integer parameters"),
    (["catalog", "build", "K", "2", "x"], None, 2,
     "error: invalid literal for int() with base 10: 'x'"),
    (["catalog", "build", "cross", "0"], None, 2, "error: need d >= 1"),
    (["catalog", "build", "cyclejoin", "2", "3"], None, 2, "error: cycle needs n >= 3"),
    (["verify"], None, 2, "error: verify needs --all, --family, or --counterexample"),
    (["verify", "--counterexample", "level", "--u", "9"], None, 2,
     "error: desk-scale cap: u <= 8"),
    (["verify", "--all", "--m", "0"], None, 2, "error: need m >= 1"),
    (["seq", "check-level", "0,1"], None, 2,
     "error: level sequence test expects a sequence starting with 1"),
    (["seq", "check-m", ""], None, 2, "error: sequence must have at least one integer"),
    (["seq", "check-m", "1,x"], None, 2,
     "error: sequence must be integers: invalid literal for int() with base 10: 'x'"),
    (["stress", "octahedron", "--degree", "0"], None, 2,
     "error: stress spaces are computed for degree k >= 1"),
    (["stress", "K-2-4", "--degree", "2", "--embedding", "natural"], None, 2,
     "error: K-2-4 carries no natural coordinates"),
    (["stress", "{tmp}/disk.json", "--degree", "1"], None, 2,
     "error: disk.json is not a GF(2) homology sphere; stress and socle statements "
     "assume one"),
]


class TestOnePathFromBadInput:
    @pytest.mark.parametrize("argv, stdin, code, line", BAD_INPUT,
                             ids=[" ".join(row[0]) for row in BAD_INPUT])
    def test_one_stderr_line_and_exit_code(self, argv, stdin, code, line, capsys,
                                           monkeypatch, tmp_path):
        (tmp_path / "disk.json").write_text('{"facets": [[1, 2, 3]]}')
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        got = run(capsys, *argv)
        assert got == (code, "", line.replace("{tmp}", str(tmp_path)) + "\n")


class TestSeedOption:
    @pytest.mark.parametrize("argv", [("info", "octahedron"), ("alpha", "octahedron"),
                                      ("s24", "verify", "K-2-4")])
    def test_commands_without_randomness_reject_it(self, argv, capsys):
        code, out, err = outcome(capsys, [*argv, "--seed", "5"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --seed 5" in err

    @pytest.mark.parametrize("argv", [("stress", "octahedron", "--degree", "1"),
                                      ("socle", "octahedron"),
                                      ("verify", "--counterexample", "level")])
    def test_embedding_commands_honour_it(self, argv, capsys, monkeypatch):
        seeds, real = [], ss.stress.generic_embedding

        def spy(c, seed):
            seeds.append(seed)
            return real(c, seed)
        monkeypatch.setattr(ss.stress, "generic_embedding", spy)
        assert run(capsys, *argv, "--seed", "5")[0] == 0
        assert seeds and min(seeds) == 5


# sha256 of ``s24 reduce NAME --json`` for every shipped sphere in S(2,4)
S24_REDUCE_SHA256 = {
    "K-2-4": "579356acaf12e3dde77b7617743cda973198db66c8668e74851df00b8b7962b8",
    "cross-5": "19a848fa5fee5b9315a4f836cc985dc122899f3e1210dbb278176f00618de26e",
    "cyclejoin-3-3": "726125d23545ecb59e3cf13e609dc94694b45fa55df8ed8c1ba061fa6311123b",
    "cyclejoin-3-4": "cba7e4d6f0b61c47d1cad3bbd0386c4a3766863442b3eccf7a89b90f385558a4",
    "cyclejoin-3-5": "aa91849469b2599cc001d0541e6645d36862696fd87e13c48ea38d535c78e7d0",
    "cyclejoin-3-6": "a77da301201e3b34d8f70d4a9527f5aacad6a1a830040fd4d18f1482cf255aec",
    "cyclejoin-4-4": "3549c8c125bbe2ed7c9f06713eaf1a90b819c68c2f0ecd6ed8fcbb715289b2ed",
    "cyclejoin-4-5": "94f702c7ccdde8d16f6f688547f1ce04b8cc284138f524711d6ff87706441d50",
    "cyclejoin-4-6": "afcf83725cabbaa66a6b8d1b2555ff6abbb503a0736f33c2141824935cd7b5ac",
    "cyclejoin-5-5": "09f18676d361b30a9f8625b44c10f95aa7456d171716d57d8b43f54a6f667de0",
    "cyclejoin-5-6": "467e9513f4f35027050f4a6c3c988099761e853b3c32b4b6b89de732c998e1f7",
    "cyclejoin-6-6": "61e9a0b0661d8df2fbedac6cb0872a5468ccf2f57cefcbc1e07becf4f3d8c5a3",
}


def test_s24_reduce_bytes_are_pinned(capsys):
    assert sorted(S24_REDUCE_SHA256) == sorted(ss.catalog.S24)
    for name, digest in S24_REDUCE_SHA256.items():
        code, out, _ = run(capsys, "s24", "reduce", name, "--json")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, name


@pytest.mark.slow
class TestVerifyAll:
    def test_all_families_pass_and_ids_covered(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--json", "--seed", "17")
        assert code == 0
        # the regression oracle: any changed row changes these bytes
        assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256
        doc = json.loads(out)
        assert doc["ok"] is True
        used = {row["id"] for row in doc["checks"]}
        assert used <= set(EXPLAIN)
        for row in doc["checks"]:
            if not row["probe"]:
                assert row["holds"], row
