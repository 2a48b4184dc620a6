"""End-to-end tests of the command-line interface."""

import hashlib
import io
import json

import pytest

import spherestress as ss
from spherestress import cli
from spherestress.verify import EXPLAIN


ORACLE_SHA256 = "0b237a4f71e20c9c567f16b64205800ff2e3c491a86a4bdc4421709c9fafed55"


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

    def test_degenerate_embedding_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.st, "stress_dim", lambda *a, **k: 99)
        code, _, err = run(capsys, "stress", "octahedron", "--degree", "1")
        assert code == 3
        assert "degenerate" in err

    def test_natural_unavailable_exits_2(self, capsys):
        code, _, err = run(capsys, "stress", "K-2-4", "--degree", "1",
                           "--embedding", "natural")
        assert code == 2

    def test_socle(self, capsys):
        code, out, _ = run(capsys, "socle", "K-2-5", "--json")
        doc = json.loads(out)
        assert doc["socle"] == [0, 0, 1, 1]

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

    def test_needs_a_selection(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "nope")
        assert code == 2


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
