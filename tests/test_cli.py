"""Command-line interface: reports, exit codes, determinism, round trips."""

import io
import json

import pytest

from walkup import Complex, DomainError, catalog, fileio, homology
from walkup.catalog import CatalogEntry, a541_tree_family
from walkup.cli import EXIT_MISMATCH, main
from walkup.generators import (random_stacked_ball, random_stacked_sphere,
                               standard_sphere)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


class TestVerify:
    def test_five_complex_report(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "A5_21")
        assert code == 0
        assert doc["schema"] == 2
        assert doc["walkup"] == {"K": False, "Kbar": True, "Kstar": False}
        assert doc["boundary_f_vector"] == [21, 210, 490, 525, 210]
        assert doc["betti"]["GF2"] == [1, 8, 0, 0, 0, 0]
        assert doc["automorphisms"]["order"] == 7
        assert all(doc["consistency"].values())
        assert "boundary" in doc["timing"]
        assert "stacked_sphere" not in doc["timing"]  # not closed: not run

    def test_closed_manifold_report(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "N4_26")
        assert code == 0
        assert doc["properties"]["closed"] is True
        assert doc["orientable"] is False
        assert doc["walkup"]["Kstar"] is True
        assert doc["tightness"]["field"] == "GF2"
        assert doc["tightness"]["strongly_minimal"] is True
        assert doc["bounds"]["vertex_bound"]["equality"] is True
        assert doc["homeomorphism_type"]["type"] == "(S3xS1)^#14 twisted"
        # every computation of a closed complex is timed
        assert sorted(doc["timing"]) == [
            "automorphisms", "betti_GF2", "betti_Q", "bounds", "connected",
            "coreduction", "dual_graph", "f_vector", "orientability",
            "pseudomanifold", "stacked_sphere", "stackedness", "tightness",
            "type", "walkup"]

    def test_ring_counterexample_flags(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "nonball_example")
        assert code == 0
        assert doc["properties"]["stacked_ball"] is False
        assert doc["properties"]["tree_dual_graph"] is True

    def test_parse_error_reports_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.facets"
        bad.write_text("0 1 2\n0 oops 2\n")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_unknown_input(self, capsys):
        code, _, err = run(capsys, "verify", "no_such_thing")
        assert code == 2
        assert "neither" in err

    def test_determinism_outside_timing(self, capsys):
        _, doc1, _ = run_json(capsys, "verify", "S4_6")
        _, doc2, _ = run_json(capsys, "verify", "S4_6")
        assert strip_timing(doc1) == strip_timing(doc2)

    def test_capacity_skip_and_strict(self, capsys, tmp_path):
        big = random_stacked_ball(2, 70, seed=4)
        path = tmp_path / "big.facets"
        fileio.save_facets(big, path)
        code, doc, _ = run_json(capsys, "verify", str(path), "--field", "gf2")
        assert code == 0
        assert "skipped" in doc["automorphisms"]
        code2 = main(["verify", str(path), "--field", "gf2", "--strict"])
        capsys.readouterr()
        assert code2 == 3

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_spheres_glued_at_a_vertex(self, capsys, tmp_path, d):
        # closed and vertex-connected, but the dual graph has two components
        sphere = standard_sphere(d)
        glued = Complex(list(sphere.facets) + [
            tuple(v + d + 1 if v else 0 for v in f) for f in sphere.facets])
        if d == 2:
            assert glued.facets == ((0, 1, 2), (0, 1, 3), (0, 2, 3),
                                    (0, 4, 5), (0, 4, 6), (0, 5, 6),
                                    (1, 2, 3), (4, 5, 6))
        path = tmp_path / "glued.facets"
        fileio.save_facets(glued, path)
        code, doc, err = run_json(capsys, "verify", str(path))
        assert code == 0, err
        assert doc["orientable"] is None
        assert doc["properties"]["closed"] is True
        assert doc["properties"]["pseudomanifold"] is False
        assert "orientability" not in doc["timing"]
        # the lower bounds are stated for closed manifolds
        assert doc["bounds"] is None
        assert "bounds" not in doc["timing"]
        code, out, _ = run(capsys, "verify", str(path), "--text")
        assert code == 0
        assert "orientable:" not in out
        with pytest.raises(DomainError):
            homology.is_orientable(glued)

    def test_field_selection(self, capsys):
        _, doc, _ = run_json(capsys, "verify", "S4_6", "--field", "q")
        assert list(doc["betti"]) == ["Q"]

    @pytest.mark.parametrize("label, choice", [("Q", "q"), ("GF2", "gf2"),
                                               ("Both", "both")])
    @pytest.mark.parametrize("argv", [("verify", "M4_21", "--text"),
                                      ("homology", "N4_21")])
    def test_field_takes_the_labels_reports_print(self, capsys, label, choice,
                                                  argv):
        # reports label the fields GF2 and Q; --field takes them as given
        assert run(capsys, *argv, "--field", label) \
            == run(capsys, *argv, "--field", choice)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "S4_6", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["f_vector"] == [6, 15, 20, 15, 6]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "M4_21", "--text")
        assert code == 0
        assert "f-vector: (21,210,490,525,210), chi = -14" in out
        assert "orientable: yes" in out
        assert "automorphisms: order 7 (Z_7)" in out
        assert "tightness: Q-tight, strongly minimal" in out
        assert "consistency: all checks pass" in out
        _, out2, _ = run(capsys, "verify", "M4_21", "--text")
        assert out == out2  # fully deterministic, no timing in text mode

    def test_text_mode_ball_reports_its_boundary(self, capsys):
        code, out, _ = run(capsys, "verify", "standard_ball(4)", "--text")
        assert code == 0
        assert out == (
            "input: standard_ball(4) (sha256 565581ff013ebbb3)\n"
            "dim 4, 5 vertices, 1 facets\n"
            "f-vector: (5,10,10,5,1), chi = 1\n"
            "properties: connected, neighborly, pseudomanifold, stacked_ball,"
            " tree_dual_graph, weak_pseudomanifold\n"
            "boundary f-vector: (5,10,10,5)\n"
            "walkup classes: K no | Kbar yes | Kstar no\n"
            "betti GF2: (1,0,0,0,0)\n"
            "betti Q: (1,0,0,0,0)\n"
            "automorphisms: order 120\n"
            "consistency: all checks pass\n")

    def test_text_mode_names_the_capacity_skip(self, capsys, tmp_path):
        path = tmp_path / "s73.facets"
        fileio.save_facets(random_stacked_sphere(2, 70, seed=1), path)
        code, out, _ = run(capsys, "verify", str(path), "--text")
        assert code == 0
        assert out == (
            f"input: {path} (sha256 c1b325cb968dbaf1)\n"
            "dim 2, 73 vertices, 142 facets\n"
            "f-vector: (73,213,142), chi = 2\n"
            "properties: closed, connected, pseudomanifold, stacked_sphere,"
            " weak_pseudomanifold\n"
            "walkup classes: K yes | Kbar no | Kstar no\n"
            "betti GF2: (1,0,1)\n"
            "betti Q: (1,0,1)\n"
            "orientable: yes\n"
            "automorphisms: skipped (73 vertices exceed the automorphism"
            " search cap of 64)\n"
            "consistency: all checks pass\n")

    def test_one_dimensional_input_has_no_walkup_verdict(self, capsys, tmp_path):
        path = tmp_path / "c5.facets"
        fileio.save_facets(Complex([(i, (i + 1) % 5) for i in range(5)]), path)
        code, doc, _ = run_json(capsys, "verify", str(path))
        assert code == 0
        assert doc["input"] == {"name": None, "path": str(path), "sha256":
                                "0a7e9d776abf75b1d3648a8894d3abf7"
                                "d461518b6cc2e3e0f85b100e060fa2cc"}
        del doc["input"]
        assert strip_timing(doc) == {
            "automorphisms": {"generators": [[0, 4, 3, 2, 1], [1, 0, 4, 3, 2]],
                              "order": 10, "structure": None},
            "betti": {"GF2": [1, 1], "Q": [1, 1]},
            "boundary_f_vector": None,
            "bounds": None,
            "consistency": {"betti_Q_le_GF2": True,
                            "orientable_vs_top_betti_q": True},
            "dim": 1,
            "euler_characteristic": 0,
            "f_vector": [5, 5],
            "homeomorphism_type": None,
            "num_facets": 5,
            "num_vertices": 5,
            "orientable": True,
            "properties": {"closed": True, "connected": True,
                           "neighborly": False, "pseudomanifold": True,
                           "stacked_ball": False, "stacked_sphere": True,
                           "tree_dual_graph": False,
                           "weak_pseudomanifold": True},
            "schema": 2,
            "seed": 0,
            "tightness": None,
            "walkup": None,
        }


class TestConsistencyChecks:
    def test_closed_member_reports_both_checks(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "M4_21")
        assert code == 0
        assert doc["consistency"]["betti_Q_le_GF2"] is True
        assert doc["consistency"]["poincare_duality_GF2"] is True

    @pytest.mark.parametrize("key, field, bad", [
        ("betti_Q_le_GF2", homology.Q, (1, 8, 1, 8, 1)),
        ("poincare_duality_GF2", homology.GF2, (1, 8, 0, 9, 1)),
    ])
    def test_bad_betti_vector_is_a_mismatch(self, capsys, monkeypatch, key,
                                            field, bad):
        real = homology.betti_numbers

        def corrupt(K, f=homology.GF2):
            if homology.normalize_field(f) == field:
                return homology.BettiVector(field=field, values=bad)
            return real(K, f)

        monkeypatch.setattr(homology, "betti_numbers", corrupt)
        code, doc, _ = run_json(capsys, "verify", "M4_21")
        assert code == EXIT_MISMATCH
        assert [k for k, ok in doc["consistency"].items() if not ok] == [key]

    @staticmethod
    def two_disjoint_simplex_boundaries(tmp_path) -> str:
        S = standard_sphere(4).facets
        path = tmp_path / "two.facets"
        path.write_text(fileio.format_facets(
            Complex(S + tuple(tuple(v + 6 for v in f) for f in S))))
        return str(path)

    def test_disconnected_member_satisfies_euler_formula(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "verify",
                                self.two_disjoint_simplex_boundaries(tmp_path))
        assert doc["walkup"]["K"] and not doc["properties"]["connected"]
        assert doc["euler_characteristic"] == 4
        assert doc["betti"] == {"GF2": [2, 0, 0, 0, 2], "Q": [2, 0, 0, 0, 2]}
        # chi = 2 beta_0 - 2 beta_1, the connected formula summed over parts
        assert doc["consistency"]["euler_formula"] is True
        assert code == 0

    @pytest.mark.parametrize("bad", [(2, 1, 0, 0, 2), (3, 0, 0, 0, 2)])
    def test_wrong_beta_fails_euler_formula(self, capsys, monkeypatch,
                                            tmp_path, bad):
        real = homology.betti_numbers

        def corrupt(K, f=homology.GF2):
            if homology.normalize_field(f) == homology.GF2:
                return homology.BettiVector(field=homology.GF2, values=bad)
            return real(K, f)

        monkeypatch.setattr(homology, "betti_numbers", corrupt)
        code, doc, _ = run_json(capsys, "verify",
                                self.two_disjoint_simplex_boundaries(tmp_path))
        assert code == EXIT_MISMATCH
        assert [k for k, ok in doc["consistency"].items() if not ok] == [
            "euler_formula"]


class TestTable1:
    def test_all_rows_match(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert "all rows match" in out
        for token in ("M4_21", "N4_21", "N4_26", "M4_41", "-82", "42"):
            assert token in out

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "table1")
        _, out2, _ = run(capsys, "table1")
        assert out1 == out2

    def test_corrupted_record_names_cell(self, capsys, monkeypatch):
        real = catalog.expected

        def corrupt(name):
            entry = real(name)
            if name == "N4_26":
                return CatalogEntry(**{**entry.__dict__, "beta1": 13})
            return entry

        monkeypatch.setattr(catalog, "expected", corrupt)
        code, out, _ = run(capsys, "table1")
        assert code == 1
        assert "N4_26.beta1" in out

    def test_json_mode(self, capsys):
        code, doc, _ = run_json(capsys, "table1", "--json")
        assert code == 0
        assert doc["rows"]["M4_41"]["beta1"] == 42
        assert doc["mismatches"] == []


class TestConstructDecompose:
    def test_catalog_family_file_matches_export(self, capsys, tmp_path):
        fam_path = tmp_path / "family.tree"
        fileio.save_tree_family(a541_tree_family(), fam_path)
        code, out, _ = run(capsys, "construct", str(fam_path))
        assert code == 0
        _, exported, _ = run(capsys, "export", "A5_41")
        assert out == exported

    def test_broken_family_exits_with_witness(self, capsys, tmp_path):
        text = "1 3 3\ne 0 1\ne 1 2\nt 0 0 1\nt 1 1 2\nt 2 0 2\n"
        path = tmp_path / "broken.tree"
        path.write_text(text)
        code, _, err = run(capsys, "construct", str(path))
        assert code == 1
        assert "condition 0" in err

    def test_pipe_round_trip(self, capsys, monkeypatch):
        code, family_text, _ = run(capsys, "decompose", "A5_21")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(family_text))
        code, facets_text, _ = run(capsys, "construct", "-")
        assert code == 0
        assert fileio.parse_facets(facets_text) == catalog.get("A5_21")

    def test_decompose_rejects_non_member(self, capsys):
        code, _, err = run(capsys, "decompose", "nonball_example")
        assert code == 1
        assert "neighborly" in err

    def test_file_round_trip_all_catalog(self, capsys, tmp_path):
        for name in ("B5_21", "B5_26"):
            fam_file = tmp_path / f"{name}.tree"
            code, _, _ = run(capsys, "decompose", name, "--out", str(fam_file))
            assert code == 0
            code, out, _ = run(capsys, "construct", str(fam_file))
            assert code == 0
            assert fileio.parse_facets(out) == catalog.get(name)


class TestExportHomologyAut:
    def test_export_round_trip(self, capsys):
        code, out, _ = run(capsys, "export", "A5_21")
        assert code == 0
        assert fileio.parse_facets(out) == catalog.get("A5_21")

    def test_export_tree_family_format(self, capsys):
        code, out, _ = run(capsys, "export", "A5_41_tree_family")
        assert code == 0
        assert fileio.parse_tree_family(out) == a541_tree_family()

    def test_export_unknown(self, capsys):
        code, _, err = run(capsys, "export", "mystery")
        assert code == 2

    def test_homology_command(self, capsys):
        code, doc, _ = run_json(capsys, "homology", "M4_21")
        assert code == 0
        assert doc["betti"]["GF2"] == [1, 8, 0, 8, 1]
        assert doc["betti"]["Q"] == [1, 8, 0, 8, 1]
        assert doc["euler_characteristic"] == -14

    # both vectors keep the alternating sum at chi = -14, so only the
    # component count and the Q <= GF(2) comparison can catch them
    @pytest.mark.parametrize("field, bad", [
        (homology.GF2, (2, 9, 0, 8, 1)),  # beta_0 != number of components
        (homology.Q, (1, 9, 1, 8, 1)),    # beta_1(Q) > beta_1(GF2)
    ])
    def test_homology_bad_betti_is_a_mismatch(self, capsys, monkeypatch,
                                              field, bad):
        real = homology.betti_numbers

        def corrupt(K, f=homology.GF2):
            if homology.normalize_field(f) == field:
                return homology.BettiVector(field=field, values=bad)
            return real(K, f)

        monkeypatch.setattr(homology, "betti_numbers", corrupt)
        code, doc, _ = run_json(capsys, "homology", "M4_21")
        assert code == EXIT_MISMATCH
        assert doc["betti"][field] == list(bad)

    def test_aut_command(self, capsys):
        code, doc, _ = run_json(capsys, "aut", "B5_26")
        assert code == 0
        assert doc["automorphisms"]["order"] == 13
        assert doc["automorphisms"]["structure"] == "Z_13"

    def test_aut_capacity_strict(self, capsys, tmp_path):
        big = random_stacked_ball(2, 70, seed=4)
        path = tmp_path / "big.facets"
        fileio.save_facets(big, path)
        code, doc, _ = run_json(capsys, "aut", str(path))
        assert code == 0
        assert "skipped" in doc["automorphisms"]
        code2 = main(["aut", str(path), "--strict"])
        capsys.readouterr()
        assert code2 == 3

    def test_aut_relabels_sparse_vertex_ids(self, capsys, tmp_path):
        path = tmp_path / "gaps.facets"
        path.write_text("0 5 7\n")  # a triangle on non-dense ids
        code, doc, _ = run_json(capsys, "aut", str(path))
        assert code == 0
        assert doc["automorphisms"]["order"] == 6
        # generators act on positions in the sorted vertex list (0, 5, 7),
        # not on the file's ids
        assert doc["automorphisms"]["generators"] == [[0, 2, 1], [1, 0, 2]]


class TestInputErrors:
    # every subcommand that reads an input file, with the error prefix
    COMMANDS = ("verify", "decompose", "homology", "aut", "construct")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("kind, prefix", [
        ("missing", "input error: "),
        ("malformed", "parse error: "),
    ])
    def test_bad_input_exits_2(self, capsys, tmp_path, command, kind, prefix):
        path = tmp_path / "input.facets"
        if kind == "malformed":
            path.write_text("0 1 2\n0 oops 2\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(prefix)

    @pytest.mark.parametrize("command, message", [
        ("verify", "the complex has no facets"),
        ("homology", "the empty complex has no Betti numbers"),
        ("aut", "the empty complex has no automorphism group"),
    ])
    def test_domain_error_after_resolution_exits_2(self, capsys, tmp_path,
                                                   command, message):
        path = tmp_path / "empty.facets"
        path.write_text("")
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert err == f"input error: {message}\n"

    def test_catalog_entry_that_is_not_a_complex(self, capsys):
        code, out, err = run(capsys, "verify", "A5_41_tree_family")
        assert code == 2
        assert out == ""
        assert err == ("input error: catalog entry 'A5_41_tree_family' "
                       "is not a complex\n")

    @pytest.mark.parametrize("argv", [
        ["table1"], ["construct", "-"], ["decompose", "A5_21"],
        ["export", "S4_6"], ["homology", "S4_6"],
    ])
    def test_strict_only_where_a_capacity_skip_can_happen(self, capsys, argv):
        # only verify and aut can skip on capacity, so only they take --strict
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--strict"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strict" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["export", "verify"])
    def test_unwritable_out_is_an_output_error(self, capsys, tmp_path,
                                               command):
        target = tmp_path / "missing" / "report.out"
        code, out, err = run(capsys, command, "S4_6", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("output error: ") and str(target) in err
        assert not target.exists()


class TestEntryPoint:
    def test_console_script(self):
        import os
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        import walkup
        exe = shutil.which("walkup")
        command = [exe] if exe else [sys.executable, "-m", "walkup"]
        # the package's own source root, so the child imports this checkout
        src = str(Path(walkup.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(command + ["export", "S4_6"], capture_output=True,
                             text=True, check=True, env=env, timeout=120)
        assert fileio.parse_facets(out.stdout) == catalog.get("S4_6")
