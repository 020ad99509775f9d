"""Facet, tree-family and orbit file formats: round trips and parse errors."""

import itertools
import random
import re
from collections import Counter

import pytest

from walkup import Complex, ParseError, catalog
from walkup.catalog import a541_tree_family, presentation
from walkup.construct import expand_orbit
from walkup import fileio, generators


class TestFacetFormat:
    def test_round_trip_catalog_entries(self):
        for name in ("A5_21", "M4_41", "nonball_example", "S4_6"):
            K = catalog.get(name)
            assert fileio.parse_facets(fileio.format_facets(K)) == K

    def test_canonical_output_is_sorted_and_stable(self):
        K = Complex([(2, 1, 0), (0, 2, 3)])
        text = fileio.format_facets(K)
        assert text == "0 1 2\n0 2 3\n"
        assert fileio.format_facets(fileio.parse_facets(text)) == text

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\n0 1 2\n# another\n1 2 3\n"
        K = fileio.parse_facets(text)
        assert K.facets == ((0, 1, 2), (1, 2, 3))

    def test_bad_token_reports_location(self):
        with pytest.raises(ParseError) as err:
            fileio.parse_facets("0 1 2\n3 x 5\n")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_negative_vertex_rejected(self):
        with pytest.raises(ParseError) as err:
            fileio.parse_facets("0 -1 2\n")
        assert err.value.line == 1

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ParseError) as err:
            fileio.parse_facets("0 1 1\n")
        assert err.value.line == 1

    def test_mixed_dimension_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            fileio.parse_facets("0 1 2\n0 1\n")
        assert err.value.line == 2

    def test_file_round_trip(self, tmp_path):
        K = catalog.get("B5_26")
        path = tmp_path / "b526.facets"
        fileio.save_facets(K, path)
        assert fileio.load_facets(path) == K

    def test_format_matches_line_by_line_join(self):
        names = ("A5_21", "A5_41", "B5_21", "B5_26", "M4_21", "M4_41",
                 "N4_21", "N4_26", "S4_6", "nonball_example")
        complexes = [catalog.get(name) for name in names]
        complexes += [Complex([(3,), (0,), (12,)]), Complex([]),
                      generators.random_stacked_sphere(4, 20, seed=1)]
        for K in complexes:
            want = "".join(" ".join(map(str, f)) + "\n" for f in K.facets)
            assert fileio.format_facets(K) == want, K

    def test_content_hash_sensitivity(self):
        a = fileio.content_hash(catalog.get("A5_21"))
        b = fileio.content_hash(catalog.get("B5_21"))
        assert a != b
        assert a == fileio.content_hash(catalog.get("A5_21"))


def _reference_parse_facets(text: str) -> Complex:
    """The token-by-token facet parser: every token is found by a regex and
    read with its column; the result goes through ``Complex(...)``."""
    facets = []
    first_size = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        values = []
        for m in re.finditer(r"\S+", raw):
            token, column = m.group(), m.start() + 1
            try:
                value = int(token, 10)
            except ValueError:
                raise ParseError(f"expected an integer, got {token!r}",
                                 line=lineno, column=column) from None
            if value < 0:
                raise ParseError(f"vertex ids must be non-negative, got {value}",
                                 line=lineno, column=column)
            values.append(value)
        facet = tuple(sorted(values))
        if len(set(facet)) != len(facet):
            raise ParseError("duplicate vertex in facet", line=lineno)
        if first_size is None:
            first_size = len(facet)
        elif len(facet) != first_size:
            raise ParseError(
                f"facet has {len(facet)} vertices, expected {first_size}",
                line=lineno)
        facets.append(facet)
    return Complex(facets)


def _outcome(parse, text):
    try:
        K = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("complex", K, K.facets, K.dim, K.vertices)


CATALOG_COMPLEXES = ("A5_21", "A5_41", "B5_21", "B5_26", "M4_21", "M4_41",
                     "N4_21", "N4_26", "S4_6", "nonball_example",
                     "standard_sphere(3)", "standard_ball(4)")

DIFFERENTIAL_INPUTS = [
    "", "\n\n", "# only a comment\n", "0 1 2\n", "2 0 1",
    # bad tokens at several columns
    "x 1 2\n", "0 x 2\n", "0 1 x\n", "0 1 2\n3 4 five\n", "0 1 2x\n",
    "0 1 2 #comment\n", "0,1,2\n", "0 1 2.0\n", "0 0x1 2\n",
    "0 x -1\n", "0 -1 x\n", "x y z\n", "  0   1  x\n",
    # signs, underscores and non-ASCII digits, as int() reads them
    "-1 0 1\n", "0 1 -1\n", "0 -0 1\n", "+3 0 1\n", "1_0 0 1\n",
    "1__0 0 1\n", "_1 0 1\n", "1_ 0 1\n", "\u0661\u0662 0 1\n",
    "\uff13 0 1\n", "0 1 \u00b2\n", "\u2167 0 1\n", "0 1 " + "9" * 5000 + "\n",
    # duplicates, unequal sizes and other whitespace
    "0 1 1\n", "1 0 1\n", "0 1 +1\n", "0 01 1\n", "0 1 2\n0 1\n",
    "0 1\n0 1 2\n", "0 1 2\n0 1 2 3\n3 4\n", "0\t1\t2\n1 2\t3\n",
    "0\u00a01\u20032\n", "0 1 2\r\n1 2 3\r\n", "0 1 2\x0c\n", "\t0 1 2 \n",
    "0 1 2\x1f3\n",
    # comments, blank lines and repeated facets
    "# a\n\n0 1 2\n   \n# b\n1 2 3\n", "0 1 2\n0 1 2\n2 1 0\n",
    "  # indented comment\n0 1\n", "#0 1 2 3\n0 1\n", "0 1 2\n#\n0 1 x\n",
    "5\n3\n5\n",
]


class TestParseAgainstTokenReference:
    """``parse_facets`` reads clean lines with ``str.split``; the reference
    reads every token with its column.  Both must agree on the complex, or
    on the error's message, line and column."""

    @pytest.mark.parametrize("text", DIFFERENTIAL_INPUTS)
    def test_fixed_inputs(self, text):
        assert (_outcome(fileio.parse_facets, text)
                == _outcome(_reference_parse_facets, text))

    def test_seeded_random_lines(self):
        rng = random.Random(7)
        tokens = ["0", "1", "2", "3", "17", "-2", "+4", "1_1", "x", "#",
                  "\u0663", "00", "2.5", ""]
        separators = [" ", "  ", "\t", " \t "]
        for _ in range(400):
            lines = []
            for _ in range(rng.randint(0, 5)):
                words = [rng.choice(tokens) for _ in range(rng.randint(0, 4))]
                lines.append(rng.choice(["", " "]) + rng.choice(separators)
                             .join(words))
            text = "\n".join(lines) + rng.choice(["", "\n"])
            assert (_outcome(fileio.parse_facets, text)
                    == _outcome(_reference_parse_facets, text)), text

    def test_catalog_and_generated_texts(self):
        texts = [fileio.format_facets(catalog.get(name))
                 for name in CATALOG_COMPLEXES]
        texts.append(fileio.format_facets(
            generators.random_stacked_sphere(4, 60, seed=3)))
        for text in texts:
            assert (_outcome(fileio.parse_facets, text)
                    == _outcome(_reference_parse_facets, text))


class TestTrustedConstructor:
    """Links, boundaries and parsed files skip the canonicalisation of
    ``Complex(...)``; each must equal the complex ``Complex(...)`` builds
    from facets computed here by a scan of every facet."""

    @staticmethod
    def _same(A: Complex, B: Complex) -> None:
        assert type(A) is type(B) is Complex
        assert (A.facets, A.dim, A.vertices) == (B.facets, B.dim, B.vertices)
        assert A == B and hash(A) == hash(B)

    def _check(self, K: Complex) -> None:
        self._same(fileio.parse_facets(fileio.format_facets(K)),
                   Complex(K.facets))
        ridges = Counter(r for f in K.facets
                         for r in itertools.combinations(f, len(f) - 1))
        if K.dim >= 1 and max(ridges.values()) <= 2:
            self._same(K.boundary_complex(),
                       Complex([r for r, n in ridges.items() if n == 1]))
        for v in K.vertices[:8]:
            self._same(K.link(v), Complex([tuple(w for w in f if w != v)
                                           for f in K.facets if v in f]))

    def test_catalog(self):
        for name in CATALOG_COMPLEXES:
            self._check(catalog.get(name))

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random(self, seed):
        for d in (1, 2, 3, 4):
            n = 5 + 7 * seed
            self._check(generators.random_stacked_ball(d, n, seed))
            self._check(generators.random_stacked_sphere(d, n, seed))
            self._check(generators.random_tree_complex(d, n, seed))

    def test_repeated_and_unsorted_lines(self):
        K = fileio.parse_facets("3 1 2\n1 2 3\n0 2 1\n# c\n2 0 1\n")
        self._same(K, Complex([(1, 2, 3), (0, 1, 2)]))
        assert K.facets == ((0, 1, 2), (1, 2, 3))
        self._same(fileio.parse_facets(""), Complex(()))


class TestTreeFamilyFormat:
    def test_round_trip_catalog_family(self):
        fam = a541_tree_family()
        text = fileio.format_tree_family(fam)
        back = fileio.parse_tree_family(text)
        assert back == fam
        assert fileio.format_tree_family(back) == text

    def test_header_validation(self):
        with pytest.raises(ParseError):
            fileio.parse_tree_family("5 41\ne 0 1\n")
        with pytest.raises(ParseError):
            fileio.parse_tree_family("")

    def test_unknown_tag(self):
        with pytest.raises(ParseError) as err:
            fileio.parse_tree_family("1 2 3\nq 0 1\n")
        assert err.value.line == 2

    def test_missing_tree_indices(self):
        text = "1 3 3\ne 0 1\ne 1 2\ne 0 2\nt 0 0 1\nt 2 0 2\n"
        with pytest.raises(ParseError):
            fileio.parse_tree_family(text)

    def test_duplicate_tree_rejected(self):
        text = "1 2 3\ne 0 1\nt 0 0\nt 0 1\n"
        with pytest.raises(ParseError) as err:
            fileio.parse_tree_family(text)
        assert err.value.line == 4

    def test_small_family_round_trip(self):
        text = "1 3 3\ne 0 1\ne 1 2\ne 0 2\nt 0 0 1\nt 1 1 2\nt 2 0 2\n"
        fam = fileio.parse_tree_family(text)
        assert fam.dimension == 1 and fam.num_trees == 3
        assert fileio.parse_tree_family(fileio.format_tree_family(fam)) == fam

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "a541.tree"
        fileio.save_tree_family(a541_tree_family(), path)
        assert fileio.load_tree_family(path) == a541_tree_family()

    @pytest.mark.parametrize("text, message", [
        ("2 2 2\ne 0\n", "edge lines are 'e u v' (line 2)"),
        ("2 2 2\nt\n", "tree lines are 't i v1 v2 ...' (line 2)"),
        ("# two trees\n2 2 2\nt 0\nt 1 0 x\n",
         "expected an integer, got 'x' (line 4, column 7)"),
        ("1 2 2\ne 0 5\nt 0 0\nt 1 1\n",
         "host vertex 5 out of range [0, 2) (line 2, column 5)"),
        ("1 2 2\ne 0 0\nt 0 0\nt 1 1\n", "loop at vertex 0 (line 2, column 5)"),
        ("1 2 2\ne 0 1\nt 0 0\nt 1 7\n",
         "host vertex 7 out of range [0, 2) (line 4, column 5)"),
        ("0 1 2\ne 0 1\nt 0 0\n",
         "dimension must be at least 1 (line 1, column 1)"),
        ("-1 2 2\ne 0 1\nt 0 0\nt 1 1\n",
         "dimension must be at least 1 (line 1, column 1)"),
        ("1 -1 2\n", "tree count must be non-negative (line 1, column 3)"),
        ("1 2 -2\n",
         "host vertex count must be non-negative (line 1, column 5)"),
        ("1 2 2\ne 0 1\nt -1 1\n",
         "tree index must be non-negative (line 3, column 3)"),
        # a negative host vertex is out of range like any other
        ("1 2 2\ne 0 -1\nt 0 0\nt 1 1\n",
         "host vertex -1 out of range [0, 2) (line 2, column 5)"),
        ("1 2 2\ne 0 1\nt 0 0\nt 1 -1\n",
         "host vertex -1 out of range [0, 2) (line 4, column 5)"),
    ])
    def test_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "bad.tree"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            fileio.load_tree_family(path)
        assert str(err.value) == message


class TestOrbitFormat:
    def test_round_trip_catalog_presentations(self):
        for name in ("A5_21", "B5_21", "B5_26", "A5_41"):
            pres = presentation(name)
            text = fileio.format_orbit_presentation(pres)
            back = fileio.parse_orbit_presentation(text)
            assert back == pres
            assert expand_orbit(back) == catalog.get(name)

    def test_parse_simple(self):
        pres = fileio.parse_orbit_presentation("# demo\n3 a b\na0 a1 b2\n")
        assert pres.order == 3
        assert pres.classes == ("a", "b")
        assert pres.basic_facets == ((("a", 0), ("a", 1), ("b", 2)),)

    def test_bad_label(self):
        with pytest.raises(ParseError) as err:
            fileio.parse_orbit_presentation("3 a\na0 0a\n")
        assert err.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError):
            fileio.parse_orbit_presentation("# nothing\n")

    def test_header_without_classes(self):
        with pytest.raises(ParseError) as err:
            fileio.parse_orbit_presentation("7\n")
        assert str(err.value) == "header must be 'm class1 class2 ...' (line 1)"

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            fileio.parse_orbit_presentation("3 a\na0 a5\n")

    @pytest.mark.parametrize("text, message", [
        ("0 a\na0\n", "group order must be positive (line 1, column 1)"),
        ("-2 a\na0\n", "group order must be positive (line 1, column 1)"),
        ("3 a a\na0\n", "duplicate label classes (line 1, column 5)"),
    ])
    def test_malformed_header(self, text, message):
        with pytest.raises(ParseError) as err:
            fileio.parse_orbit_presentation(text)
        assert str(err.value) == message
