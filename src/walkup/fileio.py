"""Text formats: facet files, tree-family files, orbit-presentation files.

All three formats are UTF-8 with '#' comment lines.  Canonical output is
deterministic: facets in sorted tuple order, edges and trees sorted, so two
serializations of equal objects are byte-identical.

Facet file: one facet per line, vertex ids as space-separated decimals.

Tree-family file: a header line ``d n |V(G)|``, then host edges as
``e u v`` lines, then one ``t i v1 v2 ...`` line per tree.

Orbit file: a header line ``m class1 class2 ...``, then one basic facet per
line as labeled tokens such as ``a0 a1 b3``.
"""

from __future__ import annotations

import re
from itertools import chain
from pathlib import Path

from .construct import OrbitPresentation, TreeFamily, parse_label
from .core import Complex
from .errors import ParseError
from .graphs import Graph

_TOKEN_RE = re.compile(r"\S+")
_TREE_HEADER = ((1, "dimension must be at least 1"),  # d n |V(G)|: least, rule
                (0, "tree count must be non-negative"),
                (0, "host vertex count must be non-negative"))


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw, stripped


def _tokens(raw: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens with their 1-based column offsets."""
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(raw)]


def _int_token(token: str, column: int, lineno: int, below: int | None = None,
               least: int = 0, rule: str | None = None) -> int:
    """An integer token: in [0, ``below``) if that is given, else at least
    ``least``, where a smaller value raises ``rule`` or the vertex-id message."""
    try:
        value = int(token, 10)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}",
                         line=lineno, column=column) from None
    if below is not None and not 0 <= value < below:
        raise ParseError(f"host vertex {value} out of range [0, {below})",
                         line=lineno, column=column)
    if value < least:
        message = rule or f"vertex ids must be non-negative, got {value}"
        raise ParseError(message, line=lineno, column=column)
    return value


def parse_facets(text: str) -> Complex:
    facets = []
    first_size: int | None = None
    for lineno, raw, _ in _data_lines(text):
        try:
            facet = tuple(sorted(map(int, raw.split())))
        except ValueError:
            facet = ()
        if not facet or facet[0] < 0:
            # rescan token by token for the first bad token and its column
            for token, col in _tokens(raw):
                _int_token(token, col, lineno)
        if len(set(facet)) != len(facet):
            raise ParseError("duplicate vertex in facet", line=lineno)
        if first_size is None:
            first_size = len(facet)
        elif len(facet) != first_size:
            raise ParseError(
                f"facet has {len(facet)} vertices, expected {first_size}",
                line=lineno)
        facets.append(facet)
    # sorted, distinct, non-negative and of one size: already canonical;
    # dict.fromkeys keeps file order, so a canonical file sorts in one pass
    return Complex._from_canonical(tuple(sorted(dict.fromkeys(facets))))


def format_facets(K: Complex) -> str:
    """One line per facet; the facets share one size, so one format fills
    the text."""
    facets = K.facets
    if not facets:
        return ""
    line = " ".join(["%d"] * len(facets[0])) + "\n"
    return (line * len(facets)) % tuple(chain.from_iterable(facets))


def load_facets(path: str | Path) -> Complex:
    return parse_facets(Path(path).read_text(encoding="utf-8"))


def save_facets(K: Complex, path: str | Path) -> None:
    Path(path).write_text(format_facets(K), encoding="utf-8")


def content_hash(K: Complex) -> str:
    """SHA-256 of the canonical facet serialization."""
    import hashlib  # deferred: only content hashing needs it
    return hashlib.sha256(format_facets(K).encode("utf-8")).hexdigest()


def parse_tree_family(text: str) -> TreeFamily:
    header = None
    edges: list[tuple[int, int]] = []
    trees: dict[int, frozenset[int]] = {}
    for lineno, raw, _ in _data_lines(text):
        tokens = _tokens(raw)
        if header is None:
            if len(tokens) != 3:
                raise ParseError("header must be 'd n |V(G)|'", line=lineno)
            header = tuple(_int_token(t, col, lineno, least=m, rule=r)
                           for (t, col), (m, r) in zip(tokens, _TREE_HEADER))
            host_size = header[2]
            continue
        tag, tag_col = tokens[0]
        if tag == "e":
            if len(tokens) != 3:
                raise ParseError("edge lines are 'e u v'", line=lineno)
            u, v = (_int_token(t, col, lineno, host_size)
                    for t, col in tokens[1:])
            if u == v:
                raise ParseError(f"loop at vertex {u}", line=lineno,
                                 column=tokens[2][1])
            edges.append((u, v))
        elif tag == "t":
            if len(tokens) < 2:
                raise ParseError("tree lines are 't i v1 v2 ...'", line=lineno)
            index = _int_token(*tokens[1], lineno,
                               rule="tree index must be non-negative")
            if index in trees:
                raise ParseError(f"tree {index} defined twice", line=lineno)
            trees[index] = frozenset(_int_token(t, col, lineno, host_size)
                                     for t, col in tokens[2:])
        else:
            raise ParseError(f"unknown line tag {tag!r}", line=lineno,
                             column=tag_col)
    if header is None:
        raise ParseError("missing header line", line=1)
    d, n, host_size = header
    if sorted(trees) != list(range(n)):
        raise ParseError(f"expected trees 0..{n - 1}, got {sorted(trees)}")
    # the checks above cover every one that Graph and TreeFamily make
    return TreeFamily(host=Graph(host_size, edges),
                      trees=tuple(trees[i] for i in range(n)), dimension=d)


def format_tree_family(family: TreeFamily) -> str:
    lines = [f"{family.dimension} {family.num_trees} {family.host.num_vertices}"]
    for u, v in family.host.edges:
        lines.append(f"e {u} {v}")
    for i, tree in enumerate(family.trees):
        lines.append("t " + " ".join(map(str, (i, *sorted(tree)))))
    return "\n".join(lines) + "\n"


def load_tree_family(path: str | Path) -> TreeFamily:
    return parse_tree_family(Path(path).read_text(encoding="utf-8"))


def save_tree_family(family: TreeFamily, path: str | Path) -> None:
    Path(path).write_text(format_tree_family(family), encoding="utf-8")


def parse_orbit_presentation(text: str) -> OrbitPresentation:
    header = None
    facets = []
    for lineno, raw, _ in _data_lines(text):
        tokens = _tokens(raw)
        if header is None:
            if len(tokens) < 2:
                raise ParseError("header must be 'm class1 class2 ...'",
                                 line=lineno)
            order = _int_token(*tokens[0], lineno, least=1,
                               rule="group order must be positive")
            seen: dict[str, int] = {}  # class -> column, in header order
            for t, col in tokens[1:]:
                if seen.setdefault(t, col) != col:
                    raise ParseError("duplicate label classes", line=lineno,
                                     column=col)
            header = (order, tuple(seen))
            continue
        try:
            facets.append(tuple(parse_label(t) for t, _ in tokens))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if header is None:
        raise ParseError("missing header line", line=1)
    try:
        return OrbitPresentation(classes=header[1], order=header[0],
                                 basic_facets=tuple(facets))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_orbit_presentation(presentation: OrbitPresentation) -> str:
    lines = [" ".join((str(presentation.order), *presentation.classes))]
    for facet in presentation.basic_facets:
        lines.append(" ".join(f"{cls}{idx}" for cls, idx in facet))
    return "\n".join(lines) + "\n"
