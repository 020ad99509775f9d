"""Command-line front end.

Subcommands: ``verify`` (full pipeline report), ``table1`` (check the four
closed 4-manifolds against their reference records), ``construct`` (tree
family file to facet file), ``decompose`` (complex to tree family),
``export`` (catalog entry to file), ``homology`` and ``aut``.

Reports are JSON with sorted keys; wall-clock numbers live under a separate
"timing" key so the rest of the document is byte-reproducible.  Exit codes:
0 success, 1 verification mismatch, 2 input or output error, 3 a capacity
skip was escalated by --strict (``verify`` and ``aut``).
Automorphism generators in ``verify`` and ``aut`` act on the positions
0..n-1 of the sorted vertex list, not on the file's vertex ids: the facet
file ``0 5 7`` gives the generators ``[[0, 2, 1], [1, 0, 2]]``.

Schema 2 changed the ``consistency`` checks of ``verify``.  Schema 1 compared
the alternating sum of each Betti vector with the Euler characteristic, which
any set of ranks satisfies, so it could never fail.  Schema 2 reports checks
that a wrong rank can fail instead: ``betti_Q_le_GF2`` (beta_j over Q is at
most beta_j over GF(2) for every j, when both fields are computed) and
``poincare_duality_GF2`` (beta_j = beta_{d-j} over GF(2) on closed, connected
K(d) members, which are manifolds).  For the same reason ``homology`` exits
1 when beta_0 differs from the number of connected components over either
field, or when beta_j over Q exceeds beta_j over GF(2) for some j.

``euler_formula`` (K(d) members, d >= 4 even) tests chi = 2 beta_0 - 2 beta_1
over GF(2), the connected chi = 2 - 2 beta_1 summed over components.  This
check, ``orientable_vs_top_betti_q`` and the beta_0 check of ``homology``
compare facts of K itself (chi, orientation, components) with Betti numbers
taken on the reverse-stacking residual, so they also test that reduction.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import catalog, classify, construct, fileio, homology, symmetry
from .core import Complex
from .errors import CapacityError, DomainError, ParseError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3

SCHEMA_VERSION = 2


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_input_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text(encoding="utf-8")


def _resolve_complex(source: str) -> tuple[Complex, dict]:
    """Catalog name or facet file path -> complex plus input identity."""
    identity: dict = {"name": None, "path": None}
    try:
        obj = catalog.get(source)
    except DomainError:
        obj = None
    if obj is not None:
        if not isinstance(obj, Complex):
            raise DomainError(f"catalog entry {source!r} is not a complex")
        identity["name"] = source
        K = obj
    else:
        if source != "-" and not Path(source).exists():
            raise DomainError(f"{source!r} is neither a catalog name nor a file")
        identity["path"] = source
        K = fileio.parse_facets(_read_input_text(source))
    identity["sha256"] = fileio.content_hash(K)
    return K, identity


def _fields(arg: str) -> list[str]:
    if arg == "both":
        return [homology.GF2, homology.Q]
    return [homology.normalize_field(arg)]


def _automorphisms(K: Complex) -> dict:
    """Aut(K) on dense vertex ids as a report entry, or the capacity skip."""
    try:
        if K.vertices != tuple(range(K.num_vertices)):
            K = K.relabeled({v: i for i, v in enumerate(K.vertices)})
        return symmetry.automorphism_group(K).to_dict()
    except CapacityError as exc:
        return {"skipped": str(exc)}


def cmd_verify(args) -> int:
    timing: dict[str, float] = {}

    def stage(name: str, fn):
        t0 = time.perf_counter()
        value = fn()
        timing[name] = round(time.perf_counter() - t0, 6)
        return value

    K, identity = _resolve_complex(args.input)
    if K.is_empty:
        raise DomainError("the complex has no facets")

    report: dict = {"schema": SCHEMA_VERSION, "input": identity,
                    "seed": args.seed}
    props: dict = {}
    if K.dim >= 1:  # builds the top table
        wpm = props["weak_pseudomanifold"] = stage(
            "pseudomanifold", lambda: classify.is_weak_pseudomanifold(K))
    # a complex that is its own residual gets every face table here, and the
    # count reads their lengths; any other count builds no table of K
    stage("coreduction", lambda: homology._coreduction(classify.stacking_residual(K)))
    fv = stage("f_vector", K.f_vector)
    report["dim"] = K.dim
    report["num_vertices"] = K.num_vertices
    report["num_facets"] = K.num_facets
    report["f_vector"] = list(fv.counts)
    report["euler_characteristic"] = fv.chi

    connected = props["connected"] = stage("connected", K.is_connected)
    closed = False
    report["boundary_f_vector"] = None
    if K.dim >= 1:
        closed = props["closed"] = classify.is_closed(K)
        props["pseudomanifold"] = stage(
            "dual_graph", lambda: classify.is_pseudomanifold(K))
        props["neighborly"] = K.is_neighborly(2)
        props["tree_dual_graph"] = classify._has_tree_dual_graph(K)
        props["stacked_ball"] = stage(
            "stackedness", lambda: classify.is_stacked_ball(K))
        props["stacked_sphere"] = (
            stage("stacked_sphere", lambda: classify.is_stacked_sphere(K))
            if closed else False)
        if wpm and not closed:
            boundary = stage("boundary", K.boundary_complex)
            if not boundary.is_empty:
                report["boundary_f_vector"] = list(boundary.f_vector().counts)
    report["properties"] = props

    if K.dim >= 2:
        report["walkup"] = stage("walkup", lambda: {
            v: classify.in_walkup_class(K, v) for v in classify.WALKUP_VARIANTS})
    else:
        report["walkup"] = None
    in_k = report["walkup"] is not None and report["walkup"]["K"]

    betti: dict = {}
    for field in _fields(args.field):
        betti[field] = list(stage(
            f"betti_{field}", lambda f=field: homology.betti_numbers(K, f)).values)
    report["betti"] = betti
    gf2, q = betti.get(homology.GF2), betti.get(homology.Q)

    orientable = None
    if closed and props["pseudomanifold"]:
        orientable = stage("orientability", lambda: homology.is_orientable(K))
    report["orientable"] = orientable

    report["automorphisms"] = stage("automorphisms", lambda: _automorphisms(K))

    if K.dim >= 3 and closed and props["pseudomanifold"] and gf2 is not None:
        bounds = stage("bounds", lambda: classify.check_lower_bounds(K, gf2[1]))
        report["bounds"] = bounds.to_dict()
    else:
        report["bounds"] = None

    if K.dim in (3, 4) and closed:
        report["tightness"] = stage(
            "tightness", lambda: homology.certify_tight(K)).to_dict()
    else:
        report["tightness"] = None

    if K.dim >= 4 and connected and in_k:
        report["homeomorphism_type"] = stage(
            "type", lambda: homology.identify_type(K)).to_dict()
    else:
        report["homeomorphism_type"] = None

    consistency: dict[str, bool] = {}
    if gf2 is not None and q is not None:
        consistency["betti_Q_le_GF2"] = all(b <= a for b, a in zip(q, gf2))
    if in_k and closed and connected and gf2 is not None:
        consistency["poincare_duality_GF2"] = gf2 == gf2[::-1]
    if in_k and gf2 is not None and K.dim >= 4 and K.dim % 2 == 0:
        # chi = 2 - 2 beta_1 on each connected member, summed over the parts
        consistency["euler_formula"] = fv.chi == 2 * gf2[0] - 2 * gf2[1]
    if orientable is not None and q is not None:
        consistency["orientable_vs_top_betti_q"] = orientable == (q[K.dim] == 1)
    report["consistency"] = consistency
    report["timing"] = timing

    if args.text:
        _emit(_verify_text(report), args.out)
    else:
        _emit(_json(report), args.out)
    if "skipped" in report["automorphisms"] and args.strict:
        return EXIT_CAPACITY
    return EXIT_OK if all(consistency.values()) else EXIT_MISMATCH


def _verify_text(report: dict) -> str:
    """Human-readable rendering of a verification report (timing omitted)."""
    lines = []
    ident = report["input"]
    lines.append(f"input: {ident['name'] or ident['path']} "
                 f"(sha256 {ident['sha256'][:16]})")
    lines.append(f"dim {report['dim']}, {report['num_vertices']} vertices, "
                 f"{report['num_facets']} facets")
    fv = ",".join(map(str, report["f_vector"]))
    lines.append(f"f-vector: ({fv}), chi = {report['euler_characteristic']}")
    props = report["properties"]
    flags = ", ".join(k for k in sorted(props) if props[k] is True) or "none"
    lines.append(f"properties: {flags}")
    if report["boundary_f_vector"]:
        bfv = ",".join(map(str, report["boundary_f_vector"]))
        lines.append(f"boundary f-vector: ({bfv})")
    if report["walkup"]:
        w = report["walkup"]
        lines.append("walkup classes: "
                     + " | ".join(f"{k} {'yes' if w[k] else 'no'}"
                                  for k in ("K", "Kbar", "Kstar")))
    for field in sorted(report["betti"]):
        lines.append(f"betti {field}: ("
                     + ",".join(map(str, report["betti"][field])) + ")")
    if report["orientable"] is not None:
        lines.append(f"orientable: {'yes' if report['orientable'] else 'no'}")
    aut = report["automorphisms"]
    if "skipped" in aut:
        lines.append(f"automorphisms: skipped ({aut['skipped']})")
    else:
        tag = f" ({aut['structure']})" if aut["structure"] else ""
        lines.append(f"automorphisms: order {aut['order']}{tag}")
    if report["bounds"]:
        vb = report["bounds"]["vertex_bound"]
        lines.append(f"vertex bound: {vb['lhs']} >= {vb['rhs']}"
                     + (" (equality)" if vb["equality"] else ""))
    if report["tightness"]:
        t = report["tightness"]
        if t["certified"]:
            lines.append(f"tightness: {t['field']}-tight, strongly minimal")
        else:
            lines.append(f"tightness: {t['detail']}")
    if report["homeomorphism_type"]:
        lines.append(f"type: {report['homeomorphism_type']['type']}")
    bad = [k for k, ok in report["consistency"].items() if not ok]
    lines.append("consistency: " + ("all checks pass" if not bad
                                    else "FAILED " + ", ".join(sorted(bad))))
    return "\n".join(lines) + "\n"


def cmd_table1(args) -> int:
    rows = []
    mismatches = []
    for name in catalog.TABLE1_NAMES:
        K = catalog.get(name)
        want = catalog.expected(name)
        # homology builds every face table, which the count then reads
        beta1 = homology.betti_numbers(K, homology.GF2)[1]
        orientable = homology.is_orientable(K)
        fv = K.f_vector()
        aut = symmetry.automorphism_group(K)
        type_string = homology.sphere_bundle_type(K.dim, beta1, orientable)
        got = {
            "f_vector": tuple(fv.counts), "chi": fv.chi, "beta1": beta1,
            "aut_order": aut.order, "orientable": orientable,
            "type": type_string,
        }
        wanted = {
            "f_vector": want.f_vector, "chi": want.chi, "beta1": want.beta1,
            "aut_order": want.aut_order, "orientable": want.orientable,
            "type": want.type_string,
        }
        for cell, value in got.items():
            if value != wanted[cell]:
                mismatches.append(
                    f"{name}.{cell}: got {value!r}, expected {wanted[cell]!r}")
        rows.append((name, got))

    if args.json:
        doc = {"schema": SCHEMA_VERSION,
               "rows": {name: {k: list(v) if isinstance(v, tuple) else v
                               for k, v in got.items()} for name, got in rows},
               "mismatches": mismatches}
        _emit(_json(doc), args.out)
    else:
        lines = [f"{'M':8} {'f0':>3} {'chi':>4} {'beta1':>5} {'Aut':>4} "
                 f"{'orient':>6}  {'f(M)':28} type"]
        for name, got in rows:
            fvs = "(" + ",".join(map(str, got["f_vector"])) + ")"
            lines.append(
                f"{name:8} {got['f_vector'][0]:>3} {got['chi']:>4} "
                f"{got['beta1']:>5} {got['aut_order']:>4} "
                f"{'yes' if got['orientable'] else 'no':>6}  {fvs:28} "
                f"{got['type']}")
        for m in mismatches:
            lines.append("MISMATCH " + m)
        lines.append("table1: "
                     + ("all rows match the reference records" if not mismatches
                        else f"{len(mismatches)} cell(s) differ"))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_construct(args) -> int:
    family = fileio.parse_tree_family(_read_input_text(args.family))
    try:
        K = construct.complex_from_tree_family(family)
    except construct.HypothesisError as exc:
        print("construction hypotheses failed:", file=sys.stderr)
        print(exc.report.summary(), file=sys.stderr)
        return EXIT_MISMATCH
    _emit(fileio.format_facets(K), args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    K, _ = _resolve_complex(args.input)
    try:
        family = construct.tree_family_from_complex(K)
    except DomainError as exc:
        print(f"decompose: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    _emit(fileio.format_tree_family(family), args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    obj = catalog.get(args.name)
    if isinstance(obj, Complex):
        _emit(fileio.format_facets(obj), args.out)
    else:
        _emit(fileio.format_tree_family(obj), args.out)
    return EXIT_OK


def cmd_homology(args) -> int:
    K, identity = _resolve_complex(args.input)
    betti = {field: list(homology.betti_numbers(K, field).values)
             for field in _fields(args.field)}
    doc = {"schema": SCHEMA_VERSION, "input": identity,
           "euler_characteristic": K.f_vector().chi, "betti": betti}
    components = len(K.vertex_components())
    ok = all(values[0] == components for values in betti.values())
    if homology.GF2 in betti and homology.Q in betti:
        ok = ok and all(q <= g for q, g in zip(betti[homology.Q],
                                               betti[homology.GF2]))
    _emit(_json(doc), args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_aut(args) -> int:
    K, identity = _resolve_complex(args.input)
    doc = {"schema": SCHEMA_VERSION, "input": identity,
           "automorphisms": _automorphisms(K)}
    _emit(_json(doc), args.out)
    if "skipped" in doc["automorphisms"] and args.strict:
        return EXIT_CAPACITY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkup",
        description="verify, construct and export stacked-sphere-class "
                    "triangulations")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in verify reports; no "
                             "randomized helper reads it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strict=False):
        p.add_argument("--out", default=None, help="write output here "
                       "instead of stdout")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="turn capacity skips into exit code 3")

    p = sub.add_parser("verify", help="run the full verification pipeline")
    p.add_argument("input", help="catalog name, facet file path, or -")
    p.add_argument("--field", type=str.lower, choices=["gf2", "q", "both"],
                   default="both", help="coefficient field, in any case")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--json", dest="text", action="store_false",
                      help="JSON report (default)")
    mode.add_argument("--text", dest="text", action="store_true",
                      help="human-readable summary instead of JSON")
    p.set_defaults(text=False)
    common(p, strict=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table1", help="check the four closed 4-manifolds "
                                      "against their reference records")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("construct", help="build a complex from a tree family "
                                         "file")
    p.add_argument("family", help="tree family file path, or -")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("decompose", help="recover the tree family of a "
                                         "neighborly Kbar member")
    p.add_argument("input", help="catalog name, facet file path, or -")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("export", help="write a catalog entry as a facet or "
                                      "tree family file")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("homology", help="Betti numbers over GF(2) and/or Q")
    p.add_argument("input", help="catalog name, facet file path, or -")
    p.add_argument("--field", type=str.lower, choices=["gf2", "q", "both"],
                   default="both", help="coefficient field, in any case")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("aut", help="automorphism group")
    p.add_argument("input", help="catalog name, facet file path, or -")
    common(p, strict=True)
    p.set_defaults(func=cmd_aut)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Every input or output failure exits with
    ``EXIT_INPUT``: a malformed file as ``parse error: ...``, a ``--out``
    file that cannot be written as ``output error: ...``, and a missing
    file, an unknown name or an input outside a command's domain as
    ``input error: ...``."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except (DomainError, OSError) as exc:
        failed = getattr(exc, "filename", None)
        side = "output" if args.out and failed == str(Path(args.out)) \
            else "input"
        print(f"{side} error: {exc}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
