"""One benchmark operation, run in its own fresh interpreter.

    python3 perfbench/child.py build OP SEED
    python3 perfbench/child.py --spans PATH cli ARG...
    python3 perfbench/child.py --spans PATH build OP SEED

``build OP SEED`` makes one library call of the ``build`` workload and
prints its facets as JSON.  ``cli ARG...`` calls ``walkup.cli.main(ARG...)``
in-process.  With ``--spans PATH`` the public functions in ``TRACED`` are
replaced by timing wrappers before the call, and the spans, counters, the
import time of ``walkup.cli`` and the traced region's length are written to
PATH as JSON when the call returns.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public names to wrap; "Class.method" names are wrapped on the class
TRACED = {
    "catalog": ("get",),
    "fileio": ("parse_facets", "format_facets", "content_hash",
               "parse_tree_family", "format_tree_family"),
    "core": ("GeneralComplex.faces", "Complex.__init__",
             "Complex.ridge_incidence", "Complex.link",
             "Complex.boundary_complex"),
    "classify": ("dual_graph", "is_weak_pseudomanifold", "is_closed",
                 "is_stacked_ball", "is_stacked_sphere", "in_walkup_class",
                 "check_lower_bounds"),
    "homology": ("boundary_matrix", "betti_numbers", "is_orientable",
                 "certify_tight", "identify_type"),
    "linalg": ("gf2_rank", "int_rank"),
    "symmetry": ("automorphism_group", "group_closure"),
    "construct": ("verify_hypotheses", "complex_from_tree_family",
                  "tree_family_from_complex", "expand_orbit"),
    "generators": ("random_stacked_ball", "random_stacked_sphere",
                   "random_tree_complex"),
}

BUILD_SIZE = 800  # facets per generator call in the build workload
BUILD_OPS = ("random_stacked_sphere", "random_stacked_ball",
             "random_tree_complex", "expand_orbit:A5_21",
             "expand_orbit:B5_21", "expand_orbit:B5_26", "expand_orbit:A5_41",
             "complex_from_tree_family")


class Recorder:
    """Spans as [name, start, end, parent index], kept in memory, plus
    counters computed from the wrapped calls' arguments and results."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.walkup_pairs: set = set()

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        before, after = _COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, result)
            return result
        return traced

    def install(self, traced=TRACED) -> list[str]:
        """Wrap each named function in every ``walkup`` namespace that holds
        it, so names bound by ``from .x import y`` are covered too.  A name
        that does not exist is skipped, so its metrics are absent."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "walkup" or n.startswith("walkup."))]
        installed = []
        for module, names in traced.items():
            mod = sys.modules.get(f"walkup.{module}")
            for qualname in names:
                owner, attr = mod, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".", 1)
                    owner = getattr(mod, cls_name, None)
                fn = vars(owner).get(attr) if owner is not None else None
                if not callable(fn):
                    continue
                wrapper = self.wrap(f"{module}.{qualname}", fn)
                if owner is mod:
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, key, wrapper)
                else:
                    setattr(owner, attr, wrapper)
                installed.append(f"{module}.{qualname}")
        return installed


def _rows_in(name, nnz):
    def before(rec, args, kwargs):
        rows = list(args[0])  # may be a one-shot iterable
        rec.count(f"{name}.nnz_in", sum(map(nnz, rows)))
        return (rows,) + args[1:]
    return before


def _rank_out(name):
    return lambda rec, result: rec.count(f"{name}.rank", result)


def _walkup_pair(rec, args, kwargs):
    K = args[0] if args else kwargs["K"]
    variant = args[1] if len(args) > 1 else kwargs.get("variant")
    rec.walkup_pairs.add((len(K.maximal_faces), hash(K), variant))
    return args


_COUNTERS = {
    "linalg.gf2_rank": (_rows_in("linalg.gf2_rank", int.bit_count),
                        _rank_out("linalg.gf2_rank")),
    "linalg.int_rank": (_rows_in("linalg.int_rank",
                                 lambda row: sum(1 for v in row.values() if v)),
                        _rank_out("linalg.int_rank")),
    "symmetry.automorphism_group": (
        None, lambda rec, result: rec.count("symmetry.automorphism_group.order",
                                            result.order)),
    "classify.in_walkup_class": (_walkup_pair, None),
}


def build(op: str, seed: int) -> dict[str, list]:
    """Run one build operation; return the complexes it made, by role."""
    from walkup import catalog, construct, fileio, generators
    if op.startswith("expand_orbit:"):
        A = construct.expand_orbit(catalog.presentation(op.split(":", 1)[1]))
        return {"complex": A.facets, "boundary": A.boundary_complex().facets}
    if op == "complex_from_tree_family":
        family = catalog.get("A5_41_tree_family")
        return {"complex": construct.complex_from_tree_family(family).facets}
    K = getattr(generators, op)(4, BUILD_SIZE, seed)
    text = fileio.format_facets(K)
    return {"complex": K.facets, "text": text,
            "reparsed": fileio.parse_facets(text).facets}


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    if kind not in ("cli", "build"):
        print(__doc__, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import walkup.cli
    import_s = time.perf_counter() - t0
    rec = Recorder() if spans_path else None
    installed = rec.install() if rec else []
    code = 0
    t1 = time.perf_counter()
    try:
        if kind == "cli":
            try:
                code = walkup.cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        else:
            made = build(args[0], int(args[1]))
    finally:
        region_s = time.perf_counter() - t1
        sys.stdout.flush()
        if rec is not None:
            if rec.walkup_pairs:
                rec.count("classify.in_walkup_class.pairs", len(rec.walkup_pairs))
            doc = {"import_s": import_s, "region_s": region_s,
                   "installed": installed, "counters": rec.counters,
                   "spans": rec.spans}
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
    if kind == "build":
        json.dump(made, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
