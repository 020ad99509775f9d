"""Known answers and the benchmark's own combinatorics.

Nothing here imports ``walkup``.  Every expected value comes from the paper
(its orbit presentations and summary table), from the README, or from
theory; none is read from ``catalog.expected``.  The facet sets the checks
compare against are expanded here from the paper's orbit presentations, and
the stacked spheres of the ``stacked`` workload are generated here, so a
change to ``walkup.generators`` or ``walkup.catalog`` cannot change what a
check expects.

A check is a dict of expected *facts*; ``compare`` reports every fact whose
observed value differs.  The ``*_facts`` functions read only stable report
keys, so a schema change that reshapes ``timing`` or adds keys is not a
failure.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import comb

Facet = tuple[int, ...]

# The paper's cyclic orbit presentations: label classes, group order and
# basic facets.  Label class k of order m occupies vertex ids [k*m, (k+1)*m).
ORBITS = {
    "A5_21": ("abc", 7, ("a0 a1 a2 b0 b1 c0", "a1 a2 b0 b1 b2 c0",
                         "a1 a2 a3 b0 b1 b2", "a0 a1 b0 b1 c0 c3",
                         "a0 a1 b0 b3 c0 c3", "a0 b0 b3 c0 c3 c4",
                         "a0 a3 b3 c0 c3 c4", "a3 b3 c0 c3 c4 c6")),
    "B5_21": ("abc", 7, ("a0 a1 a2 b0 b1 c0", "a0 a1 a2 b1 b2 c0",
                         "a0 a1 a2 a3 b1 b2", "a0 a1 b0 b1 c0 c3",
                         "a0 b0 b1 b3 c0 c3", "a0 b0 b3 c0 c3 c4",
                         "a3 b0 b3 c0 c3 c4", "a3 b3 c0 c3 c4 c6")),
    "B5_26": ("ab", 13, ("a0 a10 a11 a12 b9 b10", "a0 a1 a10 a11 a12 b10",
                         "a0 a11 a12 b5 b9 b10", "a0 a11 a12 b2 b5 b10",
                         "a0 a7 a12 b2 b5 b10", "a7 a12 b0 b2 b5 b10",
                         "a7 b0 b2 b5 b8 b10")),
    "A5_41": ("a", 41, ("a36 a37 a38 a39 a40 a0", "a36 a37 a38 a39 a0 a6",
                        "a37 a38 a39 a0 a6 a13", "a38 a39 a0 a6 a13 a20",
                        "a39 a0 a6 a13 a20 a27", "a6 a13 a20 a27 a34 a0")),
}
BOUNDARY_OF = {"M4_21": "A5_21", "N4_21": "B5_21", "N4_26": "B5_26",
               "M4_41": "A5_41"}
ORBIT_FACETS = {"A5_21": 56, "B5_21": 56, "B5_26": 91, "A5_41": 246}
# beta_1 of each 5-complex and of its boundary (the paper's table); the
# automorphism group of each is the cyclic group of its orbit presentation
BETA1 = {"A5_21": 8, "B5_21": 8, "B5_26": 14, "A5_41": 42}
BOUNDARY_ROWS = {
    # name: (f-vector, orientable, type), the paper's summary table
    "M4_21": ((21, 210, 490, 525, 210), True, "(S3xS1)^#8"),
    "N4_21": ((21, 210, 490, 525, 210), False, "(S3xS1)^#8 twisted"),
    "N4_26": ((26, 325, 780, 845, 338), False, "(S3xS1)^#14 twisted"),
    "M4_41": ((41, 820, 2050, 2255, 902), True, "(S3xS1)^#42"),
}
CATALOG_VERIFY = ("A5_21", "B5_21", "B5_26", "A5_41", "M4_21", "N4_21",
                  "N4_26", "M4_41", "S4_6")


def expand_orbit(name: str) -> list[Facet]:
    classes, m, rows = ORBITS[name]
    facets = set()
    for row in rows:
        labels = [(classes.index(tok[0]), int(tok[1:])) for tok in row.split()]
        for shift in range(m):
            facets.add(tuple(sorted(k * m + (i + shift) % m for k, i in labels)))
    return sorted(facets)


def boundary(facets: list[Facet]) -> list[Facet]:
    """Ridges lying in exactly one facet."""
    count: dict[Facet, int] = {}
    for f in facets:
        for r in itertools.combinations(f, len(f) - 1):
            count[r] = count.get(r, 0) + 1
    return sorted(r for r, c in count.items() if c == 1)


def catalog_facets(name: str) -> list[Facet]:
    if name in ORBITS:
        return expand_orbit(name)
    if name in BOUNDARY_OF:
        return boundary(expand_orbit(BOUNDARY_OF[name]))
    if name == "S4_6":
        return list(itertools.combinations(range(6), 5))
    raise KeyError(name)


def format_facets(facets: list[Facet]) -> str:
    return "".join(" ".join(map(str, f)) + "\n" for f in sorted(facets))


def parse_facets(text: str) -> list[Facet]:
    return [tuple(sorted(int(t) for t in line.split()))
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stacked_sphere(num_ball_facets: int, seed: int, dim: int = 5) -> list[Facet]:
    """Boundary of a seeded random stacked ``dim``-ball.

    Each step glues a fresh apex onto a uniformly chosen free ridge.  The
    free ridges are kept in a list with swap-removal, so a step costs
    O(dim), and the boundary is the final list of free ridges.
    """
    rng = random.Random(seed)
    first = tuple(range(dim + 1))
    free = list(itertools.combinations(first, dim))
    apex = dim + 1
    for _ in range(num_ball_facets - 1):
        i = rng.randrange(len(free))
        ridge = free[i]
        free[i] = free[-1]
        free.pop()
        free.extend(r + (apex,) for r in itertools.combinations(ridge, dim - 1))
        apex += 1
    return sorted(free)


def shape(facets: list[Facet]) -> dict:
    """Counts the build checks compare: facets, vertices, ridge degrees and
    the dual graph (facets adjacent when they share a ridge)."""
    owners: dict[Facet, list[int]] = {}
    for i, f in enumerate(facets):
        for r in itertools.combinations(f, len(f) - 1):
            owners.setdefault(r, []).append(i)
    parent = list(range(len(facets)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = 0
    for ix in owners.values():
        for a, b in itertools.combinations(ix, 2):
            edges += 1
            parent[find(a)] = find(b)
    degrees = sorted({len(ix) for ix in owners.values()})
    return {"facets": len(facets), "vertices": len({v for f in facets for v in f}),
            "distinct": len(set(facets)) == len(facets),
            "ridge_degrees": degrees, "dual_edges": edges,
            "dual_components": len({find(i) for i in range(len(facets))})}


def compare(facts: dict, want: dict) -> list[str]:
    """One problem line per expected fact that the observation misses."""
    return [f"{key}: got {_short(facts.get(key))}, expected {_short(value)}"
            for key, value in want.items() if facts.get(key) != value]


def _short(value, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def is_symmetry(perm: list[int], facets: list[Facet]) -> bool:
    facet_set = set(facets)
    return all(tuple(sorted(perm[v] for v in f)) in facet_set for f in facets)


def verify_facts(report: dict, facets: list[Facet]) -> dict:
    """Stable facts of a ``verify`` report; ``facets`` is the benchmark's own
    copy of the input, used to check the input hash and every reported
    automorphism generator."""
    aut = report.get("automorphisms") or {}
    betti = report.get("betti") or {}
    tight = report.get("tightness")
    bounds = report.get("bounds")
    htype = report.get("homeomorphism_type")
    gens = aut.get("generators")
    return {
        "input_sha256": (report.get("input") or {}).get("sha256"),
        "f_vector": report.get("f_vector"),
        "euler_characteristic": report.get("euler_characteristic"),
        "betti_GF2": betti.get("GF2"),
        "betti_Q": betti.get("Q"),
        "orientable": report.get("orientable"),
        "walkup": report.get("walkup"),
        "aut_order": "skipped" if "skipped" in aut else aut.get("order"),
        "aut_generators_preserve_facets": (
            "skipped" in aut or (isinstance(gens, list)
                                 and all(is_symmetry(g, facets) for g in gens))),
        "tight": None if tight is None else (tight.get("certified"),
                                             tight.get("field")),
        "type": None if htype is None else htype.get("type"),
        "bounds": None if bounds is None else (
            [e.get("equality") for e in bounds.get("per_dimension", [])],
            (bounds.get("vertex_bound") or {}).get("satisfied"),
            (bounds.get("vertex_bound") or {}).get("equality")),
        "consistency": all((report.get("consistency") or {"": False}).values()),
    }


def _chi(fv) -> int:
    return sum(c if j % 2 == 0 else -c for j, c in enumerate(fv))


def catalog_verify_want(name: str, facets: list[Facet]) -> dict:
    """Expected facts of ``verify <name>`` for the nine catalog entries."""
    if name in ORBITS:
        # Faces up to dimension 3 coincide with the boundary's (skeleton
        # equality for Walkup-class members); f_5 is the orbit count, and
        # f_4 = f_4(boundary) + dual-graph edges, whose cycle-and-path shape
        # has f_5 - 1 + beta_1 edges.  The 5-complex retracts to a wedge of
        # beta_1 circles.
        bname = next(b for b, a in BOUNDARY_OF.items() if a == name)
        bfv = BOUNDARY_ROWS[bname][0]
        b1, f5 = BETA1[name], ORBIT_FACETS[name]
        fv = list(bfv[:4]) + [bfv[4] + f5 - 1 + b1, f5]
        betti = [1, b1, 0, 0, 0, 0]
        return _want(facets, fv, betti, betti, None,
                     {"K": False, "Kbar": True, "Kstar": False},
                     ORBITS[name][1], None, None, None)
    if name in BOUNDARY_ROWS:
        fv, orientable, htype = BOUNDARY_ROWS[name]
        b1 = BETA1[BOUNDARY_OF[name]]
        betti_q = [1, b1, 0, b1, 1] if orientable else [1, b1, 0, b1 - 1, 0]
        order = ORBITS[BOUNDARY_OF[name]][1]
        return _want(facets, list(fv), [1, b1, 0, b1, 1], betti_q, orientable,
                     {"K": True, "Kbar": False, "Kstar": True}, order,
                     (True, "Q" if orientable else "GF2"), htype,
                     ([True] * 4, True, True))
    # S4_6, the boundary of the 5-simplex: its group is Sym(6)
    return _want(facets, [6, 15, 20, 15, 6], [1, 0, 0, 0, 1], [1, 0, 0, 0, 1],
                 True, {"K": True, "Kbar": False, "Kstar": True}, 720,
                 (True, "Q"), "S4", ([True] * 4, True, True))


def _want(facets, fv, betti_gf2, betti_q, orientable, walkup, aut_order,
          tight, htype, bounds) -> dict:
    return {
        "exit_code": 0,
        "input_sha256": sha256_text(format_facets(facets)),
        "f_vector": fv, "euler_characteristic": _chi(fv),
        "betti_GF2": betti_gf2, "betti_Q": betti_q,
        "orientable": orientable, "walkup": walkup,
        "aut_order": aut_order, "aut_generators_preserve_facets": True,
        "tight": tight, "type": htype, "bounds": bounds, "consistency": True,
    }


def stacked_verify_want(num_ball_facets: int, facets: list[Facet]) -> dict:
    """Expected facts of ``verify`` on the boundary of a stacked 5-ball.

    A stacked 4-sphere attains the lower bound theorem with equality:
    f_j = C(5, j) f_0 - j C(6, j+1) for j < 4 and f_4 = 4 f_0 - 18.  It is
    in K(4) but not in Kbar(4), and it is 2-neighborly (so in Kstar(4) and
    tight) only when it is the boundary of the simplex.  More than 64
    vertices exceed the automorphism cap, so the search may be skipped.
    """
    f0 = num_ball_facets + 5
    fv = [f0] + [comb(5, j) * f0 - j * comb(6, j + 1) for j in (1, 2, 3)] \
        + [4 * f0 - 18]
    want = _want(facets, fv, [1, 0, 0, 0, 1], [1, 0, 0, 0, 1], True,
                 {"K": True, "Kbar": False, "Kstar": False},
                 "skipped", (False, None), "S4", ([True] * 4, True, False))
    if f0 <= 64:
        del want["aut_order"]  # searched, so the order is whatever it is
    return want


def table1_facts(stdout: str) -> dict:
    """Each manifold's row must read: name f0 chi beta1 |Aut| orientable."""
    rows = {}
    for line in stdout.splitlines():
        tokens = line.split()
        if tokens and tokens[0] in BOUNDARY_ROWS:
            rows[tokens[0]] = tokens[1:6]
    return {"rows": rows}


def table1_want() -> dict:
    rows = {}
    for name, (fv, orientable, _) in BOUNDARY_ROWS.items():
        order = ORBITS[BOUNDARY_OF[name]][1]
        rows[name] = [str(fv[0]), str(_chi(fv)), str(BETA1[BOUNDARY_OF[name]]),
                      str(order), "yes" if orientable else "no"]
    return {"exit_code": 0, "rows": rows}


def canonical_report(stdout: str) -> str:
    """The report with ``timing`` removed, in canonical JSON."""
    doc = json.loads(stdout)
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)
