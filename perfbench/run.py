"""Benchmark for walkup: cold-process workloads with outside-in tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Workloads.  Each is a closed loop with one client: operations run one at a
time, in order, and the next starts when the previous one has ended.  A pass
is one run over the workload's operations; passes repeat while the next
one is expected to end within ``--seconds``.

  catalog  ``walkup verify X`` for the nine catalog complexes, ``table1``,
           and ``decompose A5_41 | construct -`` (the second command reads
           the first one's output on stdin after it has ended): the paper's own
           reproduction, the only workload where automorphism search does
           real work (group orders 7 to 720) next to rational rank.
  stacked  ``walkup verify`` of facet files for the boundaries of seeded
           random stacked 5-balls with 200 and 800 facets, generated by the
           benchmark itself: large sparse boundary matrices and hundreds of
           vertex links, with automorphism search skipped at its vertex cap.
  build    library calls that build complexes and barely read them: the
           three seeded generators at 800 facets (each followed by
           format_facets and parse_facets), the four orbit expansions with
           their boundaries, and the A5_41 tree-family construction.

Cold-state protocol.  This process never imports ``walkup``: every operation
runs in a fresh interpreter with ``PYTHONPATH=src``.
``homology._betti_cached``, ``symmetry.automorphism_group`` and
``catalog.get`` are ``lru_cache``s keyed by complex equality, so repeating an
operation in one process would time cache hits (``table1`` after
``verify M4_41`` reuses both results).  The child pays interpreter start-up
and import, as a user of the command line does.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` and
``slowest_op_s`` (the sum and the largest of each operation's median wall
time over the passes), ``peak_rss_mb`` (largest max-RSS of any child in a
pass, median over passes) and ``setup_s`` (median of
``SETUP_REPS`` set-ups: making the inputs and a cold ``import walkup.cli``).
``--trace 1`` alternates an untraced pass with a traced one, in which each
operation runs under ``child.py --spans`` with timing wrappers around the
public functions of every layer, and reports per-layer calls, total and self
time, counters, the tracing overhead and span coverage.

Every operation's output is checked against known answers from
``reference.py``; a wrong exit code, a wrong answer, or a report that differs
(outside ``timing``) from the same operation's first output counts as a
failed operation.  The last line of standard output is the result as JSON;
``.perfbench_work/<workload>-seed<n>/result.json`` holds the per-operation
detail, the environment and the fingerprints, and ``spans.json`` the spans of
the traced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as R
from child import BUILD_OPS, BUILD_SIZE

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPS = 5
RUN_LIMIT_S = 165  # operations still running then are killed and count as failed
STACKED_SIZES = (200, 800)


@dataclass
class Op:
    """One operation: a command (or a pipeline of commands) and its check.

    ``kind`` is ``cli`` (arguments to ``walkup.cli``) or ``build`` (a
    library call made by ``child.py``).  ``facts`` reads the observed facts
    from standard output; ``want`` holds the expected ones.
    """

    name: str
    kind: str
    commands: list[list[str]]
    facts: Callable[[str], dict]
    want: dict
    canonical: Callable[[str], str] = lambda out: out


@dataclass
class OpRun:
    name: str
    wall_s: float
    rss_mb: float
    problems: list[str]
    fingerprint: str
    capacity_skip: bool
    traces: list[dict] = field(default_factory=list)


class SetupError(RuntimeError):
    pass


# --- workloads -------------------------------------------------------------

def _verify_op(name: str, source: str, facets, want: dict) -> Op:
    return Op(f"verify {name}", "cli", [["verify", source]],
              lambda out: R.verify_facts(json.loads(out), facets), want,
              R.canonical_report)


def catalog_setup(work: Path, seed: int) -> tuple[list[Op], dict]:
    ops = []
    for name in R.CATALOG_VERIFY:
        facets = R.catalog_facets(name)
        ops.append(_verify_op(name, name, facets,
                              R.catalog_verify_want(name, facets)))
    ops.append(Op("table1", "cli", [["table1"]], R.table1_facts, R.table1_want()))
    a541 = R.catalog_facets("A5_41")
    ops.append(Op("decompose A5_41 | construct -", "cli",
                  [["decompose", "A5_41"], ["construct", "-"]],
                  lambda out: {"facets": sorted(R.parse_facets(out))},
                  {"exit_code": 0, "facets": a541}))
    return ops, {}


def stacked_setup(work: Path, seed: int) -> tuple[list[Op], dict]:
    ops, inputs = [], {}
    for n in STACKED_SIZES:
        facets = R.stacked_sphere(n, seed * 1000 + n)
        text = R.format_facets(facets)
        path = work / f"stacked_{n}.facets"
        path.write_text(text, encoding="utf-8")
        source = path.relative_to(ROOT).as_posix()
        inputs[source] = {"ball_facets": n, "f0": n + 5,
                          "facets": len(facets), "bytes": len(text),
                          "sha256": R.sha256_text(text)}
        ops.append(_verify_op(f"stacked_{n}", source, facets,
                              R.stacked_verify_want(n, facets)))
    return ops, inputs


def _build_want(op: str) -> dict:
    """Known shape of each build result, from theory and the paper."""
    if op.startswith("expand_orbit:"):
        name = op.split(":", 1)[1]
        facets = R.expand_orbit(name)
        return {"exit_code": 0, "complex": facets, "boundary": R.boundary(facets)}
    if op == "complex_from_tree_family":
        return {"exit_code": 0, "complex": R.expand_orbit("A5_41")}
    d, n = 4, BUILD_SIZE
    want = {"exit_code": 0, "canonical_text": True, "roundtrip": True}
    if op == "random_stacked_sphere":
        # boundary of a stacked 5-ball with n facets: closed, connected
        shape = {"facets": 4 * n + 2, "vertices": n + d + 1, "distinct": True,
                 "ridge_degrees": [2], "dual_components": 1}
    else:
        # a tree dual graph: n - 1 interior ridges; a stacked ball adds one
        # fresh vertex per facet, the tree complex at most one
        shape = {"facets": n, "distinct": True, "ridge_degrees": [1, 2],
                 "dual_edges": n - 1, "dual_components": 1}
        if op == "random_stacked_ball":
            shape["vertices"] = n + d
    want.update({f"shape.{k}": v for k, v in shape.items()})
    if op == "random_tree_complex":
        want["vertices_at_most_n_plus_d"] = True
    return want


def _build_facts(op: str) -> Callable[[str], dict]:
    def facts(out: str) -> dict:
        made = json.loads(out)
        got = {role: sorted(map(tuple, made[role]))
               for role in ("complex", "boundary") if role in made}
        if "text" not in made:
            return got
        facets = got["complex"]
        text = made["text"]
        shape = R.shape(facets)
        got = {f"shape.{k}": v for k, v in shape.items()}
        got["canonical_text"] = text == R.format_facets(facets)
        got["roundtrip"] = (sorted(R.parse_facets(text)) == facets
                            == sorted(map(tuple, made["reparsed"])))
        got["vertices_at_most_n_plus_d"] = shape["vertices"] <= BUILD_SIZE + 4
        return got
    return facts


def build_setup(work: Path, seed: int) -> tuple[list[Op], dict]:
    ops = [Op(op, "build", [[op, str(seed)]], _build_facts(op), _build_want(op))
           for op in BUILD_OPS]
    return ops, {"generator_facets": BUILD_SIZE, "generator_dim": 4}


WORKLOADS = {"catalog": catalog_setup, "stacked": stacked_setup,
             "build": build_setup}


# --- running operations ----------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def command(op: Op, args: list[str], spans: Path | None) -> list[str]:
    traced = ["--spans", str(spans)] if spans else []
    if op.kind == "cli" and spans is None:
        return [sys.executable, "-m", "walkup.cli", *args]
    return [sys.executable, str(CHILD), *traced, op.kind, *args]


def spawn(argvs: list[list[str]], out_path: Path, err_path: Path,
          deadline: float) -> tuple[float, float, list[int]]:
    """Run commands one after another, each reading the previous one's
    output on stdin; return the wall time, the largest max-RSS of the
    processes in MiB, and their exit codes.  A process still running at
    ``deadline`` is killed."""
    env = child_env()
    wall, rss_kb, codes = 0.0, 0, []
    stdin_path = None
    for i, argv in enumerate(argvs):
        path = out_path if i == len(argvs) - 1 else out_path.with_suffix(f".{i}")
        with open(path, "wb") as out, open(err_path, "ab") as err, \
                open(stdin_path or os.devnull, "rb") as stdin:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdin=stdin, stdout=out, stderr=err,
                                 env=env, cwd=ROOT)
            timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                    _kill, (p,))
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                _kill(p)
                p.wait()
                raise
            finally:
                timer.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
            wall += time.perf_counter() - t0
        rss_kb = max(rss_kb, usage.ru_maxrss)
        codes.append(p.returncode)
        stdin_path = path
    return wall, rss_kb / 1024.0, codes


def _kill(p: subprocess.Popen) -> None:
    if p.returncode is None:
        try:
            os.kill(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _has_skip(doc) -> bool:
    if isinstance(doc, dict):
        return "skipped" in doc or any(_has_skip(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_has_skip(v) for v in doc)
    return False


def judge(op: Op, out: str, codes: list[int]) -> tuple[list[str], str]:
    """Problems with an operation's output, and the output's fingerprint."""
    try:
        facts = op.facts(out)
        fingerprint = hashlib.sha256(op.canonical(out).encode()).hexdigest()
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        facts, fingerprint = {"output": f"unreadable: {exc!r}"}, ""
    facts["exit_code"] = next((c for c in codes if c != 0), 0)
    return R.compare(facts, op.want), fingerprint


def run_op(op: Op, work: Path, tag: str, traced: bool, deadline: float) -> OpRun:
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    err_path.unlink(missing_ok=True)
    spans = [work / f"{tag}.{i}.spans.json" if traced else None
             for i in range(len(op.commands))]
    argvs = [command(op, args, s) for args, s in zip(op.commands, spans)]
    wall, rss, codes = spawn(argvs, out_path, err_path, deadline)
    out = out_path.read_text(encoding="utf-8", errors="replace")
    problems, fingerprint = judge(op, out, codes)
    traces = []
    for s in spans:
        if s is not None and s.exists():
            traces.append(json.loads(s.read_text(encoding="utf-8")))
            s.unlink()
        elif s is not None:
            problems.append("traced child wrote no spans")
    try:
        skip = _has_skip(json.loads(out))
    except ValueError:
        skip = False
    return OpRun(op.name, wall, rss, problems, fingerprint, skip, traces)


def run_pass(ops: list[Op], work: Path, tag: str, traced: bool,
             deadline: float) -> list[OpRun]:
    return [run_op(op, work, f"{tag}-{i:02d}", traced, deadline)
            for i, op in enumerate(ops)]


# --- metrics ---------------------------------------------------------------

def run_metrics(passes: list[list[OpRun]]) -> dict:
    """End-to-end metrics over a run's passes.  Each operation's wall time
    is its median over the passes; ``pass_s`` sums them and
    ``slowest_op_s`` is the largest."""
    op_s = [statistics.median(runs[i].wall_s for runs in passes)
            for i in range(len(passes[0]))]
    return {"pass_s": sum(op_s), "slowest_op_s": max(op_s),
            "peak_rss_mb": statistics.median(
                max(r.rss_mb for r in runs) for runs in passes),
            "capacity_skips": statistics.median(
                sum(r.capacity_skip for r in runs) for runs in passes)}


def layer_metrics(runs: list[OpRun]) -> dict:
    """Per-layer calls, total and self time, counters and span coverage of
    one traced pass.  ``total_s`` counts a recursive call once, at its
    outermost span; ``self_s`` is a span's time minus its children's."""
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    covered_total = region_total = 0.0
    coverage_min = 1.0
    for run in runs:
        for doc in run.traces:
            for name in doc["installed"]:
                for suffix in ("calls", "total_s", "self_s"):
                    add(f"{name}.{suffix}", 0)
            for name in ("linalg.gf2_rank", "linalg.int_rank"):
                if name in doc["installed"]:
                    add(f"{name}.nnz_in", 0)
                    add(f"{name}.rank", 0)
            if "symmetry.automorphism_group" in doc["installed"]:
                add("symmetry.automorphism_group.order", 0)
            spans = doc["spans"]
            child_s = [0.0] * len(spans)
            covered = 0.0
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_s[parent] += end - start
                else:
                    covered += end - start
            for i, (name, start, end, parent) in enumerate(spans):
                add(f"{name}.calls", 1)
                add(f"{name}.self_s", end - start - child_s[i])
                while parent >= 0 and spans[parent][0] != name:
                    parent = spans[parent][3]
                if parent < 0:
                    add(f"{name}.total_s", end - start)
            for key, value in doc["counters"].items():
                add(key, value)
            add("cli.import_s", doc["import_s"])
            covered_total += covered
            region_total += doc["region_s"]
            if doc["region_s"] > 0:
                coverage_min = min(coverage_min, covered / doc["region_s"])
    if "classify.in_walkup_class.calls" in m:
        pairs = m.pop("classify.in_walkup_class.pairs", 0)
        m["classify.in_walkup_class.redundancy"] = (
            m["classify.in_walkup_class.calls"] / pairs if pairs else 0.0)
    m["trace.span_coverage"] = covered_total / region_total if region_total else 0.0
    m["trace.span_coverage_min"] = coverage_min
    return m


def medians(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts if k in d)
            for k in dicts[0]}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if "coverage" in name or name.endswith(".redundancy"):
        return "ratio"
    return "count"


# --- environment -----------------------------------------------------------

def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def setup(workload: str, work: Path, seed: int, deadline: float):
    """Make the workload's inputs and import ``walkup.cli`` in a fresh
    interpreter; the probe fails the run early if the package is broken."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ops, inputs = WORKLOADS[workload](work, seed)
    _, _, codes = spawn([[sys.executable, "-c", "import walkup.cli"]],
                        work / "probe.out", work / "probe.err", deadline)
    if codes != [0]:
        err = (work / "probe.err").read_text(errors="replace")
        raise SetupError(f"cannot import walkup.cli from {ROOT / 'src'}:\n{err}")
    return ops, inputs


# --- main ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "walkup" / "__init__.py").is_file():
        print(f"no walkup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    setup_times = []
    try:
        for _ in range(SETUP_REPS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            ops, inputs = setup(args.workload, work, args.seed, deadline)
            setup_times.append(time.perf_counter() - t0)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2

    plain: list[list[OpRun]] = []
    traced: list[list[OpRun]] = []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        plain.append(run_pass(ops, work, f"p{len(plain)}", False, deadline))
        if args.trace:
            traced.append(run_pass(ops, work, f"t{len(traced)}", True, deadline))
        # start another pass only if it should end within --seconds
        now = time.monotonic()
        if now + (now - pass_start) > min(start + args.seconds, deadline):
            break

    # the first output of each operation is the reference for every repeat
    first = {r.name: r.fingerprint for r in plain[0]}
    for runs in plain + traced:
        for r in runs:
            if r.fingerprint != first[r.name]:
                r.problems.append("output differs from the first pass")
    all_runs = [r for runs in plain + traced for r in runs]
    failed = sum(1 for r in all_runs if r.problems)

    plain_m = run_metrics(plain)
    if args.trace:
        traced_m = run_metrics(traced)
        metrics = medians([layer_metrics(runs) for runs in traced])
        metrics["trace.overhead_s"] = traced_m["pass_s"] - plain_m["pass_s"]
        metrics["capacity_skips"] = plain_m["capacity_skips"]
        spans_doc = [{"id": f"t{p}:{r.name}", "processes": r.traces}
                     for p, runs in enumerate(traced) for r in runs]
        (work / "spans.json").write_text(json.dumps(spans_doc), encoding="utf-8")
    else:
        metrics = {k: plain_m[k] for k in ("pass_s", "slowest_op_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup_times)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(plain),
        "environment": {"python": sys.version.split()[0],
                        "nproc": os.cpu_count(), "git_sha": git_sha(ROOT)},
        "inputs": inputs, "setup_s": setup_times,
        "fingerprints": first,
        "operations": {op.name: {
            "wall_s": [runs[i].wall_s for runs in plain],
            "traced_wall_s": [runs[i].wall_s for runs in traced],
            "rss_mb": max(runs[i].rss_mb for runs in plain),
            "problems": sorted({p for runs in plain + traced
                                for p in runs[i].problems})}
            for i, op in enumerate(ops)},
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for name, d in detail["operations"].items():
        status = "ok" if not d["problems"] else "FAIL " + "; ".join(d["problems"])
        print(f"{name:32s} {statistics.median(d['wall_s']):8.3f} s  {status}")
    print(json.dumps({"info": {k: detail[k] for k in (
        "workload", "seed", "passes", "environment", "inputs", "fingerprints")}},
        sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(all_runs), "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
