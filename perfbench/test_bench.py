"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``.

Every known-answer check must be able to fail, a wrong expected answer must
count as a failed operation, the deterministic trace counters must repeat
exactly, tracing must not change a report, and a traced name missing from
the program must leave its metrics absent rather than crash the run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import reference as R
import run

COUNTER_SUFFIXES = (".calls", ".nnz_in", ".rank", ".order", ".redundancy")


@pytest.fixture(scope="module")
def work():
    path = run.ROOT / ".perfbench_work" / "selftest"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _deadline() -> float:
    return time.monotonic() + 120


def _cheap_ops(work, monkeypatch) -> list[run.Op]:
    """One operation of every check shape, on small inputs."""
    monkeypatch.setattr(run, "STACKED_SIZES", (20,))
    catalog, _ = run.catalog_setup(work, 1)
    stacked, _ = run.stacked_setup(work, 1)
    build, _ = run.build_setup(work, 1)
    by_name = {op.name: op for op in catalog + stacked + build}
    return [by_name[n] for n in (
        "verify A5_21", "verify S4_6", "table1", "decompose A5_41 | construct -",
        "verify stacked_20", "expand_orbit:B5_26", "complex_from_tree_family",
        "random_stacked_ball", "random_tree_complex")]


def test_every_check_can_fail(work, monkeypatch):
    for i, op in enumerate(_cheap_ops(work, monkeypatch)):
        out_path = work / f"check-{i}.out"
        argvs = [run.command(op, args, None) for args in op.commands]
        _, _, codes = run.spawn(argvs, out_path, work / f"check-{i}.err",
                                _deadline())
        out = out_path.read_text(encoding="utf-8")
        problems, _ = run.judge(op, out, codes)
        assert problems == [], (op.name, problems)
        for key in op.want:
            wrong = dataclasses.replace(op, want={**op.want, key: ("wrong",)})
            problems, _ = run.judge(wrong, out, codes)
            assert len(problems) == 1 and problems[0].startswith(key), \
                (op.name, key, problems)
        assert run.judge(op, "not the expected output", codes)[0]
        assert run.judge(op, out, [0] * (len(codes) - 1) + [1])[0]


def test_wrong_expected_answer_counts_as_failed_operation(work):
    ops, _ = run.catalog_setup(work, 1)
    op = next(o for o in ops if o.name == "verify A5_21")
    wrong = dataclasses.replace(op, want={**op.want, "aut_order": 8})
    runs = run.run_pass([op, wrong], work, "failcount", False, _deadline())
    assert [bool(r.problems) for r in runs] == [False, True]


def test_counters_repeat_and_tracing_keeps_reports(work):
    ops, _ = run.catalog_setup(work, 1)
    build, _ = run.build_setup(work, 1)
    ops = [o for o in ops + build
           if o.name in ("verify B5_21", "random_stacked_ball")]
    plain = run.run_pass(ops, work, "plain", False, _deadline())
    traced = [run.run_pass(ops, work, f"traced{i}", True, _deadline())
              for i in range(2)]
    for runs in traced:
        assert [r.fingerprint for r in runs] == [r.fingerprint for r in plain]
        assert not any(r.problems for r in runs)
    first, second = (run.layer_metrics(runs) for runs in traced)
    counters = {k: v for k, v in first.items() if k.endswith(COUNTER_SUFFIXES)}
    assert sum(counters.values()) > 0
    assert counters == {k: second.get(k) for k in counters}


def test_missing_traced_name_leaves_metric_absent():
    code = ("import json, child, walkup.cli\n"
            "print(json.dumps(child.Recorder().install("
            "{'linalg': ('gf2_rank', 'no_such_kernel'),"
            " 'no_such_module': ('f', 'C.m'), 'core': ('Nope.faces',)})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(run.ROOT / "src"), str(run.CHILD.parent)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["linalg.gf2_rank"]
    doc = {"installed": ["linalg.gf2_rank"], "spans": [], "counters": {},
           "import_s": 0.1, "region_s": 1.0}
    metrics = run.layer_metrics([run.OpRun("op", 1.0, 1.0, [], "", False, [doc])])
    assert metrics["linalg.gf2_rank.calls"] == 0
    assert not any(k.startswith("linalg.int_rank") for k in metrics)


def test_stacked_inputs_follow_the_seed():
    for n in (1, 2, 50):
        facets = R.stacked_sphere(n, 7)
        assert facets == R.stacked_sphere(n, 7)
        shape = R.shape(facets)
        assert (shape["facets"], shape["vertices"]) == (4 * n + 2, n + 5)
        assert shape["ridge_degrees"] == [2] and shape["dual_components"] == 1
    assert R.stacked_sphere(50, 7) != R.stacked_sphere(50, 8)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.CHILD.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
