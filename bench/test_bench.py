"""Tests of the benchmark itself.  They run the traced benchmark, which takes
about a minute on two cores:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7

# per-layer metrics that must record work on the workload that mostly does it
MOSTLY = {
    "ext-nondegenerate": [
        "linalg.eliminate_s", "linalg.eliminate.calls",
        "linalg.eliminate.unknowns", "linalg.eliminate.rows",
        "linalg.eliminate.rank", "linalg.eliminate.nnz_in",
        "linalg.eliminate.nnz_out", "linalg.eliminate.fill_ratio",
        "linalg.eliminate.max_bits", "ext.stabilize.calls", "ext.ext1.calls",
        "ext.windows_per_stabilize"],
    "ext-cocycles": [
        "ext.ext1_self_s", "modules.simple_module_s",
        "modules.simple_module.calls", "linalg.nullspace_s",
        "ext.assemble_extension_s", "cli.self_s",
        "modules.check_relations_s", "modules.check_relations.checked"],
    "modules-structure": [
        "algebra.straighten_s", "algebra.straighten.calls",
        "algebra.gen_times_word.misses", "algebra.gen_times_word.hit_ratio",
        "modules.verma_s", "modules.verma.calls",
        "modules.check_relations_s", "modules.check_relations.checked",
        "linalg.dense_s", "structure.singular_vectors_s",
        "structure.submodule_s", "structure.multiplicities_s",
        "structure.mn_filtration_s", "structure.hasse_diagram_s"],
}


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of every workload on one seed, all started at once:
    {workload: [(result, spans), (result, spans)]}."""
    tmp = tmp_path_factory.mktemp("spans")
    procs = {}
    for name in workloads.WORKLOADS:
        for i in range(2):
            spans = tmp / ("%s-%d.json" % (name, i))
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(SEED), "--seconds", "1", "--trace", "1",
                    "--spans", str(spans)]
            procs[(name, i)] = (subprocess.Popen(
                argv, cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True), spans)
    out = {}
    try:
        for (name, i), (proc, spans) in procs.items():
            stdout, stderr = proc.communicate(timeout=900)
            assert proc.returncode == 0, stderr
            out.setdefault(name, []).append(
                (_result(stdout), json.loads(spans.read_text())))
    finally:
        for proc, _ in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out


def _metrics(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_runs_are_correct_and_complete(traced):
    names = [n for n, _ in tracer.PER_LAYER]
    for runs in traced.values():
        for result, _ in runs:
            assert result["correct"] and result["failed"] == 0
            assert list(result["metrics"]) == names


def test_exact_counts_repeat(traced):
    for name, (a, b) in traced.items():
        ma, mb = _metrics(a[0]), _metrics(b[0])
        for metric in tracer.EXACT:
            assert ma[metric] == mb[metric], (name, metric)


def test_each_layer_works_on_its_workload(traced):
    for name, metrics in MOSTLY.items():
        m = _metrics(traced[name][0][0])
        for metric in metrics + ["host.calib_s"]:
            assert m[metric] > 0, (name, metric)


def test_workloads_stress_different_layers(traced):
    nd = _metrics(traced["ext-nondegenerate"][0][0])
    assert nd["linalg.eliminate_s"] > 0.5 * nd["trace.wall_s"]
    ms = _metrics(traced["modules-structure"][0][0])
    assert ms["linalg.eliminate.calls"] == 0
    assert ms["ext.ext1.calls"] == 0
    assert _metrics(traced["ext-cocycles"][0][0])["ext.stabilize.calls"] == 0


def test_pivot_independent_system_sizes(traced):
    # the cocycle system of (3, 1) at window 5 in O; its nnz_out and
    # max_bits depend on the pivot rule and are not pinned
    spans = traced["ext-nondegenerate"][0][1]["spans"]
    sizes = {(s["attrs"]["unknowns"], s["attrs"]["rows"], s["attrs"]["rank"])
             for s in spans if s["name"] == "linalg.eliminate"}
    assert (371, 600, 280) in sizes


def test_manifest_lists_what_the_runs_report(traced):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == \
        tracer.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == \
        list(workloads.WORKLOADS)


def test_untraced_run_reports_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ext-cocycles",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ext-cocycles",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
