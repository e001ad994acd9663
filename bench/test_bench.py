"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from conedeform import graded, linalg  # noqa: E402


def _decks(workdir):
    return {p.name: p.read_text() for p in sorted(Path(workdir).iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_deterministic_per_seed(workload, tmp_path):
    dirs = [tmp_path / n for n in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a = workloads.make_round(workload, 7, 0, str(dirs[0]))
    b = workloads.make_round(workload, 7, 0, str(dirs[1]))
    c = workloads.make_round(workload, 8, 0, str(dirs[2]))
    assert [j.name for j in a] == [j.name for j in b] == [j.name for j in c]
    assert _decks(dirs[0]) == _decks(dirs[1])
    if workload in ("structured", "generic"):
        assert _decks(dirs[0]) != _decks(dirs[2])


def test_seed_draws_reach_library_jobs():
    """Library-API jobs close over their drawn inputs: two rounds of the
    same seed give identical outputs."""
    outs = []
    for _ in range(2):
        jobs = workloads.make_round("checks", 3, 0, ".")
        job = next(j for j in jobs if j.name.startswith("dbar-identity:levels"))
        outs.append(job.run())
    assert outs[0] == outs[1]


def test_series_oracles():
    # Fermat cubic in C^4: Milnor algebra (1 + t)^4
    assert [workloads.milnor_count(4, 3, k) for k in range(6)] == \
        [1, 4, 6, 4, 1, 0]
    # two quadrics in C^5: (1 + t)^2 / (1 - t)^3
    assert [workloads.ci_hilbert(5, [2, 2], k) for k in range(4)] == \
        [1, 5, 13, 25]


def test_hilbert_oracle_matches_quotient_basis():
    deck = workloads.parse_cone_deck(
        workloads.cli.EXAMPLE_DECKS["two-quadrics"])
    for k in range(5):
        assert graded.quotient_basis(deck.cone, k).quotient_dim == \
            workloads.ci_hilbert(5, [2, 2], k)


CHEAP_JOBS = {
    "structured": ("t1:odp3-z3", "weight:odp3", "rate:cubic-cone",
                   "rate:odp3-z3", "cech:p2-conic:o3", "cech:linear:o4",
                   "t1:diagonal:N6d4", "t1:diagonal-ci:N6c2"),
    "generic": ("t1:dense:N4d2", "cech:dense:d3o3"),
    "beltrami": ("dbar:const:4x32",),
    "checks": ("curvature:einstein:n1", "curvature:einstein:n1:diagnose",
               "metric:sweep", "dbar-identity:levels0-2:0"),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_pass_on_tiny_seed(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = workloads.make_round(workload, 0, 0, str(tmp_path))
    picked = [j for j in jobs if j.name.startswith(CHEAP_JOBS[workload])]
    assert picked
    for job in picked:
        failure = job.check(job.run())
        if job.name.endswith(":diagnose"):
            # the documented false "not converged" verdict
            assert failure is not None and failure.known_defect == \
                workloads.KNOWN_DEFECT_FALSE_NONCONVERGENCE
        else:
            assert failure is None, (job.name, failure)


def test_oracles_reject_wrong_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = {j.name: j for j in workloads.make_round("structured", 0, 0,
                                                    str(tmp_path))}
    for name, key, wrong in (("t1:odp3-z3", "t1_dimensions.dim[-1]", "9"),
                             ("weight:odp3", "deformation_weight.weight", "-1"),
                             ("rate:cubic-cone", "rate.lambda", "4"),
                             ("cech:p2-conic:o3", "embedding_orders.m(X,D)",
                              "2")):
        out = jobs[name].run()
        bad = "\n".join(f"{key}={wrong}" if ln.startswith(key + "=") else ln
                        for ln in out.splitlines())
        assert bad != out
        assert jobs[name].check(out) is None
        assert jobs[name].check(bad) is not None, name


def test_every_layer_resolves():
    for module, qualname, _, _ in tracing.LAYERS:
        owner, attr, fn = tracing.resolve(module, qualname)
        assert callable(fn), (module, qualname)


def test_install_rebinds_direct_imports_and_uninstall_restores():
    from conedeform import cli
    original = (cli.t1_graded, graded.t1_graded, linalg.row_echelon)
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        assert cli.t1_graded is graded.t1_graded
        assert cli.t1_graded is not original[0]
        assert workloads.curvature_check is \
            sys.modules["conedeform.cone_metric"].curvature_check
    finally:
        tracer.uninstall()
    assert (cli.t1_graded, graded.t1_graded, linalg.row_echelon) == original


def test_traced_job_reports_layers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        with tracer.job_span("j0", "job.t1"):
            workloads.run_cli(["t1", "--example", "odp3"])
        workloads.run_cli(["t1", "--example", "odp3"])  # not recorded
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["graded.t1_graded.calls"] == 1
    assert m["cli.main.calls"] == 1
    assert m["linalg.row_echelon.calls"] > 0
    assert 0 < m["linalg.row_echelon.nnz_ratio"] <= 1
    assert 0 < m["linalg.row_echelon.rank_ratio"] <= 1
    assert 0 <= m["graded.t1_graded.self_s"] <= m["graded.t1_graded.s"]
    assert m["job.t1.s"] >= m["cli.main.s"] >= m["graded.t1_graded.s"]
    assert all(s[4] is None or s[5] == "j0" for s in tracer.spans)
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "id", "parent", "job"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER


def test_percentile_and_tail():
    xs = [float(i) for i in range(1, 101)]
    assert run.percentile(xs, 50) == pytest.approx(50.5)
    assert run.percentile(xs, 100) == 100.0
    s = run.summarize([{"latency_s": x, "failure": None, "known_defect": None}
                       for x in xs], 80)
    assert s["jobs_beyond_tail"] == 20
    assert s["success_rate"] == 1.0


def test_run_refuses_without_program(tmp_path):
    """Without src/ next to bench/ the run exits nonzero, printing no result."""
    import shutil
    import subprocess
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "checks", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
