"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs as gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
_RUNS = {}


def smoke(workload, trace, goldens=None):
    """One round of the workload (``--seconds`` rounds up to one round)."""
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    return run.run(args, goldens=goldens)


def smoke_cached(workload, trace):
    if (workload, trace) not in _RUNS:
        _RUNS[workload, trace] = smoke(workload, trace)
    return _RUNS[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    result, facts = smoke_cached(workload, trace)
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, facts["failures"]
    assert facts["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_hold_the_written_predictions():
    exact = smoke_cached("exact_certificates", 1)[0]["metrics"]
    numeric = smoke_cached("numeric_spectra", 1)[0]["metrics"]
    conjugacy = smoke_cached("conjugacy", 1)[0]["metrics"]
    cli = smoke_cached("cli", 1)[0]["metrics"]
    assert exact["gibbs.perron.calls"]["value"] == 0
    assert exact["shiftcore.admissible_words.calls"]["value"] == 0
    assert numeric["shiftcore.admissible_words.calls"]["value"] == 0
    assert numeric["gibbs.perron.calls"]["value"] > 0
    assert numeric["spectrum.char_poly.n16.p50_ms"]["value"] > 0
    assert conjugacy["rigidity.induce_conjugacy.calls"]["value"] > 0
    assert conjugacy["shiftcore.admissible_words.words"]["value"] > 0
    assert cli["cli.main.self_ms"]["value"] > 0 and cli["cli.interpreter_start_ms"]["value"] > 0
    for metrics in (exact, numeric, conjugacy, cli):
        assert metrics["trace.overhead_ratio"]["value"] > 0


def test_wrappers_are_removed_after_a_traced_run():
    pkg = run.import_package()
    before = (pkg.gibbs.perron, pkg.spectrum.perron, pkg.GibbsChain.__dict__["from_stochastic"])
    tracer = Tracer()
    tracer.install(pkg.__name__)
    assert pkg.spectrum.perron is not before[1] and pkg.spectrum.perron is pkg.gibbs.perron
    tracer.uninstall()
    assert (pkg.gibbs.perron, pkg.spectrum.perron, pkg.GibbsChain.__dict__["from_stochastic"]) == before


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans.extend(
        [
            ["gibbs.normalize", 0.0, 1.0, -1, 0, None],
            ["gibbs.perron", 0.25, 0.5, 0, 0, 4],
            ["gibbs.perron", 2.0, 2.5, -1, 1, 4],
        ]
    )
    tracer.ops = 2
    metrics = tracer.metrics()
    assert metrics["gibbs.normalize.self_ms"][0] == pytest.approx(375.0)
    assert metrics["gibbs.perron.self_ms"][0] == pytest.approx(375.0)
    assert metrics["gibbs.perron.calls"][0] == 1.0
    assert metrics["gibbs.perron.n4.p50_us"][0] == pytest.approx(375000.0)


def _corrupt_numerical(goldens):
    doc = goldens["gibbs-normalize"]["doc"]
    doc["perron_root"] *= 1 + 1e-6


def _corrupt_exact(goldens):
    goldens["spectrum-compare"]["sha256"] = "0" * 64


@pytest.mark.parametrize("corrupt", [_corrupt_exact, _corrupt_numerical])
def test_corrupted_golden_is_a_failed_op(corrupt):
    goldens = json.loads(workloads.GOLDENS.read_text())["commands"]
    corrupt(goldens)
    result, facts = smoke("cli", 0, goldens=goldens)
    assert not result["correct"] and result["failed"] == 1
    assert "differs from the golden" in facts["failures"][0]


def test_golden_comparison_tolerates_last_bits_but_not_format():
    golden = {"root": 1.5, "rows": [[0.25, None]], "mode": "numerical"}
    assert workloads.same_structure({"root": 1.5 * (1 + 1e-13), "rows": [[0.25, None]], "mode": "numerical"}, golden) is None
    assert workloads.same_structure({"root": 1.5 * (1 + 1e-6), "rows": [[0.25, None]], "mode": "numerical"}, golden) == "$.root"
    assert workloads.same_structure({"rows": [[0.25, None]], "root": 1.5, "mode": "numerical"}, golden) == "$"
    assert workloads.same_structure({"root": 1.5, "rows": [[0.25]], "mode": "numerical"}, golden) == "$.rows[0]"


def test_inputs_depend_only_on_the_seed():
    def draws(seed):
        log = gen.DrawLog()
        rows, values = gen.numeric_draw(gen.rng_for(seed, 1, 0, 1), 6, gen.stratum(0), log)
        return rows.tolist(), values, gen.exact_tuple(gen.rng_for(seed, 2, 0, 0), 1024), log.summary()

    assert draws(5) == draws(5)
    assert draws(5) != draws(6)


def test_numeric_draws_land_in_their_stratum_under_the_cap():
    log = gen.DrawLog()
    for target in range(gen.STRATA):
        rows, values = gen.numeric_draw(gen.rng_for(9, target), 8, target, log)
        worst, total = gen.predicted_power_steps(rows, values)
        assert worst <= gen.POWER_STEP_CAP
        edges = gen.STRATUM_EDGES[8]
        assert (target == 0 or total > edges[target - 1]) and (target == gen.STRATA - 1 or total <= edges[target])
    assert set(log.candidates) == {"8"}
    assert all(steps > gen.POWER_STEP_CAP for steps in log.skipped.get("8", []))


def test_exact_inputs_satisfy_the_certificate_preconditions():
    for d in workloads.DENOMINATORS:
        a1, a2, a3, b1, b2 = gen.exact_tuple(gen.rng_for(1, d), d)
        assert a1 + a2 + a3 == 1 and b1 + b2 == 1
        assert len({a1, a2, a3, b1, b2}) == 5 and a2 != a3 * b1


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
