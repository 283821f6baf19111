"""Benchmark for markovgibbs: one closed-loop client running one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: numeric_spectra, exact_certificates, conjugacy, cli (see
``bench/README.md``).  The next op starts when the previous one returns.

With ``--trace 0`` the run times whole rounds of ops until they have taken
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it runs
a fixed number of rounds (scaled by ``--seconds``) twice each, without and
with span recording around the package's public functions, and reports the
per-layer metrics; the spans go to ``.bench_out/spans-<workload>.jsonl``.
Times are scaled to the nominal machine speed of ``speed.py``.  Every op's
output is checked.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
run facts (versions, raw times, drawn and skipped inputs, tail percentile,
failures).
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, in this process and its children.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("numeric_spectra", "exact_certificates", "conjugacy", "cli")
SETUP_REPEATS = 3
# Rounds drawn during set-up; later rounds are drawn on demand, untimed.
PREPARED_ROUNDS = {"numeric_spectra": 1, "exact_certificates": 64, "conjugacy": 2, "cli": 2}
# Traced runs replay this many rounds per second of --seconds, twice.
TRACE_ROUNDS_PER_S = {"numeric_spectra": 0.15, "exact_certificates": 25, "conjugacy": 0.6, "cli": 1.0}
# op_tail_ms is the highest percentile with at least 10 ops beyond it in a
# run at this benchmark's first commit, fixed per workload so that runs of
# different speed report the same percentile.  A run with fewer than 10 ops
# beyond it falls back down TAIL_FALLBACK.
TAIL_PERCENTILE = {"numeric_spectra": 75, "exact_certificates": 95, "conjugacy": 95, "cli": 75}
TAIL_FALLBACK = (95, 90, 75, 50)


def import_package():
    """Import ``markovgibbs`` (with its CLI) from ``src/`` of this checkout."""
    home = SRC / "markovgibbs"
    if not (home / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {home}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("markovgibbs")
    importlib.import_module("markovgibbs.cli")
    if Path(pkg.__file__).resolve().parent != home.resolve():
        raise SystemExit(f"error: imported markovgibbs from {pkg.__file__}, not from {home}")
    return pkg


def declared_metrics() -> tuple:
    spec = json.loads(SPEC.read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def clear_caches(pkg) -> None:
    """Drop the package's process-wide memo of topological entropies, so a
    replayed round does the same work as its first run."""
    clear = getattr(pkg.spectrum.topological_entropy, "cache_clear", None)
    if clear is not None:
        clear()


class Stats:
    """Ops one loop ran: kinds, start times, raw and scaled latencies, failures."""

    def __init__(self):
        self.kinds = []
        self.starts = []
        self.latencies = []
        self.scaled = None
        self.failures = []
        self.rounds = 0

    def by_kind(self, values) -> dict:
        out = {}
        for kind, value in zip(self.kinds, values):
            out.setdefault(kind, []).append(value)
        return out


def closed_loop(workload, probe, rounds, *, seconds=None, tracer=None) -> Stats:
    """Run the given rounds, one op at a time, stopping early once ops have
    taken ``seconds``.  Each op is timed alone, then checked; drawing inputs
    and sampling the speed reference happen between ops."""
    from workloads import CheckError

    stats = Stats()
    busy = 0.0
    for index in rounds:
        if seconds is not None and stats.rounds > 0 and busy >= seconds:
            break
        for op in workload.round(index):
            probe.sample()
            if tracer is not None:
                tracer.begin_op()
            error = None
            began = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - began
            busy += elapsed
            if tracer is not None:
                tracer.end_op()
            if error is None:
                try:
                    op.check(result)
                except CheckError as exc:
                    error = str(exc)
            stats.kinds.append(op.kind)
            stats.starts.append(began)
            stats.latencies.append(elapsed)
            if error is not None:
                stats.failures.append(f"{op.kind}: {error}")
        stats.rounds += 1
    return stats


def scale_latencies(loops, probe) -> None:
    """Set each loop's scaled latencies, once the last reference sample is in."""
    probe.sample(force=True)
    factors = iter(probe.scale([t for s in loops for t in s.starts]))
    for stats in loops:
        stats.scaled = [t * next(factors) for t in stats.latencies]


def tail(latencies, percentile) -> tuple:
    """(percentile, value, ops beyond it) for ``percentile``, or the highest
    lower one in ``TAIL_FALLBACK`` with at least 10 ops beyond it."""
    import numpy as np

    count = len(latencies)
    for p in (percentile, *(q for q in TAIL_FALLBACK if q < percentile)):
        beyond = int(count * (100 - p) / 100)
        if beyond >= 10 or p == TAIL_FALLBACK[-1]:
            return p, float(np.percentile(latencies, p)), beyond
    raise AssertionError("unreachable")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(workload, args, probe, setup_s) -> tuple:
    stats = closed_loop(workload, probe, itertools.count(), seconds=args.seconds)
    scale_latencies([stats], probe)
    lat = stats.scaled
    p, tail_s, beyond = tail(lat, TAIL_PERCENTILE[workload.name])
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "cli"), "MB"),
    }
    raw = stats.latencies
    facts = {
        "tail_percentile": p,
        "tail_ops_beyond": beyond,
        "raw": {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw, p)[1] * 1e3,
        },
        "median_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in stats.by_kind(lat).items()},
    }
    return metrics, [stats], facts


def traced(workload, args, probe, pkg) -> tuple:
    """Replay rounds twice each, untraced and traced, in alternating order so
    that warm-up and drift fall on both sides alike."""
    from spans import Tracer

    rounds = max(1, round(TRACE_ROUNDS_PER_S[workload.name] * args.seconds))
    metrics = {"cli.interpreter_start_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms")}
    in_process = contextlib.nullcontext()
    if workload.name == "cli":
        metrics = {k: (v, "ms") for k, v in workload.process_costs(probe).items()}
        in_process = workload.calls_in_process()
    workload.prepare(rounds)  # both passes replay rounds drawn beforehand
    tracer = Tracer()
    plain, recorded = [], []
    with in_process:
        loops = [closed_loop(workload, probe, [0])]  # not reported: lazy set-up of this calling mode
        for index in range(rounds):
            for with_trace in (False, True) if index % 2 == 0 else (True, False):
                clear_caches(pkg)
                if not with_trace:
                    plain.append(closed_loop(workload, probe, [index]))
                    continue
                tracer.install(pkg.__name__)
                try:
                    recorded.append(closed_loop(workload, probe, [index], tracer=tracer))
                finally:
                    tracer.uninstall()
    scale_latencies(loops + plain + recorded, probe)
    metrics.update(tracer.metrics(probe.scale))
    plain_ms = sum(sum(s.scaled) for s in plain) * 1e3 / sum(len(s.scaled) for s in plain)
    traced_ms = sum(sum(s.scaled) for s in recorded) * 1e3 / tracer.ops
    metrics["trace.overhead_ratio"] = (traced_ms / plain_ms, "ratio")
    metrics["trace.untraced_ms_per_op"] = (plain_ms, "ms/op")
    metrics["trace.traced_ms_per_op"] = (traced_ms, "ms/op")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload.name}.jsonl")
    return metrics, loops + plain + recorded, {"trace_rounds": rounds, "spans": len(tracer.spans)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="markovgibbs benchmark (one closed-loop client)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, goldens=None) -> tuple:
    """Set up, measure and check one workload; returns (result, facts)."""
    began = perf_counter()
    pkg = import_package()
    import numpy

    import workloads

    import_s = perf_counter() - began
    cls = workloads.WORKLOADS[args.workload]
    probe = cls.speed_probe()
    extra = {} if goldens is None else {"goldens": goldens}
    setups = []
    warmup_failures = []
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            probe.sample(force=True)
            start = perf_counter()
            workload = cls(pkg, args.seed, ROOT, **extra)
            workload.prepare(PREPARED_ROUNDS[args.workload])
            warmup_failures = workload.warmup()
            setups.append(perf_counter() - start)
        probe.sample(force=True)
        raw_setup_s = import_s + statistics.median(setups)
        setup_s = raw_setup_s * probe.nominal_s / probe.reference_s()
        if args.trace:
            metrics, loops, facts = traced(workload, args, probe, pkg)
        else:
            metrics, loops, facts = end_to_end(workload, args, probe, setup_s)
            facts["raw"]["setup_s"] = raw_setup_s
        details = workload.info()
    finally:
        if workload is not None:
            workload.close()
    e2e_names, layer_names = declared_metrics()
    names = layer_names if args.trace else e2e_names
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit(f"error: the run produced no value for {missing}")
    attempted = sum(len(s.latencies) for s in loops) + len(cls.warmup_slots)
    failures = warmup_failures + [f for s in loops for f in s.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    facts.update(
        workload=args.workload,
        why=cls.why,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        rounds=sum(s.rounds for s in loops),
        ops_by_kind={kind: sum(s.kinds.count(kind) for s in loops) for kind in dict.fromkeys(loops[0].kinds)},
        failed_ratio=len(failures) / attempted,
        failures=failures[:10],
        reference_ms={"nominal": probe.nominal_s * 1e3, "median": probe.reference_s() * 1e3, "samples": len(probe.durations)},
        import_s=import_s,
        setup_runs_s=setups,
        env={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        },
        **details,
    )
    return result, facts


def main(argv=None) -> int:
    args = parse_args(argv)
    result, facts = run(args)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
