"""whlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload factorize --seed 20260815 --seconds 30 --trace 0

Run from the repository root (or anywhere: paths are taken from this
file). Each workload runs in a fresh single-threaded worker process
(worker.py) against the checkout's ``src/whlab``, with WHLAB_THREADS unset
and BLAS/OpenMP pinned to one thread. With ``--trace 0`` the last stdout
line reports the end-to-end metrics; set-up is measured in SETUP_SAMPLES
fresh processes and reported as their median. With ``--trace 1`` it
reports the per-layer metrics of a traced run and writes the spans under
``.bench_out/``. Inputs, reports and data directories live in a temporary
directory under ``.bench_out/`` that is removed at exit. The exit code is
not 0, and no result is printed, when the package is missing, a worker
fails or the run exceeds its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# same value as tests/conftest.py, so the default run sees the test corpus
CORPUS_SEED = 20260815
WORKLOADS = ("factorize", "reconstruct", "simulate")
# layers are whlab's modules; generators is too cheap to trace
LAYERS = ("lattice", "data", "ladder", "expfit", "reconstruct", "montecarlo", "cli")
SETUP_SAMPLES = 3
# time metrics are reported as on a host where worker.make_reference's task
# takes this long (see scaled_times)
REF_MS = 8.0
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_STAT_UNITS = {"calls": "count", "self_ms": "ms", "bytes": "bytes"}


def _layer_metrics() -> tuple[tuple[str, str], ...]:
    spec = (
        ("lattice.convolve", "calls self_ms singleton_calls direct_calls fft_calls max_window"),
        ("lattice.lattice", "calls self_ms"),
        ("lattice.split_nonneg", "calls self_ms"),
        ("ladder.ladder_law", "calls self_ms steps"),
        ("data.truncated_data", "calls self_ms"),
        ("montecarlo.censored_z", "self_ms"),
        ("montecarlo.sample_ladder", "self_ms walk_steps"),
        ("montecarlo.compare_empirical", "self_ms"),
        ("ladder.log_restricted_mgf", "calls rows self_ms"),
        ("ladder.exp_moment_conditions", "calls self_ms"),
        ("ladder.neg_prob_sequence", "calls self_ms"),
        ("ladder.ladder_epochs_from_data", "calls self_ms"),
        ("ladder.drift_classify", "calls"),
        ("reconstruct.auto_reconstruct", "calls self_ms"),
        ("reconstruct.recover_exponential", "calls self_ms"),
        ("reconstruct.recover_skipfree", "calls self_ms"),
        ("reconstruct.recover_triangular", "calls self_ms"),
        ("reconstruct.recover_cm_discrete", "calls self_ms"),
        ("reconstruct.correlation_inverse", "calls self_ms"),
        ("reconstruct.correlation_lhs_from_data", "calls"),
        ("expfit.pencil_fit", "calls self_ms"),
        ("ladder.verify_factorization", "self_ms"),
        ("ladder.chi_eval_grid", "self_ms"),
        ("ladder.spitzer_chi_grid", "self_ms"),
        ("data.packed_restricted", "calls self_ms"),
        ("data.load_data_dir", "calls self_ms bytes"),
        ("cli.main", "self_ms"),
    )
    out = []
    for prefix, stats in spec:
        for stat in stats.split():
            out.append(("%s.%s" % (prefix, stat), _STAT_UNITS.get(stat, "count")))
    out += [
        ("reconstruct.detector_hit_ratio", "ratio"),
        ("cli.report_bytes", "bytes"),
        ("cli.import_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
    for layer in LAYERS:
        out.append(("%s.self_ms" % layer, "ms"))
    return tuple(out)


PER_LAYER = _layer_metrics()


# -- statistics ----------------------------------------------------------------


def tail_percentile(times: list[float]) -> tuple[int, float, int]:
    """(percentile, value, items beyond it) for the highest whole percentile
    with at least 10 items beyond it, by nearest rank. Below 20 items no
    percentile qualifies and the maximum is reported as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half: a quarter of the values (rounded down) is
    dropped at each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def scaled_times(cycles: list[dict]) -> list[float]:
    """Each item's time in ms on a host where the reference task takes
    REF_MS: its wall time divided by the mean of the two reference times
    that bracket it, times REF_MS, averaged over the middle half of the
    run's cycles.

    The shared host this benchmark was tuned on runs everything up to 1.5x
    slower for minutes at a time, whatever the process does; wall times of
    runs minutes apart then differ by more than any bound a change could
    be held to. The reference task, timed next to every item in the same
    process, slows with it, and never calls whlab."""
    scaled: dict[str, list[float]] = {}
    for cycle in cycles:
        refs = cycle["refs"]
        for i, (name, ms, _) in enumerate(cycle["items"]):
            pace = (refs[i] + refs[i + 1]) / 2
            scaled.setdefault(name, []).append(ms / pace * REF_MS)
    return [middle_mean(v) for v in scaled.values()]


def host_pace(cycles: list[dict]) -> float:
    """Median reference time of a run, in ms."""
    return statistics.median(ref for cycle in cycles for ref in cycle["refs"])


def items_per_second(cycles: list[dict]) -> float:
    """Rate of a full pass over the workload's items, at their scaled
    times."""
    times = scaled_times(cycles)
    return len(times) / (sum(times) / 1e3)


def end_to_end(cycles: list[dict], setup_samples: list[float], peak_rss_kb: int):
    """``setup_samples`` are (wall seconds, median reference ms just after
    set-up) per fresh set-up."""
    times = scaled_times(cycles)
    pct, tail, beyond = tail_percentile(times)
    metrics = {
        "items_per_s": items_per_second(cycles),
        "item_p50_ms": statistics.median(times),
        "item_tail_ms": tail,
        "setup_s": statistics.median(s * REF_MS / ref for s, ref in setup_samples),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    note = (
        "item_tail_ms is p%d of %d items (%d beyond), each over %d cycles; "
        "times scaled to a %.1f ms reference task, which took %.3f ms (median) in this run"
        % (pct, len(times), beyond, len(cycles), REF_MS, host_pace(cycles))
    )
    return metrics, note


def per_layer(untraced: list[dict], traced: list[dict], import_ms: float):
    """Counts from the first traced cycle, self times as the median over
    traced cycles. Returns the metrics and whether every count repeated
    exactly in every traced cycle."""
    layers = [cycle["layers"] for cycle in traced]
    counts_repeat = True
    metrics = {}
    for name, unit in PER_LAYER:
        values = [layer.get(name, 0) for layer in layers]
        if unit == "ms":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            counts_repeat &= all(v == values[0] for v in values)
    first = layers[0]
    run = first.get("reconstruct.detectors_run", 0)
    metrics["reconstruct.detector_hit_ratio"] = (
        first.get("reconstruct.detectors_hit", 0) / run if run else 0.0
    )
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_frac"] = items_per_second(untraced) / items_per_second(traced) - 1
    return metrics, counts_repeat


def layer_shares(metrics: dict) -> str:
    layers = ["%s.self_ms" % layer for layer in LAYERS]
    total = sum(metrics[name] for name in layers) or 1.0
    ranked = sorted(layers, key=lambda name: -metrics[name])
    return ", ".join(
        "%s %.1f%%" % (name.split(".")[0], 100.0 * metrics[name] / total) for name in ranked
    )


# -- environment ---------------------------------------------------------------


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WHLAB_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_facts(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        **versions,
        "commit": _git_commit(),
    }


class WorkerFailed(Exception):
    pass


def run_worker(args, workdir: Path, deadline: float, extra=()) -> tuple[float, dict]:
    """Start worker.py in a fresh interpreter; return (seconds from start to
    ready, its result)."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--workdir", str(workdir),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), stdout=sys.stderr, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker exceeded the time limit")
    if proc.returncode != 0:
        raise WorkerFailed("worker exited with code %d" % proc.returncode)
    result = json.loads((workdir / "result.json").read_text())
    if not Path(result["whlab_file"]).resolve().is_relative_to(ROOT / "src"):
        raise WorkerFailed("worker imported whlab from %s" % result["whlab_file"])
    return result["ready"] - spawned, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=CORPUS_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # worker, and through the cleanup below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "whlab" / "__init__.py").is_file():
        print("bench: no whlab package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        setup_samples = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                ready_s, setup = run_worker(args, tmp / ("setup%d" % i), deadline, ["--setup-only"])
                setup_samples.append((ready_s, statistics.median(setup["setup_refs"])))
                shutil.rmtree(tmp / ("setup%d" % i))
        spans_file = OUT_DIR / ("spans-%s-%d.npz" % (args.workload, args.seed))
        extra = ["--spans", str(spans_file)] if args.trace else []
        ready_s, result = run_worker(args, tmp / "main", deadline, extra)
        setup_samples.append((ready_s, statistics.median(result["setup_refs"])))
    except WorkerFailed as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        cycles = result["untraced"] + result["traced"]
        metrics, counts_repeat = per_layer(
            result["untraced"], result["traced"], result["import_ms"]
        )
        units = dict(PER_LAYER)
        note = "spans written to %s" % spans_file.relative_to(ROOT)
    else:
        cycles = result["cycles"]
        metrics, note = end_to_end(cycles, setup_samples, result["peak_rss_kb"])
        counts_repeat = True
        units = dict(END_TO_END)

    records = [r for cycle in cycles for r in cycle["items"]]
    failed = sum(1 for _, _, ok in records if not ok)
    digests = {cycle["digest"] for cycle in cycles}
    print("host: %s" % json.dumps(host_facts(result["versions"]), sort_keys=True))
    print(
        "workload: %s seed %d size %s, %d cycles of %d items"
        % (args.workload, args.seed, args.size, len(cycles), len(cycles[0]["items"]))
    )
    print("failed_frac: %.6g (%d of %d items)" % (failed / len(records), failed, len(records)))
    print("report_sha256: %s (%s across cycles)" % (
        cycles[0]["digest"], "identical" if len(digests) == 1 else "DIFFERENT"))
    if args.trace:
        print("per-layer counts %s across traced cycles" % (
            "repeat" if counts_repeat else "DO NOT repeat"))
        print("traced self time by layer: %s" % layer_shares(metrics))
    else:
        print("setup_s samples (wall s, reference ms): %s" % ", ".join(
            "%.4f %.3f" % sample for sample in setup_samples))
    print(note)
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1 and counts_repeat,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
