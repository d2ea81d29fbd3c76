"""One benchmark workload in a fresh, single-threaded process.

run.py starts this script once per set-up sample and once for the timed
run. It imports whlab first, so that the import is timed in a fresh
interpreter, builds the workload's inputs and notes the moment it is
ready; unless --setup-only, it then runs whole cycles over the workload's
items for about --seconds. With --trace 1 the first half of the time runs
untraced and the second half with the span tracer installed. Raw results
go to <workdir>/result.json; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SETUP_REFS = 41


def make_reference():
    """The reference task: a fixed few milliseconds of the two kinds of work
    whlab's items are made of, interpreted Python and numpy calls on small
    and large arrays. It never calls whlab, so no change to whlab moves it;
    run.py divides item times by its times to take out the host's speed."""
    import numpy as np

    small = np.linspace(0.5, 1.5, 64)
    large = np.linspace(0.0, 1.0, 100_000)

    def reference() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        x = small
        for _ in range(300):
            x = np.convolve(x, small)[:64] / 3.0
        float(np.cumsum(np.sin(large + x[0])).sum())
        return (time.perf_counter() - start) * 1e3

    return reference


def run_cycle(items, reference, tracer=None) -> dict:
    """One pass over the items, the reference task timed before each item
    and after the last, so that every item is bracketed by two."""
    records = []
    refs = []
    digest = hashlib.sha256()
    first_span = tracer.span_count if tracer is not None else 0
    for index, item in enumerate(items):
        refs.append(reference())
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            output = item.work()
        except Exception:
            traceback.print_exc()
            records.append([item.name, (time.perf_counter() - start) * 1e3, False])
            continue
        elapsed_ms = (time.perf_counter() - start) * 1e3
        if tracer is not None:
            tracer.paused = True
        try:
            ok, body = item.verify(output)
        except Exception:
            traceback.print_exc()
            ok, body = False, b""
        finally:
            if tracer is not None:
                tracer.paused = False
        records.append([item.name, elapsed_ms, bool(ok)])
        digest.update(b"%s %d\n" % (item.name.encode(), len(body)))
        digest.update(body)
    refs.append(reference())
    cycle = {"items": records, "refs": refs, "digest": digest.hexdigest()}
    if tracer is not None:
        cycle["layers"] = tracer.summary(first_span, tracer.span_count)
        cycle["layers"].update(tracer.take_counts())
    return cycle


def run_cycles(items, seconds: float, reference, tracer=None) -> list[dict]:
    """Cycles until the next one, at the mean pace so far, would end
    further past ``seconds`` than it starts before it; at least one."""
    start = time.perf_counter()
    cycles = [run_cycle(items, reference, tracer)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(cycles) / 2 > seconds:
            return cycles
        cycles.append(run_cycle(items, reference, tracer))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import whlab

    import_ms = (time.perf_counter() - start) * 1e3
    import numpy
    import scipy

    import workloads

    workdir = Path(args.workdir)
    items = workloads.setup(args.workload, args.seed, args.size, workdir / "inputs")
    ready = time.monotonic()
    reference = make_reference()
    result = {
        "ready": ready,
        # the host's speed just after set-up, for scaling the set-up time
        "setup_refs": [reference() for _ in range(SETUP_REFS)],
        "import_ms": import_ms,
        "whlab_file": whlab.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not args.setup_only:
        if args.trace:
            import spans

            result["untraced"] = run_cycles(items, args.seconds / 2, reference)
            tracer = spans.Tracer()
            tracer.install()
            try:
                result["traced"] = run_cycles(items, args.seconds / 2, reference, tracer)
            finally:
                tracer.uninstall()
            if args.spans:
                tracer.save(Path(args.spans))
        else:
            result["cycles"] = run_cycles(items, args.seconds, reference)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
