"""Benchmark entry point: one workload, one process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train-iter --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ./src. With
--trace 0 the run sets the workload up three times (median -> setup_s). An
untimed warm-up repeat follows the first set-up, and timed repeats for a
third of --seconds follow each set-up (examples over all timed seconds ->
examples_per_s). With --trace 1 it sets up once with tracing on, warms up,
then alternates untraced and traced repeats for --seconds and reports the
per-layer metrics instead of the end-to-end ones. Every repeat's output is
checked and digested; a failed check or a digest that differs from the
warm-up's counts as a failed operation. The last stdout line is the JSON
result; details go to perfbench/results/.
"""
from __future__ import annotations

import os

# the library's contract is single-threaded; pin BLAS before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import json
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUPS = 3
MIN_REPEATS = 3


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "topicarg" / "__init__.py").is_file():
        sys.exit(f"run.py: no topicarg package under {src}; run from a full checkout")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]
    import topicarg

    if Path(topicarg.__file__).resolve().parent != src / "topicarg":
        sys.exit(f"run.py: imported topicarg from {topicarg.__file__}, not {src}")


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads(np) -> int | None:
    """OpenBLAS's own thread count, when numpy ships a scipy-openblas build."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


class Ledger:
    """Counts checked operations and compares each digest with the first."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.problems: list[str] = []

    def check(self, workload, output) -> None:
        self.attempted += 1
        problems = workload.problems(output)
        digest = workload.digest(output)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"digest {digest[:12]} differs from {self.digest[:12]}")
        if problems:
            self.failed += 1
            self.problems += problems


def _repeat(workload, span=nullcontext) -> tuple[float, object]:
    gc.collect()
    inputs = workload.fresh()
    with span():
        start = perf_counter()
        output = workload.timed(inputs)
        seconds = perf_counter() - start
    return seconds, output


def measure(cls, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Set-ups spread over the run, an untimed warm-up and timed repeats.

    Each set-up is followed by its share of the timed repeats, so the set-up
    median samples the whole run rather than its first seconds; the machine's
    speed drifts over tens of seconds. Returns (metrics, details).
    """
    setup_s, repeat_s = [], []
    workload = None
    for i in range(SETUPS):
        workload = None  # release the previous set-up before building the next
        gc.collect()
        start = perf_counter()
        workload = cls(seed)
        setup_s.append(perf_counter() - start)
        if i == 0:
            _, output = _repeat(workload)  # warm-up: untimed, but checked
            ledger.check(workload, output)
        start = perf_counter()
        while len(repeat_s) <= i or perf_counter() - start < seconds / SETUPS:
            elapsed, output = _repeat(workload)
            repeat_s.append(elapsed)
            ledger.check(workload, output)
    values = {
        "setup_s": statistics.median(setup_s),
        "examples_per_s": workload.examples * len(repeat_s) / sum(repeat_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"examples": workload.examples, "setup_s": setup_s, "repeat_s": repeat_s}


def trace(cls, seed: int, seconds: float, ledger: Ledger, stem: str) -> tuple[dict, dict]:
    """A traced set-up, a warm-up, then traced repeats each paired with an untraced one.

    Pairing puts both sides of `trace.overhead` in the same stretch of time,
    so drift in the machine's speed cancels. Returns (metrics, details).
    """
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span(tracing.SETUP):
        workload = cls(seed)
    _, output = _repeat(workload)  # warm-up: untimed, but checked
    ledger.check(workload, output)
    traced, untraced = [], []
    start = perf_counter()
    while len(traced) < MIN_REPEATS or perf_counter() - start < seconds:
        # alternate which side of the pair runs first, so order effects cancel
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                with tracer.installed():
                    elapsed, output = _repeat(workload, lambda: tracer.span(tracing.REPEAT))
                traced.append(elapsed)
            else:
                elapsed, output = _repeat(workload)
                untraced.append(elapsed)
            ledger.check(workload, output)
    tracer.write(RESULTS / f"{stem}.spans.jsonl")
    view = tracing.SpanView(tracer.spans)
    values = tracing.layer_metrics(view, workload.examples)
    values["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    details = {"examples": workload.examples, "traced_repeat_s": traced,
               "paired_untraced_repeat_s": untraced}
    for root in (tracing.SETUP, tracing.REPEAT):
        table = tracing.self_time_table(view, root)
        details[f"self_time {root}"] = table
        print(f"self time per {root}: seconds, share of its wall")
        for name, secs, share in table:
            print(f"  {name:28s} {secs:10.4f} {share:7.1%}")
    return values, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    ledger = Ledger()
    if args.trace:
        values, details = trace(cls, args.seed, args.seconds, ledger, stem)
        declared = spec["per_layer"]
    else:
        values, details = measure(cls, args.seed, args.seconds, ledger)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} != declared {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    details.update(workload=args.workload, seed=args.seed, env=env, digest=ledger.digest,
                   attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems,
                   metrics=metrics)
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(f"digest {ledger.digest}")
    for problem in ledger.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
