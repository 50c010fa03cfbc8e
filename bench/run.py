"""andlab benchmark: one workload, timed untraced, optionally followed by a
traced run that breaks the time down by layer.

    python3 bench/run.py --workload scan --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; andlab is imported from ``src/`` of that
checkout and nowhere else.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics.  Details (per-run times, provenance, the span
file) go under ``.bench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# one BLAS thread: the eigensolves are small, one thread keeps their bits
# and their timings independent of the machine's core count
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7    # fresh interpreters timed per run for setup_s
MIN_UNITS = 3       # untraced units per run, however short --seconds is
SPEED_PERIOD_S = 0.5  # one speed sample per half second of timing
REF_KERNEL_S = 0.020  # seconds one speed-kernel call takes at reference speed


def _import_andlab():
    """Import andlab from this checkout's src/ only; ImportError otherwise."""
    sys.path.insert(0, SRC)
    import andlab
    if os.path.dirname(os.path.abspath(andlab.__file__)) != os.path.join(SRC, "andlab"):
        raise ImportError(f"andlab resolved to {andlab.__file__}, not {SRC}")


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import hashlib
    from importlib import metadata

    import numpy as np
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "andlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": {v: os.environ.get(v) for v in BLAS_VARS}},
        "andlab_commit": _git_commit(),
        "andlab_src_sha256": src.hexdigest(),
    }


def _speed_kernel():
    """Fixed interpreter-bound work in a broad mix, like andlab's: string and
    tuple keys in dicts and sets, sorting, integer arithmetic, blake2b
    digests and small numpy calls.  The mix is broad so that no one code
    path or memory layout sets its speed."""
    import hashlib

    import numpy as np
    counts = {}
    for word in [f"w{i % 97}" for i in range(10_000)]:
        counts[word] = counts.get(word, 0) + 1
    order = sorted((v, w) for w, v in counts.items())
    seen = set()
    for i in range(20_000):
        key = (i & 63, i >> 6)
        if key not in seen:
            seen.add(key)
    acc = sum(i * i for i in range(20_000))
    for i in range(1500):
        hashlib.blake2b(i.to_bytes(4, "little"), digest_size=8).digest()
    a = np.arange(8.0)
    for _ in range(1000):
        a = np.mod(a * 1.5 + 0.25, 1.0)
    return acc + len(order) + len(seen)


class SpeedProbe:
    """Samples the machine's speed while the workload runs.

    The VM this benchmark was built on shares its cores: for minutes at a
    time the same code runs up to 1.5x slower, and the process's CPU time
    slows just as much.  Every SPEED_PERIOD_S a SIGALRM handler, run between
    two bytecodes of whatever is running, calls the speed kernel once to warm
    the caches and times a second call.  ``busy`` keeps the intervals the
    handler ran, to be taken out of the runs it interrupted.
    """

    def __init__(self):
        self.samples = []
        self.busy = []

    def _tick(self, signum, frame):
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        _speed_kernel()
        t1 = time.perf_counter()
        _speed_kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.busy.append((t0, t2))

    def busy_within(self, start: float, end: float) -> float:
        """Seconds the handler ran between ``start`` and ``end``."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.busy)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(times, samples) -> float:
    """Mean of ``times`` at the speed where one speed-kernel call takes
    REF_KERNEL_S, the machine's speed over the same span taken from
    ``samples``.  Means, not medians: the quotient then weighs each moment
    by its duration on both sides."""
    return statistics.fmean(times) / statistics.fmean(samples) * REF_KERNEL_S


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> list:
    """Seconds from launching a fresh interpreter until it holds the
    workload's inputs and would make its first timed call, once per probe,
    each with the time of one speed-kernel call made right after it in the
    same interpreter."""
    out = []
    for _ in range(probes):
        t0 = time.monotonic()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ready, kernel = map(float, child.stdout.split())
        out.append((ready - t0, kernel))
    return out


def _load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict = None,
        out_root: str = OUT) -> dict:
    """Time one workload for ``seconds`` (at least MIN_UNITS units) and check
    every output; with ``trace``, add ``trace_units`` traced runs.  ``sizes``
    shrinks the workload (self-test); the reference digests apply only
    without it."""
    from tracer import Tracer, layer_metrics
    from workloads import DEFAULT_SEED, WORKLOADS

    out_dir = os.path.join(out_root, name)
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[name](seed, out_dir, **(sizes or {}))
    noop = lambda: None  # noqa: E731

    def unit(mark, probe=None):
        t0 = time.perf_counter()
        output = wl.execute(mark)
        t1 = time.perf_counter()
        results.append(wl.check(output))
        return t1 - t0 - (probe.busy_within(t0, t1) if probe else 0.0), output

    times, results = [], []
    with SpeedProbe() as probe:
        begin = time.perf_counter()
        while len(times) < MIN_UNITS or time.perf_counter() - begin < seconds:
            elapsed, output = unit(noop, probe)
            times.append(elapsed)
    if not probe.samples:   # runs shorter than one period
        probe.sample()
    samples = probe.samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if trace:
        # each traced run follows an untraced run of the same unit, so the
        # overhead compares neighbours in time on a machine whose speed drifts
        tracer = Tracer()
        paired, traced_times, traced_results = [], [], []
        for _ in range(wl.trace_units):
            paired.append(unit(noop)[0])
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced_output = wl.execute(tracer.mark_operation)
                traced_times.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            traced_results.append(wl.check(traced_output))
        results += traced_results
        traced_wall = sum(traced_times)
        metrics = layer_metrics(tracer, traced_wall, sum(paired),
                                sum(r.bytes_written for r in traced_results))
        tracer.write(os.path.join(out_dir, "trace.npz"))
        traced = {"wall_s": traced_wall, "units": len(traced_times),
                  "spans": len(tracer.name_id), "metrics": metrics}

    # outputs must repeat bit for bit, traced or not, and at the default
    # seed match the stored reference
    expected = results[0].digest
    if seed == DEFAULT_SEED and not sizes:
        expected = _load_reference()["digests"][name]
    for r in results:
        if r.digest != expected:
            r.failed = r.items
    attempted = sum(r.items for r in results)
    failed = min(attempted, sum(r.failed for r in results) + wl.final_check(output))

    wall = at_reference_speed(times, samples)
    items = results[0].items
    return {
        "workload": name, "seed": seed, "units": len(times), "unit_items": items,
        "unit_times_s": times, "speed_samples_s": samples,
        "raw_wall_s": statistics.fmean(times), "digest": results[0].digest,
        "attempted": attempted, "failed": failed,
        "end_to_end": {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": items / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "traced": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "montecarlo", "localize", "dominated"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        _import_andlab()
    except ImportError as exc:
        print(f"error: cannot import andlab from {SRC}: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed, os.path.join(OUT, args.workload))
        ready = time.monotonic()
        _speed_kernel()
        t0 = time.perf_counter()
        _speed_kernel()
        print(ready, time.perf_counter() - t0)
        return 0

    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # report, and print no result line
        traceback.print_exc()
        return 1
    prov = provenance(args.seed)
    result["provenance"] = prov
    result["setup_probes_s"] = setup
    if args.trace:
        metrics = result["traced"]["metrics"]
    else:
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = {"value": statistics.median(
            seconds * REF_KERNEL_S / kernel for seconds, kernel in setup), "unit": "s"}
    path = os.path.join(OUT, args.workload, f"result-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    print("provenance " + json.dumps(prov))
    print(f"{args.workload}: {result['units']} untraced runs of {result['unit_items']} "
          f"items, mean wall {result['raw_wall_s']:.4f} s, "
          f"{result['end_to_end']['wall_s']['value']:.4f} s at reference speed"
          + (f"; traced {result['traced']['units']} runs, "
             f"{result['traced']['spans']} spans" if args.trace else "")
          + f"; details in {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
