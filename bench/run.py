#!/usr/bin/env python3
"""Benchmark of the epriccati toolkit: one seeded workload per run.

    python3 bench/run.py --workload {sweep,certify,pde_trace} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  The program is imported from ``src/``;
nothing is built or installed.  Set-up (importing ``epriccati`` and
``epriccati.cli``, building the seeded inputs, one warm-up op) is timed in
this process and in fresh probe processes, and reported as the median, each
sample scaled by the speed gauge read after it (see below).

With ``--trace 0`` the run repeats the workload's fixed job for ``--seconds``
and reports the end-to-end metrics listed in ``BENCHMARK.json``.  The speed
of a shared host drifts by tens of percent over minutes, so before and after
each job the run times a fixed reference computation (``reference_s``) and
scales that job's times to the speed at which the reference takes ``REF_S``
seconds; the raw median job time is in the summary line.

With ``--trace 1`` it alternates untraced and traced jobs, reports the per-layer
metrics and the tracing overhead, and writes the spans of the traced jobs to
``bench/out/``.  The last line of standard output is the JSON result; the
line before it is a readable summary with sample counts, the failed fraction
and the output-check notes.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded native pools; numpy loads later, inside set_up, and the
# set-up probes inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "certify", "pde_trace")
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
PROBE_TIMEOUT_S = 60
# The speed gauge (``reference_s``): its work, the runs of it that make one
# reading, and about its median time on a 2-vCPU Intel Xeon VM, the speed to
# which job and op times are scaled.
REF_LOOP = 500_000
REF_FFTS = 100
GAUGE_READINGS = 3
REF_S = 0.08


def set_up(workload: str, seed: int):
    """Import the program, build the inputs and run one warm-up op."""
    package = SRC / "epriccati"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: program sources not found at {package}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import epriccati
    import epriccati.cli  # noqa: F401  (every CLI invocation pays this import)

    if Path(epriccati.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported epriccati from {epriccati.__file__}, not {package}")
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(seed)
    wl.warm_up(inputs)
    return time.perf_counter() - start, wl, inputs


def probe_set_up(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


class Tally:
    """Ops attempted and failed, and the notes of the last output check."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.notes = {}

    def add(self, wl, inputs, outputs):
        attempted, failed, notes = wl.check(inputs, outputs)
        self.attempted += attempted
        self.failed += failed
        self.notes = notes


def checked_job(wl, inputs, tally, tracer=None):
    """Run the job once, traced if a tracer is given; check its outputs untraced."""
    latencies = []
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        outputs = wl.job(inputs, latencies)
        elapsed = time.perf_counter() - start
    tally.add(wl, inputs, outputs)
    return elapsed, latencies


def reference_s() -> float:
    """Seconds a fixed computation takes now: a gauge of the machine's speed.

    The computation belongs to the benchmark, not the program: a Python loop
    and a loop of 128x128 FFTs, the two kinds of work the workloads do.
    """
    import numpy as np

    field = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    y = field
    for _ in range(REF_FFTS):
        y = np.fft.irfft2(0.5 * np.fft.rfft2(y), s=y.shape) + 0.5 * field
    return time.perf_counter() - start


def read_gauge() -> float:
    """One reading of the speed gauge: the mean of ``GAUGE_READINGS`` timings."""
    return statistics.fmean(reference_s() for _ in range(GAUGE_READINGS))


def more_time(deadline, last_job_s):
    """Whether another job of the last job's length ends before the deadline."""
    return time.perf_counter() + last_job_s <= deadline


def plain_run(wl, inputs, seconds, tally):
    """Repeat the job while it fits in ``seconds`` (at least once), with a
    reading of the speed gauge before the first job and after each job.

    Returns the raw job times, and the job and op times scaled by the speed
    of the machine around each job: ``REF_S`` over the mean of the readings
    just before and just after it.
    """
    deadline = time.perf_counter() + seconds
    gauges, raw, latencies = [read_gauge()], [], []
    while not raw or more_time(deadline, raw[-1] + gauges[-1] * GAUGE_READINGS):
        elapsed, ops = checked_job(wl, inputs, tally)
        gauges.append(read_gauge())
        raw.append(elapsed)
        latencies.append(ops)
    scales = [2.0 * REF_S / (a + b) for a, b in zip(gauges, gauges[1:])]
    jobs = [s * job for s, job in zip(scales, raw)]
    ops = [s * op for s, job_ops in zip(scales, latencies) for op in job_ops]
    return raw, jobs, ops


def traced_run(wl, inputs, seconds, tally):
    """Alternate untraced and traced jobs; per-layer medians and spans."""
    from spans import Tracer

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, layers, spans = [], [], [], []
    while not traced or more_time(deadline, plain[-1] + traced[-1]):
        plain.append(checked_job(wl, inputs, tally)[0])
        tracer.reset()
        traced.append(checked_job(wl, inputs, tally, tracer)[0])
        layers.append(tracer.layer_metrics())
        spans.append(tracer.spans)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["src.lines"] = sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return metrics, spans, len(traced)


def write_spans(workload, seed, spans):
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["id", "name", "start", "end", "parent"],
        "jobs": spans,
    }
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    setup_s, wl, inputs = set_up(args.workload, args.seed)
    setup_s *= REF_S / read_gauge()
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    if args.trace:
        section = spec["per_layer"]
        values, spans, jobs = traced_run(wl, inputs, args.seconds, tally)
        path = write_spans(args.workload, args.seed, spans)
        summary = f"traced jobs={jobs} spans={sum(map(len, spans))} -> {path.relative_to(ROOT)}"
    else:
        import numpy as np

        section = spec["end_to_end"]
        probes = [probe_set_up(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        setup = [setup_s] + probes
        raw, jobs, ops = plain_run(wl, inputs, args.seconds, tally)
        p50, p90 = np.percentile(ops, [50, 90])
        values = {
            "setup_s": statistics.median(setup),
            "job_s": statistics.median(jobs),
            "op_p50_ms": 1e3 * p50,
            "op_p90_ms": 1e3 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary = (
            f"jobs={len(jobs)} ops={len(ops)} setup_samples={len(setup)} "
            f"raw_job_s={statistics.median(raw):.4g}"
        )

    names = [m["name"] for m in section]
    if sorted(names) != sorted(values):
        raise SystemExit(f"bench: computed metrics {sorted(values)} do not match {sorted(names)}")
    print(
        f"{args.workload} seed={args.seed}: {summary} attempted={tally.attempted} "
        f"failed_frac={tally.failed / tally.attempted:.4g} "
        f"checks={json.dumps(tally.notes, sort_keys=True)}"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
