"""Benchmark of diffchar: wall time to a checked exact answer.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload lens-tables --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload, each repetition on freshly built
complexes, until ``--seconds`` have passed and at least three answers
are in, and reports the end-to-end metrics: the mean wall time to the
answer over the repetitions, the set-up time (median import time of a
fresh interpreter plus the median fixture build) and the peak resident
memory.  ``--trace 1`` runs one untraced repetition of the workload,
then one traced pass over all four workloads plus the standalone
``exact`` probes, and reports every per-layer metric; the traced pass is
one fixed amount of work and does not use ``--seconds``.

Every answer is checked against a reference that does not come from the
code under test (see answers.py); ``attempted`` and ``failed`` count the
checked operations.  A stamp line (git sha when the checkout has one, a
digest of the library sources, Python version, nproc, seed, sample
counts, tracing overhead) precedes the result, which is the last line
of stdout.  Workload rationale and the metric -> layer -> workload map
are in workloads.py; ``python3 perfbench/selftest.py`` shows that the
checks reject deliberately wrong answers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from answers import Tally
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ANSWER_SAMPLES = 3
MIN_SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diffchar, diffchar.cli; "
    "print(time.perf_counter() - t)"
)


def git_sha():
    """HEAD of the checkout, read from .git without running git; or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "diffchar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def import_time():
    """Import time of the library in a fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def measure(wl, seed, seconds, tally):
    """Untraced repetitions for ``seconds``, and at least
    MIN_ANSWER_SAMPLES of them; returns metrics and samples.

    The host's speed drifts over seconds to minutes, so set-up samples
    (one import probe and one build per repetition) are spread over the
    whole run like the answer samples, not taken in one burst.
    """
    null = NullTracer()
    imports, builds, answers_s = [], [], []
    start = time.perf_counter()
    while True:
        imports.append(import_time())
        gc.collect()
        fixtures, t_build = timed(wl.build, seed, null)
        result, t_answer = timed(wl.run, fixtures, seed, null)
        wl.check(fixtures, seed, result, tally)
        builds.append(t_build)
        answers_s.append(t_answer)
        del fixtures, result
        if time.perf_counter() - start >= seconds and len(answers_s) >= MIN_ANSWER_SAMPLES:
            break
    while len(builds) < MIN_SETUP_SAMPLES:
        imports.append(import_time())
        builds.append(timed(wl.build, seed, null)[1])
    metrics = {
        # the host flips between speed states about 1.6x apart for seconds
        # to minutes; the mean moves smoothly with the share of a run spent
        # in the slow state, where the median of a few answers jumps
        # between the two
        "answer_s": (statistics.fmean(answers_s), "s"),
        "setup_s": (statistics.median(imports) + statistics.median(builds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "answer_s": answers_s,
        "setup_s.import": imports,
        "setup_s.build": builds,
        "peak_rss_mb": [metrics["peak_rss_mb"][0]],
    }
    return metrics, samples, None


def measure_traced(wl, seed, tally):
    """One untraced repetition of ``wl``, then one traced pass over all."""
    from workloads import COUNTERS, TIME_METRICS, WORKLOADS

    null = NullTracer()
    gc.collect()
    t0 = time.perf_counter()
    fixtures = wl.build(seed, null)
    untraced_result = wl.run(fixtures, seed, null)
    untraced = time.perf_counter() - t0
    wl.check(fixtures, seed, untraced_result, tally)
    del fixtures

    tr = Tracer()
    traced = None
    for other in WORKLOADS.values():
        gc.collect()
        root = len(tr.spans)
        with tr.span(f"workload.{other.name}"):
            fixtures = other.build(seed, tr)
            result = other.run(fixtures, seed, tr)
        if other is wl:
            traced = tr.duration(root)
        other.check(fixtures, seed, result, tally)
        if other.probe is not None:
            other.probe(fixtures, seed, result, tr, tally)
        del fixtures, result

    self_times = tr.self_times()
    missing = [m for m in TIME_METRICS if m[:-2] not in self_times]
    missing += [c for c in COUNTERS if c not in tr.counters]
    if missing:
        raise RuntimeError(f"traced pass recorded no value for {missing}")
    metrics = {m: (self_times[m[:-2]], "s") for m in TIME_METRICS}
    metrics.update({c: (tr.counters[c], "count") for c in COUNTERS})
    durations = [(rec[0], tr.duration(i)) for i, rec in enumerate(tr.spans)]
    samples = {
        m: [d for name, d in durations if name == m[:-2]] for m in TIME_METRICS
    }
    overhead = {
        "untraced_s": untraced,
        "traced_s": traced,
        "overhead_s": traced - untraced,
        "overhead_share": (traced - untraced) / untraced,
    }
    return metrics, samples, overhead


def parse_args(argv):
    p = argparse.ArgumentParser(description="diffchar benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    """Put ./src first on the path and import diffchar from it.

    Returns an error message, or None when the checkout's own sources
    were imported.
    """
    if not (SRC / "diffchar" / "__init__.py").is_file():
        return f"no library sources at {SRC / 'diffchar'}"
    sys.path.insert(0, str(SRC))
    import diffchar

    if Path(diffchar.__file__).resolve().parent != SRC / "diffchar":
        return f"imported diffchar from {diffchar.__file__}, not from {SRC}"
    return None


def main(argv=None):
    args = parse_args(argv)
    error = load_library()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics, samples, overhead = measure_traced(wl, args.seed, tally)
    else:
        metrics, samples, overhead = measure(wl, args.seed, args.seconds, tally)

    for msg in tally.messages:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sample_counts": {name: len(vals) for name, vals in samples.items()},
        "samples": samples,
        "tracing_overhead": overhead,
        "fail_ratio": tally.failed / tally.attempted,
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
