"""tropevol benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload volume --seed 1 --seconds 22 --trace 0

--trace 0 times whole passes over the generated items for about --seconds
and reports the end-to-end metrics, scaled to the host's usual speed by a
reference loop timed between items (see HostSpeed).  --trace 1 runs a fixed
half of the items, each one untraced and then traced, and reports the
per-layer metrics plus the tracing overhead.  Both check every item's output
after timing and print, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the workloads and
what each metric is for.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

from workloads import GUARD, WORKLOADS, ItemFailed  # noqa: E402  (stdlib only)
from tracing import Tracer, per_layer_names  # noqa: E402

END_TO_END = [
    ("items_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
PROBES = 3          # fresh set-ups before and again after the window; setup_s is the
                    # median of these and the measuring process's own set-up
TAIL_BEYOND = 10    # items beyond the tail item, per pass
REF_LOOP = 40_000   # iterations of the reference loop
REF_NOMINAL_S = 0.004   # the loop's time at the usual speed of the host the
                        # benchmark was defined on (2-vCPU Intel Xeon VM)
REF_EVERY_S = 0.25  # least time between two reference samples in the window
REF_WINDOW = 5      # samples on either side of an item that set its scale
REF_SETUP = 3       # samples before and again after each set-up


def reference_loop():
    """Time a fixed piece of pure-Python work; its time tracks the host's speed."""
    start = perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return perf_counter() - start


class HostSpeed:
    """Reference samples taken between the items of the timed window.

    The host's speed drifts by up to 1.5x over stretches of tens of seconds
    (other tenants on the same cores), and every wall time of a run moves
    with it.  Each item's wall time is multiplied by REF_NOMINAL_S over the
    median of the REF_WINDOW samples on either side of the item, so the
    end-to-end times read as seconds at the host's usual speed.  The loop
    costs about 2% of the window.
    """

    def __init__(self):
        self.starts = []
        self.samples = []

    def tick(self, force=False):
        """Take a sample if the last one is at least REF_EVERY_S old."""
        now = perf_counter()
        if force or not self.starts or now - self.starts[-1] >= REF_EVERY_S:
            self.starts.append(now)
            self.samples.append(reference_loop())

    def scale(self, start, end):
        """The factor for a wall time measured from `start` to `end`."""
        lo = max(0, bisect.bisect_left(self.starts, start) - REF_WINDOW)
        hi = bisect.bisect_right(self.starts, end) + REF_WINDOW
        return REF_NOMINAL_S / statistics.median(self.samples[lo:hi])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up once and print its duration (used internally)")
    return p.parse_args(argv)


def pin_environment():
    """Keep the caller's shell out of the measurement; returns what was dropped."""
    dropped = {}
    if "TROPEVOL_GUARD" in os.environ:
        dropped["TROPEVOL_GUARD"] = os.environ.pop("TROPEVOL_GUARD")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return dropped


def setup(name, seed, seconds, workdir):
    """Import tropevol, generate and write the inputs, run one warm-up item.

    Returns (seconds taken, its host-speed scale, package, workload, pool,
    digest of the inputs).  The scale comes from REF_SETUP reference
    samples before the set-up and REF_SETUP after it.
    """
    refs = [reference_loop() for _ in range(REF_SETUP)]
    start = perf_counter()
    tv = importlib.import_module("tropevol")
    importlib.import_module("tropevol.cli")
    if not os.path.abspath(tv.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported tropevol from {tv.__file__}, not from {SRC}")
    cls = WORKLOADS[name]
    wl = cls(tv, workdir)
    pool = wl.generate(random.Random(seed), seconds)
    inputs_digest = hashlib.sha256(wl.prepare(pool)).hexdigest()[:16]
    warm = cls(tv, os.path.join(workdir, "warmup"))
    item = warm.warmup()
    warm.prepare([item])
    warm.run(0, item)
    seconds = perf_counter() - start
    refs += [reference_loop() for _ in range(REF_SETUP)]
    return seconds, REF_NOMINAL_S / statistics.median(refs), tv, wl, pool, inputs_digest


def setup_probe(args):
    """One setup in a fresh interpreter, so the import is measured cold."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["scale"]


def run_item(wl, idx, item):
    """Run one item; returns (start, seconds, failure or None)."""
    start = perf_counter()
    failure = None
    try:
        wl.run(idx, item)
    except ItemFailed as exc:
        failure = (exc.stage, str(exc))
    except SystemExit as exc:
        failure = ("exit", f"exit {exc.code}")
    except Exception as exc:  # the run goes on; the item counts as failed
        failure = ("run", f"{type(exc).__name__}: {exc}")
    return start, perf_counter() - start, failure


class Ledger:
    """Per-item timings, first outputs and failures of one pass of timing."""

    def __init__(self, wl, pool):
        self.wl = wl
        self.pool = pool
        self.records = []       # (pool index, start, seconds, failure)
        self.outputs = {}       # pool index -> output bytes of its first run
        self.failures = {}      # pool index -> (stage, message)

    def run(self, idx, tracer=None):
        item = self.pool[idx]
        if tracer is None:
            start, dt, failure = run_item(self.wl, idx, item)
        else:
            t0 = tracer.begin_item(len(self.records), self.wl.family(item))
            try:
                start, dt, failure = run_item(self.wl, idx, item)
            finally:
                tracer.end_item(t0)
        if failure is None:
            out = self.wl.output(idx, item)
            first = self.outputs.setdefault(idx, out)
            if out != first:
                failure = ("repeat", "output differs from the item's first run")
        if failure is not None:
            self.failures.setdefault(idx, failure)
        self.records.append((idx, start, dt, failure))
        return dt

    def passes(self, seconds, host):
        """Whole passes over the pool for about `seconds`; returns their number.

        Every window then measures the same mix.  The loop stops at the first
        pass boundary from which the next one, at the mean pass time so far,
        would be farther from `seconds`.  `host` samples the host's speed
        between items.
        """
        start = perf_counter()
        done = 0
        while True:
            for idx in range(len(self.pool)):
                host.tick()
                self.run(idx)
            done += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / done / 2 >= seconds:
                host.tick(force=True)
                return done

    def check(self):
        """Check each pool item's first output by its independent route."""
        for idx, out in sorted(self.outputs.items()):
            if idx in self.failures:
                continue
            try:
                self.wl.check(idx, self.pool[idx], out)
            except ItemFailed as exc:
                self.failures[idx] = (exc.stage, str(exc))
            except Exception as exc:  # a crashing check is a failed item too
                self.failures[idx] = ("check", f"{type(exc).__name__}: {exc}")

    def failed(self):
        return sum(1 for idx, _start, _dt, _f in self.records if idx in self.failures)

    def digest(self, indices):
        h = hashlib.sha256()
        for idx in indices:
            out = self.outputs.get(idx)
            h.update(hashlib.sha256(out).digest() if out is not None else b"missing")
        return h.hexdigest()[:16]


def git_commit():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def latencies(times, n, failed):
    """items_per_s, latency_p50_s and latency_tail_s of per-item times.

    The tail is taken per pass of n items, so that it is the same order
    statistic of the same mix however many passes fit the window, and
    reported as the median over passes.
    """
    tails = [sorted(times[k:k + n])[n - 1 - TAIL_BEYOND] for k in range(0, len(times), n)]
    return {
        "items_per_s": (len(times) - failed) / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": statistics.median(tails),
    }


def end_to_end(ledger, host, setup_s):
    """The end-to-end metrics, and notes on the tail and the host's speed.

    Item times are scaled by the host's speed around each item; the
    unscaled figures go into the notes.
    """
    n = len(ledger.pool)
    failed = ledger.failed()
    raw = [dt for _idx, _start, dt, _f in ledger.records]
    scales = [host.scale(start, start + dt) for _idx, start, dt, _f in ledger.records]
    metrics = latencies([dt * k for dt, k in zip(raw, scales)], n, failed)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {
        "tail": {"percentile": 100.0 * (n - TAIL_BEYOND) / n, "items_per_pass": n,
                 "beyond": TAIL_BEYOND, "passes": len(raw) // n},
        "host_speed": {"samples": len(host.samples),
                       "reference_median_s": statistics.median(host.samples),
                       "reference_share": sum(host.samples) / (sum(host.samples) + sum(raw)),
                       "scale_min": min(scales), "scale_max": max(scales)},
        "unscaled": latencies(raw, n, failed),
    }
    return metrics, notes


def print_result(info, metrics, units, ledger, correct):
    print("info " + json.dumps(info, sort_keys=True))
    for idx, (stage, message) in sorted(ledger.failures.items()):
        print(f"failure item {idx} stage {stage}: {message}")
    attempted = len(ledger.records)
    failed = ledger.failed()
    print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, unit in units:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))


def run(args, workdir, dropped_env):
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "guard": GUARD, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "ignored_env": dropped_env,
    }
    probes = [] if args.trace else [setup_probe(args) for _ in range(PROBES)]
    own_s, own_scale, tv, wl, pool, info["inputs_digest"] = setup(
        args.workload, args.seed, args.seconds, workdir)
    info["numpy"] = sys.modules["numpy"].__version__
    if args.trace:
        return traced_run(args, info, tv, wl, pool)
    ledger = Ledger(wl, pool)
    host = HostSpeed()
    ledger.passes(args.seconds, host)
    # Host speed drifts over seconds; samples on both sides of the window
    # keep one slow stretch from deciding setup_s.
    setup_samples = probes + [(own_s, own_scale)] + [setup_probe(args) for _ in range(PROBES)]
    metrics, notes = end_to_end(
        ledger, host, statistics.median(dt * k for dt, k in setup_samples))
    info.update(notes)
    info["setup_samples_s"] = [dt for dt, _k in setup_samples]
    info["setup_scales"] = [k for _dt, k in setup_samples]
    ledger.check()
    info["output_digest"] = ledger.digest(range(len(ledger.pool)))
    print_result(info, metrics, END_TO_END, ledger, not ledger.failures)
    return 0


def traced_items(wl, pool):
    """The first half of each item family, in pool order.

    The set depends only on the seed and --seconds, never on how fast the
    code runs, so the per-layer totals of two commits cover the same items.
    """
    sizes = collections.Counter(wl.family(item) for item in pool)
    seen = collections.Counter()
    out = []
    for idx, item in enumerate(pool):
        family = wl.family(item)
        if seen[family] < (sizes[family] + 1) // 2:
            out.append(idx)
        seen[family] += 1
    return out


def traced_run(args, info, tv, wl, pool):
    """Each traced item runs untraced, then traced, back to back.

    Host speed drifts over seconds, and pairing the two runs of an item
    keeps that drift out of trace_overhead_share.
    """
    plain = Ledger(wl, pool)
    traced = Ledger(wl, pool)
    tracer = Tracer(tv, GUARD)
    spans = []      # (untraced item seconds, traced item seconds)
    for idx in traced_items(wl, pool):
        untraced_dt = plain.run(idx)
        tracer.install()
        try:
            spans.append((untraced_dt, traced.run(idx, tracer)))
        finally:
            tracer.uninstall()
    plain.check()
    traced.failures.update(plain.failures)
    untraced_s = sum(u for u, _t in spans)
    traced_s = sum(t for _u, t in spans)
    metrics = tracer.metrics(len(spans), (traced_s - untraced_s) / untraced_s)
    executed = sorted(plain.outputs)
    info["output_digest"] = plain.digest(executed)
    info["traced_output_digest"] = traced.digest(executed)
    info["consistency"] = tracer.consistency(
        [t for _u, t in spans], untraced_s, traced_s) or "ok"
    info["items"] = len(spans)
    info["tracer_cost_s"] = tracer.cost_s()
    info["top_self_s"] = tracer.top_self()
    tracer.write(os.path.join(WORK, f"trace-{args.workload}.jsonl"))
    correct = (not traced.failures and info["consistency"] == "ok"
               and info["output_digest"] == info["traced_output_digest"])
    print_result(info, metrics, per_layer_names(), traced, correct)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tropevol", "__init__.py")):
        print(f"error: no tropevol sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    dropped = pin_environment()
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            seconds, scale = setup(args.workload, args.seed, args.seconds, workdir)[:2]
            print(json.dumps({"setup_s": seconds, "scale": scale}))
            return 0
        return run(args, workdir, dropped)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
