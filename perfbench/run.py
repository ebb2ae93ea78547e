"""gorcheck benchmark: four seeded workloads, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ./src, as the tier-1
suite uses it.  Workloads (see README.md): base-certify, indep-certify,
oracle-xval, cli-cold.  Each is a closed loop with one caller: the next op
starts when the previous one has finished.  Inputs come from the frozen pool
in perfbench/corpus/<workload>.json.  Every run measures the same fixed op set
of that pool (see ``fixed_set``); the seed orders it, afresh for every pass.

--trace 0 makes whole passes over the set while they fit in --seconds and
prints the end-to-end metrics.  Op times are adjusted for the speed of the
shared machine at the moment they were taken (see ``SpeedGauge``).  --trace 1
runs the set once untraced and once traced, and prints the per-layer metrics.
The last line of stdout is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("base-certify", "indep-certify", "oracle-xval", "cli-cold")
# Frozen cost of the fixed op set, i.e. of one pass; a 28 s run makes 2 to 6
# passes, so every op is timed several times, at different moments.
SET_COST_S = 6.0
WARMUP_OPS = {"base-certify": 3, "indep-certify": 3, "oracle-xval": 3, "cli-cold": 1}
SETUP_REPEATS = 7  # setup_s is the median of this many set-ups
SETUP_SAMPLES = 3  # gauge samples taken after each set-up
SPAWN_REPEATS = 7  # cli.import_s and cli.python_start_s are medians of this many
# The speed gauge: a reference kernel timed at least this often between ops,
# up to GAUGE_BURST at a time, and the samples within this many seconds of
# an op that adjust its time.
GAUGE_EVERY_S = 0.2
GAUGE_BURST = 10
GAUGE_WINDOW_S = 1.0
# About the kernel's median time on a 2-vCPU Intel Xeon at 2.1 GHz with
# Python 3.11.7: adjusted times read as milliseconds on that machine when the
# kernel takes this long.
KERNEL_REF_S = 0.006


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="gorcheck benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON, and exit")
    return ap.parse_args(argv)


def fixed_set(items, budget_s):
    """The ops every run measures: a cost-stratified share of the pool.

    Known defects and the other items are each ranked by frozen cost and cut
    into groups of k neighbours, k = pool cost / budget; the middle item of
    every group is taken.  The set thus has the pool's mix of cheap ops,
    dear ops and known defects, costs about `budget_s`, and is the same for
    every seed, so runs differ only in order and in the machine's noise.
    """
    k = max(1, round(sum(item["cost_s"] for item in items) / budget_s))
    chosen = []
    for defect in (True, False):
        ranked = sorted((i for i, item in enumerate(items)
                         if ("known_defect" in item) == defect),
                        key=lambda i: (items[i]["cost_s"], i))
        chosen += ranked[k // 2::k]
    return chosen


def reference_kernel():
    """Fixed pure-Python graph work of the kind gorcheck does: a breadth-first
    search from every vertex of a 120-vertex graph held as a dict of sets,
    then a sort of its edges.  It never changes, so its time tracks only the
    speed of the machine; on a shared host, graph code like gorcheck's slows
    down with it nearly one for one."""
    n = 120
    adj = {v: set() for v in range(n)}
    for a in range(n):
        for b in ((a * 7 + 3) % n, (a * 13 + 5) % n, (a + 1) % n):
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
    reached = 0
    for s in range(n):
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        reached += len(seen)
    edges = sorted((min(a, b), max(a, b)) for a in adj for b in adj[a])
    return reached + len(edges)


class SpeedGauge:
    """The machine's speed over a run, sampled between ops.

    On a shared host the time of the same work drifts by 20-30% over seconds
    to minutes, process CPU time included, so this is contention for the
    cores rather than descheduling.  The gauge times ``reference_kernel`` at least every
    GAUGE_EVERY_S between ops; ``adjust`` scales an op's time by
    KERNEL_REF_S over the median kernel time within GAUGE_WINDOW_S of it.
    """

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self, count):
        for _ in range(count):
            t = time.perf_counter()
            reference_kernel()
            self.took.append(time.perf_counter() - t)
            self.at.append(t)

    def sample_if_due(self):
        """Time the kernel once per GAUGE_EVERY_S since the last sample, up to
        GAUGE_BURST times, so a long op gets as many samples beside it."""
        due = 1 if not self.at else int((time.perf_counter() - self.at[-1]) / GAUGE_EVERY_S)
        self.sample(min(due, GAUGE_BURST))

    def adjust(self, start, seconds):
        lo = bisect.bisect_left(self.at, start - GAUGE_WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + GAUGE_WINDOW_S)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return seconds * KERNEL_REF_S / statistics.median(near)


class Workload:
    """Loaded pool, fixed op set and op runner for one workload."""

    def __init__(self, name):
        import ops

        self.name = name
        self.ops = ops
        with open(os.path.join(HERE, "corpus", f"{name}.json")) as fh:
            doc = json.load(fh)
        self.items = doc["items"]
        self.op_set = fixed_set(self.items, SET_COST_S)
        self.tmp = None
        if name == "cli-cold":
            self.tmp = os.path.join(ROOT, ".bench_tmp", f"cli-{os.getpid()}")
            os.makedirs(self.tmp, exist_ok=True)
            self.env = ops.cli_env(ROOT)
            for i, item in enumerate(self.items):
                with open(self._path(i), "w") as fh:
                    fh.write(item["text"])
        else:
            from gorcheck.errors import GuardExceeded

            self.guard_error = GuardExceeded
            self.observe = {
                "base-certify": ops.observe_base,
                "indep-certify": ops.observe_indep,
                "oracle-xval": ops.observe_oracle,
            }[name]

    def _path(self, i):
        return os.path.join(self.tmp, f"g{i}.txt")

    def close(self):
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def run_op(self, i):
        """Run item i once; returns (seconds, outcome, detail).

        outcome is "ok", "known" (fails the way the frozen pool records as a
        known defect) or "failed".
        """
        item = self.items[i]
        # Each op starts on a collected heap, as it would in a fresh `gorcheck`
        # process: the last op's cyclic garbage then neither costs this op a
        # collection nor, by when it happens to be collected, moves peak RSS.
        gc.collect()
        t = time.perf_counter()
        try:
            if self.name == "cli-cold":
                obs = self.ops.observe_cli(item, self._path(i), ROOT, self.env)
            else:
                obs = self.observe(item)
        except Exception as exc:  # every op failure is counted, none ends the run
            dt = time.perf_counter() - t
            known = (item.get("known_defect") == "GuardExceeded"
                     and isinstance(exc, self.guard_error))
            return dt, "known" if known else "failed", f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        problems = self.ops.check(self.name, item, obs)
        if not problems:
            return dt, "ok", ""
        known = item.get("known_defect") == "traceback" and all(
            p.startswith(("traceback", "exit code")) for p in problems)
        return dt, "known" if known else "failed", "; ".join(problems)

    def warm_up(self):
        cheapest = sorted(range(len(self.items)), key=lambda i: self.items[i]["cost_s"])
        for i in cheapest[:WARMUP_OPS[self.name]]:
            self.run_op(i)


class Tally:
    def __init__(self):
        self.latencies = []
        self.ok = self.known = 0
        self.failures = []

    def add(self, i, dt, outcome, detail):
        self.latencies.append(dt)
        if outcome == "ok":
            self.ok += 1
        elif outcome == "known":
            self.known += 1
        else:
            self.failures.append((i, detail))

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.attempted - self.ok

    def report(self, name, label):
        print(f"{name} {label}: {self.attempted} ops, {self.ok} correct, "
              f"{self.known} known-defect failures, {len(self.failures)} other failures",
              file=sys.stderr)
        for i, detail in self.failures[:10]:
            print(f"  item {i}: {detail}", file=sys.stderr)


def set_up(args):
    wl = Workload(args.workload)
    wl.warm_up()
    return wl, time.perf_counter() - T0


def setup_seconds(args, first):
    """Median set-up time over this process's and fresh processes' set-ups,
    each adjusted by the gauge samples taken straight after it."""
    gauge = SpeedGauge()
    spans = [(T0, first)]  # (start, seconds)
    gauge.sample(SETUP_SAMPLES)
    for _ in range(SETUP_REPEATS - 1):
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"set-up in a fresh process failed:\n{proc.stderr}")
        spans.append((t, json.loads(proc.stdout.splitlines()[-1])["setup_s"]))
        gauge.sample(SETUP_SAMPLES)
    return statistics.median(gauge.adjust(t, seconds) for t, seconds in spans)


def peak_rss_mb(workload):
    # cli-cold: the largest child; ru_maxrss is in KiB on Linux
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(wl, seed, seconds):
    """Closed loop over the op set, in whole passes, each in a fresh seeded order.

    Passes go on while the next one, at the mean pass time so far, would end
    within `seconds`; there is always at least one.  Returns the tally, the
    wall time, and every op's times adjusted for the machine's speed.
    """
    rng = random.Random(seed)
    gauge = SpeedGauge()
    tally = Tally()
    timings = []  # (item, start, seconds)
    passes = 0
    start = time.perf_counter()
    while True:
        for i in rng.sample(wl.op_set, len(wl.op_set)):
            gauge.sample_if_due()
            t = time.perf_counter()
            dt, outcome, detail = wl.run_op(i)
            timings.append((i, t, dt))
            tally.add(i, dt, outcome, detail)
        gauge.sample_if_due()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    adjusted = {i: [] for i in wl.op_set}
    for i, t, dt in timings:
        adjusted[i].append(gauge.adjust(t, dt))
    print(f"{wl.name}: {len(wl.op_set)} ops x {passes} passes in {elapsed:.1f} s; "
          f"kernel median {statistics.median(gauge.took) * 1000:.2f} ms "
          f"({len(gauge.took)} samples)", file=sys.stderr)
    return tally, elapsed, adjusted


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(tally, wall, adjusted):
    """The adjusted timing metrics; the raw wall-clock ones go to the log.

    An op's latency is the median of its passes; p50 and p90 are taken over
    the ops of the set.  Throughput is correct ops over the summed op times.
    """
    per_op = [statistics.median(ts) * 1000.0 for ts in adjusted.values()]
    raw_ms = [x * 1000.0 for x in tally.latencies]
    print(f"  wall clock: {tally.ok / wall:.3f} correct ops/s, "
          f"p50 {statistics.median(raw_ms):.1f} ms, p90 {p90(raw_ms):.1f} ms "
          f"over {len(raw_ms)} ops", file=sys.stderr)
    busy_s = sum(t for ts in adjusted.values() for t in ts)
    return {
        "verdicts_per_s": {"value": tally.ok / busy_s, "unit": "1/s"},
        "verdict_p50_ms": {"value": statistics.median(per_op), "unit": "ms"},
        "verdict_p90_ms": {"value": p90(per_op), "unit": "ms"},
    }


def spawn_median(argv, env, parse_stdout):
    times = []
    for _ in range(SPAWN_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        dt = time.perf_counter() - t
        if proc.returncode != 0:
            raise SystemExit(f"{argv} failed:\n{proc.stderr}")
        times.append(float(proc.stdout) if parse_stdout else dt)
    return statistics.median(times)


def traced_run(wl, args):
    import gorcheck  # noqa: F401  (cli-cold loads it only for the probe)
    from tracer import Tracer

    # Each op runs once untraced and once traced, alternating which goes
    # first, so drift and first-run effects fall on both sides alike.
    batch = wl.op_set
    tracer = Tracer()
    plain, tally = Tally(), Tally()
    untraced_s = traced_s = 0.0
    for k, i in enumerate(batch):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.current_op = k
                with tracer.installed():
                    dt, outcome, detail = wl.run_op(i)
                traced_s += dt
                tally.add(i, dt, outcome, detail)
            else:
                dt, outcome, detail = wl.run_op(i)
                untraced_s += dt
                plain.add(i, dt, outcome, detail)
    tracer.current_op = len(batch)  # the probe's own op id
    with tracer.installed():
        wl.ops.probe()

    out_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"{wl.name}-seed{args.seed}.tsv"))

    metrics = tracer.metrics()
    env = wl.ops.cli_env(ROOT)
    metrics["cli.import_s"] = (spawn_median(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); import gorcheck.cli; "
         "print(time.perf_counter() - t)"], env, parse_stdout=True), "s")
    metrics["cli.python_start_s"] = (spawn_median(
        [sys.executable, "-c", "pass"], env, parse_stdout=False), "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"{wl.name} trace: {len(batch)} ops, untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s, {len(tracer.fid)} spans", file=sys.stderr)
    return plain, tally, metrics


def main():
    args = parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "gorcheck")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'gorcheck')}; "
              "run from the root of a gorcheck checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    wl, first_setup = set_up(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        setup_s = setup_seconds(args, first_setup)
        if args.trace:
            plain, tally, layer = traced_run(wl, args)
            plain.report(wl.name, "untraced batch")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            correct = not plain.failures and not tally.failures
        else:
            tally, wall, adjusted = timed_run(wl, args.seed, args.seconds)
            metrics = {
                **end_to_end(tally, wall, adjusted),
                "correct_frac": {"value": tally.ok / tally.attempted, "unit": "ratio"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(wl.name), "unit": "MB"},
            }
            correct = not tally.failures
        tally.report(wl.name, "traced batch" if args.trace else "run")
    finally:
        wl.close()
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
