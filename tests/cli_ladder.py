"""Fresh-process times of `gorcheck check|certify` on the ladder positives of
two source trees, interleaved.

    python tests/cli_ladder.py BEFORE AFTER [--n 100000] [--seed 1] [--runs 3]

BEFORE and AFTER are roots of two checkouts.  The inputs are tests/ladder.py
positives of about N vertices, named by their ladder kind: the delta = 3
positive ("3") and the in-order chain ("chain") for `check base` and
`certify base`, the attach delta = 2 tree ("attach2") for `check indep` and
`certify indep`.  A last command, `sweep --max-vertices 7`, needs no input.  Each
run starts every command once per tree, in fresh processes of this
interpreter with PYTHONPATH set to the tree's src/, the tree that goes first
alternating from run to run.  A child's wall time runs from its start to its
exit, and its peak RSS is the ru_maxrss that wait4 reports for it, the same
figure RUSAGE_CHILDREN gives for a lone child.  A child that does not exit
with its expected code stops the script.

Prints one JSON object: per command (with its input's kind) and tree, every
run's wall time and peak RSS, their medians, and the bytes the command wrote
to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from ladder import attach_positive, positive

# command, the ladder kind of the input it reads, the exit code it must give
COMMANDS = [
    (["check", "base"], "3", 0),
    (["certify", "base"], "3", 0),
    (["check", "base"], "chain", 0),
    (["certify", "base"], "chain", 0),
    (["check", "indep"], "attach2", 0),
    (["certify", "indep"], "attach2", 0),
    (["sweep", "--max-vertices", "7"], None, 0),
]


def write_inputs(folder: str, n: int, seed: int) -> dict:
    """The three ladder positives as edge-list files, by their kind."""
    paths = {}
    made = (("3", positive(3, n, seed)), ("chain", positive("chain", n, seed)),
            ("attach2", attach_positive(2, n, seed)))
    for kind, (_, edges, *_) in made:
        paths[kind] = os.path.join(folder, f"{kind}.txt")
        with open(paths[kind], "w") as fh:
            fh.write("".join(f"{u} {v}\n" for u, v in edges))
    return paths


def run_once(root: str, argv: list, want: int, out_path: str) -> tuple:
    """(wall seconds, peak RSS in MB, stdout bytes) of one fresh gorcheck process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gorcheck.cli", *argv], cwd=root, env=env,
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != want:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {code}, expected {want}")
    return wall, usage.ru_maxrss / 1024, os.path.getsize(out_path)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--n", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    trees = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    names = [" ".join(argv + ([kind] if kind else [])) for argv, kind, _ in COMMANDS]
    samples = {(name, side): [] for name in names for side in trees}
    with tempfile.TemporaryDirectory() as folder:
        inputs = write_inputs(folder, args.n, args.seed)
        out_path = os.path.join(folder, "stdout")
        for r in range(args.runs):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for name, (argv, kind, want) in zip(names, COMMANDS):
                full = argv + ([inputs[kind]] if kind else [])
                for side in order:
                    samples[name, side].append(run_once(trees[side], full, want, out_path))
    report = {"n": args.n, "seed": args.seed, "runs": args.runs, "trees": trees, "commands": {}}
    for (command, side), rows in samples.items():
        wall, rss, size = zip(*rows)
        report["commands"].setdefault(command, {})[side] = {
            "wall_s": [round(w, 3) for w in wall],
            "median_wall_s": round(statistics.median(wall), 3),
            "peak_rss_mb": [round(x, 1) for x in rss],
            "median_peak_rss_mb": round(statistics.median(rss), 1),
            "stdout_bytes": size[0],
        }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
