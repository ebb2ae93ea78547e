"""Build the frozen corpora under perfbench/corpus/: inputs plus reference answers.

    PYTHONPATH=src python3 perfbench/freeze.py [--seed 20261017]

Each corpus file holds one workload's pool of inputs, generated by gen.py
from the seed, and for every item the reference answer at the commit that ran
this script: status, delta, m, witness kind and flat (plus polytope size, h*
and exit code where they apply).  Independent expectations are checked
before anything is written: positives against the delta they were built for,
checker verdicts against the oracle, h* palindromicity against the Gorenstein
witness.  Known defects are recorded as such and stay in the pool; cost_s is
the op's time here, used only to balance the run schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import ops  # noqa: E402
from gorcheck.baseck import base_verdict  # noqa: E402
from gorcheck.errors import GuardExceeded  # noqa: E402
from gorcheck.indepck import indep_verdict  # noqa: E402

POOL_SIZES = {"base-certify": 480, "indep-certify": 400, "cli-cold": 120}
CLI_DEFECT_EXITS = [0, 2, 3, 4]  # documented codes other than 1


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def freeze_checker(workload, items, observe):
    for item in items:
        obs, cost = timed(observe, item)
        obs = ops.normalized(obs)
        item["expect"] = {k: v for k, v in obs.items() if k != "replay_matched"}
        item["cost_s"] = round(cost, 4)
        problems = ops.independent_problems(workload, item, obs)
        if problems:
            raise SystemExit(f"{workload}: {item['origin']} {item['graph']}: {problems}")
    return items


def freeze_oracle(items):
    for item in items:
        t = time.perf_counter()
        try:
            obs, cost = timed(ops.observe_oracle, item)
        except GuardExceeded as exc:
            cost = time.perf_counter() - t
            # the oracle refuses; the checker's verdict is the reference
            G = ops._build(item)
            v = (base_verdict(G) if item["kind"] == "base" else indep_verdict(G))
            item["expect"] = {"status": v.status, "delta": v.delta}
            item["known_defect"] = "GuardExceeded"
            item["defect_note"] = str(exc)
            item["cost_s"] = round(cost, 4)
            continue
        obs = ops.normalized(obs)
        problems = ops.independent_problems("oracle-xval", item, obs)
        if problems:
            raise SystemExit(f"oracle-xval: {item}: {problems}")
        item["expect"] = obs
        item["cost_s"] = round(cost, 4)
    return items


def freeze_cli(items):
    tmp = os.path.join(ROOT, ".bench_tmp", f"freeze-{os.getpid()}")
    os.makedirs(tmp)
    env = ops.cli_env(ROOT)
    try:
        for i, item in enumerate(items):
            path = os.path.join(tmp, f"g{i}.txt")
            with open(path, "w") as fh:
                fh.write(item["text"])
            obs, cost = timed(ops.observe_cli, item, path, ROOT, env)
            item["cost_s"] = round(cost, 4)
            if "--normality" in item["argv"]:
                # ROADMAP: a documented non-1 exit code and no traceback
                item["expect"] = {}
                item["exit_in"] = CLI_DEFECT_EXITS
                if obs["traceback"] or obs["exit"] not in CLI_DEFECT_EXITS:
                    item["known_defect"] = "traceback"
                    item["defect_note"] = f"exit {obs['exit']}, traceback {obs['traceback']}"
                continue
            if obs["traceback"]:
                raise SystemExit(f"cli-cold: traceback on {item['argv']}")
            item["expect"] = {k: v for k, v in ops.normalized(obs).items()
                              if k not in ("traceback", "replay_matched")}
            if obs.get("replay_matched") is False:
                raise SystemExit(f"cli-cold: replay mismatch on {item['argv']}")
    finally:
        shutil.rmtree(tmp)
    return items


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20261017)
    ap.add_argument("--only", default=None, help="freeze one workload")
    args = ap.parse_args()
    pools = {
        "base-certify": lambda: freeze_checker(
            "base-certify", gen.base_pool(args.seed, POOL_SIZES["base-certify"]),
            ops.observe_base),
        "indep-certify": lambda: freeze_checker(
            "indep-certify", gen.indep_pool(args.seed, POOL_SIZES["indep-certify"]),
            ops.observe_indep),
        "oracle-xval": lambda: freeze_oracle(gen.oracle_pool(args.seed)),
        "cli-cold": lambda: freeze_cli(gen.cli_pool(args.seed, POOL_SIZES["cli-cold"])),
    }
    os.makedirs(os.path.join(HERE, "corpus"), exist_ok=True)
    for name, build in pools.items():
        if args.only and name != args.only:
            continue
        t = time.perf_counter()
        items = build()
        doc = {
            "workload": name,
            "pool_seed": args.seed,
            "python": platform.python_version(),
            "items": items,
        }
        with open(os.path.join(HERE, "corpus", f"{name}.json"), "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        known = sum(1 for i in items if "known_defect" in i)
        print(f"{name}: {len(items)} items, {known} known defects, "
              f"{sum(i['cost_s'] for i in items):.1f} s of ops, "
              f"frozen in {time.perf_counter() - t:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
