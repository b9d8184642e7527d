#!/usr/bin/env python3
"""Run the benchmark on a parent tree and a change tree in alternating pairs,
and write the runs with their summary to BENCH_<label>.json.

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` once in each tree, one process at a time; even pairs run the
parent first, odd pairs the change. Every run's environment and result line
are kept; the record's shared `env` is the first run's without its seed and
git commit, which differ by run and by side. The summary gives each
workload's end-to-end metrics as median, quartiles and run count per side,
and how many pairs the change won, lost
and tied by the metric's `better` direction in BENCHMARK.json, whether
the change's median is worse than the parent's by more than the metric's
`bound`, and whether the parent's own spread is too wide for that bound to
tell (`unresolved`). A claim (`--claim WORKLOAD:METRIC`) is met when the
change wins at least nine tenths of that workload's pairs, the medians
differ by more than the parent's interquartile range, every change run of
that workload passed its output check, and the change failed no more
operations there than the parent.

The pairs, the claim, the seeds and `--out-dir` are checked before the first
run; a bad one exits 2. The record's `parent` is the commit checked out in the parent
tree or, for a copy such as a `git archive` export, `--parent-sha`; with
neither, the script exits 2.

    python3 scripts/bench_compare.py --parent ../parent --change . \\
        --label label_index --pairs predict_c150=5 train_b77=3 --seeds 41 42 43 44 45 \\
        --claim predict_c150:predict_ms_p90
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (the `statistics.quantiles` default
    method) and count; one value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's `quartiles` over its
    runs, the change's wins, losses and ties over the pairs, a pair being
    the two runs of one workload at one seed, `regressed`: whether the
    change's median is worse than the parent's by more than the metric's
    relative `bound`, and `unresolved`: whether the parent's interquartile
    range exceeds that bound, unless every change run beats every parent run."""
    summary: dict = {}
    for spec in end_to_end:
        name, sign = spec["name"], _sign(spec)
        by_pair: dict = {}
        for run in runs:
            value = run["result"]["metrics"][name]["value"]
            by_pair.setdefault((run["workload"], run["seed"]), {})[run["side"]] = value
        for (workload, _), sides in sorted(by_pair.items()):
            entry = summary.setdefault(workload, {}).setdefault(
                name, {"parent": [], "change": [], "wins": 0, "losses": 0, "ties": 0}
            )
            entry["parent"].append(sides["parent"])
            entry["change"].append(sides["change"])
            diff = sign * (sides["change"] - sides["parent"])
            entry["wins" if diff > 0 else "losses" if diff < 0 else "ties"] += 1
    specs = {spec["name"]: spec for spec in end_to_end}
    for metrics in summary.values():
        for name, entry in metrics.items():
            sign, bound = _sign(specs[name]), specs[name]["bound"]
            beats_all = min(sign * v for v in entry["change"]) > max(sign * v for v in entry["parent"])
            entry["parent"], entry["change"] = quartiles(entry["parent"]), quartiles(entry["change"])
            parent, change = entry["parent"], entry["change"]
            entry["regressed"] = sign * (parent["median"] - change["median"]) > bound * abs(parent["median"])
            entry["unresolved"] = parent["q3"] - parent["q1"] > bound * abs(parent["median"]) and not beats_all
    return summary


def _sign(spec: dict) -> float:
    """1 when a higher value of the metric is better, -1 when a lower one is."""
    return 1.0 if spec["better"] == "higher" else -1.0


def failed_of_attempted(runs: list[dict]) -> dict:
    """Per workload and side: [operations failed, operations attempted]."""
    failures: dict = {}
    for run in runs:
        side = failures.setdefault(run["workload"], {}).setdefault(run["side"], [0, 0])
        side[0] += run["result"]["failed"]
        side[1] += run["result"]["attempted"]
    return failures


def claim(summary: dict, runs: list[dict], workload: str, metric: str) -> dict:
    """Whether the change wins at least nine tenths of the pairs, its median
    differs from the parent's by more than the parent's IQR, every change
    run of the workload passed its output check, and the change failed no
    more of the workload's operations than the parent."""
    entry = summary[workload][metric]
    parent, change = entry["parent"], entry["change"]
    pairs = entry["wins"] + entry["losses"] + entry["ties"]
    failed = {side: n for side, (n, _) in failed_of_attempted(runs)[workload].items()}
    correct = all(
        run["result"]["correct"] for run in runs
        if run["workload"] == workload and run["side"] == "change"
    )
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "parent_iqr": parent["q3"] - parent["q1"],
        "wins": entry["wins"],
        "pairs": pairs,
        "change_correct": correct,
        "failed": failed,
        "met": entry["wins"] >= 0.9 * pairs
        and abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        and correct
        and failed["change"] <= failed["parent"],
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`: its environment and result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    return {"env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def git_sha(tree: Path) -> str | None:
    """The commit checked out in `tree`, or None when it is not a checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def parse_plan(pairs: list[str], claimed: str | None, spec: dict) -> list[tuple[str, int]]:
    """The (workload, count) of each `--pairs` entry, after checking every
    entry and the claim against `spec`; a `ValueError` names the first bad one."""
    workloads = [w["name"] for w in spec["workloads"]]
    plan = []
    for entry in pairs:
        workload, _, count = entry.partition("=")
        if workload not in workloads or not count.isdigit() or int(count) < 1:
            raise ValueError(f"--pairs entry {entry!r} is not WORKLOAD=COUNT with a count >= 1 "
                             f"and a workload of BENCHMARK.json: {', '.join(workloads)}")
        if workload in (w for w, _ in plan):
            raise ValueError(f"--pairs names {workload} twice")
        plan.append((workload, int(count)))
    if claimed is not None:
        workload, _, metric = claimed.partition(":")
        metrics = [m["name"] for m in spec["end_to_end"]]
        if workload not in (w for w, _ in plan) or metric not in metrics:
            raise ValueError(f"--claim {claimed!r} is not WORKLOAD:METRIC with a workload of --pairs "
                             f"and an end-to-end metric: {', '.join(metrics)}")
    return plan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="tree of the change")
    ap.add_argument("--label", required=True, help="names the record BENCH_<label>.json")
    ap.add_argument("--pairs", nargs="+", required=True, help="WORKLOAD=COUNT, run in the order given")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="seed of each pair, reused in order by every workload")
    ap.add_argument("--seconds", type=float, default=26)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--parent-sha", default=None,
                    help="the parent's commit, for a parent tree that is not a git checkout")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    try:
        plan = parse_plan(args.pairs, args.claim, spec)
    except ValueError as exc:
        ap.error(str(exc))
    if max(n for _, n in plan) > len(args.seeds):
        ap.error("more pairs than seeds")
    parent = git_sha(args.parent) or args.parent_sha
    if parent is None:
        ap.error(f"{args.parent} is not a git checkout: pass --parent-sha")
    if not args.out_dir.is_dir():
        ap.error(f"--out-dir {args.out_dir} is not a directory")
    runs, env = [], None
    index = 0
    for workload, count in plan:
        for seed in args.seeds[:count]:
            sides = [("parent", args.parent), ("change", args.change)]
            for side, tree in sides if index % 2 == 0 else sides[::-1]:
                run = run_once(tree, workload, seed, args.seconds)
                env = env or {k: v for k, v in run["env"].items() if k not in ("seed", "git_sha")}
                runs.append({**run, "seed": seed, "side": side, "trace": 0, "workload": workload})
                print(f"{workload} seed {seed} {side}: failed {run['result']['failed']}", file=sys.stderr)
            index += 1

    summary = summarize(runs, spec["end_to_end"])
    record = {
        "label": args.label,
        "parent": parent,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0",
        "protocol": "parent and change run from separate copies of the tree, one run at a time; "
                    "pairs alternate which side runs first, in the order listed; one BLAS thread; "
                    f"seeds {args.seeds[:max(n for _, n in plan)]}",
        "env": env,
        "runs": runs,
        "summary": summary,
        "failed_of_attempted": failed_of_attempted(runs),
        "claim": None if args.claim is None else claim(summary, runs, *args.claim.split(":")),
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
