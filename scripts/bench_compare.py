#!/usr/bin/env python3
"""Run the benchmark on a parent tree and a change tree in alternating pairs,
and write the runs with their summary to BENCH_<label>.json.

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` once in each tree, one process at a time; even pairs run the
parent first, odd pairs the change. Every run's environment and result line
are kept. The summary gives each workload's end-to-end metrics as median,
quartiles and run count per side, and how many pairs the change won, lost
and tied by the metric's `better` direction in BENCHMARK.json, whether
the change's median is worse than the parent's by more than the metric's
`bound`, and whether the parent's own spread is too wide for that bound to
tell (`unresolved`). A claim (`--claim WORKLOAD:METRIC`) is met when the
change wins at least nine tenths of that workload's pairs, the medians
differ by more than the parent's interquartile range, every change run of
that workload passed its output check, and the change failed no more
operations there than the parent.

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
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return out.stdout.strip() or None


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
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    plan = [(w, int(n)) for w, n in (p.split("=") for p in args.pairs)]
    if max(n for _, n in plan) > len(args.seeds):
        ap.error("more pairs than seeds")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs, env = [], None
    index = 0
    for workload, count in plan:
        for seed in args.seeds[:count]:
            sides = [("parent", args.parent), ("change", args.change)]
            for side, tree in sides if index % 2 == 0 else sides[::-1]:
                run = run_once(tree, workload, seed, args.seconds)
                env = env or {k: v for k, v in run["env"].items() if k != "seed"}
                runs.append({**run, "seed": seed, "side": side, "trace": 0, "workload": workload})
                print(f"{workload} seed {seed} {side}: failed {run['result']['failed']}", file=sys.stderr)
            index += 1

    summary = summarize(runs, spec["end_to_end"])
    record = {
        "label": args.label,
        "parent": git_sha(args.parent),
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
