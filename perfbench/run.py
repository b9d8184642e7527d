"""Benchmark entry point: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload train_b77 --seed 1 --seconds 26 --trace 0

The run sets the workload up several times, measures units of work
interleaved with rounds of batch and closed-loop online prediction for about
``--seconds``, and checks every output.
It prints a metric table and the environment record, then as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``; ``BENCHMARK.json`` gives their names and units. It exits 0
only when every output check passed, and 2 without a result when the
library's source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
REF_SEED = 0  # seed of the small fixed instance every run checks
REF_SEEDS = range(10)  # seeds whose full-size outputs reference.json holds
MIN_ONLINE = 1000  # online calls per run, so the printed p99 has ten samples beyond it
ROUNDS_PER_UNIT = 1 / 3  # seconds of prediction rounds per second of units


class Ledger:
    """Operations attempted and failed; a failure is an exception or a
    failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def check(self, problems: list[str], what: str) -> None:
        self.record(not problems, f"{what}: {'; '.join(problems)}")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _mean_wall(units) -> float:
    return statistics.fmean(u.wall_s for u in units) if units else 0.0


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def spec() -> dict:
    """BENCHMARK.json: the workloads, and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _labelled(values: dict, kind: str) -> dict:
    """The `kind` metrics of BENCHMARK.json, in its order and with its units.
    A metric without a value raises KeyError."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec()[kind]}


class Setups:
    """Runs and times the workload's set-ups.

    ``run`` sets up once. ``spread_over`` schedules the rest of the
    workload's ``setup_repeats`` at even times over the measured window, and
    ``catch_up``, called between units and prediction rounds, runs those that
    are due. So the median set-up time reflects the host's speed over the
    whole window, not at one moment. ``finish`` runs any still left."""

    def __init__(self, wl, seed: int, workdir: Path, tracer=None):
        self.wl, self.seed, self.workdir, self.tracer = wl, seed, workdir, tracer
        self.times: list[float] = []
        self.train_seqs, self.train_s = 0, 0.0
        self.due: list[float] = []

    def run(self):
        import layers

        d = self.workdir / f"setup{len(self.times)}"
        d.mkdir()
        gc.collect()
        traced = nullcontext()
        if self.tracer is not None:
            self.tracer.begin_run("setup")
            traced = self.tracer.installed(layers.SITES)
        with traced:
            t0 = time.perf_counter()
            state = self.wl.setup(self.seed, d)
            self.times.append(time.perf_counter() - t0)
        self.train_seqs += getattr(state, "train_seqs", 0)
        self.train_s += getattr(state, "train_s", 0.0)
        return state

    def spread_over(self, start: float, seconds: float) -> None:
        n = self.wl.setup_repeats
        self.due = [start + i * seconds / n for i in range(len(self.times), n)]

    def catch_up(self) -> None:
        while self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.run()

    def finish(self) -> None:
        while self.due:
            self.due.pop(0)
            self.run()


class Rounds:
    """Prediction rounds and their totals. A round is a batch pass over a
    model's evaluation utterances, then an online pass over the same
    utterances by one closed-loop client, which sends each ``predict`` call
    when the previous one returned. Every top-1 must equal the model's."""

    def __init__(self):
        self.batch_utts, self.batch_s, self.latencies = 0, 0.0, []
        self.calls, self.seconds = 0, 0.0

    def run(self, model, ledger: Ledger) -> None:
        from fewintent import evaluator

        gc.collect()
        start = t0 = time.perf_counter()
        try:
            preds = evaluator.predict_dataset(model.params, model.vocab, model.data, model.k)
        except Exception:
            ledger.record(False, f"batch predict raised\n{traceback.format_exc()}")
        else:
            self.batch_s += time.perf_counter() - t0
            self.batch_utts += len(preds)
            ledger.record([p.predicted for p in preds] == model.top1, "batch top-1 differs")
        labels = model.data.labels
        for j, ex in enumerate(model.data.examples):
            self.calls += 1
            t0 = time.perf_counter()
            try:
                pred = evaluator.predict(model.params, model.vocab, ex.text, labels, model.k)
            except Exception:
                ledger.record(False, f"online predict raised\n{traceback.format_exc()}")
                continue
            self.latencies.append(time.perf_counter() - t0)
            ledger.record(pred.predicted == model.top1[j], f"online top-1 differs on utterance {j}")
        self.seconds += time.perf_counter() - start


def run_unit(wl, state, ledger: Ledger, tracer=None):
    """One unit; returns ([unit], model), or ([], None) if it raised."""
    gc.collect()
    if tracer is not None:
        tracer.begin_run("unit")
    try:
        unit, model = wl.unit(state, tracer)
    except Exception:
        ledger.record(False, f"{wl.name} unit raised\n{traceback.format_exc()}")
        return [], None
    ledger.record(True)
    return [unit], model


def run_window(wl, state, until: float, ledger: Ledger, setups: Setups):
    """Units, each followed by prediction rounds until the rounds have had
    ROUNDS_PER_UNIT of the units' time. Units run while the next one with
    its rounds, taking as long as the last, would end by the deadline, and
    at least ``wl.min_units`` run. Then rounds run until the deadline has
    passed and MIN_ONLINE online calls were made. Interleaving spreads both
    kinds of work over the window; due set-ups run in between.

    Returns (units, rounds)."""
    units, model, rounds = [], None, Rounds()
    for n in itertools.count(1):
        t0 = time.perf_counter()
        unit, last = run_unit(wl, state, ledger)
        units += unit
        model = last or model
        setups.catch_up()
        while model is not None and rounds.seconds < ROUNDS_PER_UNIT * sum(u.wall_s for u in units):
            rounds.run(model, ledger)
            setups.catch_up()
        now = time.perf_counter()
        if n >= wl.min_units and now + (now - t0) > until:
            break
    while model is not None and (rounds.calls < MIN_ONLINE or time.perf_counter() < until):
        rounds.run(model, ledger)
        setups.catch_up()
    return units, rounds


def run_traced_pairs(wl, state, until: float, ledger: Ledger, tracer):
    """A warm-up unit, then pairs of one untraced and one traced unit while
    the next pair, taking as long as the last, would end by the deadline.

    The first unit in a process runs slower while the heap grows, so it is
    left out of both sides of the tracing overhead; alternating the sides
    lets both see the same host speed. Returns (warm-up, untraced, traced)."""
    import layers

    warmup, _ = run_unit(wl, state, ledger)
    untraced, traced = [], []
    while True:
        t0 = time.perf_counter()
        untraced += run_unit(wl, state, ledger)[0]
        with tracer.installed(layers.SITES):
            traced += run_unit(wl, state, ledger, tracer)[0]
        now = time.perf_counter()
        if now + (now - t0) > until:
            return warmup, untraced, traced


def check_outputs(wl, seed: int, units, workdir: Path, ledger: Ledger) -> None:
    """Every unit, traced or not, gives the first unit's outputs exactly; the
    first matches the stored reference for this seed when the seed is one of
    REF_SEEDS; and the small fixed instance matches its reference."""
    from workloads import mismatches

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = reference.get(wl.name, {})
    for i, unit in enumerate(units[1:], start=1):
        ledger.check(mismatches(units[0].outputs, unit.outputs, 0.0), f"unit {i} differs from unit 0")
    if units and seed in REF_SEEDS:
        want = ref.get("seeds", {}).get(str(seed))
        if want is None:
            ledger.record(False, f"{REFERENCE.name} has no seed {seed} outputs for {wl.name}")
        else:
            ledger.check(mismatches(want, units[0].outputs), f"seed {seed} reference")
    workdir.mkdir()
    try:
        unit, _ = wl.unit(wl.setup(REF_SEED, workdir, "check"))
    except Exception:
        ledger.record(False, f"check instance raised\n{traceback.format_exc()}")
        return
    if "check" not in ref:
        ledger.record(False, f"{REFERENCE.name} has no check outputs for {wl.name}")
        return
    ledger.check(mismatches(ref["check"], unit.outputs), "check instance reference")


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path, ledger: Ledger):
    """Returns (labelled metrics, details, tracer or None)."""
    import layers
    from tracing import Tracer

    tracer = Tracer() if trace else None
    setups = Setups(wl, seed, workdir, tracer)
    state = setups.run()  # the units use the first set-up's state
    rounds, warmup = Rounds(), []
    if not trace:
        start = time.perf_counter()
        setups.spread_over(start, seconds)
        units, rounds = run_window(wl, state, start + seconds, ledger, setups)
        setups.finish()
        traced_units = []
    else:
        # Per-layer set-up numbers are per set-up, so all of them run first.
        for _ in range(wl.setup_repeats - 1):
            setups.run()
        start = time.perf_counter()
        warmup, units, traced_units = run_traced_pairs(wl, state, start + seconds, ledger, tracer)
    latencies = rounds.latencies
    details = dict(
        setup_s=setups.times,
        window_s=time.perf_counter() - start,
        warmup_units=[vars(u) for u in warmup],
        units=[vars(u) for u in units],
        traced_units=[vars(u) for u in traced_units],
        online_samples=len(latencies),
        online_ms={
            "p50": 1e3 * _percentile(latencies, 0.50),
            "p99": 1e3 * _percentile(latencies, 0.99),
            "mean": 1e3 * statistics.fmean(latencies),
        } if latencies else {},
    )
    check_outputs(wl, seed, warmup + units + traced_units, workdir / "check", ledger)

    if trace:
        overhead = 0.0
        if units and traced_units:
            overhead = 100.0 * (_mean_wall(traced_units) / _mean_wall(units) - 1.0)
        metrics = layers.per_layer_metrics(tracer.totals("unit"), tracer.totals("setup"), overhead)
        return _labelled(metrics, "per_layer"), details, tracer

    # Means over all the work of a run, not medians: on a shared host whose
    # speed switches between levels, a median flips between them where a
    # mean moves with the share of time spent at each.
    train_seqs = sum(u.train_seqs for u in units)
    train_s = sum(u.train_s for u in units)
    if not train_s:  # predict_c150 trains only during set-up
        train_seqs, train_s = setups.train_seqs, setups.train_s
    predict_s = rounds.batch_s + sum(u.predict_s for u in units)
    predict_utts = rounds.batch_utts + sum(u.predict_utts for u in units)
    metrics = {
        "setup_s": statistics.median(setups.times),
        "wall_s": _mean_wall(units),
        "train_seq_per_s": train_seqs / train_s if train_s else 0.0,
        "predict_utt_per_s": predict_utts / predict_s if predict_s else 0.0,
        "predict_ms_p90": 1e3 * _percentile(latencies, 0.90) if latencies else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return _labelled(metrics, "end_to_end"), details, None


def _report(name, seed, metrics, details, ledger, env) -> None:
    print(
        f"{name} seed={seed} window={details['window_s']:.2f}s units={len(details['units'])}"
        f" traced_units={len(details['traced_units'])} online_samples={details['online_samples']}"
    )
    for key, m in metrics.items():
        print(f"  {key:<34} {m['value']:>16.6g} {m['unit']}")
    for stat, value in details["online_ms"].items():
        print(f"  {f'predict_ms_{stat}':<34} {value:>16.6g} ms")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  {'error_rate':<34} {rate:>16.6g} ({ledger.failed} of {ledger.attempted} operations)")
    units = details["units"] or details["traced_units"]
    if units:
        out = units[0]["outputs"]
        print(f"  {'accuracy_pct':<34} {out['accuracy_pct']:>16.6g} %")
        print(f"  {'train_loss':<34} {out['epoch_losses'][-1]:>16.10g} (final epoch)")
    print(json.dumps({"env": env}, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fewintent" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {src}", file=sys.stderr)
        return 2
    envinfo.pin_blas_threads(1)
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    wl = WORKLOADS[args.workload]
    ledger = Ledger()
    env = envinfo.environment(ROOT, args.seed)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    metrics, details, tracer = {}, None, None
    with tempfile.TemporaryDirectory(dir=OUT / "tmp", prefix=f"{wl.name}-") as tmp:
        try:
            metrics, details, tracer = measure(
                wl, args.seed, args.seconds, bool(args.trace), Path(tmp), ledger
            )
        except Exception:
            ledger.record(False, f"{wl.name} set-up raised\n{traceback.format_exc()}")

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"env": env, "result": result, "details": details}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write(OUT / "traces" / f"{tag}.npz", {"env": env})
    if details is not None:
        _report(wl.name, args.seed, metrics, details, ledger, env)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
