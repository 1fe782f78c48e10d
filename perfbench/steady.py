#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs each workload k times and prints, per end-to-end metric, the
median, the quartiles and their spread ((Q3 - Q1) / median) against the
metric's bound. The runs use consecutive seeds from --first-seed, or with
--same-seed k repeats of that one seed, so the spread is the host's alone.
Run from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 1 --save a.json
    python3 perfbench/steady.py --runs 10 --first-seed 1 --against a.json
    python3 perfbench/steady.py --runs 5 --first-seed 7 --same-seed

--against compares with a series saved by --save over the same seeds; it
refuses a file whose seeds differ, since other seeds are other graphs.

It flags, and exits nonzero on:
  * a spread above the metric's bound;
  * with --against, a median worse than the saved one by more than the
    bound;
  * a timed metric resting on one sample per run, on a timer reading
    shorter than 1 us, or on a tail quantile with fewer than 10 samples
    beyond it (the run's diagnostics line gives, per metric, the sample
    count, the quantile reported and the shortest reading behind it);
  * a run that exits nonzero or reports wrong answers or failures.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_INTERVAL_NS = 1_000
MIN_BEYOND_TAIL = 10


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(new, old, better):
    if not old:
        return 0.0
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def main():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*", default=names, choices=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--same-seed", action="store_true",
                   help="repeat --first-seed in every run")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--save", help="write every run's metrics to this JSON file")
    p.add_argument("--against", help="compare medians with a file written by --save")
    a = p.parse_args()
    if a.runs < 4:
        p.error("--runs must be at least 4 for quartiles")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = [a.first_seed + (0 if a.same_seed else i) for i in range(a.runs)]
    saved = {}
    if a.against:
        saved = json.loads(Path(a.against).read_text())
        if saved.get("seeds") != seeds:
            p.error(f"{a.against} was run on seeds {saved.get('seeds')}, not {seeds}")
        saved = saved["workloads"]
    record = {}
    flags = []
    for w in a.workloads:
        values = {name: [] for name in metrics}
        for seed in seeds:
            diag, result = run_once(spec["command"], w, seed, a.seconds, 0)
            if not result["correct"] or result["failed"]:
                flags.append(f"{w} seed {seed}: correct={result['correct']} "
                             f"failed={result['failed']}/{result['attempted']}")
            for name, m in metrics.items():
                got = result["metrics"].get(name)
                if got is None:
                    flags.append(f"{w} seed {seed}: {name} missing")
                    continue
                values[name].append(got["value"])
                d = diag.get(name, {})
                ns = d.get("min_interval_ns")
                if ns is not None and d.get("samples", 0) < 2:
                    flags.append(f"{w} seed {seed}: {name} from a single sample")
                if ns is not None and ns < MIN_INTERVAL_NS:
                    flags.append(f"{w} seed {seed}: {name} rests on a {ns} ns timer reading")
                q = d.get("quantile", 0.5)
                beyond = d.get("samples", 0) * min(q, 1 - q)
                if q != 0.5 and beyond < MIN_BEYOND_TAIL:
                    flags.append(f"{w} seed {seed}: {name} has {beyond:.0f} samples "
                                 f"beyond its {q} quantile")
            print(f"  {w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())),
                flush=True)
        record[w] = values
        print(f"\n{w}: {a.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}")
        for name, m in metrics.items():
            vs = values[name]
            if len(vs) < 4:
                continue
            med, q1, q3, sp = spread(vs)
            mark = ""
            if sp > m["bound"]:
                mark = "  OVER BOUND"
                flags.append(f"{w}: {name} spread {sp:.3f} > bound {m['bound']}")
            elif sp > m["bound"] / 3:
                mark = "  over bound/3"
            old = saved.get(w, {}).get(name)
            if old:
                worse = worse_by(med, statistics.median(old), m["better"])
                mark += f"  vs saved {worse:+.3f}"
                if worse > m["bound"]:
                    flags.append(f"{w}: {name} median worse than saved by {worse:.3f}")
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>7.3f} "
                  f"{m['bound']:>6}{mark}")
    if a.save:
        Path(a.save).write_text(json.dumps({"seeds": seeds, "workloads": record}, indent=1))
    if flags:
        print("\nFLAGGED:")
        for f in flags:
            print("  " + f)
        return 1
    print("\nall spreads within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
