"""Run the benchmark over workloads and seeds and summarize the spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py                      # BENCHMARK.json's workloads, seed 0
    python3 perfbench/sweep.py --seeds 0-9 --save runs_a
    python3 perfbench/sweep.py --seeds 0-9 --save runs_b --against runs_a
    python3 perfbench/sweep.py --trace 1 --workloads files_cli

Each run is one ``perfbench/run.py`` process. The sweep prints every
metric with its unit and the output-check result per run, then per
workload the median of each metric and its quartile spread (q3 - q1) as a
share of the median. With ``--against`` it also checks that fingerprints
and per-layer counts of runs with the same workload, seed and trace mode
are identical, and that no end-to-end median got worse than the other
set's by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> str:
    proc = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit("run.py %s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    return proc.stdout


def parse(stdout: str) -> tuple[dict, dict]:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_by(metric: dict, before: float, after: float) -> float:
    """Share by which ``after`` is worse than ``before`` (negative: better)."""
    change = (after - before) / abs(before)
    return change if metric.get("better") == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: those in BENCHMARK.json")
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 0,3,5")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="directory to keep each run's output in")
    parser.add_argument("--against", help="directory of a saved earlier set to compare with")
    args = parser.parse_args(argv)

    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    save = Path(args.save) if args.save else None
    if save:
        save.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            stdout = run_once(workload, seed, seconds, args.trace)
            name = "%s_seed%d_trace%d.out" % (workload, seed, args.trace)
            if save:
                (save / name).write_text(stdout)
            info, result = parse(stdout)
            runs.append((seed, name, info, result))
            ok &= result["correct"]
            print(
                "%s seed=%d correct=%s attempted=%d failed=%d passes=%d %s"
                % (
                    workload, seed, result["correct"], result["attempted"], result["failed"], info["passes"],
                    " ".join(
                        "%s=%.6g%s" % (k, v["value"], v["unit"]) for k, v in result["metrics"].items()
                        if args.trace == 0 or not k.endswith((".calls", ".rows", ".bytes", ".cells"))
                    ),
                ),
                flush=True,
            )
            for failure in info["failures"]:
                print("  failure: %s" % failure)

        names = list(runs[0][3]["metrics"])
        print("== %s: %d runs" % (workload, len(runs)))
        for metric in names:
            values = [r[3]["metrics"][metric]["value"] for r in runs]
            line = "  %-42s median=%-12.6g" % (metric, statistics.median(values))
            bound = bounds.get(metric, {}).get("bound")
            if len(values) >= 2:
                s = spread(values)
                line += " spread=%.4f" % s
                if bound is not None:
                    line += " bound=%g %s" % (bound, "ok" if s <= bound / 3 else "WIDE" if s <= bound else "OVER")
            print(line)

        if args.against:
            other_dir = Path(args.against)
            before_values: dict[str, list[float]] = {m: [] for m in names}
            after_values: dict[str, list[float]] = {m: [] for m in names}
            for seed, name, info, result in runs:
                path = other_dir / name
                if not path.is_file():
                    continue
                other_info, other_result = parse(path.read_text())
                for key in ("fingerprint", "counts"):
                    if other_info.get(key) != info.get(key):
                        ok = False
                        print("  %s seed %d: %s differs from %s" % (workload, seed, key, args.against))
                for metric in names:
                    before_values[metric].append(other_result["metrics"][metric]["value"])
                    after_values[metric].append(result["metrics"][metric]["value"])
            for metric in names:
                spec = bounds.get(metric)
                if not before_values[metric] or not spec or "bound" not in spec:
                    continue
                change = worse_by(
                    spec, statistics.median(before_values[metric]), statistics.median(after_values[metric])
                )
                verdict = "ok" if change <= spec["bound"] else "WORSE"
                ok &= verdict == "ok"
                print("  %-42s worse_by=%+.4f bound=%g %s" % (metric, change, spec["bound"], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
