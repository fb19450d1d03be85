"""Steadiness check for the benchmark itself.

    python3 perfbench/steady.py [--workloads sbm-train,verify-suite] [--seeds 10]
                                [--first-seed 0] [--counts]

Runs ``run.py --trace 0`` once per seed on each workload, one run at a time,
and prints for every end-to-end metric the median, the quartiles and the
spread (distance between the quartiles as a share of the median) against
the metric's bound from BENCHMARK.json. The benchmark is steady when every
spread except that of setup_s stays below a third of its bound.

With ``--counts`` it also runs ``--trace 1`` twice with the same seed on
each workload and fails unless every count metric (and byte count) repeats
exactly.

Exit code 0 when every check passes, 1 otherwise. All runs are recorded in
.perfbench/steady.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

EXACT_UNITS = ("count", "bytes")


def bench_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread_table(bench: dict, runs: dict[str, list[dict]]) -> tuple[list[str], bool]:
    lines, ok = [], True
    for workload, results in runs.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, q3 = stats.quartiles(values)
            sp = stats.spread(values)
            target = bound / 3
            verdict = "ok" if sp < target else ("WITHIN BOUND" if sp < bound else "TOO WIDE")
            if name != "setup_s" and sp >= target:
                ok = False
            lines.append(f"{workload:<13} {name:<18} median {stats.median(values):<12.6g} "
                         f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {sp:.4f} "
                         f"(bound {bound}, target < {target:.4f}) {verdict}")
        walls = [r["wall_s"] for r in results]
        lines.append(f"{workload:<13} wall per run: median {stats.median(walls):.1f} s, "
                     f"max {max(walls):.1f} s; all correct: "
                     f"{all(r['correct'] for r in results)}")
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in results)
    return lines, ok


def count_check(bench: dict, workload: str, seed: int) -> tuple[list[str], bool]:
    exact = [m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS]
    a = bench_run(bench, workload, seed, 1)["metrics"]
    b = bench_run(bench, workload, seed, 1)["metrics"]
    diffs = [n for n in exact if a[n]["value"] != b[n]["value"]]
    line = (f"{workload:<13} {len(exact)} count metrics repeat exactly" if not diffs
            else f"{workload:<13} counts differ between traced runs: {diffs}")
    return [line], not diffs


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Check that the benchmark is steady.")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")

    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs[w].append(bench_run(bench, w, seed, 0))
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[w][-1]["metrics"].items()),
                flush=True)
    lines, ok = spread_table(bench, runs)
    if args.counts:
        for w in workloads:
            more, same = count_check(bench, w, args.first_seed)
            lines += more
            ok = ok and same
    print("\n".join(lines))
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": lines, "ok": ok}, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
