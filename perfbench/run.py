"""The minignn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sbm-train --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. Each run starts fresh single-threaded
processes (BLAS and OpenMP pinned to one thread): a few that only set up,
for the set-up time, and one that runs the workload. With ``--trace 1`` a
second, traced process runs one fixed unit of the workload and the
per-layer metrics are printed, with the tracing overhead (traced minus
untraced value of each end-to-end metric).

Workloads, metrics and their units are declared in BENCHMARK.json; the
rationale and the map from per-layer to end-to-end metrics are in
perfbench/README.md. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The full record of
the run, environment included, is written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

PROBES = 4          # set-up-only processes per run; with the main process, 5 samples
RUN_LIMIT_S = 175   # every child is killed if the run would pass this


class RunError(RuntimeError):
    """The workload could not be run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"no time left for the {mode} process")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise RunError(f"{mode} process of {workload} timed out") from err
    if proc.returncode != 0:
        raise RunError(f"{mode} process of {workload} exited with {proc.returncode}:\n"
                       f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{mode} process of {workload} printed nothing")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def source_hash() -> str:
    """Hash of src/minignn/*.py: names the measured code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "minignn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def phase_s(laps: dict[str, list[list[float]]], phase: str) -> float:
    """One repeat of a phase: the shortest laps over the repeats of each of its names."""
    names = [k for k in laps if k.split("/")[0] == phase]
    if not names:
        raise RunError(f"no repeats of phase {phase!r} were timed")
    return sum(stats.best_total(laps[k]) for k in names)


def end_to_end(probes: list[dict], main: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced (or traced) run.

    Timed phases are cut into laps at fixed points of the work (see
    workloads.Laps); a phase's time sums the shortest lap at each position
    over its repeats: gen over every process of the run that generated,
    the other phases over the units of the workload process. setup_s is
    the median over the processes.
    """
    if not main["units"]:
        raise RunError("no unit of the workload completed:\n" + "\n".join(main["failures"]))
    laps = main["laps"]
    gen = {}
    for r in probes + [main]:
        for k, rows in r["laps"].items():
            if k.split("/")[0] == "gen":
                gen.setdefault(k, []).extend(rows)
    return {
        "setup_s": stats.median([p["setup_s"] for p in probes] + [main["setup_s"]]),
        "gen_s": phase_s(gen, "gen"),
        "pass_s": sum(phase_s(laps, k) for k in main["pass_phases"]) / main["passes"],
        "eval_graphs_per_s": main["eval_graphs"] / phase_s(laps, "eval"),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def declared(bench: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench[key]}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run one minignn benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "minignn" / "__init__.py").is_file():
        print(f"error: no minignn source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        probes = [run_child(args.workload, args.seed, args.seconds, "probe", deadline)
                  for _ in range(PROBES)]
        main_run = run_child(args.workload, args.seed, args.seconds, "run", deadline)
        untraced = end_to_end(probes, main_run)
        runs = [main_run]
        if args.trace:
            traced_run = run_child(args.workload, args.seed, args.seconds, "trace", deadline)
            traced = end_to_end([], traced_run)
            runs.append(traced_run)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    e2e_units = declared(bench, "end_to_end")
    if args.trace:
        metrics = {name: value for name, (value, _) in traced_run["layers"].items()}
        metrics.update({f"overhead.{k}": traced[k] - untraced[k] for k in untraced})
        units = declared(bench, "per_layer")
    else:
        metrics = untraced
        units = e2e_units
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    phases = {f"{k}_s": phase_s(main_run["laps"], k)
              for k in sorted({k.split("/")[0] for k in main_run["laps"]}) if k != "gen"}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    env = {**main_run["env"], "git_commit": git_commit(), "source_sha256": source_hash(),
           "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "untraced": untraced,
        "units": main_run["units"], "phase_s": phases,
        "setup_samples": [p["setup_s"] for p in probes] + [main_run["setup_s"]],
        "laps": main_run["laps"],
        "failed_frac": failed / attempted, "failures": failures,
    }
    if args.trace:
        record.update(traced=traced, spans=traced_run["spans"],
                      untraced_names=traced_run["untraced_names"])
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} units={main_run['units']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name in sorted(untraced):
        print(f"  {name:<22} {untraced[name]:.6g} {e2e_units[name]}")
    for name, value in sorted(phases.items()):
        print(f"  {name:<22} {value:.6g} s (shortest laps of {main_run['units']} units)")
    print(f"  {'failed_frac':<22} {failed}/{attempted} = {failed / attempted:.6g}")
    for f in failures:
        print(f"  FAILED: {f}")
    print(f"  record: {out.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
