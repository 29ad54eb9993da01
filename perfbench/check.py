"""Self-checks for the cavshield benchmark.

    python3 perfbench/check.py spread [--workload W ...] [--seeds 10]
        Runs each workload untraced once per seed (1..N) and prints, for
        every end-to-end metric, the quartile spread (Q3 - Q1) of its
        values as a share of their median, next to the metric's bound.
        Fails if any spread but setup_s exceeds its bound, or any op fails.

    python3 perfbench/check.py repeat [--workload W ...] [--seed 1]
        Runs each workload untraced once and traced twice on one seed.
        Fails if a call count, counter, digest or collision_free_rate
        differs between the runs.  Prints the tracing overhead (untraced
        vs traced steps_per_s) and the layers with the most self time.

Both take --seconds (default: run_seconds from BENCHMARK.json).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds, trace, tag):
    report = ROOT / ".bench_out" / f"check-{tag}-{workload}-seed{seed}-trace{trace}.json"
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--report", str(report),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(report.read_text())


def estimated_steps_per_s(rep):
    """steps_per_s as run.py computes it untraced, from a run's report."""
    steps_per_episode = rep["wall_steps_per_s"] * rep["timed_wall_s"] / rep["episodes_run"]
    return len(rep["episode_est_s"]) * steps_per_episode / sum(rep["episode_est_s"])


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_spread(args):
    ok = True
    for wl in args.workload:
        runs = []
        for seed in range(1, args.seeds + 1):
            result, _ = run_once(wl, seed, args.seconds, 0, "spread")
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            runs.append(result["metrics"])
        print(f"\n{wl}: {args.seeds} seeds")
        print(f"  {'metric':<22}{'median':>12}{'spread':>9}{'bound':>7}  values")
        for m in BENCH["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            spread = quartile_spread(values)
            flag = ""
            if spread > m["bound"]:
                flag = "  OVER BOUND"
                ok = ok and m["name"] == "setup_s"
            elif spread > m["bound"] / 3:
                flag = "  over bound/3"
            print(f"  {m['name']:<22}{statistics.median(values):>12.6g}"
                  f"{spread:>9.4f}{m['bound']:>7}  "
                  + " ".join(f"{v:.5g}" for v in values) + flag)
    return 0 if ok else 1


def cmd_repeat(args):
    ok = True
    for wl in args.workload:
        plain, plain_rep = run_once(wl, args.seed, args.seconds, 0, "repeat")
        traced = [run_once(wl, args.seed, args.seconds, 1, f"repeat{i}")
                  for i in (0, 1)]
        reports = [plain_rep] + [rep for _, rep in traced]
        problems = []
        for key in ("episodes_digest", "train_metrics_digest",
                    "collision_free_rate", "violations"):
            seen = {json.dumps(r[key], sort_keys=True) for r in reports}
            if len(seen) > 1:
                problems.append(f"{key} differs: {sorted(seen)}")
        (_, a), (_, b) = traced
        for key in ("calls", "counters"):
            for name in sorted(set(a[key]) | set(b[key])):
                if a[key].get(name) != b[key].get(name):
                    problems.append(f"{key}[{name}] differs: "
                                    f"{a[key].get(name)} vs {b[key].get(name)}")
        for res, _ in traced:
            if not res["correct"] or res["failed"]:
                problems.append(f"traced run correct={res['correct']} "
                                f"failed={res['failed']}")
        if not plain["correct"] or plain["failed"]:
            problems.append(f"untraced run correct={plain['correct']} "
                            f"failed={plain['failed']}")
        # Both sides through the same per-segment estimator, so host
        # noise cancels and the ratio is the tracer's own cost.
        untraced_sps = estimated_steps_per_s(plain_rep)
        traced_sps = [estimated_steps_per_s(rep) for _, rep in traced]
        overhead = untraced_sps / statistics.mean(traced_sps) - 1.0
        gaps = [r["metrics"]["trace.self_time_gap"]["value"] for r, _ in traced]
        print(f"{wl} seed {args.seed}: steps_per_s untraced "
              f"{untraced_sps:.2f}, traced "
              f"{', '.join(f'{s:.2f}' for s in traced_sps)}, "
              f"tracing overhead {100 * overhead:.1f} %, "
              f"self-time gaps {', '.join(f'{g:.1e}' for g in gaps)}")
        shares = sorted(a["layer_self_share"].items(), key=lambda kv: -kv[1])
        print("  layers by self time: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares[:6]))
        for p in problems:
            print(f"  MISMATCH {p}")
        ok = ok and not problems
    return 0 if ok else 1


def main(argv=None):
    names = [w["name"] for w in BENCH["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("spread", "repeat"):
        s = sub.add_parser(name)
        s.add_argument("--workload", nargs="+", choices=names, default=names)
        s.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    sub.choices["spread"].add_argument("--seeds", type=int, default=10)
    sub.choices["repeat"].add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    return cmd_spread(args) if args.cmd == "spread" else cmd_repeat(args)


if __name__ == "__main__":
    sys.exit(main())
