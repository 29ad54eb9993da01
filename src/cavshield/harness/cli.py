"""Command-line interface.

    cavshield train  --scenario NAME --algo {srmappo|mappo}
                     --shield {robust|plain|off} --seed N [--config FILE]
                     [--episodes N] [--quick] --out DIR
    cavshield eval   --checkpoint FILE --ptb {none|rand|time|veh}
                     --episodes N [--seed N] [--out DIR [--save-logs]]
                     [--scatter FILE]
    cavshield replay --log FILE
    cavshield table  REPORT.json [REPORT.json ...] [--csv FILE]
    cavshield qp-debug (--problem FILE | --demo)
    cavshield --version

NAME is a scenario shipped under cavshield/harness/data (`train -h` lists
them).
"""

import argparse
import json
import os
import sys

from .config import Config
from .scenario import scenario_names


def _load_config(path):
    return Config.load(path) if path else Config()


def cmd_train(args):
    from ..marl import trainer

    settings = trainer.TrainSettings(
        scenario=args.scenario,
        algo=args.algo,
        shield_mode=args.shield,
        seed=args.seed,
        episodes=args.episodes,
        quick=args.quick,
        config=_load_config(args.config),
    )
    result = trainer.train(settings)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    ckpt_path = os.path.join(args.out, "checkpoint.npz")
    trainer.write_metrics(metrics_path, result.metrics)
    trainer.save_checkpoint(ckpt_path, result, settings)
    last = result.metrics[-1] if result.metrics else {}
    print(f"trained {len(result.metrics)} episodes on {args.scenario} ({args.algo})")
    print(f"final mean return: {last.get('mean_return')}")
    print(f"metrics: {metrics_path}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_eval(args):
    from . import evaluate as ev

    cfg = _load_config(args.config)
    logs_dir = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        if args.save_logs:
            logs_dir = os.path.join(args.out, "logs")
            os.makedirs(logs_dir, exist_ok=True)
    report = ev.evaluate(
        args.checkpoint, ptb=args.ptb, n_episodes=args.episodes,
        seed=args.seed, cfg=cfg, shield_mode=args.shield,
        save_logs_dir=logs_dir,
    )
    print(
        f"{report.scenario}-{report.ptb}: collision_free_rate="
        f"{report.collision_free_rate:.2%} mean_episode_return="
        f"{report.mean_episode_return:.2f} ({report.n_episodes} episodes)"
    )
    if args.out:
        ev.save_report(os.path.join(args.out, "report.json"), report)
        with open(os.path.join(args.out, "metrics.jsonl"), "w") as fh:
            for i, (seed, ret, cols) in enumerate(report.episodes):
                fh.write(
                    json.dumps(
                        {"episode": i, "seed": seed, "return": ret,
                         "collisions": cols},
                        sort_keys=True,
                    )
                    + "\n"
                )
    if args.scatter:
        with open(args.scatter, "w") as fh:
            fh.write(ev.scatter_csv(report))
    return 0


def cmd_replay(args):
    from .episode import EpisodeLog, verify_roundtrip

    log = EpisodeLog.load(args.log)
    err = verify_roundtrip(log)
    returns = log.returns()
    print(f"scenario: {log.meta['scenario']} seed: {log.meta['seed']}")
    print(f"steps: {len(log.steps)} collisions: {log.collision_count()} "
          f"emergency_steps: {log.emergency_step_count()}")
    print("returns: " + json.dumps(returns, sort_keys=True))
    print(f"replay max state deviation: {err:.3e}")
    ok = err <= 1e-9
    print("roundtrip: " + ("OK" if ok else "MISMATCH"))
    return 0 if ok else 1


def cmd_table(args):
    from . import evaluate as ev

    reports = [ev.load_report(p) for p in args.reports]
    print(ev.format_table(reports))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(ev.table_csv(reports))
    return 0


def cmd_qp_debug(args):
    from .. import qp

    if args.demo:
        problem = qp.QpProblem(
            u0=(2.0, 0.0),
            constraints=[((-1.0, 0.0), -1.0)],
            bounds=((-6.0, 4.0), (-0.5, 0.5)),
        )
    else:
        with open(args.problem) as fh:
            problem = qp.load_problem(fh.read())
    print(qp.dump_problem(problem))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="cavshield", description=__doc__)
    p.add_argument("--version", action="store_true", help="print the version")
    sub = p.add_subparsers(dest="command")

    t = sub.add_parser("train", help="train policies on a scenario")
    t.add_argument("--scenario", choices=scenario_names(), required=True)
    t.add_argument("--algo", choices=["srmappo", "mappo"], default="srmappo")
    t.add_argument("--shield", choices=["robust", "plain", "off"], default="robust")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--config", default=None, help="YAML config file")
    t.add_argument("--episodes", type=int, default=None)
    t.add_argument("--quick", action="store_true", help="CI-sized episode count")
    t.add_argument("--out", default="runs/train")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint under perturbation")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--ptb", choices=["none", "rand", "time", "veh"], default="none")
    e.add_argument("--episodes", type=int, default=50)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--config", default=None)
    e.add_argument("--shield", choices=["robust", "plain", "off"], default=None)
    e.add_argument("--out", default=None)
    e.add_argument("--save-logs", action="store_true",
                   help="write each episode log to DIR/logs (needs --out)")
    e.add_argument("--scatter", default=None, help="per-episode CSV export")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("replay", help="verify and summarize an episode log")
    r.add_argument("--log", required=True)
    r.set_defaults(func=cmd_replay)

    tb = sub.add_parser("table", help="aggregate eval reports into the matrix")
    tb.add_argument("reports", nargs="+")
    tb.add_argument("--csv", default=None)
    tb.set_defaults(func=cmd_table)

    q = sub.add_parser("qp-debug", help="dump a QP problem and its solution")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--problem", default=None, help="JSON problem file")
    source.add_argument("--demo", action="store_true")
    q.set_defaults(func=cmd_qp_debug)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "save_logs", False) and not args.out:
        parser.error("eval: --save-logs needs --out DIR (logs go to DIR/logs)")
    if args.version:
        from .. import __version__

        print(f"cavshield {__version__}")
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
