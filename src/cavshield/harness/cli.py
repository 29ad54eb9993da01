"""Command-line interface.

    cavshield train  --scenario NAME --algo {srmappo|mappo}
                     --shield {robust|plain|off} --seed N [--config FILE]
                     [--episodes N] [--quick] --out DIR
    cavshield eval   --checkpoint FILE --ptb {none|rand|time|veh}
                     --episodes N [--seed N] [--out DIR [--save-logs]]
    cavshield replay --log FILE
    cavshield table  REPORT.json [REPORT.json ...] [--csv FILE]
    cavshield --version

NAME is a scenario shipped under cavshield/harness/data (`train -h` lists
them).  `eval --out DIR` writes DIR/report.json and DIR/metrics.jsonl, one
line per episode with its episode, seed, return and collisions.
"""

import argparse
import contextlib
import json
import os
import sys

from ..marl import algo, trainer
from . import evaluate as ev
from .config import Config
from .episode import SHIELD_MODES, SHIELD_ROBUST, EpisodeLog, verify_roundtrip
from .scenario import scenario_names


def _int_at_least(low):
    """argparse type of an int >= low (--episodes 1, --seed 0)."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(
                f"must be an int >= {low}, not {text!r}")
        return n
    return parse


def _load_config(command, path):
    """The --config file's Config (defaults without one), or None after
    printing one line that names the file and what is wrong with it."""
    if not path:
        return Config()
    try:
        return Config.load(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"{command}: {path}: {_reason(exc)}", file=sys.stderr)
        return None


def _reason(exc):
    """One line on why an input file was refused."""
    if isinstance(exc, OSError) and exc.strerror:
        return exc.strerror
    if isinstance(exc, KeyError) and exc.args:
        return exc.args[0]  # str() would quote it
    return str(exc)


def cmd_train(args):
    cfg = _load_config("train", args.config)
    if cfg is None:
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"train: {args.out}: {_reason(exc)}", file=sys.stderr)
        return 2
    settings = trainer.TrainSettings(
        scenario=args.scenario,
        algo=args.algo,
        shield_mode=args.shield,
        seed=args.seed,
        episodes=args.episodes,
        quick=args.quick,
        config=cfg,
    )
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    ckpt_path = os.path.join(args.out, "checkpoint.npz")
    # Each episode's line is on disk as soon as its record is made, so a
    # run that fails keeps the episodes before the failure.
    written = []
    with open(metrics_path, "w") as fh:
        def stream(record):
            fh.write(trainer.metrics_line(record))
            fh.flush()
            written.append(record)

        try:
            result = trainer.train(settings, on_record=stream)
        except (trainer.TrainingDiverged, algo.DegenerateBatch) as exc:
            print(f"train: episode {len(written)}: {exc}", file=sys.stderr)
            return 1
    trainer.save_checkpoint(ckpt_path, result, settings)
    print(f"trained {len(result.metrics)} episodes on {args.scenario} ({args.algo})")
    print(f"final mean return: {result.metrics[-1]['mean_return']}")
    print(f"metrics: {metrics_path}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_eval(args):
    cfg = _load_config("eval", args.config)
    if cfg is None:
        return 2
    logs_dir = None
    if args.out and args.save_logs:
        logs_dir = os.path.join(args.out, "logs")
    try:
        report = ev.evaluate(
            args.checkpoint, ptb=args.ptb, n_episodes=args.episodes,
            seed=args.seed, cfg=cfg, shield_mode=args.shield,
            save_logs_dir=logs_dir, out_dir=args.out,
        )
    except trainer.CheckpointError as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # DIR or DIR/logs cannot be made or written
        print(f"eval: {args.out}: {_reason(exc)}", file=sys.stderr)
        return 2
    print(
        f"{report.scenario}-{report.ptb}: collision_free_rate="
        f"{report.collision_free_rate:.2%} mean_episode_return="
        f"{report.mean_episode_return:.2f} ({report.n_episodes} episodes)"
    )
    if args.out:
        ev.save_report(os.path.join(args.out, "report.json"), report)
        with open(os.path.join(args.out, "metrics.jsonl"), "w") as fh:
            for i, (seed, ret, cols) in enumerate(report.episodes):
                fh.write(trainer.metrics_line(
                    {"episode": i, "seed": seed, "return": ret,
                     "collisions": cols}))
    return 0


def cmd_replay(args):
    try:
        log = EpisodeLog.load(args.log)
    except (OSError, ValueError) as exc:
        print(f"replay: {args.log}: {exc}", file=sys.stderr)
        return 2
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
    reports = []
    for path in args.reports:
        try:
            reports.append(ev.load_report(path))
        except (OSError, ValueError) as exc:
            print(f"table: {path}: {exc}", file=sys.stderr)
            return 2
    # Opened before the table prints, so a path that cannot be written
    # fails with no output.
    try:
        csv = open(args.csv, "w") if args.csv else contextlib.nullcontext()
    except OSError as exc:
        print(f"table: {args.csv}: {_reason(exc)}", file=sys.stderr)
        return 2
    with csv:
        print(ev.format_table(reports))
        if args.csv:
            csv.write(ev.table_csv(reports))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="cavshield", description=__doc__)
    p.add_argument("--version", action="store_true", help="print the version")
    sub = p.add_subparsers(dest="command")

    t = sub.add_parser("train", help="train policies on a scenario")
    t.add_argument("--scenario", choices=scenario_names(), required=True)
    t.add_argument("--algo", choices=trainer.ALGOS, default=trainer.ALGO_SRMAPPO)
    t.add_argument("--shield", choices=SHIELD_MODES, default=SHIELD_ROBUST)
    t.add_argument("--seed", type=_int_at_least(0), default=0)
    t.add_argument("--config", default=None, help="YAML config file")
    t.add_argument("--episodes", type=_int_at_least(1), default=None)
    t.add_argument("--quick", action="store_true", help="CI-sized episode count")
    t.add_argument("--out", default="runs/train")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint under perturbation")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--ptb", choices=ev.PTB_KINDS, default="none")
    e.add_argument("--episodes", type=_int_at_least(1), default=50)
    e.add_argument("--seed", type=_int_at_least(0), default=0)
    e.add_argument("--config", default=None)
    e.add_argument("--shield", choices=SHIELD_MODES, default=None)
    e.add_argument("--out", default=None)
    e.add_argument("--save-logs", action="store_true",
                   help="write each episode log to DIR/logs (needs --out)")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("replay", help="verify and summarize an episode log")
    r.add_argument("--log", required=True)
    r.set_defaults(func=cmd_replay)

    tb = sub.add_parser("table", help="aggregate eval reports into the matrix")
    tb.add_argument("reports", nargs="+")
    tb.add_argument("--csv", default=None)
    tb.set_defaults(func=cmd_table)

    return p


def main(argv=None):
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `| head`).  Point stdout
        # at devnull so the interpreter's flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv):
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
