"""cavshield benchmark: closed-loop eval and training throughput.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval-highway-veh --seed 1 \\
        --seconds 36 --trace 0

One process, one thread, BLAS pinned to one thread.  A single caller runs
episodes back to back through the public entry points
``harness.evaluate.evaluate`` and ``marl.trainer.train``, one episode per
call.  --seed picks a pool of episode seeds; the caller cycles through the
pool until --seconds have passed and every pool episode ran at least
MIN_ROUNDS times.  Time stamps at every rollout step and optimizer step
cut each episode into segments that are the same work on every repeat.
Noise on a shared machine slows whole repeats by up to ~1.8x, in spells,
and adds jitter to single segments.  So each repeat is first scaled by its
own slowdown (the median ratio of its segments to the fastest time seen
for each), and each segment's time is the median of its scaled repeats:
the fastest level of the run, with the jitter of single segments voted
out.  With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 a span tracer wraps each module's public functions and the last
line carries the per-layer metrics.  See perfbench/README.md.
"""

import os

# Pin BLAS before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Fixed seed of the generated eval checkpoint.  It is never trained: the
# zero final layer makes the actor uniform over the shield's safe set, so
# the eval workloads do not move when training code changes.
CHECKPOINT_SEED = 0
SETUP_REPEATS = 3  # fresh processes timed for setup_s
MIN_ROUNDS = 3  # repeats per pool episode at least
# Distinct episodes per run.  The work hardly varies between seeds, so a
# small pool with many repeats is steadier than many distinct episodes.
POOL = 2
SETUP_TIMEOUT_S = 120
REPLAY_TOL = 1e-9  # cavshield replay's round-trip tolerance
SELF_TIME_TOL = 0.01  # traced self times must sum to the timed wall +-1%


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "eval" or "train"
    scenario: str
    ptb: str
    logged: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-highway-veh", "eval", "highway", "veh", False),
        Workload("eval-intersection-time-logged", "eval", "intersection",
                 "time", True),
        Workload("train-intersection-srmappo", "train", "intersection",
                 "none", False),
    )
}

# Per-layer metrics.  Times are self seconds per episode; a layer's time
# is listed here only if every workload runs the layer (the others are
# printed in the breakdown, see README).
SELF_TIME_SPANS = (
    "world.project", "world.lane_of", "world.build_joint_state",
    "world.step", "world.detect_collisions",
    "shield.safety_shield", "shield.classify_targets",
    "shield.lane_barrier_targets", "shield.check_action_safe",
    "shield.resolve_lipschitz",
    "qp.solve", "qp.validate",
    "kernels.solve_qp_2d", "kernels.step_bicycle", "kernels.rect_overlap",
    "dynamics.nominal_control", "dynamics.speed_tracking_control",
    "harness.reward.step_reward", "harness.episode.run_episode",
    "marl.encode.encode_joint", "marl.nets.forward",
    "marl.trainer.select_actions",
)
CALL_SPANS = (
    "world.project", "world.lane_of", "shield.check_action_safe",
    "qp.solve", "kernels.solve_qp_2d", "kernels.step_bicycle",
    "kernels.rect_overlap", "dynamics.nominal_control",
    "harness.episode.log_write", "marl.encode.perturbation_samples",
    "marl.nets.forward", "marl.nets.backward", "marl.nets.adam",
    "marl.algo.rcs_loss_grad", "marl.algo.reg_loss_grad",
    "marl.algo.value_loss_grad", "marl.algo.worst_q_loss_grad",
    "marl.algo.state_importance", "marl.trainer.update_agents",
    "perturb.error",
)
BREAKDOWN_ONLY_SPANS = (
    "harness.episode.log_write", "marl.encode.perturbation_samples",
    "marl.nets.backward", "marl.nets.adam",
    "marl.algo.rcs_loss_grad", "marl.algo.reg_loss_grad",
    "marl.algo.value_loss_grad", "marl.algo.worst_q_loss_grad",
    "marl.algo.state_importance",
)
ENTRY_SPANS = {"eval": "harness.evaluate.evaluate", "train": "marl.trainer.train"}


class BenchError(Exception):
    """The benchmark cannot run here, or no episode succeeded."""


class CheckFailed(Exception):
    """An episode's output failed a correctness check."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--report", type=Path, default=None,
                   help="where to write the full JSON report")
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up once, then exit (times setup_s)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    src = ROOT / "src"
    if not (src / "cavshield" / "__init__.py").is_file():
        raise BenchError(f"no cavshield sources under {src}")
    sys.path.insert(0, str(src))
    import cavshield.harness.evaluate  # noqa: F401
    import cavshield.marl.trainer  # noqa: F401


def pool_seeds(seed, n):
    import numpy as np

    return [
        int(np.random.SeedSequence([seed, 0xBE, j]).generate_state(1)[0])
        for j in range(n)
    ]


class Recorder:
    """Light hooks kept on in both modes.

    Captures each episode's log and schedule, and time-stamps every
    select_actions call (one per rollout step) and every Adam step (one
    per optimizer iteration of the update).  The stamps cut an op into
    segments that are the same work on every repeat of the op.
    """

    SELECT = "s"
    ADAM = "a"

    def __init__(self):
        self.pending = []  # (log, schedule) of each episode in the current op
        self.marks = []  # (kind, time) in the current op

    def install(self):
        from cavshield.harness import episode
        from cavshield.marl import nets, trainer

        run_episode = episode.run_episode
        select_actions = trainer.NeuralTeamPolicy.select_actions
        adam_step = nets.Adam.step
        rec = self

        def captured_run_episode(*args, **kwargs):
            log = run_episode(*args, **kwargs)
            rec.pending.append((log, kwargs.get("schedule")))
            return log

        def marked_select_actions(*args, **kwargs):
            rec.marks.append((rec.SELECT, time.perf_counter()))
            return select_actions(*args, **kwargs)

        def marked_adam_step(*args, **kwargs):
            rec.marks.append((rec.ADAM, time.perf_counter()))
            return adam_step(*args, **kwargs)

        episode.run_episode = captured_run_episode
        trainer.NeuralTeamPolicy.select_actions = marked_select_actions
        nets.Adam.step = marked_adam_step

    def start_op(self):
        self.pending = []
        self.marks = []

    def segments(self, t0, t1):
        """(mark kinds, segment durations) of the op from t0 to t1."""
        times = [t0] + [t for _, t in self.marks] + [t1]
        return tuple(k for k, _ in self.marks), [b - a for a, b in zip(times, times[1:])]


def check_episode_log(log):
    """Shared rewards and shield-respecting actions at every step."""
    for rec in log.steps:
        if len(set(rec["rewards"].values())) > 1:
            raise CheckFailed(f"rewards differ across agents at t={rec['t']}")
        for aid, action in rec["actions"].items():
            if action not in rec["safe_sets"][aid]:
                raise CheckFailed(
                    f"{aid} took action {action} outside its safe set at "
                    f"t={rec['t']}"
                )


def violation_counts(schedule):
    """(records, distinct (t, vid)) in the schedule's violation list."""
    if schedule is None:
        return 0, 0
    records = schedule.violations
    return len(records), len({(t, vid) for t, vid, _ in records})


class EvalLoop:
    def __init__(self, wl):
        self.wl = wl
        self.ckpt = OUT_DIR / f"checkpoint-{wl.scenario}-{os.getpid()}.npz"
        self.logs = OUT_DIR / f"logs-{os.getpid()}" if wl.logged else None

    def setup(self):
        from cavshield.harness import scenario as scen
        from cavshield.harness.config import Config
        from cavshield.marl import trainer

        cfg = Config()
        # Record every error beyond the shield's assumed bound (errors are
        # recorded, never clipped, so trajectories do not change).
        cfg.harness.ptb_epsilon_bound = cfg.shield.epsilon
        spec = scen.build_scenario(self.wl.scenario, mode="train", cfg=cfg)
        agents, encoder = trainer.build_agents(spec, cfg, CHECKPOINT_SEED)
        settings = trainer.TrainSettings(
            scenario=self.wl.scenario, algo=trainer.ALGO_SRMAPPO,
            shield_mode="robust", seed=CHECKPOINT_SEED, config=cfg,
        )
        OUT_DIR.mkdir(exist_ok=True)
        trainer.save_checkpoint(
            self.ckpt, trainer.TrainResult(agents, [], encoder, spec), settings
        )
        if self.logs is not None:
            self.logs.mkdir(exist_ok=True)
        self.cfg = cfg

    def run(self, seed):
        from cavshield.harness.evaluate import evaluate

        self.report = evaluate(
            self.ckpt, ptb=self.wl.ptb, n_episodes=1, seed=seed,
            cfg=self.cfg, shield_mode="robust",
            save_logs_dir=None if self.logs is None else str(self.logs),
        )

    def check(self, log):
        """(seed, return, collisions) of the episode, checked against its
        log; the saved log must replay like `cavshield replay` demands."""
        from cavshield.harness.episode import EpisodeLog, verify_roundtrip

        row = tuple(self.report.episodes[0])
        mean_ret = sum(log.returns().values()) / len(log.meta["agents"])
        if row[0] != log.meta["seed"] or row[2] != log.collision_count():
            raise CheckFailed(f"report row {row} disagrees with the episode log")
        if not math.isclose(row[1], mean_ret, rel_tol=1e-12, abs_tol=1e-9):
            raise CheckFailed(f"report return {row[1]} != log return {mean_ret}")
        if self.logs is not None:
            path = self.logs / "episode_000.jsonl"
            saved = EpisodeLog.load(path)
            path.unlink()
            if len(saved.steps) != len(log.steps):
                raise CheckFailed("saved log lost steps")
            err = verify_roundtrip(saved)
            if not err <= REPLAY_TOL:
                raise CheckFailed(f"replay deviation {err:.3g} > {REPLAY_TOL}")
        return row, None

    def cleanup(self):
        self.ckpt.unlink(missing_ok=True)
        if self.logs is not None:
            shutil.rmtree(self.logs, ignore_errors=True)


class TrainLoop:
    """One-episode training runs; train() raising TrainingDiverged or any
    other error fails the op."""

    def __init__(self, wl):
        self.wl = wl

    def setup(self):
        from cavshield.harness.config import Config

        self.cfg = Config()

    def run(self, seed):
        from cavshield.marl import trainer

        settings = trainer.TrainSettings(
            scenario=self.wl.scenario, algo=trainer.ALGO_SRMAPPO,
            shield_mode="robust", seed=seed, episodes=1, config=self.cfg,
        )
        self.result = trainer.train(settings)

    def check(self, log):
        (m,) = self.result.metrics
        if m["collisions"] != log.collision_count():
            raise CheckFailed("metrics collisions disagree with the log")
        for key in ("loss_value", "loss_worst_q", "loss_actor", "loss_reg"):
            if m[key] is not None and not math.isfinite(m[key]):
                raise CheckFailed(f"{key} is {m[key]}")
        return (log.meta["seed"], m["mean_return"], m["collisions"]), m

    def cleanup(self):
        pass


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is mapped."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment():
    import numpy as np
    from cavshield import kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.BACKEND,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def time_setup(args):
    """Median wall time of fresh processes that import and set up once."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr}")
    return statistics.median(times)


def run(args):
    wl = WORKLOADS[args.workload]
    import_program()
    setup_s = None
    if not (args.setup_only or args.trace):
        setup_s = time_setup(args)
    loop = (EvalLoop if wl.kind == "eval" else TrainLoop)(wl)
    try:
        loop.setup()
        if args.setup_only:
            return None
        tracer = None
        if args.trace:
            import spans

            tracer = spans.install(spans.Tracer())
        recorder = Recorder()
        recorder.install()
        ops = run_ops(args, wl, loop, recorder, tracer)
        return report(args, wl, ops, tracer, setup_s)
    finally:
        loop.cleanup()


@dataclass
class Slot:
    """One pool episode: its first-round outcome and every repeat's timing."""

    seed: int
    first: tuple = None  # (seed, return, collisions), or a failure marker
    train_metrics: dict = None
    reference: tuple = None  # (outcome, mark kinds) of the first success
    segments: list = field(default_factory=list)  # per repeat, in seconds
    steps: int = 0


@dataclass
class Ops:
    slots: list
    attempted: int
    failed: int
    failures: list
    wall: float  # summed wall time of all ops
    steps: int  # steps of the successful ops
    violations: tuple  # (records, distinct (t, vid)) over the first round
    window: tuple  # tracer (calls, counters) after the first round


def run_ops(args, wl, loop, recorder, tracer):
    """Cycle through the pool until --seconds passed and every pool
    episode ran MIN_ROUNDS times; check each op, never retry it.

    Each round runs on the next CPU the process may use: a neighbour
    loading one core then slows only some repeats of a segment.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        return _run_ops(args, wl, loop, recorder, tracer, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def _run_ops(args, wl, loop, recorder, tracer, cpus):
    slots = [Slot(seed) for seed in pool_seeds(args.seed, POOL)]
    entry = tracer.name_id(ENTRY_SPANS[wl.kind]) if tracer else None
    attempted = steps = records = distinct = 0
    failures = []
    wall = 0.0
    window = ({}, {})
    loop_start = time.perf_counter()
    while (attempted < MIN_ROUNDS * len(slots)
           or time.perf_counter() - loop_start < args.seconds):
        slot = slots[attempted % len(slots)]
        first_round = attempted < len(slots)
        if attempted % len(slots) == 0:
            os.sched_setaffinity(0, {cpus[attempted // len(slots) % len(cpus)]})
        recorder.start_op()
        error = None
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.active = True
            idx = tracer.begin(entry)
        try:
            loop.run(slot.seed)
        except Exception as exc:  # a failed op is counted, never retried
            error = exc
        if tracer is not None:
            tracer.finish(idx)
            tracer.active = False
        t1 = time.perf_counter()
        attempted += 1
        wall += t1 - t0
        kinds, segments = recorder.segments(t0, t1)
        if error is None:
            try:
                if len(recorder.pending) != 1:
                    raise CheckFailed(f"{len(recorder.pending)} episodes in one op")
                (log, schedule), = recorder.pending
                check_episode_log(log)
                outcome = loop.check(log)
                if slot.reference not in (None, (outcome, kinds)):
                    raise CheckFailed(f"repeat of episode seed {slot.seed} "
                                      "differs from its first run")
            except CheckFailed as exc:
                error = exc
        if error is not None:
            failures.append({"op": attempted - 1, "seed": slot.seed,
                             "cause": f"{type(error).__name__}: {error}"})
            if first_round:
                slot.first = ("failed", slot.seed, type(error).__name__)
        else:
            if first_round:
                slot.first, slot.train_metrics = outcome
                rec, dis = violation_counts(schedule)
                records += rec
                distinct += dis
            slot.reference = slot.reference or (outcome, kinds)
            slot.segments.append(segments)
            slot.steps = len(log.steps)
            steps += len(log.steps)
        if tracer is not None and attempted == len(slots):
            window = tracer.snapshot()
    return Ops(slots, attempted, len(failures), failures, wall, steps,
               (records, distinct), window)


def segment_times(seg):
    """Time of each segment from a (repeats x segments) array.

    The fastest repeat of a segment alone follows the jitter of a few
    lucky samples, which moves the tail of the step times from run to run.
    Instead each repeat is divided by its slowdown, the median ratio of
    its segments to the fastest time of each, and each segment takes the
    median of its scaled repeats.
    """
    import numpy as np

    slowdown = np.median(seg / seg.min(axis=0), axis=1)
    return np.median(seg / slowdown[:, None], axis=0)


def report(args, wl, ops, tracer, setup_s):
    """Compute the metrics, write the full report, print the summary;
    returns the result line."""
    import numpy as np

    timed = [s for s in ops.slots if s.segments]
    if not timed:
        raise BenchError("no episode succeeded: "
                         + "; ".join(f["cause"] for f in ops.failures[:3]))
    # Per pool episode, each segment's time at the run's fastest level (see
    # segment_times); a step is the segment between two consecutive
    # select_actions calls.
    episode_s = []
    step_ms = []
    for s in timed:
        seg = segment_times(np.array(s.segments))
        episode_s.append(float(seg.sum()))
        kinds = s.reference[1]
        step_ms.extend(
            1e3 * seg[i] for i in range(1, len(kinds))
            if kinds[i - 1] == kinds[i] == Recorder.SELECT
        )
    step_ms = np.array(step_ms)
    rows = [s.first for s in ops.slots]
    train_metrics = [s.train_metrics for s in ops.slots if s.train_metrics]
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "pool_episodes": len(ops.slots),
        "episodes_run": ops.attempted,
        "repeats_min": min(len(s.segments) for s in timed),
        "episodes_digest": sha256_json(rows),
        "train_metrics_digest": sha256_json(train_metrics) if train_metrics else None,
        "collision_free_rate": sum(
            1 for r in rows if r[0] != "failed" and r[2] == 0
        ) / len(rows),
        "violations": {"records": ops.violations[0],
                       "distinct_t_vid": ops.violations[1]},
        "failures": ops.failures,
        "episode_times_s": [[sum(seg) for seg in s.segments] for s in ops.slots],
        "episode_est_s": episode_s,
        "step_ms_samples": int(step_ms.size),
        "timed_wall_s": ops.wall,
        "wall_steps_per_s": ops.steps / ops.wall,
    }
    correct = ops.failed == 0
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "steps_per_s": (sum(s.steps for s in timed) / sum(episode_s), "1/s"),
            "step_ms.p50": (float(np.percentile(step_ms, 50)), "ms"),
            "step_ms.p95": (float(np.percentile(step_ms, 95)), "ms"),
            "episode_s.p50": (statistics.median(episode_s), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "collision_free_rate": (result["collision_free_rate"], "ratio"),
        }
    else:
        metrics, extra = layer_metrics(tracer, ops)
        result.update(extra)
        result["calls"], result["counters"] = ops.window
        correct = correct and extra["self_time_ok"]
        spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.npz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["metrics"] = {k: v for k, (v, _) in metrics.items()}

    report_path = args.report or (
        OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print_summary(result, metrics)
    print(f"report: {report_path}")
    return {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, ops):
    """Per-layer metrics: self seconds per episode over the whole run,
    counts and ratios over the first round of the pool."""
    import numpy as np

    calls, counts = ops.window
    episodes = ops.attempted - ops.failed
    op_wall = ops.wall
    names, name_idx, dur, self_t = tracer.durations()
    self_by = np.bincount(name_idx, weights=self_t, minlength=len(names))
    incl_by = np.bincount(name_idx, weights=dur, minlength=len(names))
    self_s = {n: float(v) / episodes for n, v in zip(names, self_by)}
    incl_s = {n: float(v) / episodes for n, v in zip(names, incl_by)}

    def ratio(num, den):
        return num / den if den else 0.0

    def counter(key):
        return counts.get(key, 0)

    m = {}
    for name in SELF_TIME_SPANS:
        m[f"{name}.s"] = (self_s[name], "s")
    for name in CALL_SPANS:
        m[f"{name}.calls"] = (calls[name], "count")
    m["world.project.out_of_corridor"] = (
        counter("world.project.out_of_corridor"), "count")
    m["world.project.unique_ratio"] = (
        ratio(counter("world.project.distinct"), calls["world.project"]), "ratio")
    m["shield.safe_ratio"] = (
        ratio(counter("shield.safe_verdicts"), calls["shield.check_action_safe"]),
        "ratio")
    m["shield.emergency_ratio"] = (
        ratio(counter("shield.emergency_steps"), counter("shield.agent_steps")),
        "ratio")
    m["shield.pseudo_targets"] = (counter("shield.pseudo_targets"), "count")
    m["qp.feasible_ratio"] = (
        ratio(counter("qp.feasible"), calls["qp.solve"]), "ratio")
    m["dynamics.nominal_control.no_adjacent_lane"] = (
        counter("dynamics.nominal_control.no_adjacent_lane"), "count")
    m["harness.episode.log_bytes"] = (counter("harness.episode.log_bytes"), "bytes")
    m["harness.episode.rollout_s"] = (incl_s["harness.episode.run_episode"], "s")
    m["marl.nets.forward.rows"] = (counter("marl.nets.forward.rows"), "count")
    records, distinct = ops.violations
    m["perturb.violation_records"] = (records, "count")
    m["perturb.violation_unique_ratio"] = (ratio(distinct, records), "ratio")
    m["trace.steps_per_s"] = (ops.steps / op_wall, "1/s")
    gap = abs(op_wall - float(self_t.sum())) / op_wall
    m["trace.self_time_gap"] = (gap, "ratio")

    layers = {}
    for n, v in self_s.items():
        layer = "harness.entry" if n in ENTRY_SPANS.values() else n.rsplit(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + v
    per_episode = op_wall / episodes
    extra = {
        "self_time_ok": gap <= SELF_TIME_TOL and float(self_t.min()) > -1e-6,
        "spans": int(len(dur)),
        "span_self_s_per_episode": self_s,
        "span_incl_s_per_episode": incl_s,
        "layer_self_share": {
            k: v / per_episode
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
        },
        "breakdown_only": {
            **{f"{n}.s": self_s[n] for n in BREAKDOWN_ONLY_SPANS},
            "train.update_s": incl_s["marl.trainer.update_agents"],
        },
    }
    return m, extra


def print_summary(result, metrics):
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"episodes run {result['episodes_run']} over a pool of "
          f"{result['pool_episodes']} (each at least {result['repeats_min']}x)  "
          f"timed wall {result['timed_wall_s']:.3f} s  "
          f"step_ms samples {result['step_ms_samples']}")
    print(f"episodes digest {result['episodes_digest']}")
    if result["train_metrics_digest"]:
        print(f"train metrics digest {result['train_metrics_digest']}")
    v = result["violations"]
    print(f"perturbation violations (first round): {v['records']} records for "
          f"{v['distinct_t_vid']} distinct (t, vid)")
    for f in result["failures"]:
        print(f"FAILED op {f['op']} (episode seed {f['seed']}): {f['cause']}")
    if "layer_self_share" in result:
        print("layer self time, share of timed wall:")
        for layer, share in result["layer_self_share"].items():
            print(f"  {layer:<22}{100 * share:7.2f} %")
        print(f"  {'span':<34}{'calls(1st)':>11}{'self ms/ep':>12}{'incl ms/ep':>12}")
        self_s = result["span_self_s_per_episode"]
        for name in sorted(self_s, key=lambda n: -self_s[n]):
            print(f"  {name:<34}{result['calls'].get(name, 0):>11}"
                  f"{1e3 * self_s[name]:>12.3f}"
                  f"{1e3 * result['span_incl_s_per_episode'][name]:>12.3f}")
        print("breakdown-only:")
        for k, v in result["breakdown_only"].items():
            print(f"  {k:<44}{v:>16.6g} s")
        print(f"self-time closure gap {metrics['trace.self_time_gap'][0]:.2e} "
              f"(tolerance {SELF_TIME_TOL}) over {result['spans']} spans")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44}{value:>16.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    try:
        out = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if out is not None:
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
