"""In-memory span tracer for the cavshield benchmark.

A span is (name, start, end, parent).  Spans are kept in flat arrays and
written out once, when the run ends.  Self time is a span's duration minus
the time its child spans cover.

The tracer wraps cavshield's public functions at the namespace each call
site looks them up in: module attributes for ``module.f(...)`` calls and
``from module import f`` names, class attributes for method calls.  The
program itself is not edited.
"""

import functools
import os
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.active = False
        # Projections are deduplicated per world step: World.step bumps the
        # step number, which flushes the set of (path, x, y) seen so far.
        self.step = 0
        self._proj_step = 0
        self._proj_keys = set()

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr, name, before=None, after=None, on_error=None):
        """Replace owner.attr by a version that records a span per call.

        before(args) runs ahead of the span, after(args, result) and
        on_error(exc) after it, so hook time lands in the caller's span.
        """
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.finish(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer.finish(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def note_projection(self, key):
        if self.step != self._proj_step:
            self.counts["world.project.distinct"] += len(self._proj_keys)
            self._proj_keys.clear()
            self._proj_step = self.step
        self._proj_keys.add(key)

    def snapshot(self):
        """Call counts per span name and counter values so far."""
        counts = Counter(self.counts)
        counts["world.project.distinct"] += len(self._proj_keys)
        n = len(self.name_of)
        calls = np.bincount(
            np.frombuffer(self.name_of, dtype=np.int32)[:n],
            minlength=len(self.names),
        )
        return {name: int(c) for name, c in zip(self.names, calls)}, dict(counts)

    def durations(self):
        """(names, name index, inclusive duration, self time) per span."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return (
            list(self.names),
            np.frombuffer(self.name_of, dtype=np.int32),
            dur,
            dur - covered,
        )

    def write(self, path):
        """Dump every span: names, name index, start, end, parent."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _rows(x):
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def install(tracer):
    """Wrap every traced cavshield entry point; returns the tracer."""
    from cavshield import dynamics, kernels, qp, shield, world
    from cavshield.harness import episode
    from cavshield.marl import algo, encode, nets, trainer
    from cavshield.perturb import PerturbationSchedule

    counts = tracer.counts

    def count(key, amount=1):
        counts[key] += amount

    # world
    def off_corridor(exc):
        if isinstance(exc, world.OutOfCorridor):
            count("world.project.out_of_corridor")

    tracer.wrap(
        world.Path, "project", "world.project",
        before=lambda a: tracer.note_projection((id(a[0]), a[1], a[2])),
        on_error=off_corridor,
    )
    tracer.wrap(world.RoadMap, "lane_of", "world.lane_of")
    tracer.wrap(episode, "build_joint_state", "world.build_joint_state")

    def next_step(_):
        tracer.step += 1

    tracer.wrap(world.World, "step", "world.step", before=next_step)
    tracer.wrap(world, "detect_collisions", "world.detect_collisions")

    # shield
    def shield_outcome(_, outcome):
        count("shield.agent_steps", len(outcome.emergency))
        count("shield.emergency_steps", sum(outcome.emergency.values()))

    tracer.wrap(episode, "safety_shield", "shield.safety_shield",
                after=shield_outcome)
    tracer.wrap(shield, "classify_targets", "shield.classify_targets",
                after=lambda a, r: count("shield.pseudo_targets", len(r[3])))
    tracer.wrap(shield, "lane_barrier_targets", "shield.lane_barrier_targets")
    tracer.wrap(shield, "check_action_safe", "shield.check_action_safe",
                after=lambda a, r: count("shield.safe_verdicts", int(r.safe)))
    tracer.wrap(episode, "resolve_lipschitz", "shield.resolve_lipschitz")

    # qp and kernels
    tracer.wrap(qp, "solve", "qp.solve",
                after=lambda a, r: count("qp.feasible", int(r.feasible)))
    tracer.wrap(qp.QpProblem, "validate", "qp.validate")
    for name in ("solve_qp_2d", "step_bicycle", "rect_overlap"):
        tracer.wrap(kernels, name, f"kernels.{name}")

    # dynamics: nominal_control is imported by name into two modules
    def no_lane(exc):
        if isinstance(exc, dynamics.NoAdjacentLane):
            count("dynamics.nominal_control.no_adjacent_lane")

    for owner in (shield, episode):
        tracer.wrap(owner, "nominal_control", "dynamics.nominal_control",
                    on_error=no_lane)
    tracer.wrap(episode, "speed_tracking_control",
                "dynamics.speed_tracking_control")

    # harness
    tracer.wrap(episode, "step_reward", "harness.reward.step_reward")
    tracer.wrap(
        episode.EpisodeLog, "save", "harness.episode.log_write",
        after=lambda a, r: count("harness.episode.log_bytes",
                                 os.path.getsize(a[1])),
    )
    tracer.wrap(episode, "run_episode", "harness.episode.run_episode")

    # marl
    tracer.wrap(encode.Encoder, "encode_joint", "marl.encode.encode_joint")
    tracer.wrap(trainer, "perturbation_samples",
                "marl.encode.perturbation_samples")
    for attr in ("forward", "forward_cache"):
        tracer.wrap(nets.MLP, attr, "marl.nets.forward",
                    before=lambda a: count("marl.nets.forward.rows",
                                           _rows(a[1])))
    tracer.wrap(nets.MLP, "backward", "marl.nets.backward")
    tracer.wrap(nets.Adam, "step", "marl.nets.adam")
    for name in ("rcs_loss_grad", "reg_loss_grad", "value_loss_grad",
                 "worst_q_loss_grad", "state_importance"):
        tracer.wrap(algo, name, f"marl.algo.{name}")
    tracer.wrap(trainer.NeuralTeamPolicy, "select_actions",
                "marl.trainer.select_actions")
    tracer.wrap(trainer, "_update_agents", "marl.trainer.update_agents")

    # perturb
    tracer.wrap(PerturbationSchedule, "error", "perturb.error")
    return tracer
