"""The benchmark's hooks into the package: perfbench/spans.py wraps named
functions and methods of cavshield, perfbench/run.py reads kernels.BACKEND,
and each workload builds its config, scenario and checkpoint through the
package and checks every episode it runs.  Renaming or deleting any of
them, or a program change that makes a workload's episodes fail or its
checks refuse them, must fail here, not only after a full timed run of
perfbench/run.py."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:3]
import spans
spans.install(spans.Tracer())
from cavshield import kernels
print(kernels.BACKEND)
"""


# The workloads BENCHMARK.json declares.
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_setup_runs(workload, tmp_path):
    # The shortest full run: set-up, then one round of the episode pool
    # (6 episodes), each checked.  The eval set-up writes its checkpoint
    # under .bench_out/ and removes it again before it exits.
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.01", "--trace", "0",
         "--report", str(tmp_path / "report.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_tracer_installs_and_backend_is_readable():
    # A subprocess, because install() rewraps the package's functions for
    # the rest of the interpreter's life.
    out = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"


TRAIN_EPISODE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import spans
tracer = spans.install(spans.Tracer())
from cavshield.harness import episode
from cavshield.harness.config import Config
from cavshield.marl import trainer

logs = []
run_episode = episode.run_episode

def kept_run_episode(*args, **kwargs):
    logs.append(run_episode(*args, **kwargs))
    return logs[-1]

episode.run_episode = kept_run_episode
cfg = Config.from_dict({"harness": {"episode_len": 20}})
tracer.active = True
result = trainer.train(trainer.TrainSettings(
    scenario="intersection", algo="srmappo", shield_mode="robust", seed=2,
    episodes=1, config=cfg))
tracer.active = False
acted = {aid for rec in logs[0].steps
         for aid, action in rec["actions"].items() if action >= 0}
print(json.dumps({
    "calls": tracer.snapshot()[0], "steps": len(logs[0].steps),
    "agents": len(result.agents), "acted": len(acted),
    "ppo_epochs": cfg.marl.ppo_epochs, "critic_epochs": cfg.marl.critic_epochs,
}))
"""


def test_traced_training_episode_counts_each_layer():
    out = subprocess.run(
        [sys.executable, "-c", TRAIN_EPISODE, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    run = json.loads(out.stdout)
    calls = run["calls"]
    assert run["steps"] == 20 and run["agents"] == 3 and run["acted"] >= 1
    assert calls["marl.trainer.update_agents"] == 1
    assert calls["marl.trainer.select_actions"] == 20
    # One encoding per step, and one of the terminal state.
    assert calls["marl.encode.encode_joint"] == 21
    assert calls["marl.algo.value_loss_grad"] == run["critic_epochs"] * 3
    assert calls["marl.algo.rcs_loss_grad"] == run["ppo_epochs"] * run["acted"]
    # The shield's spans: once per state (the initial one too), once per
    # agent there, and every verdict inside check_action_safe, so a shield
    # that bypasses these names zeroes perfbench's layer table.  The check
    # calls solve_qp_2d only for a verdict within its tie band, and no
    # verdict of this run lies within it.
    states = run["steps"] + 1
    assert calls["shield.safety_shield"] == states
    assert calls["shield.classify_targets"] == run["agents"] * states
    assert calls["shield.lane_barrier_targets"] >= run["agents"] * states
    assert calls["shield.check_action_safe"] > 0
    assert calls["kernels.solve_qp_2d"] == 0
    # The shield works out each agent's maneuvers once per state.
    assert calls["dynamics.nominal_control"] == run["agents"] * states
