"""The traced benchmark (bench/tracer.py) wraps rolltune functions and
methods by name. Installing it here makes a refactor that drops or
renames one of them, or stops calling it, fail this suite, not only a
traced benchmark run."""

import ast
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import helpers
from rolltune import checkpoint, cli, model, nn, tuner
from rolltune.config import RunConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_spans(workload):
    """The expected_spans tuple of a workload class in bench/harness.py,
    read from its source so the harness's imports do not run."""
    tree = ast.parse((BENCH / "harness.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == workload:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and \
                        stmt.targets[0].id == "expected_spans":
                    return ast.literal_eval(stmt.value)
    raise LookupError(f"{workload}.expected_spans not found")


def traced_calls(run):
    """Call counts by span name while run() executes under the tracer."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return {name: n for name, (n, _) in tracer.totals().items()}


def test_tracer_installs_and_uninstalls():
    originals = (nn.stack_step, nn.sigmoid, nn.LstmCellParams.packed)

    def run():
        cell = nn.LstmCellParams.fresh(3, 2, np.random.default_rng(0))
        zeros = np.zeros((1, 2))
        nn.stack_step([cell], np.zeros((1, 3)), [(zeros, zeros)])

    calls = traced_calls(run)
    assert (nn.stack_step, nn.sigmoid, nn.LstmCellParams.packed) == originals
    for name in ("nn.stack_step", "nn.stack_forward", "nn.sigmoid",
                 "nn.packed"):
        assert calls[name] == 1, name


def test_lockstep_sampling_fires_the_sample_desk_spans():
    cfg = RunConfig(note_low=48, n_notes=36, timewise_hidden=[3],
                    notewise_hidden=[3], episode_len=3).validate()
    primed = model.init_biaxial_params([3], [3], np.random.default_rng(0))
    qnet = tuner.MelodyQNetwork.from_primed(primed, 48, 36)
    reward_model = tuner.RewardModel(primed, 48, 36)

    def run():
        rng = np.random.default_rng(1)
        tuner.rollout(qnet, cfg, rng, greedy=False, songs=2)
        tuner.sample_primed_melody(reward_model, cfg, rng, songs=2)

    calls = traced_calls(run)
    assert calls["tuner.rollout"] == 1
    assert calls["tuner.sample_primed_melody"] == 1
    # one scoring call and one pick per step for both songs at once
    assert calls["tuner.trunk_scores"] == 2 * cfg.episode_len
    assert calls["tuner.choose_action"] == 2 * cfg.episode_len


def test_tune_fires_the_tune_desk_spans():
    cfg = RunConfig(note_low=48, n_notes=36, timewise_hidden=[3],
                    notewise_hidden=[3], episode_len=3, rl_iterations=5,
                    rl_batch_size=2).validate()
    primed = model.init_biaxial_params([3], [3], np.random.default_rng(0))

    calls = traced_calls(
        lambda: tuner.tune(primed, cfg, np.random.default_rng(1)))
    updates = cfg.rl_iterations - cfg.rl_batch_size + 1
    assert calls["tuner.tune"] == 1
    assert calls["tuner.ReplayBuffer.append"] == cfg.rl_iterations
    assert calls["theory.theory_reward"] == cfg.rl_iterations
    for name in ("tuner.ReplayBuffer.sample", "tuner.q_targets",
                 "tuner.q_update", "tuner.target_sync",
                 "tuner.trunk_scores_backward"):
        assert calls[name] == updates, name
    # acting and the reward read score one state per iteration; each
    # update scores the target bootstrap and the online batch
    assert calls["tuner.trunk_scores"] == 2 * cfg.rl_iterations + 2 * updates
    # the note axis runs through the model's own pass and backward
    assert calls["model.notewise_pass"] == calls["tuner.trunk_scores"]
    assert calls["nn.stack_backward"] == 2 * updates


def test_training_fires_the_train_desk_spans(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    helpers.write_corpus(corpus)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "note_low": 48, "n_notes": 36, "timewise_hidden": [4],
        "notewise_hidden": [3], "segment_len": 8, "batch_size": 2}))
    argv = ["train", "--data", str(corpus), "--config", str(cfg),
            "--iters", "1", "--seed", "3", "--out",
            str(tmp_path / "model.ckpt")]

    calls = traced_calls(lambda: cli.main(argv))
    assert calls["model.train"] == 1
    spans = expected_spans("TrainDesk")
    assert spans
    for name in spans:
        assert calls.get(name, 0) > 0, name


def test_generate_fires_the_sample_desk_spans(tmp_path):
    cfg = RunConfig(note_low=48, n_notes=36, timewise_hidden=[3],
                    notewise_hidden=[3]).validate()
    params = model.init_biaxial_params([3], [3], np.random.default_rng(0))
    ckpt = tmp_path / "primed.ckpt"
    checkpoint.write_checkpoint(
        ckpt, model.param_arrays(params),
        cli.checkpoint_metadata(cli.KIND_BIAXIAL, cfg, 0))
    steps = 3
    argv = ["generate", "--ckpt", str(ckpt), "--steps", str(steps),
            "--seed", "2", "--out", str(tmp_path / "sample.mid")]

    calls = traced_calls(lambda: cli.main(argv))
    assert calls["model.generate"] == 1
    # one draw per note of every column, each through the note stepper
    assert calls["model.sample_pairs"] == steps * cfg.n_notes
    # the time axis alone steps through stack_step: the silent opening
    # column and every generated column but the last
    assert calls["nn.stack_step"] == steps
    for name in ("midiio.to_midi", "midiio.serialize_midi",
                 "checkpoint.read_checkpoint"):
        assert calls[name] == 1, name


@pytest.mark.parametrize("hidden", [[3], [4, 3]])
def test_scan_makes_one_sigmoid_call_per_step_and_layer(hidden):
    rng = np.random.default_rng(2)
    layers, size = [], 5
    for hs in hidden:
        layers.append(nn.LstmCellParams.fresh(size, hs, rng))
        size = hs
    s_len = 6
    xs = rng.normal(size=(s_len, 3, 5))

    def run():
        stream, caches, _ = nn.stack_forward(layers, xs)
        nn.stack_backward(layers, caches, np.ones_like(stream))

    calls = traced_calls(run)
    assert calls["nn.sigmoid"] == s_len * len(hidden)
    # each pass reads every layer's weights through packed()
    assert calls["nn.packed"] == 2 * len(hidden)
