"""Release acceptance checklist.

Twelve end-to-end checks covering the whole toolkit: likelihood
anchors, gradient correctness, desk-scale training, sampling
invariants, MIDI round trips, the Q-learning stack against a
value-iteration oracle, the music-theory reward table, metric oracle
equivalence, directional improvement from reward tuning, probability
normalization, and bit-level determinism of the command line.

Each test prints one "[criterion NN] PASS/FAIL ..." line (visible with
pytest -s, or in the captured output on failure) and asserts the same
condition, so a verbose pytest run doubles as the checklist.
"""

import math
import time

import numpy as np
import pytest

import helpers
import test_metrics
import test_model
import test_theory
import test_tuner

from rolltune import cli, metrics, midiio, model, nn, theory, tuner
from rolltune.config import RunConfig
from rolltune.theory import TheoryConfig, theory_reward


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# Desk-scale setup shared by the training, sampling, and tuning checks:
# three short scores in a 36-note register around middle C. The toccata
# contributes the hammered repeated-note figures that make the repeat
# statistics of the trained model worth correcting.
CORPUS_FILES = {
    "chorale_c.mid": helpers.chorale_notes,
    "prelude_c.mid": helpers.prelude_notes,
    "toccata_a.mid": helpers.toccata_notes,
}

DESK_CONFIG = dict(note_low=48, n_notes=36, timewise_hidden=[24],
                   notewise_hidden=[24], segment_len=32, batch_size=4,
                   iterations=1000, seed=101)

# The tuning run keeps the blend weight at its 0.5 default and raises
# the repetition penalty, the configured counterpart of treating
# over-repetition as a serious offense.
TUNE_OVERRIDES = dict(rl_iterations=5000, repeat_penalty=-10.0, seed=7)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance_corpus")
    for name, builder in CORPUS_FILES.items():
        notes, n_steps = builder()
        (path / name).write_bytes(helpers.song_from_notes(notes, n_steps))
    return path


@pytest.fixture(scope="module")
def desk(corpus_dir):
    """A model trained for 1,000 iterations on the three-file corpus."""
    cfg = RunConfig(**DESK_CONFIG)
    cfg.validate()
    corpus = cli.load_corpus(corpus_dir, cfg)
    start = time.perf_counter()
    params, history = model.train(corpus, cfg, np.random.default_rng(cfg.seed))
    elapsed = time.perf_counter() - start
    return {"cfg": cfg, "params": params, "history": history,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def tuned(desk):
    """The desk model's melody policy after 5,000 Q-learning iterations."""
    cfg = RunConfig(**{**desk["cfg"].to_dict(), **TUNE_OVERRIDES})
    cfg.validate()
    start = time.perf_counter()
    qnet, trace = tuner.tune(desk["params"], cfg, np.random.default_rng(cfg.seed))
    elapsed = time.perf_counter() - start
    return {"cfg": cfg, "qnet": qnet, "trace": trace, "elapsed": elapsed}


def repeat_rate(melodies, max_repeats=4):
    """Percentage of onsets that stretch one pitch past max_repeats
    consecutive soundings."""
    bad = total = 0
    for melody in melodies:
        history = []
        for action in melody:
            if theory.is_onset(action):
                total += 1
                if theory.repeat_run(history + [action]) > max_repeats:
                    bad += 1
            history.append(action)
    return 100.0 * bad / total if total else 0.0


def mean_abs_autocorr_lag1(melodies, cfg):
    values = [abs(metrics.song_metrics(m, cfg)["mean_autocorr_lag1"])
              for m in melodies]
    return float(np.mean(values))


class TestAcceptance:

    def test_criterion_01_silent_baseline_loglik(self):
        start = time.perf_counter()
        logits = np.zeros((1, 88, 2, 2))
        batch = np.zeros((1, 88, 2, 2), dtype=np.uint8)
        _, loglik = model.loss(logits, batch)
        elapsed = time.perf_counter() - start
        expect = -88.0 * math.log(2.0)
        report(1, abs(loglik - expect) < 1e-9 and elapsed < 1.0,
               f"all-zero logits on a silent 88-note step score "
               f"{loglik:.6f} vs {expect:.6f} in {elapsed:.3f}s")

    def test_criterion_02_gradient_suite(self):
        start = time.perf_counter()
        rng = np.random.default_rng(14)
        params = test_model.small_params(rng, timewise=(8,), notewise=(8,))
        batch = test_model.small_batch(rng, b=2, n=8, t=4)
        arrays = model.param_arrays(params)

        def forward_loss():
            feats = model.expand_batch(batch, 60)
            tw, _ = model.timewise_pass(feats, params.timewise)
            logits, _, _ = model.notewise_pass(
                tw, params, targets=batch.astype(np.float64))
            return model.loss(logits, batch)[0]

        numeric = nn.finite_difference_gradients(forward_loss, arrays)
        _, _, analytic = model.loss_gradients(params, batch, 60)
        model_err = nn.max_relative_error(analytic, numeric)

        primed = test_tuner.primed_params(rng, timewise=(4,), notewise=(4,))
        qnet = tuner.MelodyQNetwork.from_primed(primed, 48, 36)
        for arr in qnet.params().values():
            arr += rng.normal(0.0, 0.05, arr.shape)
        transitions = [
            tuner.Transition(test_tuner.random_snapshot(rng, primed),
                             int(rng.integers(38)), float(rng.normal()),
                             test_tuner.random_snapshot(rng, primed), k == 2)
            for k in range(3)]
        targets = np.array([0.3, -1.2, 2.0])
        _, grads = tuner.q_loss_gradients(transitions, qnet, targets)
        states = [t.state for t in transitions]
        actions = np.array([t.action for t in transitions])

        def q_loss():
            q, _ = qnet.q_batch(states)
            picked = q[np.arange(len(states)), actions]
            return float(np.mean((targets - picked) ** 2))

        q_numeric = nn.finite_difference_gradients(q_loss, qnet.params())
        q_err = nn.max_relative_error(grads, q_numeric)
        elapsed = time.perf_counter() - start
        report(2, model_err < 1e-4 and q_err < 1e-4 and elapsed < 120.0,
               f"finite differences: model {model_err:.2e}, "
               f"Q-network {q_err:.2e} in {elapsed:.0f}s")

    @pytest.mark.slow
    def test_criterion_03_desk_training(self, desk):
        baseline = -desk["cfg"].n_notes * math.log(2.0)
        loglik = desk["history"][-1][2]
        improvement = 1.0 - loglik / baseline
        report(3, improvement >= 0.40 and desk["elapsed"] < 1200.0,
               f"1,000 iterations reach log-likelihood {loglik:.3f}, "
               f"{100 * improvement:.1f}% above the {baseline:.3f} baseline "
               f"in {desk['elapsed']:.0f}s")

    @pytest.mark.slow
    def test_criterion_04_articulation_invariant(self, desk):
        steps = violations = 0
        for seed in (20, 21, 22, 23):
            matrix = model.generate(desk["params"], desk["cfg"], 2560,
                                    np.random.default_rng(seed))
            steps += matrix.n_steps
            violations += int(np.sum((matrix.data[..., 0] == 0)
                                     & (matrix.data[..., 1] == 1)))
        report(4, steps >= 10_000 and violations == 0,
               f"{violations} (play=0, articulate=1) pairs over "
               f"{steps} generated steps")

    def test_criterion_05_midi_round_trip(self):
        rng = np.random.default_rng(2025)
        changed = 0
        for _ in range(100):
            matrix = helpers.random_matrix(
                rng, n_notes=int(rng.integers(3, 12)),
                n_steps=int(rng.integers(4, 48)),
                note_low=int(rng.integers(30, 90)))
            back = midiio.quantize(midiio.to_midi(matrix),
                                   note_low=matrix.note_low,
                                   n_notes=matrix.n_notes)
            changed += back != matrix
        report(5, changed == 0,
               f"quantize(to_midi(...)) altered {changed} of 100 random "
               f"matrices")

    def test_criterion_06_toy_mdp_oracle(self):
        start = time.perf_counter()
        online = helpers.run_chain_dqn(5000, 0.5, np.random.default_rng(0))
        q_star = helpers.chain_q_star(0.5)
        gap = float(np.max(np.abs(online.table - q_star)))
        elapsed = time.perf_counter() - start
        report(6, gap < 1e-2 and elapsed < 60.0,
               f"DQN vs value iteration on the 3-state chain: "
               f"max|Q - Q*| = {gap:.2e} in {elapsed:.1f}s")

    def test_criterion_07_target_sync_formula(self):
        rng = np.random.default_rng(31)
        online = tuner.MelodyQNetwork.from_primed(
            test_tuner.primed_params(rng, (4,), (4,)), 48, 36)
        target = online.copy()
        for arr in online.params().values():
            arr += rng.normal(0.0, 0.1, arr.shape)
        before = {k: v.copy() for k, v in target.params().items()}
        tuner.target_sync(online.params(), target.params(), eta=0.01)
        exact = all(
            np.array_equal(target.params()[name],
                           before[name] * 0.99 + 0.01 * online.params()[name])
            for name in before)
        report(7, exact, "one sync at eta=0.01 equals "
               "0.99*old + 0.01*online elementwise, 64-bit exact")

    def test_criterion_08_theory_rule_signs(self):
        cfg = TheoryConfig()
        aperiodic = test_theory.APERIODIC
        cases = [
            ("key fires", [], 20, lambda b: b.key < 0),
            ("key clean", [1] * 8, 16,
             lambda b: b.key == 0.0 and b.tonic == 0.0),
            ("repeat fires", [10] * 4, 10, lambda b: b.repeat < 0),
            ("repeat clean", [10] * 3, 10, lambda b: b.repeat == 0.0),
            ("autocorrelation fires", [2, 4, 2, 4, 2, 4, 2], 4,
             lambda b: b.autocorrelation < 0),
            ("autocorrelation clean", aperiodic[:-1], aperiodic[-1],
             lambda b: b.autocorrelation == 0.0),
            ("interval fires", [14], 18, lambda b: b.interval > 0),
            ("interval clean", [14], 16, lambda b: b.interval == 0.0),
            ("leap fires", [14, 21], 18, lambda b: b.leap > 0),
            ("leap clean", [14, 19], 16, lambda b: b.leap == 0.0),
            ("extrema fires", [14, 16], 18, lambda b: b.extrema > 0),
            ("extrema clean", [14, 22], 18, lambda b: b.extrema == 0.0),
            ("motif fires", [2, 4, 6, 1, 1, 1, 1], 2,
             lambda b: b.motif > 0),
            ("motif clean", [2, 4, 2, 1, 1, 1, 1], 2,
             lambda b: b.motif == 0.0),
        ]
        failed = [label for label, history, action, check in cases
                  if not check(theory_reward(history, action, cfg))]
        # The key family rewards the tonic inside its windows as well.
        if theory_reward([], 14, cfg).tonic <= 0:
            failed.append("tonic fires")
        report(8, not failed,
               f"7 rule families, trigger and non-trigger melodies: "
               f"{len(cases) - len(failed)}/{len(cases)} correct"
               + (f" (failed: {', '.join(failed)})" if failed else ""))

    def test_criterion_09_metric_oracle(self):
        melodies = test_metrics.random_melodies(seed=9, count=50)
        got = metrics.evaluate(melodies, test_metrics.CFG)
        want = test_metrics.naive_evaluate(melodies)
        report(9, got == want,
               "evaluate() equals the brute-force metric oracle on 50 "
               "random melodies, metric by metric")

    @pytest.mark.slow
    def test_criterion_10_directional_improvement(self, desk, tuned):
        start = time.perf_counter()
        reward_model = tuner.RewardModel(desk["params"],
                                         desk["cfg"].note_low,
                                         desk["cfg"].n_notes)
        rng = np.random.default_rng(11)
        primed = [tuner.sample_primed_melody(reward_model, desk["cfg"], rng)
                  for _ in range(200)]
        rng = np.random.default_rng(12)
        rolled = [tuner.rollout(tuned["qnet"], tuned["cfg"], rng,
                                greedy=False)
                  for _ in range(200)]
        sampling = time.perf_counter() - start

        before_cfg = TheoryConfig.from_run_config(desk["cfg"])
        after_cfg = TheoryConfig.from_run_config(tuned["cfg"])
        before = metrics.evaluate(primed, before_cfg)
        after = metrics.evaluate(rolled, after_cfg)
        pairs = [
            ("notes not in key %", before.notes_not_in_key_pct,
             after.notes_not_in_key_pct),
            (">4-repeat rate %", repeat_rate(primed), repeat_rate(rolled)),
            ("|mean autocorr lag 1|", abs(before.mean_autocorr_lag1),
             abs(after.mean_autocorr_lag1)),
            ("mean |autocorr lag 1|",
             mean_abs_autocorr_lag1(primed, before_cfg),
             mean_abs_autocorr_lag1(rolled, before_cfg)),
        ]
        total_time = desk["elapsed"] + tuned["elapsed"] + sampling
        ok = all(b > a for _, b, a in pairs) and total_time < 1800.0
        detail = ", ".join(f"{name} {b:.3f}->{a:.3f}"
                           for name, b, a in pairs)
        report(10, ok, f"200 melodies each, 5,000 tuning iterations at "
               f"c=0.5: {detail} ({total_time:.0f}s)")

    def test_criterion_11_distribution_normalization(self):
        rng = np.random.default_rng(2)
        trunk = model.init_biaxial_params([6], [5], rng)
        for arr in model.param_arrays(trunk).values():
            arr += rng.normal(0.0, 0.3, arr.shape)
        reward_model = tuner.RewardModel(trunk, 48, 36)
        worst = 0.0
        for _ in range(1000):
            snap = test_tuner.random_snapshot(rng, trunk)
            dist, _ = reward_model.log_dist(snap)
            worst = max(worst, abs(nn.logsumexp(dist)),
                        abs(float(np.exp(dist).sum()) - 1.0))
        report(11, worst < 1e-12,
               f"38-way melody distribution over 1,000 random states: "
               f"worst normalization deviation {worst:.2e}")

    def test_criterion_12_fixed_seed_determinism(self, tmp_path, corpus_dir):
        import json
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "note_low": 48, "n_notes": 36, "timewise_hidden": [6],
            "notewise_hidden": [5], "keep_prob": 1.0, "segment_len": 16,
            "batch_size": 2, "gen_steps": 16, "rl_batch_size": 2,
            "replay_capacity": 16, "episode_len": 8, "eval_songs": 3}))
        artifacts = ("model.ckpt", "model.loss.csv", "sample.mid",
                     "tuned.ckpt", "tuned.trace.csv", "report.csv",
                     "report.txt")

        def run(run_dir):
            run_dir.mkdir()
            base = ["--config", str(cfg_path)]
            steps = [
                ["train", "--data", str(corpus_dir), "--iters", "2",
                 "--out", str(run_dir / "model.ckpt"),
                 "--loss-csv", str(run_dir / "model.loss.csv"),
                 "--seed", "5"],
                ["generate", "--ckpt", str(run_dir / "model.ckpt"),
                 "--steps", "16", "--out", str(run_dir / "sample.mid"),
                 "--seed", "6"],
                ["tune", "--ckpt", str(run_dir / "model.ckpt"),
                 "--iters", "6", "--out", str(run_dir / "tuned.ckpt"),
                 "--trace-csv", str(run_dir / "tuned.trace.csv"),
                 "--seed", "7"],
                ["eval", "--ckpt", str(run_dir / "tuned.ckpt"),
                 "--songs", "3", "--out", str(run_dir / "report.csv"),
                 "--table", str(run_dir / "report.txt"), "--seed", "8"],
            ]
            for argv in steps:
                assert cli.main(argv + base) == 0, argv[0]
            return {name: (run_dir / name).read_bytes()
                    for name in artifacts}

        first = run(tmp_path / "run_a")
        second = run(tmp_path / "run_b")
        differing = [name for name in artifacts
                     if first[name] != second[name]]
        report(12, not differing,
               "train/generate/tune/eval artifacts are byte-identical "
               "across two fixed-seed runs"
               + (f" (differ: {', '.join(differing)})" if differing else ""))


class TestTuningTrend:

    @pytest.mark.slow
    def test_blended_reward_improves_during_tuning(self, tuned):
        rewards = [row[1] for row in tuned["trace"]]
        early = float(np.mean(rewards[:500]))
        late = float(np.mean(rewards[-500:]))
        assert late > early, (early, late)
