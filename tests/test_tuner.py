"""Tests for the Q-learning melody tuner: the monophonic projection,
DQN update machinery, exploration policies, and the tuning loop."""

import copy
import math

import numpy as np
import pytest

import helpers
from rolltune import model, nn, tuner
from rolltune.config import RunConfig
from rolltune.features import expand_columns
from rolltune.midiio import (MELODY_ACTIONS, MELODY_NO_EVENT,
                             MELODY_NOTE_OFF)
from rolltune.theory import theory_reward

LN2 = math.log(2.0)
SILENT = -1     # melody row of a state where nothing sounds


def next_sounding(actions, sounding) -> np.ndarray:
    """The melody rule, as an oracle for the columns the tuner builds:
    the rows sounding after B actions taken where the rows `sounding`
    were. An onset sounds its row, a note-off silences, a hold keeps
    what sounded."""
    actions = np.asarray(actions)
    return np.where(actions >= 2, actions - 2,
                    np.where(actions == MELODY_NOTE_OFF, SILENT, sounding))


def sounding_rows(cols, note_low=48) -> np.ndarray:
    """Melody row sounding in each of B columns, SILENT for none;
    asserts that no column sounds two melody rows."""
    play = cols[:, tuner.melody_rows(note_low, cols.shape[1]), 0]
    assert np.all(play.sum(axis=1) <= 1)
    return np.where(play.any(axis=1), play.argmax(axis=1), SILENT)


def held_columns(sounding, note_low=48, n_notes=36) -> np.ndarray:
    """(B, n_notes, 2) columns sounding the melody rows `sounding`
    unarticulated, silent where SILENT."""
    sounding = np.asarray(sounding)
    cols = np.zeros((len(sounding), n_notes, 2))
    on = np.flatnonzero(sounding != SILENT)
    cols[on, tuner.melody_rows(note_low, n_notes).start + sounding[on], 0] = 1
    return cols


def primed_params(rng, timewise=(6,), notewise=(5,), scale=0.3):
    params = model.init_biaxial_params(list(timewise), list(notewise), rng)
    for arr in model.param_arrays(params).values():
        arr += rng.normal(0.0, scale, arr.shape)
    return params


def zero_params(timewise=(4,), notewise=(4,)):
    params = model.init_biaxial_params(list(timewise), list(notewise),
                                       np.random.default_rng(0))
    for arr in model.param_arrays(params).values():
        arr[...] = 0.0
    return params


def random_snapshot(rng, params, note_low=48, n_notes=36):
    """A one-state snapshot with warmed-up recurrent cells and a
    plausible column."""
    cells = [(rng.normal(0.0, 0.5, (n_notes, lay.hidden_size)),
              rng.normal(0.0, 0.5, (n_notes, lay.hidden_size)))
             for lay in params.timewise]
    prev = SILENT if rng.random() < 0.3 else int(rng.integers(36))
    action = [int(rng.integers(MELODY_ACTIONS))]
    col = tuner.action_columns(
        action, held_columns([prev], note_low, n_notes), note_low)
    return tuner.TrunkSnapshot(cells, col, np.array([rng.integers(32)]))


def reference_scores(params, note_low, snap):
    """Scalar re-implementation of trunk_scores for a one-state snapshot:
    per-note python loops through the recurrences, one row per
    nn.stack_step call, then the projection formula in plain math calls.
    Returns (scores, per-layer final (h, c) lists)."""
    n = snap.col.shape[1]
    feats = expand_columns(snap.col, note_low, snap.pos)[0]
    tops = []
    finals = [([], []) for _ in params.timewise]
    for row in range(n):
        cells = [(h[row:row + 1], c[row:row + 1]) for h, c in snap.cells]
        top, cells = nn.stack_step(params.timewise, feats[row:row + 1],
                                   cells)
        for li, (h, c) in enumerate(cells):
            finals[li][0].append(h[0])
            finals[li][1].append(c[0])
        tops.append(top[0])
    states = [(np.zeros((1, lay.hidden_size)),) * 2
              for lay in params.notewise]
    logits = np.zeros((n, 2))
    for row in range(n):
        xi = np.concatenate([tops[row], np.zeros(2)])
        top, states = nn.stack_step(params.notewise, xi[None], states)
        logits[row] = params.proj_w @ top[0] + params.proj_b

    def lsig(v):
        return math.log(1.0 / (1.0 + math.exp(-v)))

    rows = tuner.melody_rows(note_low, n)
    scores = np.zeros(MELODY_ACTIONS)
    silent = sum(lsig(-logits[r, 0]) for r in range(rows.start, rows.stop))
    for m in range(rows.stop - rows.start):
        r = rows.start + m
        scores[2 + m] = lsig(logits[r, 0]) + lsig(logits[r, 1])
    sounding = sounding_rows(snap.col, note_low)[0]
    if sounding == SILENT:
        scores[MELODY_NO_EVENT] = silent
        scores[MELODY_NOTE_OFF] = silent - LN2
    else:
        r0 = rows.start + sounding
        scores[MELODY_NO_EVENT] = lsig(logits[r0, 0]) + lsig(-logits[r0, 1])
        scores[MELODY_NOTE_OFF] = silent
    cells = [(np.stack(hs), np.stack(cs)) for hs, cs in finals]
    return scores, cells


class TestMelodyRows:

    def test_exact_range_maps_to_full_slice(self):
        assert tuner.melody_rows(48, 36) == slice(0, 36)

    def test_piano_range_offsets(self):
        assert tuner.melody_rows(21, 88) == slice(27, 63)

    def test_range_starting_too_high_rejected(self):
        with pytest.raises(ValueError):
            tuner.melody_rows(50, 36)

    def test_range_ending_too_low_rejected(self):
        with pytest.raises(ValueError):
            tuner.melody_rows(21, 60)


def column(action, sounding, note_low=48, n_notes=36):
    """The roll column one action realizes after a column sounding the
    melody row `sounding`, through the batched call."""
    return tuner.action_columns(
        [action], held_columns([sounding], note_low, n_notes), note_low)[0]


class TestActionColumns:

    def test_onset_sets_play_and_articulate(self):
        col = column(2, SILENT)
        assert col[0, 0] == 1.0 and col[0, 1] == 1.0
        assert col.sum() == 2.0
        top = column(37, SILENT)
        assert top[35, 0] == 1.0 and top[35, 1] == 1.0

    def test_onset_respects_note_range_offset(self):
        col = column(2, SILENT, 21, 88)
        assert col[27, 0] == 1.0 and col[27, 1] == 1.0

    def test_hold_continues_the_sounding_note(self):
        col = column(MELODY_NO_EVENT, 5)
        assert col[5, 0] == 1.0 and col[5, 1] == 0.0
        assert col.sum() == 1.0

    def test_hold_in_silence_is_an_empty_column(self):
        assert column(MELODY_NO_EVENT, SILENT).sum() == 0

    def test_note_off_silences_everything(self):
        assert column(MELODY_NOTE_OFF, 7).sum() == 0

    def test_hold_after_an_onset_drops_the_articulation(self):
        col = tuner.action_columns([MELODY_NO_EVENT],
                                   column(9, SILENT)[None], 48)[0]
        np.testing.assert_array_equal(col, column(MELODY_NO_EVENT, 7))

    def test_columns_match_the_next_sounding_oracle(self):
        actions = [2, 37, MELODY_NO_EVENT, MELODY_NO_EVENT, MELODY_NOTE_OFF]
        before = [SILENT, 4, 9, SILENT, 9]
        expected = [0, 35, 9, SILENT, SILENT]
        assert next_sounding(actions, before).tolist() == expected
        cols = tuner.action_columns(actions, held_columns(before), 48)
        assert sounding_rows(cols).tolist() == expected

    def test_batch_matches_one_action_at_a_time(self):
        rng = np.random.default_rng(6)
        actions = rng.integers(MELODY_ACTIONS, size=40)
        sounding = rng.integers(-1, 36, size=40)
        cols = tuner.action_columns(actions, held_columns(sounding), 48)
        for k in range(40):
            np.testing.assert_array_equal(
                cols[k], column(actions[k], sounding[k]))


def random_actions(rng, size):
    """Melody actions weighted so holds and note-offs come often."""
    p = np.full(MELODY_ACTIONS, 0.5 / (MELODY_ACTIONS - 2))
    p[MELODY_NO_EVENT], p[MELODY_NOTE_OFF] = 0.35, 0.15
    return rng.choice(MELODY_ACTIONS, size=size, p=p)


class TestSoundingRule:
    """The column a snapshot holds is its whole melody state: the row it
    sounds follows the next_sounding oracle along any action chain, and
    trunk_scores reads that row back."""

    def test_advance_follows_the_oracle_over_random_chains(self):
        rng = np.random.default_rng(31)
        params = primed_params(rng)
        fresh = tuner.fresh_snapshot(params, 36, 6)
        mid_rows = rng.integers(-1, 36, size=6)
        mid = tuner.TrunkSnapshot(fresh.cells, held_columns(mid_rows),
                                  np.full(6, 5))
        for snap, sounding in ((fresh, np.full(6, SILENT)), (mid, mid_rows)):
            for step in range(60):
                actions = random_actions(rng, len(snap))
                snap = snap.advance(snap.cells, actions, step, 48)
                sounding = next_sounding(actions, sounding)
                assert sounding_rows(snap.col).tolist() == sounding.tolist()

    def test_trunk_scores_reads_the_row_the_chain_left(self):
        rng = np.random.default_rng(32)
        params = primed_params(rng)
        snap = tuner.fresh_snapshot(params, 36, 8)
        sounding = np.full(8, SILENT)
        for step in range(12):
            _, cells, cache = tuner.trunk_scores(params, 48, snap)
            held, m = cache[4], cache[5]
            np.testing.assert_array_equal(held, sounding != SILENT)
            np.testing.assert_array_equal(m[held], sounding[held])
            actions = random_actions(rng, len(snap))
            snap = snap.advance(cells, actions, step, 48)
            sounding = next_sounding(actions, sounding)


class TestProjection:

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(42)
        params = primed_params(rng)
        for _ in range(6):
            snap = random_snapshot(rng, params)
            expected, ref_cells = reference_scores(params, 48, snap)
            scores, finals, _ = tuner.trunk_scores(params, 48, snap)
            np.testing.assert_allclose(scores[0], expected, atol=1e-12)
            for (gh, gc), (rh, rc) in zip(finals, ref_cells):
                np.testing.assert_allclose(gh, rh, atol=1e-12)
                np.testing.assert_allclose(gc, rc, atol=1e-12)

    def test_batch_agrees_with_single_calls(self):
        rng = np.random.default_rng(3)
        params = primed_params(rng)
        snaps = [random_snapshot(rng, params) for _ in range(8)]
        fresh = tuner.fresh_snapshot(params, 36)
        held = random_snapshot(rng, params)
        held.col = held_columns([17])
        snaps += [fresh, held]
        silent = [sounding_rows(s.col)[0] == SILENT for s in snaps]
        assert any(silent) and not all(silent)
        batch = tuner.TrunkSnapshot.stack(snaps)
        assert len(batch) == len(snaps)
        batched, finals, _ = tuner.trunk_scores(params, 48, batch)
        for k, snap in enumerate(snaps):
            single, cells, _ = tuner.trunk_scores(params, 48, snap)
            np.testing.assert_allclose(batched[k], single[0], atol=1e-12)
            for (bh, bc), (sh, sc) in zip(finals, cells):
                np.testing.assert_allclose(bh[k * 36:(k + 1) * 36], sh,
                                           atol=1e-12)
                np.testing.assert_allclose(bc[k * 36:(k + 1) * 36], sc,
                                           atol=1e-12)

    def test_zero_model_pitch_scores_are_uniform(self):
        params = zero_params()
        snap = tuner.fresh_snapshot(params, 36)
        scores, _, _ = tuner.trunk_scores(params, 48, snap)
        np.testing.assert_array_equal(scores[0, 2:], -2.0 * LN2)
        np.testing.assert_allclose(scores[0, MELODY_NO_EVENT], -36.0 * LN2,
                                   rtol=1e-15)
        assert scores[0, MELODY_NOTE_OFF] == scores[0, MELODY_NO_EVENT] - LN2

    def test_zero_model_sounding_state_scores(self):
        params = zero_params()
        snap = tuner.fresh_snapshot(params, 36)
        snap.col = held_columns([11])
        scores, _, _ = tuner.trunk_scores(params, 48, snap)
        assert scores[0, MELODY_NO_EVENT] == -2.0 * LN2
        np.testing.assert_allclose(scores[0, MELODY_NOTE_OFF], -36.0 * LN2,
                                   rtol=1e-15)

    def test_log_dist_normalizes(self):
        rng = np.random.default_rng(17)
        params = primed_params(rng)
        rm = tuner.RewardModel(params, 48, 36)
        for _ in range(50):
            snap = random_snapshot(rng, params)
            dist, _ = rm.log_dist(snap)
            assert abs(np.exp(dist).sum() - 1.0) < 1e-12

    def test_initial_q_equals_raw_scores(self):
        rng = np.random.default_rng(9)
        params = primed_params(rng)
        qnet = tuner.MelodyQNetwork.from_primed(params, 48, 36)
        snap = random_snapshot(rng, params)
        scores, _, _ = tuner.trunk_scores(params, 48, snap)
        q_rows, _ = qnet.act(snap)
        np.testing.assert_array_equal(q_rows, scores)


class TestBlendedReward:

    def test_zero_c_rejected(self):
        # tune divides the rule reward by c_weight
        with pytest.raises(ValueError, match="c_weight"):
            RunConfig(c_weight=0.0).validate()


class TestTargetSync:

    @staticmethod
    def _random_dicts(rng):
        online = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=7)}
        target = {k: rng.normal(size=v.shape) for k, v in online.items()}
        return online, target

    def test_full_eta_copies_exactly(self):
        rng = np.random.default_rng(0)
        online, target = self._random_dicts(rng)
        tuner.target_sync(online, target, 1.0)
        for name in online:
            np.testing.assert_array_equal(target[name], online[name])

    def test_scalar_formula(self):
        online = {"w": np.array([1.0])}
        target = {"w": np.array([0.0])}
        tuner.target_sync(online, target, 0.01)
        assert target["w"][0] == 0.01

    def test_elementwise_blend_is_exact(self):
        rng = np.random.default_rng(8)
        online, target = self._random_dicts(rng)
        expected = {k: target[k] * 0.99 + 0.01 * online[k] for k in online}
        tuner.target_sync(online, target, 0.01)
        for name in online:
            np.testing.assert_array_equal(target[name], expected[name])

    def test_repeated_sync_converges_geometrically(self):
        online = {"w": np.full(3, 2.0)}
        target = {"w": np.zeros(3)}
        for _ in range(50):
            tuner.target_sync(online, target, 0.1)
        expected_gap = 2.0 * 0.9 ** 50
        np.testing.assert_allclose(2.0 - target["w"], expected_gap,
                                   rtol=1e-12)

    def test_eta_out_of_range_rejected(self):
        online = {"w": np.zeros(2)}
        target = {"w": np.zeros(2)}
        for eta in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                tuner.target_sync(online, target, eta)

    def test_sync_mutates_in_place(self):
        online = {"w": np.ones(2)}
        arr = np.zeros(2)
        target = {"w": arr}
        tuner.target_sync(online, target, 0.5)
        assert arr[0] == 0.5


class TestChooseAction:

    def test_zero_epsilon_is_argmax(self):
        rng = np.random.default_rng(0)
        q = np.zeros(MELODY_ACTIONS)
        q[13] = 4.0
        for _ in range(20):
            assert tuner.choose_action(q, rng, epsilon=0.0) == 13

    def test_argmax_ties_break_low(self):
        rng = np.random.default_rng(0)
        q = np.zeros(MELODY_ACTIONS)
        q[5] = 2.0
        q[20] = 2.0
        assert tuner.choose_action(q, rng, epsilon=0.0) == 5

    def test_full_epsilon_is_uniform(self):
        rng = np.random.default_rng(123)
        q = np.zeros(MELODY_ACTIONS)
        q[0] = 100.0
        counts = np.zeros(MELODY_ACTIONS)
        n = 10_000
        for _ in range(n):
            counts[tuner.choose_action(q, rng, epsilon=1.0)] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - 1.0 / MELODY_ACTIONS) < 0.01)

    def test_cold_boltzmann_approaches_argmax(self):
        rng = np.random.default_rng(4)
        q = np.linspace(-1.0, 1.0, MELODY_ACTIONS)
        for _ in range(50):
            picked = tuner.choose_action(q, rng, exploration="boltzmann",
                                         temperature=1e-3)
            assert picked == MELODY_ACTIONS - 1

    def test_boltzmann_frequencies_track_softmax(self):
        rng = np.random.default_rng(77)
        q = np.zeros(MELODY_ACTIONS)
        q[:3] = [2.0, 1.0, 2.0]
        want = nn.softmax(q / 1.0)
        counts = np.zeros(MELODY_ACTIONS)
        n = 20_000
        for _ in range(n):
            counts[tuner.choose_action(q, rng, exploration="boltzmann",
                                       temperature=1.0)] += 1
        assert np.max(np.abs(counts / n - want)) < 0.02

    def test_one_row_batch_matches_the_single_row_call(self):
        q = np.random.default_rng(21).normal(0.0, 2.0, MELODY_ACTIONS)
        for kwargs in (dict(exploration="boltzmann", temperature=0.7),
                       dict(exploration="epsilon", epsilon=0.5),
                       dict(exploration="epsilon", epsilon=0.0)):
            single_rng = np.random.default_rng(3)
            batch_rng = np.random.default_rng(3)
            for _ in range(200):
                single = tuner.choose_action(q, single_rng, **kwargs)
                batch = tuner.choose_action(q[None], batch_rng, **kwargs)
                assert batch.shape == (1,) and batch[0] == single
            assert single_rng.random() == batch_rng.random()

    def test_batch_inverts_each_rows_cdf(self):
        q = np.random.default_rng(8).normal(0.0, 2.0, (5, MELODY_ACTIONS))
        picked = tuner.choose_action(q, np.random.default_rng(4),
                                     exploration="boltzmann",
                                     temperature=2.0)
        uniforms = np.random.default_rng(4).random(5)
        for row, u, action in zip(q, uniforms, picked):
            assert action == cdf_inverse(row / 2.0, u)

    def test_zero_epsilon_batch_is_argmax_without_draws(self):
        q = np.random.default_rng(1).normal(size=(6, MELODY_ACTIONS))
        rng = np.random.default_rng(0)
        picked = tuner.choose_action(q, rng, epsilon=0.0)
        np.testing.assert_array_equal(picked, np.argmax(q, axis=1))
        assert rng.random() == np.random.default_rng(0).random()

    def test_non_finite_boltzmann_rejected(self):
        q = np.zeros((2, MELODY_ACTIONS))
        q[1, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            tuner.choose_action(q, np.random.default_rng(0),
                                exploration="boltzmann")

    def test_invalid_strategy_and_temperature(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            tuner.choose_action(np.zeros(3), rng, exploration="thompson")
        with pytest.raises(ValueError):
            tuner.choose_action(np.zeros(3), rng, exploration="boltzmann",
                                temperature=0.0)


class TestEpsilonSchedule:

    def test_linear_anneal_over_first_half(self):
        assert tuner.epsilon_at(0, 100, 1.0, 0.1) == 1.0
        assert tuner.epsilon_at(25, 100, 1.0, 0.1) == pytest.approx(0.55)
        assert tuner.epsilon_at(50, 100, 1.0, 0.1) == pytest.approx(0.1)

    def test_constant_after_half(self):
        for it in (50, 70, 99):
            assert tuner.epsilon_at(it, 100, 1.0, 0.1) == pytest.approx(0.1)

    def test_single_iteration_edge(self):
        assert tuner.epsilon_at(0, 1, 1.0, 0.1) == 1.0


class TestReplayBuffer:

    @staticmethod
    def _transition(tag):
        return tuner.Transition(tag, 0, float(tag), tag + 1, False)

    def test_wraps_at_capacity(self):
        buf = tuner.ReplayBuffer(5)
        items = [self._transition(i) for i in range(7)]
        for t in items:
            buf.append(t)
        assert len(buf) == 5
        kept = {t.state for t in buf._items}
        assert kept == {2, 3, 4, 5, 6}

    def test_sampling_draws_members(self):
        buf = tuner.ReplayBuffer(10)
        for i in range(4):
            buf.append(self._transition(i))
        rng = np.random.default_rng(1)
        batch = buf.sample(32, rng)
        assert len(batch) == 32
        assert all(t.state in {0, 1, 2, 3} for t in batch)

    def test_empty_sampling_rejected(self):
        with pytest.raises(ValueError):
            tuner.ReplayBuffer(3).sample(1, np.random.default_rng(0))

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            tuner.ReplayBuffer(0)

    def test_transition_rejects_bad_values(self):
        with pytest.raises(ValueError):
            tuner.Transition(0, 0, float("nan"), 1, False)
        with pytest.raises(ValueError):
            tuner.Transition(0, 38, 0.0, 1, False)


class TestQUpdate:

    def test_terminal_target_is_reward_only(self):
        online = helpers.TabularQ(3, 2)
        online.table[:] = np.arange(6).reshape(3, 2)
        target_net = online.copy()
        t = tuner.Transition(1, 0, 0.7, 2, True)
        targets = tuner.q_targets([t], target_net, 0.5)
        assert targets[0] == 0.7

    def test_nonterminal_target_bootstraps_from_target_net(self):
        target_net = helpers.TabularQ(3, 2)
        target_net.table[2] = [4.0, -1.0]
        t = tuner.Transition(0, 1, 1.0, 2, False)
        targets = tuner.q_targets([t], target_net, 0.5)
        assert targets[0] == 1.0 + 0.5 * 4.0

    def test_double_q_selects_online_evaluates_target(self):
        online = helpers.TabularQ(3, 2)
        target_net = helpers.TabularQ(3, 2)
        online.table[2] = [0.0, 5.0]     # online prefers action 1
        target_net.table[2] = [9.0, 2.0]  # target would prefer action 0
        t = tuner.Transition(0, 0, 0.0, 2, False)
        plain = tuner.q_targets([t], target_net, 0.5)
        double = tuner.q_targets([t], target_net, 0.5, double_q=True,
                                 online_model=online)
        assert plain[0] == 0.5 * 9.0
        assert double[0] == 0.5 * 2.0

    def test_unit_residual_loss(self):
        online = helpers.TabularQ(3, 2)
        target_net = online.copy()
        t = tuner.Transition(0, 0, 1.0, 1, False)
        loss = tuner.q_update([t], online, target_net, 0.5,
                              helpers.SgdOptimizer(0.0))
        assert loss == 1.0

    def test_target_net_untouched_by_update(self):
        rng = np.random.default_rng(2)
        online = helpers.TabularQ(3, 2)
        target_net = helpers.TabularQ(3, 2)
        target_net.table[:] = rng.normal(size=(3, 2))
        before = target_net.table.copy()
        batch = [tuner.Transition(int(rng.integers(3)), int(rng.integers(2)),
                                  float(rng.normal()), int(rng.integers(3)),
                                  False) for _ in range(8)]
        tuner.q_update(batch, online, target_net, 0.5,
                       helpers.SgdOptimizer(0.5))
        np.testing.assert_array_equal(target_net.table, before)

    def test_repeated_updates_shrink_the_loss(self):
        online = helpers.TabularQ(3, 2)
        target_net = online.copy()
        batch = [tuner.Transition(s, a, 1.0 + s - a, (s + 1) % 3, False)
                 for s in range(3) for a in range(2)]
        losses = [tuner.q_update(batch, online, target_net, 0.5,
                                 helpers.SgdOptimizer(0.5))
                  for _ in range(30)]
        assert losses[-1] < 0.001 * losses[0]

    def test_non_finite_residual_rejected_before_stepping(self):
        online = helpers.TabularQ(3, 2)
        target_net = online.copy()
        target_net.table[1, 0] = np.inf
        before = online.table.copy()
        t = tuner.Transition(0, 0, 1.0, 1, False)
        with pytest.raises(nn.NonFiniteGradientError):
            tuner.q_update([t], online, target_net, 0.5,
                           helpers.SgdOptimizer(0.5))
        np.testing.assert_array_equal(online.table, before)

    def test_empty_batch_rejected(self):
        online = helpers.TabularQ(3, 2)
        with pytest.raises(ValueError):
            tuner.q_update([], online, online.copy(), 0.5,
                           helpers.SgdOptimizer(0.1))


class TestToyMdp:

    def test_value_iteration_oracle_is_a_fixed_point(self):
        q_star = helpers.chain_q_star(0.5)
        for s in range(3):
            for a in range(2):
                nxt = helpers.chain_next(s, a)
                bellman = helpers.CHAIN_REWARDS[s, a] + 0.5 * q_star[nxt].max()
                assert abs(q_star[s, a] - bellman) < 1e-12

    def test_dqn_reaches_the_oracle(self):
        rng = np.random.default_rng(0)
        online = helpers.run_chain_dqn(2500, 0.5, rng)
        q_star = helpers.chain_q_star(0.5)
        assert np.max(np.abs(online.table - q_star)) < 1e-2

    def test_double_q_variant_reaches_the_oracle_too(self):
        rng = np.random.default_rng(1)
        online = helpers.run_chain_dqn(2500, 0.5, rng, double_q=True)
        q_star = helpers.chain_q_star(0.5)
        assert np.max(np.abs(online.table - q_star)) < 1e-2


class TestQNetworkGradients:

    def test_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        primed = primed_params(rng, timewise=(4,), notewise=(4,))
        qnet = tuner.MelodyQNetwork.from_primed(primed, 48, 36)
        for arr in qnet.params().values():
            arr += rng.normal(0.0, 0.05, arr.shape)
        transitions = []
        for k in range(3):
            transitions.append(tuner.Transition(
                random_snapshot(rng, primed), int(rng.integers(38)),
                float(rng.normal()), random_snapshot(rng, primed), k == 2))
        targets = np.array([0.3, -1.2, 2.0])
        _, grads = tuner.q_loss_gradients(transitions, qnet, targets)

        states = [t.state for t in transitions]
        actions = np.array([t.action for t in transitions])

        def forward_loss():
            q, _ = qnet.q_batch(states)
            picked = q[np.arange(len(states)), actions]
            return float(np.mean((targets - picked) ** 2))

        numeric = nn.finite_difference_gradients(forward_loss, qnet.params())
        assert nn.max_relative_error(grads, numeric) < 1e-4


class TestUpdateWorkspace:

    @pytest.mark.parametrize("double_q", [False, True])
    def test_updates_on_a_workspace_match_fresh_arrays(self, double_q):
        rng = np.random.default_rng(12)
        primed = primed_params(rng, timewise=(4, 3), notewise=(4,))
        nets = [tuner.MelodyQNetwork.from_primed(primed, 48, 36)
                for _ in range(2)]
        targets = [net.copy() for net in nets]
        for net in targets:
            net.head_w += 0.1
        opts = [nn.Adadelta(), nn.Adadelta()]
        ws = nn.Workspace()
        for _ in range(3):
            batch = [tuner.Transition(
                random_snapshot(rng, primed), int(rng.integers(38)),
                float(rng.normal()), random_snapshot(rng, primed),
                bool(rng.random() < 0.3)) for _ in range(5)]
            want = tuner.q_update(batch, nets[0], targets[0], 0.9, opts[0],
                                  double_q=double_q)
            got = tuner.q_update(batch, nets[1], targets[1], 0.9, opts[1],
                                 double_q=double_q, ws=ws)
            assert got == want
            for name, arr in nets[0].params().items():
                np.testing.assert_array_equal(nets[1].params()[name], arr)

    def test_two_layer_scores_backward_on_a_workspace_matches_fresh(self):
        """Two layers per axis and no dropout: each upper layer's input
        is the h of the layer below, which that layer's backward still
        reads, so a workspace pass must leave it unwritten."""
        rng = np.random.default_rng(13)
        primed = primed_params(rng, timewise=(4, 3), notewise=(5, 4))
        ws = nn.Workspace()
        for _ in range(3):
            snap = tuner.TrunkSnapshot.stack(
                [random_snapshot(rng, primed) for _ in range(3)])
            dscores = rng.normal(size=(3, MELODY_ACTIONS))
            want_scores, _, cache = tuner.trunk_scores(primed, 48, snap)
            want = tuner.trunk_scores_backward(primed, cache, dscores)
            scores, _, cache = tuner.trunk_scores(primed, 48, snap, ws)
            got = tuner.trunk_scores_backward(primed, cache, dscores, ws)
            np.testing.assert_array_equal(scores, want_scores)
            assert set(got) == set(want)
            for name, grad in want.items():
                np.testing.assert_array_equal(got[name], grad)

    def test_replay_cells_are_own_arrays_outside_the_workspace(
            self, monkeypatch):
        appended, workspaces, held = [], [], []
        append, update = tuner.ReplayBuffer.append, tuner.q_update

        def record_append(buffer, transition):
            appended.append(transition)
            append(buffer, transition)

        # everything the workspace ever held, kept alive so no address
        # is reused
        def record_update(*args, ws=None, **kwargs):
            workspaces.append(ws)
            held.extend(ws.arrays())
            loss = update(*args, ws=ws, **kwargs)
            held.extend(ws.arrays())
            return loss

        monkeypatch.setattr(tuner.ReplayBuffer, "append", record_append)
        monkeypatch.setattr(tuner, "q_update", record_update)
        primed = primed_params(np.random.default_rng(0))
        tuner.tune(primed, make_rl_config(rl_iterations=20, rl_batch_size=4),
                   np.random.default_rng(8))
        ws = workspaces[0]
        assert len(workspaces) == 17 and ws is not None
        assert all(w is ws for w in workspaces) and held
        for transition in appended:
            for snap in (transition.state, transition.next_state):
                for cell in snap.cells:
                    for arr in cell:
                        # owns its memory, so it keeps no scan buffer alive
                        assert arr.base is None
                        assert not any(np.shares_memory(arr, k)
                                       for k in held)


def cdf_inverse(logits, u):
    """The action Generator.choice draws from softmax(logits) at the
    uniform u: cumulative sum, divided by its last entry, then a
    right-sided search."""
    cdf = np.cumsum(nn.softmax(logits))
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


def make_rl_config(**overrides):
    base = dict(note_low=48, n_notes=36, timewise_hidden=[6],
                notewise_hidden=[5], rl_iterations=48, rl_batch_size=8,
                replay_capacity=64, episode_len=8, exploration="epsilon",
                seed=0)
    base.update(overrides)
    cfg = RunConfig(**base)
    cfg.validate()
    return cfg


class TestTune:

    def test_trace_rows_obey_the_reward_blend(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config()
        _, trace = tuner.tune(primed, cfg, np.random.default_rng(1))
        assert len(trace) == cfg.rl_iterations
        for it, reward, log_p, r_mt in trace:
            assert reward == pytest.approx(log_p + r_mt / cfg.c_weight,
                                           rel=1e-12)
            assert log_p <= 0.0
        assert [row[0] for row in trace] == list(range(cfg.rl_iterations))

    def test_fixed_seed_reproduces_everything(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config()
        qnet_a, trace_a = tuner.tune(primed, cfg, np.random.default_rng(7))
        qnet_b, trace_b = tuner.tune(primed, cfg, np.random.default_rng(7))
        assert trace_a == trace_b
        for name, arr in qnet_a.params().items():
            np.testing.assert_array_equal(arr, qnet_b.params()[name])

    def test_shared_read_workspace_matches_fresh_reads(self, monkeypatch):
        """act and log_dist share one workspace in tune; the trace and
        the tuned weights equal a run that reads on a fresh workspace
        each time."""
        primed = primed_params(np.random.default_rng(0))
        cfg = make_rl_config(rl_iterations=20, rl_batch_size=4)
        qnet_a, trace_a = tuner.tune(primed, cfg, np.random.default_rng(9))
        act, log_dist = tuner.MelodyQNetwork.act, tuner.RewardModel.log_dist
        monkeypatch.setattr(tuner.MelodyQNetwork, "act",
                            lambda self, snapshot, ws: act(self, snapshot))
        monkeypatch.setattr(
            tuner.RewardModel, "log_dist",
            lambda self, snapshot, ws: log_dist(self, snapshot))
        qnet_b, trace_b = tuner.tune(primed, cfg, np.random.default_rng(9))
        assert trace_a == trace_b
        for name, arr in qnet_a.params().items():
            np.testing.assert_array_equal(arr, qnet_b.params()[name])

    def test_primed_parameters_are_never_mutated(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        before = {name: arr.copy()
                  for name, arr in model.param_arrays(primed).items()}
        tuner.tune(primed, make_rl_config(), np.random.default_rng(2))
        for name, arr in model.param_arrays(primed).items():
            np.testing.assert_array_equal(arr, before[name])

    def test_zero_iterations_returns_the_primed_initialization(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        qnet, trace = tuner.tune(primed, make_rl_config(rl_iterations=0),
                                 np.random.default_rng(3))
        assert trace == []
        for name, arr in model.param_arrays(primed).items():
            np.testing.assert_array_equal(qnet.params()[f"trunk/{name}"],
                                          arr)
        np.testing.assert_array_equal(qnet.head_w, np.eye(MELODY_ACTIONS))
        np.testing.assert_array_equal(qnet.head_b, np.zeros(MELODY_ACTIONS))

    def test_underfull_replay_acts_without_updating(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config(rl_iterations=4, rl_batch_size=32)
        qnet, trace = tuner.tune(primed, cfg, np.random.default_rng(4))
        assert len(trace) == 4
        for name, arr in model.param_arrays(primed).items():
            np.testing.assert_array_equal(qnet.params()[f"trunk/{name}"],
                                          arr)
        np.testing.assert_array_equal(qnet.head_w, np.eye(MELODY_ACTIONS))

    def test_updates_do_change_the_online_network(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config(rl_iterations=12, rl_batch_size=4)
        qnet, _ = tuner.tune(primed, cfg, np.random.default_rng(5))
        assert not np.array_equal(qnet.head_w, np.eye(MELODY_ACTIONS))


    def test_episodes_chain_and_restart_at_their_boundaries(
            self, monkeypatch):
        appended = []
        append = tuner.ReplayBuffer.append

        def record(buffer, transition):
            appended.append(transition)
            append(buffer, transition)

        monkeypatch.setattr(tuner.ReplayBuffer, "append", record)
        primed = primed_params(np.random.default_rng(0))
        cfg = make_rl_config(rl_iterations=20, episode_len=8)
        _, trace = tuner.tune(primed, cfg, np.random.default_rng(6))
        assert len(appended) == len(trace) == cfg.rl_iterations
        history = []
        for k, (transition, row) in enumerate(zip(appended, trace)):
            step = k % cfg.episode_len
            assert transition.terminal == (step == cfg.episode_len - 1)
            state = transition.state
            if step == 0:
                history = []
                for h, c in state.cells:
                    assert not h.any() and not c.any()
                assert not state.col.any()
                assert state.pos.tolist() == [-1]
            else:
                assert state is appended[k - 1].next_state
            assert transition.next_state.pos.tolist() == [step]
            assert sounding_rows(transition.next_state.col).tolist() == \
                next_sounding([transition.action],
                              sounding_rows(state.col)).tolist()
            assert row[3] == theory_reward(history, transition.action,
                                           cfg).total
            history.append(transition.action)


class TestRollouts:

    def test_greedy_rollout_shape_and_determinism(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config()
        qnet = tuner.MelodyQNetwork.from_primed(primed, 48, 36)
        a = tuner.rollout(qnet, cfg, np.random.default_rng(0))
        b = tuner.rollout(qnet, cfg, np.random.default_rng(99))
        assert a == b
        assert len(a) == cfg.episode_len
        assert all(0 <= act < MELODY_ACTIONS for act in a)

    def test_boltzmann_rollout_is_seed_deterministic(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config()
        qnet = tuner.MelodyQNetwork.from_primed(primed, 48, 36)
        a = tuner.rollout(qnet, cfg, np.random.default_rng(5), greedy=False)
        b = tuner.rollout(qnet, cfg, np.random.default_rng(5), greedy=False)
        assert a == b
        assert all(0 <= act < MELODY_ACTIONS for act in a)

    def test_primed_sampling_is_seed_deterministic(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config()
        rm = tuner.RewardModel(primed, 48, 36)
        a = tuner.sample_primed_melody(rm, cfg, np.random.default_rng(8))
        b = tuner.sample_primed_melody(rm, cfg, np.random.default_rng(8))
        assert a == b
        assert len(a) == cfg.episode_len

    def test_greedy_lockstep_repeats_the_single_song(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config()
        qnet = tuner.MelodyQNetwork.from_primed(primed, 48, 36)
        single = tuner.rollout(qnet, cfg, np.random.default_rng(0))
        many = tuner.rollout(qnet, cfg, np.random.default_rng(0), songs=4)
        assert many == [single] * 4

    @staticmethod
    def _replay(model, score, melodies, uniforms, temperature):
        """Replay each lockstep song on its own with B=1 scoring: every
        action must be the CDF inverse of its step's uniform."""
        assert uniforms.shape == (len(melodies[0]), len(melodies))
        for song, song_uniforms in zip(melodies, uniforms.T):
            snap = tuner.fresh_snapshot(model.trunk, model.n_notes)
            for step, (action, u) in enumerate(zip(song, song_uniforms)):
                scores, cells = score(snap)
                assert action == cdf_inverse(scores[0] / temperature, u)
                snap = snap.advance(cells, [action], step, 48)

    def test_boltzmann_lockstep_replays_song_by_song(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config(temperature=0.7)
        qnet = tuner.MelodyQNetwork.from_primed(primed, 48, 36)
        melodies = tuner.rollout(qnet, cfg, np.random.default_rng(5),
                                 greedy=False, songs=3)
        uniforms = np.random.default_rng(5).random((cfg.episode_len, 3))
        self._replay(qnet, qnet.act, melodies, uniforms, 0.7)
        single = tuner.rollout(qnet, cfg, np.random.default_rng(5),
                               greedy=False)
        # the single song is the B=1 case: its uniforms run down one column
        assert single[0] == melodies[0][0]
        self._replay(qnet, qnet.act, [single],
                     np.random.default_rng(5).random((cfg.episode_len, 1)),
                     0.7)

    def test_primed_lockstep_replays_song_by_song(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng)
        cfg = make_rl_config()
        rm = tuner.RewardModel(primed, 48, 36)
        melodies = tuner.sample_primed_melody(rm, cfg,
                                              np.random.default_rng(8),
                                              songs=4)
        uniforms = np.random.default_rng(8).random((cfg.episode_len, 4))
        self._replay(rm, rm.log_dist, melodies, uniforms, 1.0)

    def test_more_songs_than_in_flight(self):
        rng = np.random.default_rng(0)
        primed = primed_params(rng, timewise=(3,), notewise=(3,))
        cfg = make_rl_config(timewise_hidden=[3], notewise_hidden=[3],
                             episode_len=4)
        rm = tuner.RewardModel(primed, 48, 36)
        songs = tuner.SONGS_IN_FLIGHT + 1
        a = tuner.sample_primed_melody(rm, cfg, np.random.default_rng(2),
                                       songs=songs)
        b = tuner.sample_primed_melody(rm, cfg, np.random.default_rng(2),
                                       songs=songs)
        assert a == b
        assert len(a) == songs
        assert all(len(m) == cfg.episode_len for m in a)
        assert all(0 <= act < MELODY_ACTIONS for m in a for act in m)

    @pytest.mark.parametrize("player", ["primed", "tuned"])
    def test_a_workspace_across_batches_matches_fresh_reads(self, player):
        """65 songs: the play's workspace reallocates when the batch
        goes from 64 songs to 1, and every step's scores equal the same
        play read on a fresh workspace each step, to the bit."""
        rng = np.random.default_rng(0)
        primed = primed_params(rng, timewise=(3,), notewise=(3,))
        cfg = make_rl_config(timewise_hidden=[3], notewise_hidden=[3],
                             episode_len=4)
        net = (tuner.RewardModel(primed, 48, 36) if player == "primed"
               else tuner.MelodyQNetwork.from_primed(primed, 48, 36))
        read = net.log_dist if player == "primed" else net.act
        got, want = [], []

        def on_workspace(snapshot, ws):
            assert ws is not None
            scores, cells = read(snapshot, ws)
            got.append(scores)
            return scores, cells

        def fresh(snapshot, ws):
            scores, cells = read(snapshot)
            want.append(scores)
            return scores, cells

        songs = tuner.SONGS_IN_FLIGHT + 1
        a = tuner._play(net, on_workspace, cfg, np.random.default_rng(3),
                        songs, False, 1.0)
        b = tuner._play(net, fresh, cfg, np.random.default_rng(3), songs,
                        False, 1.0)
        assert a == b
        assert [len(s) for s in got] == [songs - 1] * 4 + [1] * 4
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)

    def test_songs_must_be_positive(self):
        rng = np.random.default_rng(0)
        qnet = tuner.MelodyQNetwork.from_primed(primed_params(rng), 48, 36)
        with pytest.raises(ValueError, match="songs"):
            tuner.rollout(qnet, make_rl_config(), rng, songs=0)
