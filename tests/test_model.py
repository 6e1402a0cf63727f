"""Tests for the two-axis model: forward-pass oracle, loss anchors,
gradient checks, training behavior, and generation invariants."""

import numpy as np
import pytest

from rolltune import model, nn
from rolltune.config import RunConfig
from rolltune.features import expand_batch
from rolltune.midiio import NoteStateMatrix

from helpers import (random_matrix, reference_loss_gradients,
                     workspace_bytes)


def small_params(rng, timewise=(3,), notewise=(4,)):
    params = model.init_biaxial_params(list(timewise), list(notewise), rng)
    for arr in model.param_arrays(params).values():
        arr += rng.normal(0.0, 0.3, size=arr.shape)
    return params


def zero_params(timewise=(8,), notewise=(8,)):
    rng = np.random.default_rng(0)
    params = model.init_biaxial_params(list(timewise), list(notewise), rng)
    for arr in model.param_arrays(params).values():
        arr[...] = 0.0
    return params


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_cell(lay, x, h, c):
    """Gate equations written out directly, one vector at a time."""
    z = np.concatenate([x, h])
    p = dict(lay.named_arrays())
    i = sig(p["w_i"] @ z + p["b_i"])
    f = sig(p["w_f"] @ z + p["b_f"])
    o = sig(p["w_o"] @ z + p["b_o"])
    g = np.tanh(p["w_c"] @ z + p["b_c"])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def reference_logits(params, batch, note_low):
    """Triple-loop forward pass: per song, per note, per step, with the
    note scan teacher-forced from the next step's column."""
    b, n, t, _ = batch.shape
    feats = expand_batch(batch, note_low)
    top_h = params.timewise[-1].hidden_size
    tw = np.zeros((b, n, t, top_h))
    for bi in range(b):
        for ni in range(n):
            hs = [np.zeros(l.hidden_size) for l in params.timewise]
            cs = [np.zeros(l.hidden_size) for l in params.timewise]
            for ti in range(t):
                x = feats[bi, ni, ti]
                for li, lay in enumerate(params.timewise):
                    hs[li], cs[li] = ref_cell(lay, x, hs[li], cs[li])
                    x = hs[li]
                tw[bi, ni, ti] = x
    targets = batch.astype(np.float64)
    logits = np.zeros((b, n, t, 2))
    for bi in range(b):
        for ti in range(t):
            hs = [np.zeros(l.hidden_size) for l in params.notewise]
            cs = [np.zeros(l.hidden_size) for l in params.notewise]
            for ni in range(n):
                if ni == 0 or ti == t - 1:
                    fb = np.zeros(2)
                else:
                    fb = targets[bi, ni - 1, ti + 1]
                x = np.concatenate([tw[bi, ni, ti], fb])
                for li, lay in enumerate(params.notewise):
                    hs[li], cs[li] = ref_cell(lay, x, hs[li], cs[li])
                    x = hs[li]
                logits[bi, ni, ti] = params.proj_w @ x + params.proj_b
    return logits


def small_batch(rng, b=2, n=4, t=5, note_low=60):
    batch = np.zeros((b, n, t, 2), dtype=np.uint8)
    for k in range(b):
        batch[k] = random_matrix(rng, n_notes=n, n_steps=t,
                                 note_low=note_low, density=0.4).data
    return batch


class TestForwardOracle:

    def test_teacher_forced_logits_match_loop_reference(self):
        rng = np.random.default_rng(7)
        params = small_params(rng, timewise=(3, 4), notewise=(4, 3))
        batch = small_batch(rng)
        want = reference_logits(params, batch, 60)
        feats = expand_batch(batch, 60)
        tw, _ = model.timewise_pass(feats, params.timewise)
        got, caches, stream = model.notewise_pass(
            tw, params, targets=batch.astype(np.float64))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # one cache per notewise layer, and the top stream the logits
        # project, note-major as backward reads it
        b, n, t, _ = batch.shape
        assert len(caches) == len(params.notewise)
        assert stream.shape == (n, b * t, params.notewise[-1].hidden_size)
        np.testing.assert_array_equal(
            model._to_note_major(got),
            stream @ params.proj_w.T + params.proj_b)

    def test_timewise_pass_is_note_permutation_equivariant(self):
        rng = np.random.default_rng(8)
        params = small_params(rng)
        batch = small_batch(rng, n=6)
        feats = expand_batch(batch, 60)
        perm = rng.permutation(6)
        out, _ = model.timewise_pass(feats, params.timewise)
        out_perm, _ = model.timewise_pass(feats[:, perm], params.timewise)
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-14)

    def test_single_step_matches_stack_step(self):
        rng = np.random.default_rng(9)
        params = small_params(rng)
        batch = small_batch(rng, t=1)
        feats = expand_batch(batch, 60)
        out, _ = model.timewise_pass(feats, params.timewise)
        lay = params.timewise[0]
        b, n = batch.shape[:2]
        x = feats[:, :, 0].reshape(b * n, -1)
        zeros = np.zeros((b * n, lay.hidden_size))
        h, _ = nn.stack_step([lay], x, [(zeros, zeros)])
        np.testing.assert_allclose(out[:, :, 0], h.reshape(b, n, -1),
                                   atol=1e-14)


class TestTeacherFeedback:

    def test_feedback_layout(self):
        rng = np.random.default_rng(10)
        targets = rng.integers(0, 2, size=(2, 3, 4, 2)).astype(np.float64)
        fb = model.teacher_feedback(targets)
        assert np.all(fb[:, 0] == 0)
        assert np.all(fb[:, :, -1] == 0)
        for n in range(1, 3):
            for t in range(3):
                np.testing.assert_array_equal(fb[:, n, t],
                                              targets[:, n - 1, t + 1])


class TestLoss:

    def test_hand_computed_single_cell(self):
        logits = np.zeros((1, 1, 2, 2))
        logits[0, 0, 0] = [0.3, -0.7]
        logits[0, 0, 1] = [9.9, 9.9]      # last step, must be ignored
        batch = np.zeros((1, 1, 2, 2), dtype=np.uint8)
        batch[0, 0, 1] = [1, 1]
        want = (np.log1p(np.exp(-0.3)) + np.log1p(np.exp(0.7)))
        value, loglik = model.loss(logits, batch)
        assert value == pytest.approx(want, abs=1e-12)
        assert loglik == pytest.approx(-want, abs=1e-12)

    def test_first_step_targets_and_last_step_logits_are_ignored(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(2, 3, 6, 2))
        batch = small_batch(rng, b=2, n=3, t=6)
        base = model.loss(logits, batch)
        poked = logits.copy()
        poked[:, :, -1] = 55.0
        assert model.loss(poked, batch) == base
        poked_batch = batch.copy()
        poked_batch[:, :, 0] = 1 - poked_batch[:, :, 0]
        assert model.loss(logits, poked_batch) == base

    def test_articulation_masked_where_target_is_silent(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(1, 4, 5, 2))
        batch = small_batch(rng, b=1, n=4, t=5)
        poked = batch.astype(np.int16)
        silent = poked[..., 0] == 0
        poked[..., 1][silent] = 1 - poked[..., 1][silent]
        assert model.loss(logits, poked) == model.loss(logits, batch)
        _, _, d1 = model.loss_with_gradient(logits, batch)
        _, _, d2 = model.loss_with_gradient(logits, poked)
        np.testing.assert_array_equal(d1, d2)

    def test_zero_logits_on_silence_hit_the_coin_flip_anchor(self):
        n = 88
        logits = np.zeros((2, n, 9, 2))
        batch = np.zeros((2, n, 9, 2), dtype=np.uint8)
        value, loglik = model.loss(logits, batch)
        assert value == pytest.approx(np.log(2.0), abs=1e-12)
        assert loglik == pytest.approx(-n * np.log(2.0), abs=1e-9)

    def test_gradient_zero_at_masked_and_final_cells(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(1, 3, 4, 2))
        batch = np.zeros((1, 3, 4, 2), dtype=np.uint8)
        batch[0, 1, 2] = [1, 1]
        _, _, d = model.loss_with_gradient(logits, batch)
        assert np.all(d[:, :, -1] == 0)
        assert np.all(d[0, 0, :, 1] == 0)      # note 0 never plays


class TestGradients:

    def test_full_model_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        params = small_params(rng, timewise=(4,), notewise=(4,))
        batch = small_batch(rng, b=2, n=6, t=4)
        arrays = model.param_arrays(params)

        def f():
            feats = expand_batch(batch, 60)
            tw, _ = model.timewise_pass(feats, params.timewise)
            logits, _, _ = model.notewise_pass(
                tw, params, targets=batch.astype(np.float64))
            return model.loss(logits, batch)[0]

        numeric = nn.finite_difference_gradients(f, arrays, eps=1e-5)
        _, _, analytic = model.loss_gradients(params, batch, 60)
        assert set(analytic) == set(numeric)
        assert nn.max_relative_error(analytic, numeric) < 1e-5

    def test_dropout_requires_rng(self):
        params = zero_params((4,), (4,))
        batch = np.zeros((1, 3, 3, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="rng"):
            model.loss_gradients(params, batch, 60, keep_prob=0.5)


class TestWorkspace:
    """loss_gradients on one nn.Workspace against a fresh workspace per
    call."""

    @pytest.mark.parametrize("sizes", [((4,), (3,)), ((3, 4), (4, 2))])
    @pytest.mark.parametrize("keep_prob", [1.0, 0.6])
    def test_consecutive_calls_match_fresh_arrays(
            self, sizes, keep_prob, monkeypatch):
        rng = np.random.default_rng(16)
        params = small_params(rng, *sizes)
        forward = nn.stack_forward
        caches = []

        def record(*args, **kwargs):
            out = forward(*args, **kwargs)
            if any(kwargs["ws"] is ws.scope(name)
                   for name in ("timewise", "notewise")):
                caches.append(out[1])
            return out

        monkeypatch.setattr(nn, "stack_forward", record)
        ws = nn.Workspace()
        for k in range(3):
            batch = small_batch(rng, b=2, n=5, t=6)
            want = model.loss_gradients(
                params, batch, 60, rng=np.random.default_rng(k),
                keep_prob=keep_prob)
            got = model.loss_gradients(
                params, batch, 60, rng=np.random.default_rng(k),
                keep_prob=keep_prob, ws=ws)
            assert got[:2] == want[:2]
            assert set(got[2]) == set(want[2])
            for name, grad in want[2].items():
                np.testing.assert_array_equal(got[2][name], grad)
            for grad in got[2].values():
                assert not any(np.shares_memory(grad, kept)
                               for kept in ws.arrays())
        # one timewise and one notewise scan per call
        assert len(caches) == 6
        for first, second in zip(caches[:2], caches[2:4]):
            for a, b in zip(first, second):
                assert np.shares_memory(a.gates, b.gates)

    # with the third sizes the time stack's top stream does not fit in
    # the note scan's layer-0 gates (4 * 2 < 9): it keeps its own array
    @pytest.mark.parametrize("sizes", [((4,), (3,)), ((3, 4), (4, 2)),
                                       ((9,), (2,))])
    @pytest.mark.parametrize("keep_prob", [1.0, 0.6])
    def test_one_workspace_matches_the_fresh_array_reference(
            self, sizes, keep_prob):
        """Three passes on one workspace equal the reference model pass,
        which gives every gradient stream a fresh array, to the bit. The
        gradient streams and the rebuilt h_prev take spent memory, so the
        workspace holds no h cache and no gradient stream array of its
        own."""
        rng = np.random.default_rng(28)
        params = small_params(rng, *sizes)
        ws = nn.Workspace()
        for k in range(3):
            batch = small_batch(rng, b=2, n=5, t=6)
            want = reference_loss_gradients(
                params, batch, 60, rng=np.random.default_rng(k),
                keep_prob=keep_prob)
            got = model.loss_gradients(
                params, batch, 60, rng=np.random.default_rng(k),
                keep_prob=keep_prob, ws=ws)
            assert got[:2] == want[:2]
            assert set(got[2]) == set(want[2])
            for name, grad in want[2].items():
                np.testing.assert_array_equal(got[2][name], grad)
        assert_no_spent_copies(ws)

    # Desk shapes: batch 4 x 36 notes x 32 steps, so the time scan runs
    # 32 steps of 144 rows and the note scan 36 steps of 128 rows.
    SHARED = {"features": 2_949_120, "note_inputs": 958_464}
    TIME_LAYER = {"gates": 3_538_944, "c": 912_384, "h0": 27_648,
                  "out": 884_736}
    NOTE_LAYER = {"gates": 3_538_944, "c": 909_312, "h0": 24_576,
                  "out": 884_736}
    TIME_SCRATCH = {"('z', 24)": 110_592, "('d_sig', 24)": 82_944,
                    "('dstep', 24)": 138_240}
    NOTE_SCRATCH = {"('z', 24)": 98_304, "('d_sig', 24)": 73_728,
                    "('dstep', 24)": 122_880}

    def test_desk_pass_holds_no_spent_copies(self):
        """The workspace of a desk-sized training pass, array by array.
        Each layer keeps its gates, c, initial h and one output stream,
        and no h cache: the backward rebuilds h_prev as o * tanh(c) in
        its incoming gradient's spent slots. A masked layer's stream is
        masked in place once its scan ends. The time top's stream lives
        in the note scan's layer-0 gates, unused until the note scan
        starts, and is copied, masked, into the note scan's input, so
        the time top has no ('out', li). The note stack's top gradient
        is written over its top output and the time stack's top gradient
        over the time top's stream. With the h cache this pass held
        16,140,288 bytes."""
        self.check_desk_workspace(1, 0.75, 14_370_816)

    def test_two_layer_desk_pass_holds_no_spent_copies(self):
        """Two layers per axis at keep_prob 1.0, the shape where upper
        layers' input gradients and the note stack's top gradient had
        arrays of their own: each layer's input gradient is written over
        its input, the output stream of the layer below. With those and
        the h cache this pass held 28,631,040 bytes."""
        self.check_desk_workspace(2, 1.0, 25_092_096)

    def check_desk_workspace(self, layers, keep_prob, total):
        rng = np.random.default_rng(27)
        params = model.init_biaxial_params([24] * layers, [24] * layers,
                                           rng)
        batch = small_batch(rng, b=4, n=36, t=32, note_low=48)
        ws = nn.Workspace()
        model.loss_gradients(params, batch, 48, rng=rng,
                             keep_prob=keep_prob, ws=ws)
        want = dict(self.SHARED)
        for stack, layer, scratch in (
                ("timewise", self.TIME_LAYER, self.TIME_SCRATCH),
                ("notewise", self.NOTE_LAYER, self.NOTE_SCRATCH)):
            for li in range(layers):
                for name, size in layer.items():
                    want[f"{stack}/('{name}', {li})"] = size
            want.update({f"{stack}/{key}": size
                         for key, size in scratch.items()})
        del want[f"timewise/('out', {layers - 1})"]
        assert workspace_bytes(ws) == want
        assert sum(want.values()) == total
        assert_no_spent_copies(ws)


def assert_no_spent_copies(ws):
    """No h cache and no array for a gradient stream: every one of them
    takes memory the pass has spent."""
    keys = list(workspace_bytes(ws))
    for banned in ("d_note_top", "d_time_top", "('h', ", "('dinput', ",
                   "('h_slot', "):
        assert not any(banned in key for key in keys), banned


class TestParamArrays:

    def test_round_trip_through_named_arrays(self):
        rng = np.random.default_rng(16)
        params = small_params(rng, timewise=(3, 5), notewise=(4, 3))
        arrays = model.param_arrays(params)
        rebuilt = model.params_from_arrays(arrays)
        rebuilt_arrays = model.param_arrays(rebuilt)
        assert set(arrays) == set(rebuilt_arrays)
        for name in arrays:
            np.testing.assert_array_equal(arrays[name], rebuilt_arrays[name])

    def test_arrays_are_views_not_copies(self):
        rng = np.random.default_rng(17)
        params = small_params(rng)
        arrays = model.param_arrays(params)
        arrays["proj/b"][0] = 321.0
        assert params.proj_b[0] == 321.0
        arrays["timewise/0/w_f"][0, 0] = 654.0
        assert params.timewise[0].w[3, 0] == 654.0

    def test_missing_key_is_an_error(self):
        rng = np.random.default_rng(18)
        arrays = model.param_arrays(small_params(rng))
        del arrays["proj/w"]
        with pytest.raises(ValueError, match="proj/w"):
            model.params_from_arrays(arrays)

    def test_validate_rejects_bad_note_scan_input_width(self):
        rng = np.random.default_rng(19)
        params = small_params(rng, timewise=(3,), notewise=(4,))
        params.notewise[0] = nn.LstmCellParams.fresh(9, 4, rng)
        with pytest.raises(ValueError, match="timewise top hidden"):
            params.validate()


class TestSamplePairs:

    def test_silent_note_is_never_articulated(self):
        rng = np.random.default_rng(20)
        logits = np.zeros((500, 2))
        pairs = model.sample_pairs(logits, rng)
        assert not np.any((pairs[:, 0] == 0) & (pairs[:, 1] == 1))
        assert set(np.unique(pairs)) <= {0.0, 1.0}

    def test_random_stream_is_shape_stable(self):
        # Forcing a pair to silence must not change how many draws are
        # consumed, so downstream sampling stays aligned.
        logits = np.array([[-50.0, 50.0], [2.0, 1.0]])
        a = model.sample_pairs(logits, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        rng.random((2, 2))
        b = rng.random()
        rng2 = np.random.default_rng(3)
        model.sample_pairs(logits, rng2)
        assert rng2.random() == b
        assert a[0, 1] == 0.0


class TestSegments:

    def test_segments_are_measure_aligned_slices(self):
        rng = np.random.default_rng(21)
        song = random_matrix(rng, n_notes=5, n_steps=64, note_low=60)
        batch = model.sample_segments([song], 16, 12, rng)
        starts = set()
        for row in batch:
            found = [s for s in range(0, 49, 16)
                     if np.array_equal(row, song.data[:, s:s + 16])]
            assert found
            starts.add(found[0])
        assert len(starts) > 1


class TestTrain:

    def make_cfg(self, **kw):
        base = dict(n_notes=6, note_low=60, timewise_hidden=[12],
                    notewise_hidden=[12], keep_prob=1.0, segment_len=16,
                    batch_size=4, iterations=80)
        base.update(kw)
        return RunConfig(**base)

    def alternating_song(self, n_steps=64):
        data = np.zeros((6, n_steps, 2), dtype=np.uint8)
        data[2, 0::4] = [1, 1]
        data[4, 2::4] = [1, 1]
        m = NoteStateMatrix(data, 60)
        m.validate()
        return m

    def test_loss_drops_on_a_fixed_pattern(self):
        cfg = self.make_cfg()
        rng = np.random.default_rng(22)
        params, history = model.train([self.alternating_song()], cfg, rng)
        assert len(history) == cfg.iterations
        first = np.mean([row[1] for row in history[:10]])
        last = np.mean([row[1] for row in history[-10:]])
        assert last < 0.5 * first
        for it, value, loglik in history:
            assert loglik == pytest.approx(-cfg.n_notes * value, rel=1e-12)

    def test_training_is_deterministic_for_a_fixed_seed(self):
        cfg = self.make_cfg(iterations=5, keep_prob=0.8)
        song = self.alternating_song()
        p1, h1 = model.train([song], cfg, np.random.default_rng(5))
        p2, h2 = model.train([song], cfg, np.random.default_rng(5))
        assert h1 == h2
        a1, a2 = model.param_arrays(p1), model.param_arrays(p2)
        for name in a1:
            np.testing.assert_array_equal(a1[name], a2[name])

    @pytest.mark.parametrize("rho, eps", [(0.0, 1e-6), (1.0, 1e-6),
                                          (0.95, 1e-300)])
    def test_adadelta_settings_validate_accepts_keep_weights_finite(
            self, rho, eps):
        """At the edges of what validate() accepts, every weight stays
        finite, including those whose gradient entries are 0 (eps 0
        divided 0 by 0 there, and a rho outside [0, 1] could take a
        square root of a negative average)."""
        cfg = self.make_cfg(iterations=20, adadelta_rho=rho,
                            adadelta_eps=eps).validate()
        params, _ = model.train([self.alternating_song()], cfg,
                                np.random.default_rng(3))
        for name, arr in model.param_arrays(params).items():
            assert np.all(np.isfinite(arr)), name

    def test_short_songs_are_skipped_with_a_warning(self):
        cfg = self.make_cfg(iterations=2)
        long_song = self.alternating_song(64)
        short = self.alternating_song(8)
        with pytest.warns(UserWarning, match="shorter than segment_len"):
            model.train([long_song, short], cfg, np.random.default_rng(1))
        with pytest.raises(ValueError, match="shorter than segment_len"), \
                pytest.warns(UserWarning, match="shorter than segment_len"):
            model.train([short], cfg, np.random.default_rng(1))

    def test_mismatched_note_range_is_an_error(self):
        cfg = self.make_cfg()
        song = random_matrix(np.random.default_rng(2), n_notes=8,
                             n_steps=32, note_low=60)
        with pytest.raises(ValueError, match="note range"):
            model.train([song], cfg, np.random.default_rng(2))


class TestGenerate:

    def make_cfg(self, **kw):
        base = dict(n_notes=30, note_low=50)
        base.update(kw)
        return RunConfig(**base)

    def test_zero_model_plays_a_fair_coin(self):
        params = zero_params((8,), (8,))
        cfg = self.make_cfg()
        out = model.generate(params, cfg, 400, np.random.default_rng(23))
        assert out.n_notes == 30 and out.n_steps == 400
        out.validate()
        play = out.data[:, :, 0].astype(float)
        assert abs(play.mean() - 0.5) < 0.02
        # Articulation among continuations (note already sounding) is an
        # unforced coin flip; onsets have the bit forced on.
        cont = (out.data[:, 1:, 0] == 1) & (out.data[:, :-1, 0] == 1)
        artic = out.data[:, 1:, 1][cont].astype(float)
        assert abs(artic.mean() - 0.5) < 0.04
        onsets = (out.data[:, 1:, 0] == 1) & (out.data[:, :-1, 0] == 0)
        assert np.all(out.data[:, 1:, 1][onsets] == 1)

    def test_generation_is_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(24)
        params = small_params(rng, timewise=(6,), notewise=(6,))
        cfg = self.make_cfg(n_notes=10, note_low=55)
        a = model.generate(params, cfg, 24, np.random.default_rng(77))
        b = model.generate(params, cfg, 24, np.random.default_rng(77))
        c = model.generate(params, cfg, 24, np.random.default_rng(78))
        assert a == b
        assert a != c

    def test_time_scan_stops_at_the_last_column(self, monkeypatch):
        """The time scan consumes the silent opening column and every
        generated column but the last, whose next state nothing reads."""
        rng = np.random.default_rng(26)
        params = small_params(rng, timewise=(4,), notewise=(3,))
        cfg = self.make_cfg(n_notes=10, note_low=55)
        step, time_steps = nn.stack_step, []

        def record(layers, *args, **kwargs):
            if layers is params.timewise:
                time_steps.append(1)
            return step(layers, *args, **kwargs)

        monkeypatch.setattr(nn, "stack_step", record)
        model.generate(params, cfg, 5, np.random.default_rng(1))
        assert len(time_steps) == 5


def reference_sample_note_scan(params, xs, rng, prev_play):
    """The note scan sampled with one nn.stack_step per note, each a
    fresh length-1 stack_forward, a note silent in prev_play articulating
    whenever it plays: the oracle for model._sample_note_scan and its
    preallocated nn.StackStepper."""
    n, r, _ = xs.shape
    states = [(np.zeros((r, lay.hidden_size)), np.zeros((r, lay.hidden_size)))
              for lay in params.notewise]
    samples = np.zeros((n, r, 2))
    prev = 0.0
    for note in range(n):
        xs[note, :, -2:] = prev
        top, states = nn.stack_step(params.notewise, xs[note], states)
        logits = top @ params.proj_w.T + params.proj_b
        pair = model.sample_pairs(logits, rng)
        onset = ~prev_play[note]
        pair[onset, 1] = pair[onset, 0]
        prev = samples[note] = pair
    return samples


class TestSampleNoteScan:
    """model._sample_note_scan against one stack_step per note, bit for
    bit: the samples, the realized feedback in xs and the rng after."""

    @pytest.mark.parametrize("rows", [1, 3, 48])
    @pytest.mark.parametrize("notewise", [(5,), (5, 3)])
    def test_matches_one_stack_step_per_note(self, rows, notewise):
        rng = np.random.default_rng(28)
        params = small_params(rng, timewise=(4,), notewise=notewise)
        xs = np.zeros((9, rows, 6))
        xs[..., :4] = rng.normal(size=(9, rows, 4))
        prev_play = rng.random((9, rows)) < 0.5
        want_xs, got_xs = xs.copy(), xs.copy()
        want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
        want = reference_sample_note_scan(params, want_xs, want_rng,
                                          prev_play)
        got = model._sample_note_scan(
            params, got_xs, got_rng, nn.StackStepper(params.notewise, rows),
            prev_play)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_xs, want_xs)
        assert got_rng.random() == want_rng.random()
        # a scan that samples nothing but silence would prove little
        assert 0 < got[..., 0].sum() < got[..., 0].size
        # every sounding note that was silent before articulates
        assert np.all(got[..., 1][(got[..., 0] == 1) & ~prev_play] == 1)

    def test_desk_generation_matches_the_oracle(self, monkeypatch):
        """32 columns at the desk shape: 36 notes from MIDI 48, one
        24-unit layer per axis. generate steps every column through one
        stepper; the oracle makes none."""
        rng = np.random.default_rng(29)
        params = small_params(rng, timewise=(24,), notewise=(24,))
        cfg = RunConfig(n_notes=36, note_low=48, timewise_hidden=[24],
                        notewise_hidden=[24])
        got_rng = np.random.default_rng(6)
        got = model.generate(params, cfg, 32, got_rng)
        monkeypatch.setattr(
            model, "_sample_note_scan",
            lambda params, xs, rng, stepper, prev_play:
                reference_sample_note_scan(params, xs, rng, prev_play))
        want_rng = np.random.default_rng(6)
        want = model.generate(params, cfg, 32, want_rng)
        np.testing.assert_array_equal(got.data, want.data)
        assert got_rng.random() == want_rng.random()
        assert 0 < got.data[..., 0].sum() < got.data[..., 0].size

    def test_each_note_reads_the_pair_emitted_below(self, monkeypatch):
        """Every column generate emits is its note scan's samples, each
        note's feedback input is the emitted pair of the note below
        (zeros at note 0), and every onset out of silence articulates."""
        rng = np.random.default_rng(30)
        params = small_params(rng, timewise=(24,), notewise=(24,))
        cfg = RunConfig(n_notes=36, note_low=48, timewise_hidden=[24],
                        notewise_hidden=[24])
        scan, fed = model._sample_note_scan, []

        def record(params, xs, rng, stepper, prev_play):
            samples = scan(params, xs, rng, stepper, prev_play)
            fed.append((xs[:, 0, -2:].copy(), samples[:, 0].copy()))
            return samples

        monkeypatch.setattr(model, "_sample_note_scan", record)
        out = model.generate(params, cfg, 32, np.random.default_rng(7)).data
        assert len(fed) == 32
        for j, (feedback, samples) in enumerate(fed):
            np.testing.assert_array_equal(samples, out[:, j])
            np.testing.assert_array_equal(feedback[0], 0.0)
            np.testing.assert_array_equal(feedback[1:], out[:-1, j])
        play = out[..., 0] == 1
        was_playing = np.zeros_like(play)
        was_playing[:, 1:] = play[:, :-1]
        onsets = play & ~was_playing
        assert onsets.any()
        assert np.all(out[..., 1][onsets] == 1)
