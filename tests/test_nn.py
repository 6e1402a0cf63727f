"""Checks for the LSTM cell, stack scans, Adadelta, and dropout.

The recurrent math is compared against a scalar pure-Python re-derivation
and against central finite differences, so the vectorized implementation
never has to be trusted on its own.
"""

import math

import numpy as np
import pytest

from rolltune import nn

from helpers import reference_backward, reference_forward


def scalar_lstm_step(params, x, h_prev, c_prev):
    """Element-by-element reference: no numpy vector math."""
    hs, w, b = params.hidden_size, params.w, params.b
    xs = list(x) + list(h_prev)
    h_out, c_out = [], []
    for j in range(hs):
        # row j of each gate's row-block, gates in the order i, f, o, c
        zi, zf, zo, zc = (
            sum(w[r][k] * xs[k] for k in range(len(xs))) + b[r]
            for r in (j, hs + j, 2 * hs + j, 3 * hs + j))
        i = 1.0 / (1.0 + math.exp(-zi))
        f = 1.0 / (1.0 + math.exp(-zf))
        o = 1.0 / (1.0 + math.exp(-zo))
        g = math.tanh(zc)
        c = f * c_prev[j] + i * g
        h_out.append(o * math.tanh(c))
        c_out.append(c)
    return np.array(h_out), np.array(c_out)


def random_cell(input_size, hidden_size, rng):
    cell = nn.LstmCellParams.fresh(input_size, hidden_size, rng)
    # fresh() starts biases at 0/1; randomize everything so no gradient
    # is accidentally zero in the checks below
    for arr in (cell.w, cell.b):
        arr += rng.normal(0.0, 0.3, size=arr.shape)
    return cell


def cell_arrays(cell):
    """A cell's parameters keyed like the gradient dicts."""
    return {"w": cell.w, "b": cell.b}


def step_one(cell, x, h_prev, c_prev):
    """One cell, one step, one row through the kernel, as 1-D vectors."""
    states = [(h_prev[None], c_prev[None])]
    _, [(h, c)] = nn.stack_step([cell], x[None], states)
    return h[0], c[0]


class TestPackedCell:
    def test_packed_blocks_are_views_of_w(self):
        cell = nn.LstmCellParams.fresh(3, 5, np.random.default_rng(0))
        wx, wh, b = cell.packed()
        assert wx.shape == (20, 3) and wh.shape == (20, 5)
        assert np.shares_memory(wx, cell.w) and np.shares_memory(wh, cell.w)
        assert b is cell.b

    def test_fresh_equals_four_per_gate_draws(self):
        cell = nn.LstmCellParams.fresh(3, 5, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        bound = 1.0 / math.sqrt(8)
        for k in range(4):
            np.testing.assert_array_equal(
                cell.w[5 * k:5 * (k + 1)],
                rng.uniform(-bound, bound, size=(5, 8)))


class TestLstmStep:
    def test_zero_params_zero_input(self):
        rng = np.random.default_rng(0)
        cell = nn.LstmCellParams.fresh(3, 5, rng)
        cell.w[...] = cell.b[...] = 0.0
        c_prev = rng.normal(size=5)
        h, c = step_one(cell, np.zeros(3), np.zeros(5), c_prev)
        np.testing.assert_allclose(c, 0.5 * c_prev, rtol=0, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev),
                                   rtol=0, atol=1e-15)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        cell = random_cell(6, 4, rng)
        for _ in range(20):
            x = rng.normal(size=6)
            h_prev = rng.normal(size=4)
            c_prev = rng.normal(size=4)
            h, c = step_one(cell, x, h_prev, c_prev)
            h_ref, c_ref = scalar_lstm_step(cell, x, h_prev, c_prev)
            np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-12)

    def test_batched_rows_agree_with_single(self):
        rng = np.random.default_rng(8)
        cell = random_cell(5, 3, rng)
        xs = rng.normal(size=(4, 5))
        hs = rng.normal(size=(4, 3))
        cs = rng.normal(size=(4, 3))
        _, [(h_b, c_b)] = nn.stack_step([cell], xs, [(hs, cs)])
        for r in range(4):
            h1, c1 = step_one(cell, xs[r], hs[r], cs[r])
            # batched and single-row BLAS kernels may differ by an ulp
            np.testing.assert_allclose(h_b[r], h1, rtol=0, atol=1e-14)
            np.testing.assert_allclose(c_b[r], c1, rtol=0, atol=1e-14)


class TestLstmBackward:
    def test_single_step_finite_differences(self):
        rng = np.random.default_rng(11)
        cell = random_cell(3, 2, rng)
        xs = rng.normal(size=(1, 1, 3))
        init = [(rng.normal(size=(1, 2)), rng.normal(size=(1, 2)))]
        w_out = rng.uniform(0.5, 1.5, size=(1, 1, 2))

        def loss():
            stream, _, _ = nn.stack_forward([cell], xs, init_states=init)
            return float(np.sum(stream * w_out))

        # the backward pass writes its input gradient over the scan input
        _, caches, _ = nn.stack_forward([cell], xs.copy(), init_states=init)
        grads_list, dxs = nn.stack_backward([cell], caches, w_out.copy())
        params = cell_arrays(cell)
        numeric = nn.finite_difference_gradients(loss, params)
        assert nn.max_relative_error(grads_list[0], numeric) < 1e-6
        numeric_x = nn.finite_difference_gradients(loss, {"xs": xs})
        assert nn.max_relative_error({"xs": dxs}, numeric_x) < 1e-6

    def test_four_step_unrolled_finite_differences(self):
        rng = np.random.default_rng(12)
        cell = random_cell(3, 2, rng)
        xs = rng.normal(size=(4, 1, 3))
        w_out = rng.uniform(0.5, 1.5, size=(4, 1, 2))

        def loss():
            stream, _, _ = nn.stack_forward([cell], xs)
            return float(np.sum(stream * w_out))

        _, caches, _ = nn.stack_forward([cell], xs.copy())
        grads_list, dxs = nn.stack_backward([cell], caches, w_out.copy())
        params = cell_arrays(cell)
        numeric = nn.finite_difference_gradients(loss, params)
        assert nn.max_relative_error(grads_list[0], numeric) < 1e-5
        numeric_x = nn.finite_difference_gradients(loss, {"xs": xs})
        assert nn.max_relative_error({"xs": dxs}, numeric_x) < 1e-5


class TestStackScan:
    def test_scan_matches_stepwise(self):
        rng = np.random.default_rng(21)
        layers = [random_cell(4, 3, rng), random_cell(3, 5, rng)]
        xs = rng.normal(size=(6, 2, 4))
        stream, _, finals = nn.stack_forward(layers, xs)
        states = [(np.zeros((2, 3)), np.zeros((2, 3))),
                  (np.zeros((2, 5)), np.zeros((2, 5)))]
        for s in range(6):
            out, states = nn.stack_step(layers, xs[s], states)
            np.testing.assert_allclose(stream[s], out, rtol=0, atol=1e-12)
        for li in range(2):
            np.testing.assert_allclose(finals[li][0], states[li][0],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(finals[li][1], states[li][1],
                                       rtol=0, atol=1e-12)

    def test_two_layer_gradients(self):
        rng = np.random.default_rng(22)
        layers = [random_cell(3, 4, rng), random_cell(4, 2, rng)]
        xs = rng.normal(size=(3, 2, 3))
        w_out = rng.uniform(0.5, 1.5, size=(3, 2, 2))

        def loss():
            stream, _, _ = nn.stack_forward(layers, xs)
            return float(np.sum(stream * w_out))

        _, caches, _ = nn.stack_forward(layers, xs.copy())
        grads_list, _ = nn.stack_backward(layers, caches, w_out.copy())
        for li, layer in enumerate(layers):
            params = cell_arrays(layer)
            numeric = nn.finite_difference_gradients(loss, params)
            assert nn.max_relative_error(grads_list[li], numeric) < 1e-5

    def test_skipping_the_input_gradient_keeps_the_weight_gradients(self):
        rng = np.random.default_rng(24)
        layers = [random_cell(3, 4, rng), random_cell(4, 2, rng)]
        xs = rng.normal(size=(3, 2, 3))
        _, caches, _ = nn.stack_forward(layers, xs.copy())
        dstream = rng.normal(size=(3, 2, 2))
        # a backward spends its caches and its dstream, so each backward
        # gets a scan of its own and a copy of dstream
        full, dxs = nn.stack_backward(layers, caches, dstream.copy())
        _, caches, _ = nn.stack_forward(layers, xs.copy())
        skipped, none = nn.stack_backward(layers, caches, dstream.copy(),
                                          input_grad=False)
        assert dxs.shape == xs.shape and none is None
        for got, want in zip(skipped, full):
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])

    def test_dropout_masks_apply_to_stream_only(self):
        rng = np.random.default_rng(23)
        layers = [random_cell(3, 4, rng)]
        xs = rng.normal(size=(5, 2, 3))
        mask = nn.dropout_mask((2, 4), 0.5, np.random.default_rng(1))
        stream, _, _ = nn.stack_forward(layers, xs, keep_masks=[mask])
        bare, _, _ = nn.stack_forward(layers, xs)
        np.testing.assert_allclose(stream, bare * mask, rtol=0, atol=0)


class TestStackStepper:
    """StackStepper against one stack_step per step from a zero state,
    bit for bit: the same products with the same operand shapes and the
    same elementwise update."""

    @pytest.mark.parametrize("rows", [1, 3, 48])
    @pytest.mark.parametrize("hidden", [(5,), (5, 3)])
    def test_steps_equal_stack_step(self, rows, hidden):
        rng = np.random.default_rng(25)
        layers, size = [], 6
        for hs in hidden:
            layers.append(random_cell(size, hs, rng))
            size = hs
        xs = rng.normal(size=(7, rows, 6))
        states = [(np.zeros((rows, hs)), np.zeros((rows, hs)))
                  for hs in hidden]
        stepper = nn.StackStepper(layers, rows)
        for x in xs:
            want, states = nn.stack_step(layers, x, states)
            np.testing.assert_array_equal(stepper.step(x), want)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("hidden", [(5,), (5, 3)])
    def test_reset_equals_a_fresh_stepper(self, rows, hidden):
        rng = np.random.default_rng(27)
        layers, size = [], 6
        for hs in hidden:
            layers.append(random_cell(size, hs, rng))
            size = hs
        stepper = nn.StackStepper(layers, rows)
        for x in rng.normal(size=(4, rows, 6)):
            stepper.step(x)
        stepper.reset()
        fresh = nn.StackStepper(layers, rows)
        for x in rng.normal(size=(5, rows, 6)):
            np.testing.assert_array_equal(stepper.step(x), fresh.step(x))


class TestGateMajorScan:
    """The gate-major kernel against the row-major reference scan: the
    GEMMs are the same calls and every elementwise product is formed
    from the same operands in the same order, so results are equal to
    the bit."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 32, 128])
    @pytest.mark.parametrize("hidden", [[5], [6, 3]])
    @pytest.mark.parametrize("with_init", [False, True])
    @pytest.mark.parametrize("with_masks", [False, True])
    def test_bit_identical_to_the_row_major_scan(self, rows, hidden,
                                                 with_init, with_masks):
        rng = np.random.default_rng(rows * 31 + len(hidden))
        layers, size = [], 4
        for hs in hidden:
            layers.append(random_cell(size, hs, rng))
            size = hs
        xs = rng.normal(size=(7, rows, 4))
        init = [(rng.normal(size=(rows, hs)), rng.normal(size=(rows, hs)))
                for hs in hidden] if with_init else None
        masks = [nn.dropout_mask((rows, hs), 0.5, rng)
                 for hs in hidden] if with_masks else None

        # the kernel's backward spends the scan input and dstream, so it
        # gets copies of both
        stream, caches, finals = nn.stack_forward(layers, xs.copy(), init,
                                                  masks)
        ref_stream, ref_caches, ref_finals = reference_forward(
            layers, xs, init, masks)
        np.testing.assert_array_equal(stream, ref_stream)
        for (h, c), (ref_h, ref_c) in zip(finals, ref_finals):
            np.testing.assert_array_equal(h, ref_h)
            np.testing.assert_array_equal(c, ref_c)

        dstream = rng.normal(size=stream.shape)
        grads, dxs = nn.stack_backward(layers, caches, dstream.copy())
        ref_grads, ref_dxs = reference_backward(layers, ref_caches, dstream)
        for got, want in zip(grads, ref_grads):
            assert set(got) == {"w", "b"}
            for name in ("w", "b"):
                np.testing.assert_array_equal(got[name], want[name])
        np.testing.assert_array_equal(dxs, ref_dxs)

    def test_cache_holds_each_steps_gates_gate_major(self):
        rng = np.random.default_rng(25)
        layers = [random_cell(4, 3, rng)]
        xs = rng.normal(size=(5, 2, 4))
        _, [cache], _ = nn.stack_forward(layers, xs)
        _, [ref_cache], _ = reference_forward(layers, xs)
        ref_gates = ref_cache[1]
        for s in range(5):
            np.testing.assert_array_equal(
                cache.gates[s].reshape(4, 2, 3),
                ref_gates[s].reshape(2, 4, 3).transpose(1, 0, 2))

    def test_init_states_are_not_written(self):
        rng = np.random.default_rng(26)
        layers = [random_cell(3, 4, rng), random_cell(4, 2, rng)]
        init = [(rng.normal(size=(2, 4)), rng.normal(size=(2, 4))),
                (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))]
        before = [(h.copy(), c.copy()) for h, c in init]
        nn.stack_forward(layers, rng.normal(size=(3, 2, 3)), init)
        for (h, c), (h_was, c_was) in zip(init, before):
            np.testing.assert_array_equal(h, h_was)
            np.testing.assert_array_equal(c, c_was)


class TestWorkspace:

    def test_a_key_keeps_its_array_while_the_shape_matches(self):
        ws = nn.Workspace()
        a = ws.empty("x", (2, 3))
        assert ws.empty("x", (2, 3)) is a
        b = ws.empty("x", (3, 2))
        assert b is not a and b.shape == (3, 2)
        assert ws.empty(("x", 1), (2, 3)) is not b

    def test_scopes_keep_equal_keys_apart(self):
        ws = nn.Workspace()
        a = ws.scope("time").empty("gates", (4,))
        b = ws.scope("note").empty("gates", (4,))
        assert ws.scope("time").empty("gates", (4,)) is a
        assert not np.shares_memory(a, b)
        assert len(list(ws.arrays())) == 2

    def test_views_are_kept_until_an_array_they_view_is_replaced(self):
        ws = nn.Workspace()
        built = []

        def build(*arrays):
            built.append(arrays)
            return [arr[0] for arr in arrays]

        a, b = ws.empty("a", (2, 3)), ws.empty("b", (3,))
        first = ws.views("v", build, a, b)
        assert ws.views("v", build, ws.empty("a", (2, 3)),
                        ws.empty("b", (3,))) is first
        assert len(built) == 1
        again = ws.views("v", build, ws.empty("a", (4, 3)), b)
        assert again is not first and len(built) == 2
        assert np.shares_memory(again[0], ws.empty("a", (4, 3)))

    @pytest.mark.parametrize("hidden", [[5], [6, 3]])
    @pytest.mark.parametrize("with_init", [False, True])
    def test_scans_at_changing_rows_match_scans_without_one(
            self, hidden, with_init):
        """3, then 1, then 3 rows on one workspace: each change of rows
        replaces the scan's buffers, so the views over them are built
        again, and every pass equals the scan on a fresh workspace to
        the bit."""
        rng = np.random.default_rng(44 + len(hidden))
        layers, size = [], 4
        for hs in hidden:
            layers.append(random_cell(size, hs, rng))
            size = hs
        ws = nn.Workspace()
        for rows in (3, 1, 3):
            xs = rng.normal(size=(6, rows, 4))
            init = [(rng.normal(size=(rows, hs)),
                     rng.normal(size=(rows, hs)))
                    for hs in hidden] if with_init else None
            stream, caches, finals = nn.stack_forward(layers, xs, init,
                                                      ws=ws)
            want, want_caches, want_finals = nn.stack_forward(layers, xs,
                                                              init)
            np.testing.assert_array_equal(stream, want)
            for (h, c), (want_h, want_c) in zip(finals, want_finals):
                np.testing.assert_array_equal(h, want_h)
                np.testing.assert_array_equal(c, want_c)
            for cache, want_cache in zip(caches, want_caches):
                np.testing.assert_array_equal(cache.gates, want_cache.gates)
                np.testing.assert_array_equal(cache.c[1:], want_cache.c[1:])
                np.testing.assert_array_equal(cache.out, want_cache.out)

    def test_a_second_pass_reuses_the_scans_views(self, monkeypatch):
        """Each layer's per-step views are built on the first pass; a
        second pass of the same shapes steps the very same view tuples,
        and a pass on a fresh workspace builds its own."""
        built, stepped = [], []
        scan_views, cell_update = nn._scan_views, nn._cell_update

        def record_build(*arrays):
            built.append(arrays)
            return scan_views(*arrays)

        def record_step(cell, c_prev):
            stepped.append(cell)
            return cell_update(cell, c_prev)

        monkeypatch.setattr(nn, "_scan_views", record_build)
        monkeypatch.setattr(nn, "_cell_update", record_step)
        rng = np.random.default_rng(46)
        layers = [random_cell(4, 5, rng), random_cell(5, 3, rng)]
        ws = nn.Workspace()
        nn.stack_forward(layers, rng.normal(size=(6, 2, 4)), ws=ws)
        first, stepped[:] = list(stepped), []
        assert len(built) == 2 and len(first) == 12
        nn.stack_forward(layers, rng.normal(size=(6, 2, 4)), ws=ws)
        assert len(built) == 2 and len(stepped) == 12
        assert all(a is b for a, b in zip(stepped, first))
        stepped[:] = []
        nn.stack_forward(layers, rng.normal(size=(6, 2, 4)))
        assert len(built) == 4 and len(stepped) == 12
        assert not any(a is b for a, b in zip(stepped, first))

    @pytest.mark.parametrize("rows", [1, 36])
    @pytest.mark.parametrize("hidden", [[5], [6, 3]])
    def test_steps_chained_on_one_workspace_match_fresh_ones(self, rows,
                                                            hidden):
        """stack_step on one workspace, each step fed the previous
        step's finals, which are views into that workspace, as generate
        steps its time axis: every step equals the same step on a fresh
        workspace from copies of the states, to the bit."""
        rng = np.random.default_rng(48 + rows + len(hidden))
        layers, size = [], 4
        for hs in hidden:
            layers.append(random_cell(size, hs, rng))
            size = hs
        ws = nn.Workspace()
        states = [(rng.normal(size=(rows, hs)), rng.normal(size=(rows, hs)))
                  for hs in hidden]
        for x in rng.normal(size=(5, rows, 4)):
            copies = [(h.copy(), c.copy()) for h, c in states]
            want, want_states = nn.stack_step(layers, x, copies,
                                              nn.Workspace())
            got, states = nn.stack_step(layers, x, states, ws)
            np.testing.assert_array_equal(got, want)
            for (h, c), (want_h, want_c) in zip(states, want_states):
                np.testing.assert_array_equal(h, want_h)
                np.testing.assert_array_equal(c, want_c)
                assert any(np.shares_memory(h, kept) for kept in ws.arrays())

    @pytest.mark.parametrize("hidden", [[5], [6, 3]])
    @pytest.mark.parametrize("with_init", [False, True])
    @pytest.mark.parametrize("with_masks", [False, True])
    def test_passes_on_one_workspace_match_the_reference(
            self, hidden, with_init, with_masks):
        """Three forward/backward passes on one workspace: each equals
        the reference scan to the bit, reuses the previous pass's gate
        buffers, leaves the init states alone and returns gradient
        blocks that share no memory with the workspace."""
        rng = np.random.default_rng(40 + len(hidden))
        layers, size = [], 4
        for hs in hidden:
            layers.append(random_cell(size, hs, rng))
            size = hs
        ws, held, rows = nn.Workspace(), None, 3
        for _ in range(3):
            xs = rng.normal(size=(6, rows, 4))
            init = [(rng.normal(size=(rows, hs)),
                     rng.normal(size=(rows, hs)))
                    for hs in hidden] if with_init else None
            before = None if init is None else [
                (h.copy(), c.copy()) for h, c in init]
            masks = [nn.dropout_mask((rows, hs), 0.5, rng)
                     for hs in hidden] if with_masks else None
            # a workspace backward spends the scan input and the
            # dstream it is given, so that pass gets copies of both
            scan_in = xs.copy()
            stream, caches, finals = nn.stack_forward(layers, scan_in,
                                                      init, masks, ws=ws)
            ref_stream, ref_caches, ref_finals = reference_forward(
                layers, xs, init, masks)
            np.testing.assert_array_equal(stream, ref_stream)
            for (h, c), (ref_h, ref_c) in zip(finals, ref_finals):
                np.testing.assert_array_equal(h, ref_h)
                np.testing.assert_array_equal(c, ref_c)
            if held is not None:
                for cache, gates in zip(caches, held):
                    assert np.shares_memory(cache.gates, gates)
            held = [cache.gates for cache in caches]

            dstream = rng.normal(size=stream.shape)
            grads, dxs = nn.stack_backward(layers, caches, dstream.copy(),
                                           ws=ws)
            ref_grads, ref_dxs = reference_backward(layers, ref_caches,
                                                    dstream)
            for got, want in zip(grads, ref_grads):
                for name in ("w", "b"):
                    np.testing.assert_array_equal(got[name], want[name])
            np.testing.assert_array_equal(dxs, ref_dxs)
            assert np.shares_memory(dxs, scan_in)
            for got in grads:
                for arr in got.values():
                    assert not any(np.shares_memory(arr, kept)
                                   for kept in ws.arrays())
            if init is not None:
                for (h, c), (h_was, c_was) in zip(init, before):
                    np.testing.assert_array_equal(h, h_was)
                    np.testing.assert_array_equal(c, c_was)


class TestAdadelta:
    def test_first_step_closed_form(self):
        rho, eps = 0.95, 1e-6
        param = np.array([2.0])
        opt = nn.Adadelta(rho=rho, eps=eps)
        opt.step({"p": param}, {"p": np.array([0.5])})
        expected_avg = (1 - rho) * 0.25
        expected_delta = -math.sqrt(eps) / math.sqrt(expected_avg + eps) * 0.5
        avg_sq_grad, _ = opt.states["p"]
        assert avg_sq_grad[0] == pytest.approx(expected_avg, abs=1e-18)
        assert param[0] == pytest.approx(2.0 + expected_delta, abs=1e-15)

    def test_matches_scalar_simulation_on_quadratic(self):
        # f(x) = x^2 from x = 5; replay the same recurrences in plain
        # Python floats and require the trajectories to coincide
        param = np.array([5.0])
        x, eg, ed = 5.0, 0.0, 0.0
        rho, eps = 0.95, 1e-6
        opt = nn.Adadelta(rho=rho, eps=eps)
        history = []
        for _ in range(100):
            opt.step({"x": param}, {"x": np.array([2.0 * param[0]])})
            g = 2.0 * x
            eg = rho * eg + (1 - rho) * g * g
            delta = -math.sqrt(ed + eps) / math.sqrt(eg + eps) * g
            ed = rho * ed + (1 - rho) * delta * delta
            x = x + delta
            assert param[0] == pytest.approx(x, abs=1e-12)
            history.append(abs(x))
        for a, b in zip(history[5:], history[6:]):
            assert b < a

    def test_zero_gradient_is_fixed_point_for_param(self):
        param = np.array([1.0, -2.0])
        opt = nn.Adadelta()
        opt.states["p"] = (np.array([0.4, 0.1]), np.array([0.2, 0.3]))
        before = param.copy()
        opt.step({"p": param}, {"p": np.zeros(2)})
        np.testing.assert_array_equal(param, before)
        np.testing.assert_allclose(opt.states["p"][0], [0.38, 0.095],
                                   rtol=0, atol=1e-16)

    def test_non_finite_gradient_rejected(self):
        param = np.array([1.0])
        opt = nn.Adadelta()
        opt.states["p"] = (np.zeros(1), np.zeros(1))
        with pytest.raises(nn.NonFiniteGradientError):
            opt.step({"p": param}, {"p": np.array([np.nan])})
        assert param[0] == 1.0
        assert opt.states["p"][0][0] == 0.0 and opt.states["p"][1][0] == 0.0

    def test_optimizer_step_is_all_or_nothing(self):
        params = {"a": np.ones(3), "b": np.full(3, 2.0)}
        opt = nn.Adadelta()
        opt.step(params, {"a": np.full(3, 0.5), "b": np.full(3, -0.5)})
        params_before = {k: v.copy() for k, v in params.items()}
        states_before = {k: (avg_g.copy(), avg_d.copy())
                         for k, (avg_g, avg_d) in opt.states.items()}
        with pytest.raises(nn.NonFiniteGradientError, match="b"):
            opt.step(params, {"a": np.ones(3),
                              "b": np.array([1.0, np.nan, 1.0])})
        for name, value in params_before.items():
            np.testing.assert_array_equal(params[name], value)
        for name, (avg_g, avg_d) in states_before.items():
            np.testing.assert_array_equal(opt.states[name][0], avg_g)
            np.testing.assert_array_equal(opt.states[name][1], avg_d)
        # a rejected first step creates no state either
        fresh = nn.Adadelta()
        with pytest.raises(nn.NonFiniteGradientError):
            fresh.step(params, {"a": np.ones(3),
                                "b": np.array([1.0, 1.0, np.inf])})
        assert fresh.states == {}
        for name, value in params_before.items():
            np.testing.assert_array_equal(params[name], value)


class TestDropoutMask:
    def test_keep_prob_one_is_identity(self):
        mask = nn.dropout_mask((3, 4), 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(mask, np.ones((3, 4)))

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(99)
        mask = nn.dropout_mask((1_000_000,), 0.75, rng)
        assert abs(float(mask.mean()) - 1.0) < 0.005
        kept = mask[mask > 0]
        assert np.all(kept == pytest.approx(1.0 / 0.75))

    def test_bad_keep_prob_rejected(self):
        with pytest.raises(ValueError):
            nn.dropout_mask((2,), 0.0, np.random.default_rng(0))


class TestFiniteDifferenceChecker:
    def test_exact_on_quadratic(self):
        arr = np.array([1.0, -2.0, 3.0])
        coef = np.array([0.5, 1.5, -1.0])

        def f():
            return float(np.sum(coef * arr * arr))

        numeric = nn.finite_difference_gradients(f, {"arr": arr})
        np.testing.assert_allclose(numeric["arr"], 2.0 * coef * arr,
                                   rtol=1e-8, atol=1e-8)
