"""Dense numerics for the recurrent stacks.

Everything here operates on plain numpy float64 arrays, stored row-major.
There is one LSTM kernel: stack_forward scans a stack of cells with one
input projection per layer and one sigmoid call per step, stack_backward
backpropagates through that scan, and stack_step is the scan at length
1. StackStepper steps a stack, without dropout, through a scan whose
inputs are known only one step at a time (each note of a generated
column), on a length-1 scan's buffers and views, allocated once and
reset between scans; its elementwise update is _cell_update, the same
one stack_forward's step loop calls. Adadelta and the finite-difference
checker are written out explicitly so that every gradient the package
relies on can be verified against an independent numerical oracle.

Conventions:
  * a "stack" is a list of LstmCellParams applied bottom to top,
  * scans run over a leading step axis with a row axis for whatever is
    batched (sequences, notes, transitions),
  * a cell holds one block w (4H, D + H) that multiplies concat(x,
    h_prev) and one bias b (4H,), gates in the order input, forget,
    output, candidate; the per-gate names (w_i, ..., b_c) are row-block
    views of them, so checkpoints, optimizer state and target syncs
    address the memory the kernel reads,
  * the scan's elementwise work is gate-major: each step copies its
    (R, 4H) pre-activation block into one (4, R, H) scratch, so the
    sigmoid over i, f and o, the candidate tanh and the c/h updates run
    on contiguous (R, H) slabs. The activated gates are stored back in
    that step's own memory of the layer cache, read as (4, R, H); the
    matrix products keep their row-major (R, 4H) operands,
  * every pass runs on a Workspace, whose docstring states the one
    memory contract: what a pass keeps, for how long, and what a
    backward pass spends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GATES = ("i", "f", "o", "c")
GATE_FIELDS = tuple(f"w_{g}" for g in GATES) + tuple(f"b_{g}" for g in GATES)


def sigmoid(x, out=None):
    """Logistic function of an array in its tanh form, stable for any
    input: 0.5 * (1 + tanh(x / 2)). With out, the result is written
    there and returned."""
    out = np.multiply(x, 0.5, out)
    np.tanh(out, out)
    out += 1.0
    out *= 0.5
    return out


def log_sigmoid(x):
    """log(sigmoid(x)) without overflow for large negative inputs."""
    tail = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, -tail, x - tail)


def logsumexp(x, axis=None):
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    if axis is None:
        return float(out.item())
    return np.squeeze(out, axis=axis)


def softmax(x, axis=-1):
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


class Workspace:
    """Float64 arrays kept by key, for a run of identically shaped
    passes: each pass writes its arrays over the previous pass's instead
    of allocating them again, so a training or Q-update loop stops
    allocating (and the kernel faulting in) tens of megabytes per
    iteration. This is the package's one memory contract:

      * every pass runs on a workspace. A function given ws=... writes
        its scans, scratch and caches into it, under keys of its own
        choosing; given ws=None it makes a workspace for the call.
        scope(name) gives a child workspace, so two stacks scanned with
        the same code keep apart,
      * an array a pass returns or caches from its workspace is valid
        until the next pass on the same workspace; a caller that keeps
        one longer copies it. Gradient blocks are always fresh arrays,
      * a scan caches no h. Each layer keeps its gates, its c, its
        initial h and one (S, R, H) output stream, which dropout masks
        in place once the layer's scan ends; the backward rebuilds each
        h_prev as o * tanh(c),
      * a backward pass spends what it reads: the caches, the layers'
        output streams, the scan input and the incoming gradient. Every
        gradient stream and rebuilt h_prev is written into memory the
        pass has spent, so none has an array of its own.

    views(key, build, *arrays) keeps what build(*arrays) returns, views
    of those arrays, and returns it again while every one of them is
    still the array under its key here: a key whose shape changes gets
    a new array, and that invalidates the views built over it. A scan
    keeps its per-step views so, because at a few rows building them
    costs as much as the step's arithmetic.
    """

    def __init__(self):
        self._arrays = {}
        self._scopes = {}
        self._views = {}

    def empty(self, key, shape) -> np.ndarray:
        """The array under key, uninitialized; a new one when the key is
        new or its shape differs."""
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape:
            arr = self._arrays[key] = np.empty(shape)
        return arr

    def views(self, key, build, *arrays):
        """build(*arrays), made on first use and again only when one of
        arrays is not the object it was last built from."""
        kept = self._views.get(key)
        if kept is None or any(a is not b for a, b in zip(kept[0], arrays)):
            kept = self._views[key] = (arrays, build(*arrays))
        return kept[1]

    def scope(self, name) -> "Workspace":
        """The child workspace under name, made on first use."""
        child = self._scopes.get(name)
        if child is None:
            child = self._scopes[name] = Workspace()
        return child

    def arrays(self):
        """Every array held here and in the child workspaces."""
        yield from self._arrays.values()
        for child in self._scopes.values():
            yield from child.arrays()


class NonFiniteGradientError(ArithmeticError):
    """Raised when an optimizer receives NaN or infinite gradients."""


def gate_views(w, b, hidden, prefix=""):
    """Name -> row-block view of every gate of a packed (w, b) pair,
    keyed like GATE_FIELDS."""
    views = {}
    for kind, arr in (("w", w), ("b", b)):
        for k, gate in enumerate(GATES):
            views[f"{prefix}{kind}_{gate}"] = arr[k * hidden:(k + 1) * hidden]
    return views


@dataclass
class LstmCellParams:
    """One LSTM cell: w (4H, D + H) multiplies concat(x, h_prev) and b is
    (4H,), with the gate blocks stacked in the order i, f, o, c."""

    input_size: int
    hidden_size: int
    w: np.ndarray
    b: np.ndarray

    @classmethod
    def fresh(cls, input_size, hidden_size, rng):
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases
        except the forget gate bias, which starts at 1.0."""
        fan_in = input_size + hidden_size
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(4 * hidden_size, fan_in))
        b = np.zeros(4 * hidden_size)
        b[hidden_size:2 * hidden_size] = 1.0
        return cls(input_size, hidden_size, w, b)

    @classmethod
    def from_gates(cls, gates: dict):
        """Pack eight per-gate arrays keyed like GATE_FIELDS, as a
        checkpoint stores them, into one cell. Every shape is checked."""
        w_i = np.asarray(gates["w_i"])
        if w_i.ndim != 2:
            raise ValueError(f"w_i has shape {w_i.shape}, "
                             "expected (hidden, input + hidden)")
        hidden, fan_in = w_i.shape
        for name in GATE_FIELDS:
            want = (hidden, fan_in) if name[0] == "w" else (hidden,)
            if np.shape(gates[name]) != want:
                raise ValueError(f"{name} has shape {np.shape(gates[name])}"
                                 f", expected {want}")
        w = np.concatenate([gates[f"w_{g}"] for g in GATES], dtype=np.float64)
        b = np.concatenate([gates[f"b_{g}"] for g in GATES], dtype=np.float64)
        return cls(fan_in - hidden, hidden, w, b)

    def validate(self):
        want = (4 * self.hidden_size, self.input_size + self.hidden_size)
        if self.w.shape != want or self.b.shape != want[:1]:
            raise ValueError(f"packed shapes {self.w.shape}, {self.b.shape}"
                             f" do not match expected {want}, {want[:1]}")

    def packed(self):
        """Views (wx, wh, b) of the packed block: wx (4H, D), wh (4H, H),
        b (4H,). Nothing is copied."""
        d = self.input_size
        return self.w[:, :d], self.w[:, d:], self.b

    def named_arrays(self, prefix=""):
        """(name, view) pairs for the eight GATE_FIELDS arrays."""
        return gate_views(self.w, self.b, self.hidden_size, prefix).items()

    def copy(self):
        return LstmCellParams(self.input_size, self.hidden_size,
                              self.w.copy(), self.b.copy())


def stack_step(layers, x, states, ws=None):
    """Advance a stack one step: stack_forward over a scan of length 1.

    x is (rows, D) and states a list of (h, c) pairs, one per layer, or
    None for the zero state. Returns the top output and the new state
    list, views into ws. The states may be the previous step's on the
    same ws: each layer copies its state into the scan's first slot
    before it steps.
    """
    stream, _, finals = stack_forward(layers, x[None], states, ws=ws)
    return stream[0], finals


@dataclass
class _LayerCache:
    """What stack_backward reads of one layer's scan (see Workspace)."""

    inputs: np.ndarray      # (S, R, D) stream entering the layer
    gates: np.ndarray       # (S, R, 4H) memory; step s holds its activated
                            # gates gate-major, read as (4, R, H): i, f, o, g
    c: np.ndarray           # (S + 1, R, H): slot 0 holds the initial c and
                            # step s writes c[s + 1], so c[s] is its c_prev
    h0: np.ndarray          # (R, H) initial h, step 0's h_prev
    out: np.ndarray         # (S, R, H) output stream: h, or h * mask
    mask: np.ndarray | None


def stack_forward(layers, xs, init_states=None, keep_masks=None, ws=None,
                  out=None):
    """Run a stack over a whole scan.

    xs has shape (S, R, D): S steps of R parallel rows. init_states, a
    list of (h, c) pairs of shape (R, H), is copied into each layer's
    cached initial h and the first slot of its cached c (zeros without
    it) and never written. Returns the top stream (S, R, H_top), a
    cache for stack_backward, and the final (h, c) list, the last
    step's. Every array of the scan is ws's, except that out, when
    given, takes the top layer's output stream.

    Inputs are projected in one matrix product per layer into a
    row-major (S, R, 4H) gates buffer. Each step adds the recurrent
    product h_prev @ wh.T to its (R, 4H) block and copies the result
    into a (4, R, H) gate-major scratch; the product itself is formed
    in that scratch's memory, which the copy then overwrites. One
    sigmoid call activates i, f and o and one tanh the candidate g,
    writing into the step's own block read as (4, R, H), which is what
    the cache keeps. Then c = f * c_prev + i * g is written straight
    into the cached c, after the initial state's slot, and h = o *
    tanh(c) into the layer's output stream. That elementwise part is
    _cell_update, which StackStepper shares. A layer given a mask
    multiplies its whole stream by it once the step loop ends; its
    final h is copied first, so it stays the unmasked recurrent state.
    """
    ws = Workspace() if ws is None else ws
    s_len, rows, _ = xs.shape
    caches, finals = [], []
    stream = xs
    for li, layer in enumerate(layers):
        hs = layer.hidden_size
        wx, wh, b = layer.packed()
        gates = ws.empty(("gates", li), (s_len, rows, 4 * hs))
        np.matmul(stream.reshape(s_len * rows, -1), wx.T,
                  out=gates.reshape(s_len * rows, 4 * hs))
        gates += b
        c_all = ws.empty(("c", li), (s_len + 1, rows, hs))
        h0 = ws.empty(("h0", li), (rows, hs))
        if init_states is None:
            h0[...] = c_all[0] = 0.0
        else:
            h0[...], c_all[0] = init_states[li]
        out_li = (out if out is not None and li == len(layers) - 1
                  else ws.empty(("out", li), (s_len, rows, hs)))
        h, c = h0, c_all[0]
        z = ws.empty(("z", hs), (4, rows, hs))
        rec = z.reshape(rows, 4 * hs)
        wh_t = _recurrent_operand(wh, rows)
        for gate_s, cell in ws.views(("steps", li), _scan_views,
                                     gates, c_all, out_li, z):
            gate_s += np.matmul(h, wh_t, rec)
            c, h = _cell_update(cell, c)
        mask = None if keep_masks is None else keep_masks[li]
        if mask is not None:
            h = h.copy()
            out_li *= mask
        caches.append(_LayerCache(stream, gates, c_all, h0, out_li, mask))
        finals.append((h, c))
        stream = out_li
    return stream, caches, finals


def _recurrent_operand(wh, rows):
    """wh.T as the recurrent product's right operand: a C-contiguous
    copy, which numpy multiplies faster, once the product has two rows
    or more. At one row numpy takes a matrix-vector product whose bits
    differ between the two layouts, so the strided view stays."""
    return wh.T if rows == 1 else np.ascontiguousarray(wh.T)


def _scan_views(gates, c_all, out, z):
    """Per step s of a scan over these buffers: its (R, 4H) gate block
    and the views _cell_update works on: that block read gate-major as
    (4, R, H), the scratch z with its i/f/o and g slices, the block
    reinterpreted as (4, R, H) to hold the activated gates, with their
    i/f/o slice and each gate, and the outputs c_all[s + 1] and out[s]."""
    s_len, rows, four_h = gates.shape
    hs = four_h // 4
    pre = gates.reshape(s_len, rows, 4, hs).transpose(0, 2, 1, 3)
    acts = gates.reshape(s_len, 4, rows, hs)
    scratch = z, z[:3], z[3]
    return [(gate_s, (pre_s, *scratch, act[:3], *act, c_out, h_out))
            for gate_s, pre_s, act, c_out, h_out in zip(
                gates, pre, acts, c_all[1:], out)]


def _cell_update(cell, c_prev):
    """One step's elementwise LSTM update, the one stack_forward and
    StackStepper share, over the views _scan_views built. The
    pre-activations are copied into the scratch z. One sigmoid call
    writes i, f and o and one tanh the candidate g into the activated
    gates. Then c = f * c_prev + i * g goes into the c output, which may
    be c_prev's own memory, and h = o * tanh(c) into the h output, which
    may be the spent h_prev's. Returns (c, h)."""
    pre, z, z_ifo, z_g, ifo, i, f, o, g, c, h = cell
    z[...] = pre
    sigmoid(z_ifo, ifo)
    np.tanh(z_g, g)
    np.multiply(f, c_prev, c)
    c += np.multiply(i, g, z_g)    # the tanh above consumed z_g
    np.tanh(c, h)
    h *= o
    return c, h


class StackStepper:
    """Advance a stack one step at a time through one scan, from a zero
    state, in memory allocated once: each layer keeps the buffers of a
    length-1 scan (gates (1, R, 4H), c (2, R, H), out (1, R, H) and the
    (4, R, H) scratch, which also takes the recurrent product) and the
    one step's views _scan_views builds over them. A step writes its c
    over c[1] and its h over out[0], which hold the layer's state.
    reset() returns it to the zero state, so one stepper serves every
    scan while the weights stay unchanged.

    step(x) takes (R, D) and returns the top output, valid until the
    next step. It equals stack_step on the same input and state bit for
    bit: x @ wx.T, then + b, then + h @ wh.T, with the operands of a
    length-1 scan, then _cell_update. No dropout applies.
    """

    def __init__(self, layers, rows):
        self._layers = []
        for layer in layers:
            hs = layer.hidden_size
            wx, wh, b = layer.packed()
            gates, z = np.empty((1, rows, 4 * hs)), np.empty((4, rows, hs))
            c_all, out = np.zeros((2, rows, hs)), np.zeros((1, rows, hs))
            [(block, cell)] = _scan_views(gates, c_all, out, z)
            self._layers.append((wx.T, _recurrent_operand(wh, rows), b,
                                 block, z.reshape(rows, 4 * hs), cell,
                                 out[0], c_all[1]))

    def reset(self):
        """Zero every layer's h and c, as a new stepper starts."""
        for *_, h, c in self._layers:
            h.fill(0.0)
            c.fill(0.0)

    def step(self, x):
        for wx_t, wh_t, b, block, rec, cell, h, c in self._layers:
            np.matmul(x, wx_t, block)
            block += b
            block += np.matmul(h, wh_t, rec)
            _cell_update(cell, c)
            x = h
        return x


def stack_backward(layers, caches, dstream, input_grad=True, ws=None):
    """Backpropagate through a stack_forward scan.

    dstream is the gradient w.r.t. the top stream (S, R, H_top).
    Returns (per-layer grad dicts, dxs) where dxs is the gradient
    w.r.t. the original scan input, or None when input_grad is False
    (its product is then skipped). A layer's dict is keyed like
    GATE_FIELDS and holds row-block views of one packed gradient block,
    which is always a fresh array.

    The pass spends its operands (see Workspace). Each dropout mask is
    applied to the incoming gradient in place, and _gate_gradients
    leaves the layer's h_prev stream there, which the weight gradient
    then reads. Once that product has read the layer's input, the
    input's gradient is written over it: over the scan input xs at
    layer 0, and over the output stream of the layer below higher up,
    which becomes that layer's incoming gradient.
    """
    ws = Workspace() if ws is None else ws
    grads_out = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        layer, cache = layers[li], caches[li]
        hs, d = layer.hidden_size, layer.input_size
        wx, wh, _ = layer.packed()
        s_len, rows, _ = cache.gates.shape
        if cache.mask is not None:
            np.multiply(dstream, cache.mask, out=dstream)
        flat_dz = _gate_gradients(cache, wh, dstream, ws).reshape(
            s_len * rows, 4 * hs)
        inputs = cache.inputs.reshape(s_len * rows, d)
        dw = np.empty_like(layer.w)
        dw[:, :d] = flat_dz.T @ inputs
        dw[:, d:] = flat_dz.T @ dstream.reshape(s_len * rows, hs)
        grads_out[li] = gate_views(dw, flat_dz.sum(axis=0), hs)
        if li == 0 and not input_grad:
            return grads_out, None
        dstream = np.matmul(flat_dz, wx, out=inputs).reshape(s_len, rows, d)
    return grads_out, dstream


def _gate_gradients(cache, wh, dstream, ws):
    """Gradient (S, R, 4H) w.r.t. one layer's pre-activations, row-major
    like the gates stack_forward projected, given the gradient w.r.t.
    the layer's output stream (S, R, H). It is written over cache.gates,
    step by step once that step's gates are read. Step s also writes its
    h = o * tanh(c), from the tanh its gradient needs, into dstream[s +
    1], which step s + 1 has read already, and dstream[0] takes the
    initial h: dstream leaves holding each step's h_prev. The product o
    * tanh(c) is the forward's, so the rebuilt h equals it bit for bit.

    Each step reads the cached gates as contiguous (4, R, H) slabs and
    builds its gradient gate-major in a (4, R, H) scratch, then copies
    it row-major into place. Every product is formed in place in the
    scratch, and equals the plain expression in the comment above
    it bit for bit (float products and sums do not depend on operand order,
    and adding the scalar 0.0 carry of the last step equals adding a
    zero array).
    """
    dz_all = cache.gates
    s_len, rows, four_h = dz_all.shape
    hs = four_h // 4
    acts = dz_all.reshape(s_len, 4, rows, hs)
    dz_rows = dz_all.reshape(s_len, rows, 4, hs).transpose(0, 2, 1, 3)
    dz = ws.empty(("z", hs), (4, rows, hs))
    d_sig = ws.empty(("d_sig", hs), (3, rows, hs))
    dh, tc, dc, dc_next, dh_next = ws.empty(("dstep", hs), (5, rows, hs))
    dh_carry = dc_carry = 0.0
    h_slot = None   # dstream[s + 1], read by the step before
    # step s, newest first, with c[s + 1] (its c) and c[s] (its c_prev)
    steps = zip(range(s_len - 1, -1, -1), acts[::-1], dstream[::-1],
                cache.c[:0:-1], cache.c[-2::-1], dz_rows[::-1], dz_all[::-1])
    for s, act, dstream_s, c_s, c_prev, dz_row, dz_s in steps:
        i, f, o, g = act
        sig = act[:3]
        np.add(dstream_s, dh_carry, dh)
        np.tanh(c_s, tc)
        if h_slot is not None:  # step s's h, step s + 1's h_prev
            np.multiply(tc, o, h_slot)
        # dc = dc_carry + dh * o * (1 - tc * tc)
        np.multiply(tc, tc, dc)
        np.subtract(1.0, dc, dc)
        dc *= np.multiply(dh, o, d_sig[0])
        dc += dc_carry
        # dz[:3] = (dc * g, dc * c_prev, dh * tc) * sig * (1 - sig)
        np.multiply(dc, g, dz[0])
        np.multiply(dc, c_prev, dz[1])
        np.multiply(dh, tc, dz[2])
        dz[:3] *= sig
        dz[:3] *= np.subtract(1.0, sig, d_sig)
        # dz[3] = dc * i * (1 - g * g)
        d_g = np.multiply(g, g, d_sig[1])
        np.subtract(1.0, d_g, d_g)
        np.multiply(np.multiply(dc, i, d_sig[0]), d_g, dz[3])
        if s:   # step 0 passes nothing further back
            dc_carry = np.multiply(dc, f, dc_next)
        dz_row[...] = dz    # overwrites this step's gates
        if s:
            dh_carry = np.matmul(dz_s, wh, dh_next)
        h_slot = dstream_s
    h_slot[...] = cache.h0
    return dz_all


def dropout_mask(shape, keep_prob, rng):
    """Binary keep mask scaled by 1/keep_prob (inverted dropout).

    keep_prob is the probability an activation is kept; at 1 the mask
    is all ones.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return np.ones(shape)
    return (rng.random(shape) < keep_prob).astype(np.float64) / keep_prob


@dataclass
class Adadelta:
    """Adadelta over a named set of parameter arrays. states maps each
    name to its running averages (avg_sq_grad, avg_sq_delta), updated
    in place with the parameter:

    avg_sq_grad  <- rho * avg_sq_grad  + (1 - rho) * grad^2
    delta        <- -sqrt(avg_sq_delta + eps) / sqrt(avg_sq_grad + eps) * grad
    avg_sq_delta <- rho * avg_sq_delta + (1 - rho) * delta^2
    param        <- param + lr * delta
    """

    rho: float = 0.95
    eps: float = 1e-6
    lr: float = 1.0
    states: dict = field(default_factory=dict)

    def step(self, params: dict, grads: dict):
        """Apply one update to every named array present in grads. A
        non-finite entry in any gradient rejects the whole step before
        any parameter or state is touched."""
        for name, grad in grads.items():
            if not np.all(np.isfinite(grad)):
                raise NonFiniteGradientError(
                    f"gradient {name} contains NaN or infinite entries; "
                    "step rejected")
        rho, eps = self.rho, self.eps
        for name, grad in grads.items():
            param = params[name]
            if name not in self.states:
                self.states[name] = (np.zeros_like(param),
                                     np.zeros_like(param))
            avg_sq_grad, avg_sq_delta = self.states[name]
            avg_sq_grad *= rho
            avg_sq_grad += (1.0 - rho) * grad * grad
            delta = -np.sqrt(avg_sq_delta + eps) / \
                np.sqrt(avg_sq_grad + eps) * grad
            avg_sq_delta *= rho
            avg_sq_delta += (1.0 - rho) * delta * delta
            param += self.lr * delta


def finite_difference_gradients(f, params: dict, eps=1e-5):
    """Central finite differences of a scalar function of named arrays.

    f is called with no arguments and reads the arrays in place; each
    coordinate is perturbed by +-eps. Intended for tests: cost is two
    evaluations per scalar parameter.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = f()
            flat[k] = orig - eps
            lo = f()
            flat[k] = orig
            gflat[k] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def max_relative_error(analytic: dict, numeric: dict, floor=1e-5):
    """Worst-case elementwise relative disagreement between gradient sets.

    The denominator is floored so that coordinates whose true gradient
    is ~0 compare against finite-difference noise on an absolute scale.
    """
    worst = 0.0
    for name in analytic:
        a = analytic[name]
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
