"""Dense numerics for the recurrent stacks.

Everything here operates on plain numpy float64 arrays, stored row-major.
There is one LSTM kernel: stack_forward scans a stack of cells with one
input projection per layer and one sigmoid call per step, stack_backward
backpropagates through that scan, and stack_step is the scan at length
1. Adadelta and the finite-difference checker are written out
explicitly so that every gradient the package relies on can be verified
against an independent numerical oracle.

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
    matrix products keep their row-major (R, 4H) operands.
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
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
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


def stack_step(layers, x, states, keep_masks=None):
    """Advance a stack one step: stack_forward over a scan of length 1.

    x is (rows, D) and states a list of (h, c) pairs, one per layer.
    Returns the top output (after any dropout mask) and the new state
    list. Masks apply to the stream passed upward, not to the recurrent
    path.
    """
    stream, _, finals = stack_forward(layers, x[None], states, keep_masks)
    return stream[0], finals


@dataclass
class _LayerCache:
    inputs: np.ndarray      # (S, R, D) stream entering the layer
    gates: np.ndarray       # (S, R, 4H) memory; step s holds its activated
                            # gates gate-major, read as (4, R, H): i, f, o, g
    c: np.ndarray           # (S, R, H)
    h: np.ndarray           # (S, R, H)
    h0: np.ndarray          # (R, H) state before the first step
    c0: np.ndarray
    mask: np.ndarray | None


def stack_forward(layers, xs, init_states=None, keep_masks=None):
    """Run a stack over a whole scan.

    xs has shape (S, R, D): S steps of R parallel rows. init_states, a
    list of (h, c) pairs of shape (R, H), is read and never written.
    Returns the top stream (S, R, H_top), a cache for stack_backward,
    and the final (h, c) list, which are views of the cache's last step.

    Inputs are projected in one matrix product per layer into a
    row-major (S, R, 4H) gates buffer. Each step adds the recurrent
    product h_prev @ wh.T to its (R, 4H) block and copies the result
    into a (4, R, H) gate-major scratch. One sigmoid call activates i, f
    and o and one tanh the candidate g, writing into the step's own
    block read as (4, R, H), which is what the cache keeps. Then
    c = f * c_prev + i * g and h = o * tanh(c) are written straight
    into the cached c and h.
    """
    s_len, rows, _ = xs.shape
    caches, finals = [], []
    stream = xs
    for li, layer in enumerate(layers):
        hs = layer.hidden_size
        wx, wh, b = layer.packed()
        if init_states is None:
            h = c = np.zeros((rows, hs))
        else:
            h, c = init_states[li]
        h0, c0 = h, c
        gates = (stream.reshape(s_len * rows, -1) @ wx.T).reshape(
            s_len, rows, 4 * hs)
        gates += b
        # the same memory twice: step s's pre-activations seen gate-major,
        # and its block reinterpreted as (4, R, H) to hold the activations
        pre = gates.reshape(s_len, rows, 4, hs).transpose(0, 2, 1, 3)
        acts = gates.reshape(s_len, 4, rows, hs)
        c_all = np.empty((s_len, rows, hs))
        h_all = np.empty_like(c_all)
        z = np.empty((4, rows, hs))
        z_sig, z_cand = z[:3], z[3]
        wh_t = wh.T
        for s in range(s_len):
            gates[s] += h @ wh_t
            z[...] = pre[s]
            i, f, o, g = act = acts[s]
            sigmoid(z_sig, out=act[:3])
            np.tanh(z_cand, out=g)
            c = np.multiply(f, c, out=c_all[s])
            c += np.multiply(i, g, out=z_cand)   # tanh above consumed z_cand
            h = np.tanh(c, out=h_all[s])
            h *= o
        mask = None if keep_masks is None else keep_masks[li]
        caches.append(_LayerCache(stream, gates, c_all, h_all, h0, c0, mask))
        finals.append((h, c))
        stream = h_all if mask is None else h_all * mask
    return stream, caches, finals


def stack_backward(layers, caches, dstream, input_grad=True):
    """Backpropagate through a stack_forward scan.

    dstream is the gradient w.r.t. the top stream (S, R, H_top).
    Returns (per-layer grad dicts, dxs) where dxs is the gradient
    w.r.t. the original scan input, or None when input_grad is False
    (its product is then skipped). A layer's dict is keyed like
    GATE_FIELDS and holds row-block views of one packed gradient block.
    """
    grads_out = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        layer, cache = layers[li], caches[li]
        hs, d = layer.hidden_size, layer.input_size
        wx, wh, _ = layer.packed()
        s_len, rows, _ = cache.h.shape
        if cache.mask is not None:
            dstream = dstream * cache.mask
        flat_dz = _gate_gradients(cache, wh, dstream).reshape(
            s_len * rows, 4 * hs)
        h_prev = np.concatenate([cache.h0[None], cache.h[:-1]], axis=0)
        dw = np.empty_like(layer.w)
        dw[:, :d] = flat_dz.T @ cache.inputs.reshape(s_len * rows, d)
        dw[:, d:] = flat_dz.T @ h_prev.reshape(s_len * rows, hs)
        grads_out[li] = gate_views(dw, flat_dz.sum(axis=0), hs)
        if li == 0 and not input_grad:
            return grads_out, None
        dstream = (flat_dz @ wx).reshape(s_len, rows, d)
    return grads_out, dstream


def _gate_gradients(cache, wh, dstream):
    """Gradient (S, R, 4H) w.r.t. one layer's pre-activations, row-major
    like the gates stack_forward projected, given the gradient w.r.t.
    the layer's output stream (S, R, H).

    Each step reads the cached gates as contiguous (4, R, H) slabs and
    builds the i/f/o derivatives in one (3, R, H) scratch. Every product
    is formed in place but equals the plain expression in the comment
    above it bit for bit (float products and sums do not depend on
    operand order, and adding the scalar 0.0 carry of the last step
    equals adding a zero array), so a step allocates at most four
    (R, H) arrays. That matters at 1,152 rows (a 32-state tuner
    update): once the memory an update frees at the top of the heap
    passes glibc's trim threshold, the heap is trimmed and faulted in
    again on every update, which cost up to a fifth of tune throughput
    in the processes where it happened.
    """
    s_len, rows, hs = cache.h.shape
    acts = cache.gates.reshape(s_len, 4, rows, hs)
    dz_all = np.empty((s_len, rows, 4 * hs))
    d_sig = np.empty((3, rows, hs))
    dz_ifo = dz_all.reshape(s_len, rows, 4, hs)[:, :, :3].transpose(
        0, 2, 1, 3)
    dz_cand = dz_all[:, :, 3 * hs:]
    dh_carry = dc_carry = 0.0
    for s in range(s_len - 1, -1, -1):
        i, f, o, g = act = acts[s]
        sig = act[:3]
        c_prev = cache.c[s - 1] if s > 0 else cache.c0
        dh = dstream[s] + dh_carry
        tc = np.tanh(cache.c[s])
        # dc = dc_carry + dh * o * (1 - tc * tc)
        dc = np.multiply(tc, tc)
        np.subtract(1.0, dc, out=dc)
        dc *= np.multiply(dh, o, out=d_sig[0])
        dc += dc_carry
        # dz_ifo = (dc * g, dc * c_prev, dh * tc) * sig * (1 - sig)
        np.multiply(dc, g, out=d_sig[0])
        np.multiply(dc, c_prev, out=d_sig[1])
        np.multiply(dh, tc, out=d_sig[2])
        d_sig *= sig
        d_ifo = np.subtract(1.0, sig, out=dz_ifo[s])
        d_ifo *= d_sig
        # dz_cand = dc * i * (1 - g * g)
        d_g = np.multiply(g, g, out=d_sig[1])
        np.subtract(1.0, d_g, out=d_g)
        np.multiply(np.multiply(dc, i, out=d_sig[0]), d_g, out=dz_cand[s])
        if s:   # step 0 passes nothing further back
            dc_carry = np.multiply(dc, f, out=dc)
            dh_carry = dz_all[s] @ wh
    return dz_all


def dropout_mask(shape, keep_prob, rng, training=True):
    """Binary keep mask scaled by 1/keep_prob (inverted dropout).

    keep_prob is the probability an activation is kept. Outside
    training the mask is all ones so inference sees the full signal.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if not training or keep_prob == 1.0:
        return np.ones(shape)
    return (rng.random(shape) < keep_prob).astype(np.float64) / keep_prob


@dataclass
class AdadeltaState:
    """Running averages for one parameter array."""

    avg_sq_grad: np.ndarray
    avg_sq_delta: np.ndarray

    @classmethod
    def zeros_like(cls, param):
        return cls(np.zeros_like(param), np.zeros_like(param))


def adadelta_update(param, grad, state, rho=0.95, eps=1e-6, lr=1.0):
    """One Adadelta step, in place.

    avg_sq_grad  <- rho * avg_sq_grad  + (1 - rho) * grad^2
    delta        <- -sqrt(avg_sq_delta + eps) / sqrt(avg_sq_grad + eps) * grad
    avg_sq_delta <- rho * avg_sq_delta + (1 - rho) * delta^2
    param        <- param + lr * delta

    Rejects non-finite gradients before touching any state.
    """
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(
            "gradient contains NaN or infinite entries; step rejected")
    state.avg_sq_grad *= rho
    state.avg_sq_grad += (1.0 - rho) * grad * grad
    delta = -np.sqrt(state.avg_sq_delta + eps) / \
        np.sqrt(state.avg_sq_grad + eps) * grad
    state.avg_sq_delta *= rho
    state.avg_sq_delta += (1.0 - rho) * delta * delta
    param += lr * delta
    return param, state


@dataclass
class Adadelta:
    """Adadelta over a named set of parameter arrays."""

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
        for name, grad in grads.items():
            param = params[name]
            if name not in self.states:
                self.states[name] = AdadeltaState.zeros_like(param)
            adadelta_update(param, grad, self.states[name],
                            self.rho, self.eps, self.lr)


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
