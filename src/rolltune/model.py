"""The two-axis recurrent model over piano rolls.

One LSTM stack scans time with every note as an independent row (tied
weights), a second stack scans the note axis at each step so the joint
distribution over a column factorizes note by note, conditioned on the
pairs already decided below. Logits at step t predict the column at
t + 1; training feeds the ground-truth next column back along the note
axis (teacher forcing) while generation feeds back its own samples.

All heavy passes batch their rows: the time scan runs batch*notes rows
in parallel and the note scan batch*steps rows, so the per-step work is
a handful of large matrix products.

backward() is the one gradient path through both stacks, from d(logits)
and the two passes' caches; training and the melody tuner share it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .features import (BEAT_PERIOD, FEATURE_WIDTH, expand_batch,
                       expand_columns)
from .midiio import NoteStateMatrix


@dataclass
class BiaxialParams:
    """Weights for both stacks and the two-unit output projection."""

    timewise: list
    notewise: list
    proj_w: np.ndarray   # (2, notewise top hidden)
    proj_b: np.ndarray   # (2,)

    def validate(self):
        for stack in (self.timewise, self.notewise):
            if not stack:
                raise ValueError("a stack has no layers")
            for layer in stack:
                layer.validate()
            for below, above in zip(stack, stack[1:]):
                if above.input_size != below.hidden_size:
                    raise ValueError("stack layer sizes do not chain")
        expected = self.timewise[-1].hidden_size + 2
        if self.notewise[0].input_size != expected:
            raise ValueError(
                f"notewise layer 0 consumes {self.notewise[0].input_size} "
                f"inputs, expected timewise top hidden + 2 = {expected}")
        if self.proj_w.shape != (2, self.notewise[-1].hidden_size):
            raise ValueError("projection shape does not match top hidden")
        if self.proj_b.shape != (2,):
            raise ValueError("projection bias must have shape (2,)")

    def copy(self):
        return BiaxialParams(
            [lay.copy() for lay in self.timewise],
            [lay.copy() for lay in self.notewise],
            self.proj_w.copy(), self.proj_b.copy())


def init_biaxial_params(timewise_hidden, notewise_hidden,
                        rng) -> BiaxialParams:
    timewise, notewise = [], []
    size = FEATURE_WIDTH
    for hidden in timewise_hidden:
        timewise.append(nn.LstmCellParams.fresh(size, hidden, rng))
        size = hidden
    size = timewise_hidden[-1] + 2
    for hidden in notewise_hidden:
        notewise.append(nn.LstmCellParams.fresh(size, hidden, rng))
        size = hidden
    bound = 1.0 / np.sqrt(notewise_hidden[-1])
    proj_w = rng.uniform(-bound, bound, size=(2, notewise_hidden[-1]))
    params = BiaxialParams(timewise, notewise, proj_w, np.zeros(2))
    params.validate()
    return params


def param_arrays(params: BiaxialParams) -> dict:
    """Stable name -> array view of every trainable tensor: each cell's
    packed <stack>/<i>/w and <stack>/<i>/b, then proj/w and proj/b."""
    out = {}
    for stack_name, stack in (("timewise", params.timewise),
                              ("notewise", params.notewise)):
        for i, layer in enumerate(stack):
            out[f"{stack_name}/{i}/w"] = layer.w
            out[f"{stack_name}/{i}/b"] = layer.b
    out["proj/w"] = params.proj_w
    out["proj/b"] = params.proj_b
    return out


def params_from_arrays(arrays: dict) -> BiaxialParams:
    """Rebuild parameters from named arrays (checkpoint restore), copied
    to float64: the inverse of param_arrays. A stack's layers are
    <stack>/0/ .. <stack>/L-1/, each cell its packed w and b, and a
    section under a stack that no layer reads is refused."""
    read = set()

    def section(key):
        if key not in arrays:
            raise ValueError(f"checkpoint is missing {key}")
        read.add(key)
        return np.array(arrays[key], dtype=np.float64)

    def build_stack(name):
        layers = []
        while any(key.startswith(f"{name}/{len(layers)}/") for key in arrays):
            prefix = f"{name}/{len(layers)}/"
            layers.append(nn.LstmCellParams(section(prefix + "w"),
                                            section(prefix + "b")))
        return layers

    params = BiaxialParams(build_stack("timewise"), build_stack("notewise"),
                           section("proj/w"), section("proj/b"))
    for key in arrays:
        if key.startswith(("timewise/", "notewise/")) and key not in read:
            raise ValueError(f"no layer reads checkpoint section {key}")
    params.validate()
    return params


def timewise_pass(feats: np.ndarray, layers, keep_masks=None, ws=None,
                  top=None):
    """Scan the time axis. feats (B, N, T, F) -> (B, N, T, H_top).

    Notes never interact here; permuting them permutes outputs. feats
    laid out time-major in memory, as expand_batch returns them, are
    scanned in place. The returned array is a view of the top stream.
    top, when given, is the (T, B*N, H_top) memory the top stream is
    written into (see nn.stack_forward's out); the view then reads
    top's memory and is valid only until the note scan writes its gates.
    """
    ws = nn.Workspace() if ws is None else ws
    b, n, t, f = feats.shape
    xs = np.ascontiguousarray(
        feats.transpose(2, 0, 1, 3)).reshape(t, b * n, f)
    stream, caches, _ = nn.stack_forward(layers, xs, keep_masks=keep_masks,
                                         ws=ws.scope("timewise"), out=top)
    return stream.reshape(t, b, n, -1).transpose(1, 2, 0, 3), caches


def _time_top_in_note_gates(ws, params: BiaxialParams, b, n, t):
    """Memory for the time stack's top stream (T, B*N, H_top) during a
    training pass: the first floats of the note scan's layer-0 gate
    buffer, which the note scan writes only after notewise_pass has
    copied that stream into the note scan's input. None, for an array
    of the time scan's own, when it does not fit there (4 * the note
    stack's layer-0 hidden size < H_top)."""
    hidden, note_hidden = (params.timewise[-1].hidden_size,
                           params.notewise[0].hidden_size)
    if 4 * note_hidden < hidden:
        return None
    # the array nn.stack_forward projects the note scan's layer 0 into
    gates = ws.scope("notewise").empty(("gates", 0),
                                       (n, b * t, 4 * note_hidden))
    size = t * b * n * hidden
    # kept as one view object, so the time scan keeps its step views
    return ws.views(("time_top", t, b * n, hidden),
                    lambda g: g.reshape(-1)[:size].reshape(t, b * n, hidden),
                    gates)


def _to_note_major(tensor: np.ndarray) -> np.ndarray:
    """(B, N, T, X) -> (N, B*T, X) for the note-axis scan."""
    b, n, t, x = tensor.shape
    return np.ascontiguousarray(
        tensor.transpose(1, 0, 2, 3)).reshape(n, b * t, x)


def _from_note_major(tensor: np.ndarray, b: int) -> np.ndarray:
    """(N, B*T, X) -> (B, N, T, X)."""
    n, bt, x = tensor.shape
    return tensor.reshape(n, b, bt // b, x).transpose(1, 0, 2, 3)


def teacher_feedback(targets: np.ndarray) -> np.ndarray:
    """Pair fed to note n at step t: the ground-truth pair of note n-1
    in the predicted column (t + 1). Zeros at note 0 and the last step."""
    fb = np.zeros_like(targets, dtype=np.float64)
    fb[:, 1:, :-1] = targets[:, :-1, 1:]
    return fb


def sample_pairs(logits: np.ndarray, rng) -> np.ndarray:
    """Draw (play, articulate) Bernoulli pairs from logits (..., 2).

    A pair that comes out (0, 1) is forced to (0, 0): a silent note
    cannot be articulated. Two uniforms are always consumed per note so
    the random stream does not depend on the draws themselves.
    """
    u = rng.random(logits.shape)
    pairs = (u < nn.sigmoid(logits)).astype(np.float64)
    pairs[..., 1] *= pairs[..., 0]
    return pairs


def notewise_pass(timewise_out: np.ndarray, params: BiaxialParams,
                  targets: np.ndarray, keep_masks=None, ws=None):
    """Scan the note axis on top of the time scan's output, teacher-forced:
    each note's feedback pair is the next column's pair of the note below
    it in targets (B, N, T, 2), as teacher_feedback builds it.

    Returns (logits, caches, stream): logits (B, N, T, 2), the scan's
    stack_forward caches, which backward reads, and its top stream
    (N, B*T, H_top), the top cache's output stream. The scan input,
    each note's time output followed by its feedback pair, is copied
    note-major into one (N, B*T, H+2) array.
    """
    ws = nn.Workspace() if ws is None else ws
    b, n, t, hidden = timewise_out.shape
    xs = ws.empty("note_inputs", (n, b * t, hidden + 2))
    by_song = _from_note_major(xs, b)
    by_song[..., :hidden] = timewise_out
    by_song[..., hidden:] = teacher_feedback(targets)
    stream, caches, _ = nn.stack_forward(params.notewise, xs,
                                         keep_masks=keep_masks,
                                         ws=ws.scope("notewise"))
    logits = stream @ params.proj_w.T + params.proj_b
    return _from_note_major(logits, b), caches, stream


def _sample_note_scan(params: BiaxialParams, xs: np.ndarray, rng,
                      stepper, prev_play: np.ndarray):
    """Run the note scan sequentially, sampling each note's pair and
    feeding it to the next: generate's note axis. xs (N, R, H + 2) holds
    the time scan's output in its first H columns; the last two of xs[n]
    are filled with the pair emitted at note n-1 (zeros at note 0), so xs
    ends up the scan's realized input. Each note is one step of stepper,
    an nn.StackStepper over params.notewise with R rows, reset here to
    its zero state, so a caller that scans again keeps its buffers.

    prev_play (N, R) holds each note's play bit in the column before. A
    note that sounds out of silence is an onset, so it must articulate:
    where prev_play is clear the articulation logit is +inf, which every
    uniform draw falls below, and the pair comes out (1, 1) or (0, 0).
    Each note still takes two uniforms, and the note above reads the
    pair as emitted. Returns the samples (N, R, 2)."""
    n, r, _ = xs.shape
    stepper.reset()
    proj_t, proj_b = params.proj_w.T, params.proj_b
    biases = np.where(prev_play[..., None], proj_b, (proj_b[0], np.inf))
    logits = np.empty((r, 2))
    samples = np.zeros((n, r, 2))
    prev = 0.0
    for x, sample, bias in zip(xs, samples, biases):
        x[:, -2:] = prev
        np.matmul(stepper.step(x), proj_t, logits)
        logits += bias
        prev = sample[...] = sample_pairs(logits, rng)
    return samples


def cell_log_likelihood(logits, targets):
    """Log-likelihood of each (play, articulate) cell of targets under
    logits (..., 2), broadcast together, and its derivative by the logit;
    an articulation cell is zero unless its target play bit is 1."""
    targets = np.asarray(targets, dtype=np.float64)
    ll = -(np.maximum(logits, 0.0) - logits * targets
           + np.log1p(np.exp(-np.abs(logits))))
    # written -(sigma - t) so the loss's gradient is sigma - t to the bit
    dll = -(nn.sigmoid(logits) - targets)
    for cells in (ll, dll):
        cells[..., 1] *= targets[..., 0]
    return ll, dll


def loss(logits: np.ndarray, batch: np.ndarray):
    """Masked sigmoid cross-entropy against the next step's column.

    logits and batch are (B, N, T, 2); logits at t are scored against
    the batch at t + 1, so the last step's logits go unused.
    Articulation terms are dropped wherever the target play bit is 0.
    Returns (mean loss per cell, log-likelihood per step).
    """
    return loss_with_gradient(logits, batch)[:2]


def loss_with_gradient(logits, batch):
    """loss() plus d(loss)/d(logits), zero at the final step and at
    masked articulation cells."""
    ll, dll = cell_log_likelihood(logits[:, :, :-1], batch[:, :, 1:])
    denom, total = ll[..., 0].size, -float(ll.sum())
    dlogits = np.zeros_like(logits)
    np.divide(dll, -denom, out=dlogits[:, :, :-1])
    return total / denom, -total / (denom / logits.shape[1]), dlogits


def loss_gradients(params: BiaxialParams, batch: np.ndarray, note_low: int,
                   rng=None, keep_prob=1.0, ws=None):
    """One full forward/backward pass over a batch of rolls (B, N, T, 2).

    Returns (loss value, log-likelihood per step, grads dict keyed like
    param_arrays). Dropout masks, when active, are drawn once here and
    shared by forward and backward. The passes run on ws (see
    nn.Workspace).
    """
    ws = nn.Workspace() if ws is None else ws
    b, n, t, _ = batch.shape
    masks_t = masks_n = None
    if keep_prob < 1.0:
        if rng is None:
            raise ValueError("dropout requires an rng")
        masks_t = [nn.dropout_mask((b * n, lay.hidden_size), keep_prob, rng)
                   for lay in params.timewise]
        masks_n = [nn.dropout_mask((b * t, lay.hidden_size), keep_prob, rng)
                   for lay in params.notewise]
    feats = expand_batch(batch, note_low, ws)
    timewise_out, caches_t = timewise_pass(
        feats, params.timewise, masks_t, ws,
        top=_time_top_in_note_gates(ws, params, b, n, t))
    logits, caches_n, _ = notewise_pass(
        timewise_out, params, np.asarray(batch, dtype=np.float64),
        keep_masks=masks_n, ws=ws)
    value, loglik, dlogits = loss_with_gradient(logits, batch)
    return value, loglik, backward(params, caches_t, caches_n, dlogits, ws)


def backward(params: BiaxialParams, caches_t, caches_n,
             dlogits: np.ndarray, ws=None) -> dict:
    """Gradients keyed like param_arrays, given d(logits) (B, N, T, 2)
    and the caches of a timewise and a notewise pass, which it spends
    (see nn.Workspace). The time scan's input is the fixed features, so
    its gradient is skipped. The note stack's top gradient is written
    over its top output stream once the proj/w gradient has read it,
    and the time stack's top gradient is gathered into the time stack's
    top output stream, which a training pass places in the note scan's
    layer-0 gate buffer, spent once the note stack's backward returns."""
    ws = nn.Workspace() if ws is None else ws
    b, n, t, _ = dlogits.shape
    dlogits = _to_note_major(dlogits)
    d_top = caches_n[-1].out
    grads = {"proj/w": np.einsum("nrk,nrh->kh", dlogits, d_top),
             "proj/b": dlogits.sum(axis=(0, 1))}
    np.matmul(dlogits, params.proj_w, out=d_top)
    grads_note, dxs = nn.stack_backward(params.notewise, caches_n, d_top,
                                        ws=ws.scope("notewise"))
    hidden_top = params.timewise[-1].hidden_size
    d_tw = caches_t[-1].out
    d_tw.reshape(t, b, n, hidden_top)[...] = dxs[:, :, :hidden_top].reshape(
        n, b, t, hidden_top).transpose(2, 1, 0, 3)
    grads_time, _ = nn.stack_backward(params.timewise, caches_t, d_tw,
                                     input_grad=False,
                                     ws=ws.scope("timewise"))
    for stack_name, stack_grads in (("timewise", grads_time),
                                    ("notewise", grads_note)):
        for i, layer_grads in enumerate(stack_grads):
            for fname, g in layer_grads.items():
                grads[f"{stack_name}/{i}/{fname}"] = g
    return grads


def sample_segments(corpus, segment_len, batch_size, rng):
    """Stack a batch of equally long segments, starts snapped to measure
    boundaries (every BEAT_PERIOD steps) so the beat features stay
    truthful."""
    batch = np.zeros((batch_size, corpus[0].n_notes, segment_len, 2))
    for k in range(batch_size):
        song = corpus[int(rng.integers(len(corpus)))]
        slots = (song.n_steps - segment_len) // BEAT_PERIOD + 1
        start = BEAT_PERIOD * int(rng.integers(slots))
        batch[k] = song.data[:, start:start + segment_len]
    return batch


def train(corpus, cfg, rng):
    """Fit the model on a list of NoteStateMatrix scores.

    Songs shorter than the segment length are skipped with a warning;
    if nothing remains this is an error. Returns (params, history) with
    one (iteration, loss, log-likelihood per step) row per iteration.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    for m in corpus:
        if m.n_notes != cfg.n_notes or m.note_low != cfg.note_low:
            raise ValueError("corpus note range does not match config")
    usable = []
    for i, m in enumerate(corpus):
        if m.n_steps < cfg.segment_len:
            warnings.warn(f"corpus item {i} has {m.n_steps} steps, "
                          f"shorter than segment_len {cfg.segment_len}; "
                          f"skipped")
        else:
            usable.append(m)
    if not usable:
        raise ValueError("every corpus item is shorter than segment_len")

    params = init_biaxial_params(cfg.timewise_hidden, cfg.notewise_hidden,
                                 rng)
    opt = nn.Adadelta(rho=cfg.adadelta_rho, eps=cfg.adadelta_eps,
                      lr=cfg.learning_rate)
    arrays = param_arrays(params)
    ws = nn.Workspace()
    history = []
    for it in range(cfg.iterations):
        batch = sample_segments(usable, cfg.segment_len, cfg.batch_size, rng)
        value, loglik, grads = loss_gradients(
            params, batch, cfg.note_low, rng=rng, keep_prob=cfg.keep_prob,
            ws=ws)
        try:
            opt.step(arrays, grads)
        except nn.NonFiniteGradientError as exc:
            raise nn.NonFiniteGradientError(f"iteration {it}: {exc}") from exc
        history.append((it, value, loglik))
    return params, history


def generate(params: BiaxialParams, cfg, steps: int, rng) -> NoteStateMatrix:
    """Free-run the model one step at a time.

    One silent column, sitting just before position 0 so the first
    generated column lands on a measure boundary, opens the time scan.
    Each sampled column is fed back as the next input; every column's
    note scan steps the same nn.StackStepper and articulates every note
    that sounds out of silence (see _sample_note_scan). No dropout is
    active here. The time axis steps on one nn.Workspace per call.
    """
    n = cfg.n_notes
    ws, states = nn.Workspace(), None
    col = np.zeros((n, 2), dtype=np.uint8)
    out = np.zeros((n, steps, 2), dtype=np.uint8)
    # the note scan over one step, its feedback pairs filled as sampled
    xs = np.zeros((n, 1, params.timewise[-1].hidden_size + 2))
    stepper = nn.StackStepper(params.notewise, 1)
    for j in range(steps):
        feats = expand_columns(col[None], cfg.note_low, np.array([j - 1]),
                               ws)[0]
        top, states = nn.stack_step(params.timewise, feats, states, ws)
        xs[:, 0, :-2] = top
        col = _sample_note_scan(params, xs, rng, stepper,
                                col[:, :1] > 0)[:, 0].astype(np.uint8)
        out[:, j] = col
    return NoteStateMatrix(out, cfg.note_low, BEAT_PERIOD)
