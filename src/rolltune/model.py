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
from .features import FEATURE_WIDTH, expand_batch, expand_columns
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
    """Stable name -> array view of every trainable tensor."""
    out = {}
    for stack_name, stack in (("timewise", params.timewise),
                              ("notewise", params.notewise)):
        for i, layer in enumerate(stack):
            out.update(layer.named_arrays(f"{stack_name}/{i}/"))
    out["proj/w"] = params.proj_w
    out["proj/b"] = params.proj_b
    return out


def params_from_arrays(arrays: dict) -> BiaxialParams:
    """Rebuild parameters from named arrays (checkpoint restore)."""
    def build_stack(prefix):
        indices = sorted({int(name.split("/")[1]) for name in arrays
                          if name.startswith(prefix + "/")})
        stack = []
        for i in indices:
            gates = {}
            for fname in nn.GATE_FIELDS:
                key = f"{prefix}/{i}/{fname}"
                if key not in arrays:
                    raise ValueError(f"checkpoint is missing {key}")
                gates[fname] = arrays[key]
            stack.append(nn.LstmCellParams.from_gates(gates))
        return stack

    for key in ("proj/w", "proj/b"):
        if key not in arrays:
            raise ValueError(f"checkpoint is missing {key}")
    params = BiaxialParams(build_stack("timewise"), build_stack("notewise"),
                           np.array(arrays["proj/w"], dtype=np.float64),
                           np.array(arrays["proj/b"], dtype=np.float64))
    params.validate()
    return params


def timewise_pass(feats: np.ndarray, layers, keep_masks=None, ws=None):
    """Scan the time axis. feats (B, N, T, F) -> (B, N, T, H_top).

    Notes never interact here; permuting them permutes outputs. feats
    laid out time-major in memory, as expand_batch returns them, are
    scanned in place. The top output, after its dropout mask, is written
    in one pass into the first H_top columns of the note scan's input
    array, where notewise_pass on the same workspace finds it; the
    returned (B, N, T, H_top) array is that view.
    """
    ws = nn.Workspace() if ws is None else ws
    b, n, t, f = feats.shape
    xs = np.ascontiguousarray(
        feats.transpose(2, 0, 1, 3)).reshape(t, b * n, f)
    top_mask = None if keep_masks is None else keep_masks[-1]
    below = None if keep_masks is None else [*keep_masks[:-1], None]
    stream, caches, _ = nn.stack_forward(layers, xs, keep_masks=below,
                                         ws=ws.scope("timewise"))
    # masked here rather than by the scan, so the cache still carries
    # the mask stack_backward applies to the top gradient
    caches[-1].mask = top_mask
    hidden = stream.shape[-1]
    out = _note_inputs(ws, b, n, t, hidden)[1][..., :hidden]
    top = stream.reshape(t, b, n, hidden).transpose(1, 2, 0, 3)
    if top_mask is None:
        out[...] = top
    else:
        np.multiply(top, top_mask.reshape(b, n, 1, hidden), out=out)
    return out, caches


def _note_inputs(ws, b, n, t, hidden):
    """The note scan's input (N, B*T, H+2), each note's time output
    followed by its feedback pair, and the same memory by song as
    (B, N, T, H+2)."""
    xs = ws.empty("note_inputs", (n, b * t, hidden + 2))
    return xs, xs.reshape(n, b, t, hidden + 2).transpose(1, 0, 2, 3)


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

    Returns (logits, caches, stream): logits (B, N, T, 2), and the scan's
    stack_forward caches and top stream (N, B*T, H_top), which backward
    reads. The scan input, each note's time output followed by its
    feedback pair, is written note-major into one (N, B*T, H+2) array; a
    timewise_pass output on the same workspace already sits there and is
    not copied.
    """
    ws = nn.Workspace() if ws is None else ws
    b, n, t, hidden = timewise_out.shape
    xs, by_song = _note_inputs(ws, b, n, t, hidden)
    # numpy returns at once when assigning a view to itself
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
    lg = logits[:, :, :-1]
    tg = np.asarray(batch, dtype=np.float64)[:, :, 1:]
    ce = np.maximum(lg, 0.0) - lg * tg + np.log1p(np.exp(-np.abs(lg)))
    mask = np.ones_like(ce)
    mask[..., 1] = tg[..., 0]
    ce = ce * mask
    b, n, t_eff = lg.shape[:3]
    denom = b * n * t_eff
    total = float(ce.sum())
    dlogits = np.zeros_like(logits)
    dlogits[:, :, :-1] = (nn.sigmoid(lg) - tg) * mask / denom
    return total / denom, -total / (denom / n), dlogits


def loss_gradients(params: BiaxialParams, batch: np.ndarray, note_low: int,
                   rng=None, keep_prob=1.0, ws=None):
    """One full forward/backward pass over a batch of rolls (B, N, T, 2).

    Returns (loss value, log-likelihood per step, grads dict keyed like
    param_arrays). Dropout masks, when active, are drawn once here and
    shared by forward and backward. The passes keep their arrays in the
    nn.Workspace ws; the gradients are fresh arrays.
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
    timewise_out, caches_t = timewise_pass(feats, params.timewise, masks_t,
                                           ws)
    logits, caches_n, stream_n = notewise_pass(
        timewise_out, params, np.asarray(batch, dtype=np.float64),
        keep_masks=masks_n, ws=ws)
    value, loglik, dlogits = loss_with_gradient(logits, batch)
    return value, loglik, backward(params, caches_t, caches_n, stream_n,
                                   dlogits, ws)


def backward(params: BiaxialParams, caches_t, caches_n, stream_n,
             dlogits: np.ndarray, ws=None) -> dict:
    """Gradients keyed like param_arrays, given d(logits) (B, N, T, 2)
    and the caches of a timewise and a notewise pass. The time scan's
    input is the fixed features, so its gradient is skipped. The caches
    are spent (see nn.stack_backward), the note scan's input included,
    and the gradients are fresh arrays."""
    ws = nn.Workspace() if ws is None else ws
    b, n, t, _ = dlogits.shape
    dlogits = _to_note_major(dlogits)
    grads = {"proj/w": np.einsum("nrk,nrh->kh", dlogits, stream_n),
             "proj/b": dlogits.sum(axis=(0, 1))}
    d_top = np.matmul(dlogits, params.proj_w, out=ws.empty(
        "d_note_top", (n, b * t, params.notewise[-1].hidden_size)))
    grads_note, dxs = nn.stack_backward(params.notewise, caches_n, d_top,
                                        ws=ws.scope("notewise"))
    hidden_top = params.timewise[-1].hidden_size
    d_tw = ws.empty("d_time_top", (t, b * n, hidden_top))
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


def sample_segments(corpus, segment_len, batch_size, steps_per_measure, rng):
    """Stack a batch of equally long segments, starts snapped to measure
    boundaries so the beat features stay truthful."""
    batch = np.zeros((batch_size, corpus[0].n_notes, segment_len, 2))
    for k in range(batch_size):
        song = corpus[int(rng.integers(len(corpus)))]
        slots = (song.n_steps - segment_len) // steps_per_measure + 1
        start = steps_per_measure * int(rng.integers(slots))
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
        batch = sample_segments(usable, cfg.segment_len, cfg.batch_size,
                                cfg.steps_per_measure, rng)
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
    return NoteStateMatrix(out, cfg.note_low, cfg.steps_per_measure)
