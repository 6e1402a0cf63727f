"""Q-learning refinement of a monophonic melody policy.

Three networks share one recurrent trunk architecture: the frozen
reward model (the primed polyphonic net), the online Q-network, and its
slowly tracking target copy. Melodies use the 38-action encoding from
midiio (note-off, hold, 36 pitch onsets). Each action becomes a roll
column, the trunk consumes it, and a fixed projection turns the per-
note (play, articulate) logits into 38 action scores:

  * onset of melody row m:   log sig(play_m) + log sig(artic_m)
  * hold while m sounds:     log sig(play_m) + log(1 - sig(artic_m))
  * hold in silence:         sum over melody rows of log(1 - sig(play))
  * note-off:                the same all-silent score, minus ln 2 when
                             already silent so the two actions differ

The reward model normalizes the scores into a log-distribution; the
Q-network feeds the raw scores through a square head that starts as the
identity, so its rankings initially match the primed model exactly.

States travel in batches. A TrunkSnapshot holds B states: per layer the
recurrent cells as (B * n_notes, hidden) arrays, the B columns about to
be consumed and their measure positions. A column's play bit on a
melody row is the note that sounds there; action_columns keeps at most
one. trunk_scores advances all B in one timewise step and one note-axis
scan, with no Python loop over states. tune acts on B=1 snapshots and
stacks sampled replay states into one batch; rollout and
sample_primed_melody play their songs in lockstep, one trunk_scores call
per step for every song in flight, at most SONGS_IN_FLIGHT songs at a
time so a long eval stays bounded in memory.

Replay stores, per transition, the trunk cells from collection time;
updates re-run only the final step from those cells (they are treated
as constants), so gradients reach every trunk weight without replaying
whole melodies. Past the timewise step the trunk is the note model's
own code: model.notewise_pass forward, model.backward from d(logits).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .features import expand_columns
from .midiio import (MELODY_ACTIONS, MELODY_HIGH, MELODY_LOW,
                     MELODY_NO_EVENT, MELODY_NOTE_OFF)
from .model import (BiaxialParams, backward, notewise_pass, param_arrays,
                    params_from_arrays)
from .theory import theory_reward

N_MELODY_ROWS = MELODY_HIGH - MELODY_LOW + 1
LN2 = float(np.log(2.0))
SONGS_IN_FLIGHT = 64     # lockstep songs scored per trunk_scores call


def melody_rows(note_low: int, n_notes: int) -> slice:
    """Rows of the note axis that carry the 36 melody pitches."""
    lo = MELODY_LOW - note_low
    if lo < 0 or note_low + n_notes <= MELODY_HIGH:
        raise ValueError(
            f"note range [{note_low}, {note_low + n_notes}) does not cover "
            f"the melody pitches {MELODY_LOW}..{MELODY_HIGH}")
    return slice(lo, lo + N_MELODY_ROWS)


def action_columns(actions, prev_cols: np.ndarray,
                   note_low: int) -> np.ndarray:
    """Roll columns (B, n_notes, 2) realized by B actions taken after
    the columns prev_cols. An onset strikes its row, a hold keeps the
    previous column's melody note sounding unarticulated, and a note-off
    is silence. This is the one rule for what an action leaves
    sounding."""
    n_notes = prev_cols.shape[1]
    rows = melody_rows(note_low, n_notes)
    actions = np.asarray(actions)
    cols = np.zeros((len(actions), n_notes, 2))
    onset = np.flatnonzero(actions >= 2)
    cols[onset, rows.start + actions[onset] - 2] = 1.0
    held = np.flatnonzero(actions == MELODY_NO_EVENT)
    cols[held, rows, 0] = prev_cols[held, rows, 0]
    return cols


@dataclass
class TrunkSnapshot:
    """B states, materialized for scoring and replay: per state the
    recurrent cells before its last column, and that column with its
    measure position. The column's melody play bit is the note left
    sounding. Advancing the cells through the columns reproduces the
    trunk output that scores each state's actions. State k owns rows
    k*N..(k+1)*N of the cells."""

    cells: list              # per layer (h, c), each (B * n_notes, hidden)
    col: np.ndarray          # (B, n_notes, 2)
    pos: np.ndarray          # (B,) measure positions

    def __len__(self):
        return self.col.shape[0]

    @classmethod
    def stack(cls, snapshots: list, ws=None) -> "TrunkSnapshot":
        """One batch holding the states of several snapshots, in order.
        The stacked cells are arrays of the nn.Workspace ws."""
        if len(snapshots) == 1:
            return snapshots[0]
        ws = nn.Workspace() if ws is None else ws
        rows = sum(len(s.cells[0][0]) for s in snapshots)
        cells = [tuple(np.concatenate(
            [s.cells[li][j] for s in snapshots],
            out=ws.empty(("cells", li, j), (rows, cell.shape[1])))
            for j, cell in enumerate(pair))
            for li, pair in enumerate(snapshots[0].cells)]
        return cls(cells, np.concatenate([s.col for s in snapshots]),
                   np.concatenate([s.pos for s in snapshots]))

    def advance(self, cells: list, actions, step: int,
                note_low: int) -> "TrunkSnapshot":
        """The states after each takes its action at `step`, given the
        cells trunk_scores advanced through this snapshot's columns. The
        snapshot keeps copies: the cells are views into the scan's
        buffers, which a replay entry should not keep alive."""
        return TrunkSnapshot([(h.copy(), c.copy()) for h, c in cells],
                             action_columns(actions, self.col, note_low),
                             np.full(len(self), step))


@dataclass
class Transition:
    state: object
    action: int
    reward: float
    next_state: object
    terminal: bool

    def __post_init__(self):
        if not np.isfinite(self.reward):
            raise ValueError(f"transition reward must be finite, "
                             f"got {self.reward}")
        if not 0 <= self.action < MELODY_ACTIONS:
            raise ValueError(f"action {self.action} out of range")


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling
    (with replacement)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("replay capacity must be positive")
        self.capacity = capacity
        self._items = []
        self._next = 0

    def __len__(self):
        return len(self._items)

    def append(self, transition: Transition):
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._next] = transition
        self._next = (self._next + 1) % self.capacity

    def sample(self, n: int, rng) -> list:
        if not self._items:
            raise ValueError("cannot sample from an empty replay buffer")
        idx = rng.integers(len(self._items), size=n)
        return [self._items[i] for i in idx]


def fresh_snapshot(trunk: BiaxialParams, n_notes: int,
                   songs: int = 1) -> TrunkSnapshot:
    """Episode-opening states: zero cells about to consume one silent
    column just before position 0, nothing sounding."""
    cells = [(np.zeros((songs * n_notes, lay.hidden_size)),
              np.zeros((songs * n_notes, lay.hidden_size)))
             for lay in trunk.timewise]
    return TrunkSnapshot(cells, np.zeros((songs, n_notes, 2)),
                         np.full(songs, -1))


def trunk_scores(trunk: BiaxialParams, note_low: int,
                 snapshot: TrunkSnapshot, ws=None):
    """Advance a snapshot's B states one step and project 38 action
    scores for each. The note axis is model.notewise_pass, teacher-forced
    over one step, so its feedback pairs are all zeros.

    Returns (scores (B, 38), advanced cells per layer as (B*N, hidden)
    arrays, cache for trunk_scores_backward). The stored cells are
    inputs here, never differentiated through. The passes keep their
    arrays in the nn.Workspace ws, the advanced cells included; the
    scores are fresh.
    """
    ws = nn.Workspace() if ws is None else ws
    b, n = snapshot.col.shape[:2]
    rows = melody_rows(note_low, n)
    feats = expand_columns(snapshot.col, note_low, snapshot.pos, ws)
    stream, t_caches, finals = nn.stack_forward(
        trunk.timewise, feats.reshape(1, b * n, -1),
        init_states=snapshot.cells, ws=ws.scope("timewise"))
    logits, n_caches, stream_n = notewise_pass(
        stream[0].reshape(b, n, 1, -1), trunk, np.zeros((b, n, 1, 2)),
        ws=ws)
    # (M, B, 2) over the note-major buffer, so sums run along melody rows
    mel = logits[:, rows, 0].transpose(1, 0, 2)
    log_on, log_off = nn.log_sigmoid(mel), nn.log_sigmoid(-mel)
    lp, la = log_on[:, :, 0], log_on[:, :, 1]
    lnp, lna = log_off[:, :, 0], log_off[:, :, 1]
    silent = lnp.sum(axis=0)
    play = snapshot.col[:, rows, 0]
    held, m, k = play.any(axis=1), play.argmax(axis=1), np.arange(b)
    scores = np.empty((b, MELODY_ACTIONS))
    scores[:, 2:] = (lp + la).T
    scores[:, MELODY_NO_EVENT] = np.where(held, lp[m, k] + lna[m, k], silent)
    scores[:, MELODY_NOTE_OFF] = np.where(held, silent, silent - LN2)
    cache = (t_caches, n_caches, stream_n, logits, held, m, rows)
    return scores, finals, cache


def trunk_scores_backward(trunk: BiaxialParams, cache,
                          dscores: np.ndarray, ws=None) -> dict:
    """Gradients of a scalar through trunk_scores, given d(scores):
    d(logits) on the melody rows, then model.backward on the workspace
    the scores were computed with."""
    t_caches, n_caches, stream_n, logits, held, m, rows = cache
    b, n_mel = len(held), rows.stop - rows.start
    d_hold = dscores[:, MELODY_NO_EVENT]
    dlp = np.ascontiguousarray(dscores[:, 2:].T)
    dla = dlp.copy()
    dlnp = np.tile(dscores[:, MELODY_NOTE_OFF] + np.where(held, 0.0, d_hold),
                   (n_mel, 1))
    dlna = np.zeros((n_mel, b))
    k = np.flatnonzero(held)
    dlp[m[k], k] += d_hold[k]
    dlna[m[k], k] = d_hold[k]
    mel = logits[:, rows, 0].transpose(1, 0, 2)
    sig_p = nn.sigmoid(mel[:, :, 0])
    sig_a = nn.sigmoid(mel[:, :, 1])
    dlogits = np.zeros_like(logits)
    dmel = dlogits[:, rows, 0].transpose(1, 0, 2)
    dmel[:, :, 0] = dlp * (1.0 - sig_p) - dlnp * sig_p
    dmel[:, :, 1] = dla * (1.0 - sig_a) - dlna * sig_a
    return backward(trunk, t_caches, n_caches, stream_n, dlogits, ws)


@dataclass
class RewardModel:
    """The primed model, frozen, serving log p(action | melody)."""

    trunk: BiaxialParams
    note_low: int
    n_notes: int

    def log_dist(self, snapshot: TrunkSnapshot, ws=None):
        """(B, 38) normalized log-probabilities over the actions, plus
        the advanced trunk cells for chaining the next snapshot. The
        log-probabilities are fresh; the cells are arrays of the
        nn.Workspace ws."""
        scores, finals, _ = trunk_scores(self.trunk, self.note_low, snapshot,
                                         ws)
        return scores - nn.logsumexp(scores, axis=1)[:, None], finals


@dataclass
class MelodyQNetwork:
    """Trunk copy of the primed model plus a square linear head over
    the raw projection scores. The head starts as the identity, so
    Q-values begin as the primed model's unnormalized log-scores."""

    trunk: BiaxialParams
    head_w: np.ndarray
    head_b: np.ndarray
    note_low: int
    n_notes: int

    @classmethod
    def from_primed(cls, primed: BiaxialParams, note_low: int,
                    n_notes: int) -> "MelodyQNetwork":
        melody_rows(note_low, n_notes)
        return cls(primed.copy(), np.eye(MELODY_ACTIONS),
                   np.zeros(MELODY_ACTIONS), note_low, n_notes)

    def copy(self) -> "MelodyQNetwork":
        return MelodyQNetwork(self.trunk.copy(), self.head_w.copy(),
                              self.head_b.copy(), self.note_low,
                              self.n_notes)

    def params(self) -> dict:
        out = {f"trunk/{name}": arr
               for name, arr in param_arrays(self.trunk).items()}
        out["head/w"] = self.head_w
        out["head/b"] = self.head_b
        return out

    def q_batch(self, snapshots: list, ws=None):
        """(B, 38) Q-values for the states of a list of snapshots, in
        order, and the cache backward() consumes. The Q-values are fresh
        arrays; the cache lives in the nn.Workspace ws."""
        scores, finals, inner = trunk_scores(
            self.trunk, self.note_low, TrunkSnapshot.stack(snapshots, ws), ws)
        q = scores @ self.head_w.T + self.head_b
        return q, (inner, scores, finals)

    def act(self, snapshot: TrunkSnapshot, ws=None):
        """(B, 38) Q-values for a snapshot plus the advanced cells. The
        Q-values are fresh; the cells are arrays of the nn.Workspace
        ws."""
        q, (_, _, finals) = self.q_batch([snapshot], ws)
        return q, finals

    def backward(self, cache, dq: np.ndarray, ws=None) -> dict:
        inner, scores, _ = cache
        grads = {"head/w": dq.T @ scores, "head/b": dq.sum(axis=0)}
        dscores = dq @ self.head_w
        for name, g in trunk_scores_backward(self.trunk, inner, dscores,
                                             ws).items():
            grads[f"trunk/{name}"] = g
        return grads


def qnetwork_from_arrays(arrays: dict, note_low: int,
                         n_notes: int) -> MelodyQNetwork:
    """Rebuild a Q-network from its named parameter arrays, the inverse
    of MelodyQNetwork.params()."""
    trunk_arrays = {name[len("trunk/"):]: arr
                    for name, arr in arrays.items()
                    if name.startswith("trunk/")}
    if not trunk_arrays or "head/w" not in arrays or "head/b" not in arrays:
        raise ValueError("not a Q-network parameter set: expected trunk/* "
                         "sections plus head/w and head/b")
    head_w = np.asarray(arrays["head/w"], dtype=np.float64)
    head_b = np.asarray(arrays["head/b"], dtype=np.float64)
    if head_w.shape != (MELODY_ACTIONS, MELODY_ACTIONS) \
            or head_b.shape != (MELODY_ACTIONS,):
        raise ValueError(f"Q-network head has the wrong shape: "
                         f"{head_w.shape}, {head_b.shape}")
    melody_rows(note_low, n_notes)
    return MelodyQNetwork(params_from_arrays(trunk_arrays), head_w.copy(),
                          head_b.copy(), note_low, n_notes)


def target_sync(online: dict, target: dict, eta: float):
    """theta_target <- (1 - eta) * theta_target + eta * theta, in place,
    elementwise exact."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    for name, arr in target.items():
        arr *= (1.0 - eta)
        arr += eta * online[name]


def q_targets(transitions: list, target_model, gamma: float,
              double_q: bool = False, online_model=None,
              ws=None) -> np.ndarray:
    """Bellman targets r + gamma * max Q(s', .; theta_minus), with the
    bootstrap dropped on terminal transitions. Both networks' passes run
    on the nn.Workspace ws."""
    next_states = [t.next_state for t in transitions]
    q_next, _ = target_model.q_batch(next_states, ws=ws)
    if double_q:
        q_online, _ = online_model.q_batch(next_states, ws=ws)
        best = np.argmax(q_online, axis=1)
    else:
        best = np.argmax(q_next, axis=1)
    bootstrap = q_next[np.arange(len(transitions)), best]
    rewards = np.array([t.reward for t in transitions])
    terminal = np.array([t.terminal for t in transitions])
    return rewards + gamma * np.where(terminal, 0.0, bootstrap)


def q_loss_gradients(transitions: list, model, targets: np.ndarray,
                     ws=None):
    """Mean squared Bellman residual and its gradients w.r.t. model
    parameters; the targets are constants here. The pass runs on the
    nn.Workspace ws and the gradients are fresh arrays."""
    states = [t.state for t in transitions]
    actions = np.array([t.action for t in transitions])
    q, cache = model.q_batch(states, ws=ws)
    picked = q[np.arange(len(transitions)), actions]
    residual = targets - picked
    if not np.all(np.isfinite(residual)):
        raise nn.NonFiniteGradientError(
            "non-finite Bellman residual; rejecting the update "
            f"(targets finite: {np.all(np.isfinite(targets))}, "
            f"q finite: {np.all(np.isfinite(picked))})")
    loss = float(np.mean(residual ** 2))
    dq = np.zeros_like(q)
    dq[np.arange(len(transitions)), actions] = \
        -2.0 * residual / len(transitions)
    return loss, model.backward(cache, dq, ws=ws)


def q_update(transitions: list, model, target_model, gamma: float,
             optimizer, double_q: bool = False, ws=None) -> float:
    """One gradient step on the online model; the target model only
    supplies bootstrap values and is never modified. Every network pass
    of the update runs on the nn.Workspace ws."""
    if not transitions:
        raise ValueError("q_update needs a non-empty batch")
    targets = q_targets(transitions, target_model, gamma,
                        double_q=double_q, online_model=model, ws=ws)
    loss, grads = q_loss_gradients(transitions, model, targets, ws=ws)
    optimizer.step(model.params(), grads)
    return loss


def epsilon_at(iteration: int, total_iterations: int, start: float,
               end: float) -> float:
    """Linear anneal from start to end over the first half of training,
    constant afterwards."""
    half = max(1, total_iterations // 2)
    frac = min(1.0, iteration / half)
    return start + (end - start) * frac


def choose_action(q_values, rng, exploration: str = "epsilon",
                  epsilon: float = 0.0, temperature: float = 1.0):
    """Pick an action from a (38,) row of Q-values, or one per row of a
    (B, 38) batch, returned as a (B,) array. Epsilon-greedy takes the
    argmax (lowest index on ties) outside the epsilon branch; Boltzmann
    samples proportionally to exp(Q / temperature) by inverting each
    row's CDF at one rng.random(B) draw exactly as Generator.choice
    does, so a one-row batch consumes and returns what the single-row
    call does."""
    q_values = np.asarray(q_values, dtype=np.float64)
    rows = np.atleast_2d(q_values)
    if exploration == "epsilon":
        actions = np.argmax(rows, axis=1)
        if epsilon > 0.0:
            explore = np.flatnonzero(rng.random(len(rows)) < epsilon)
            actions[explore] = rng.integers(rows.shape[1], size=len(explore))
    elif exploration == "boltzmann":
        if temperature <= 0.0:
            raise ValueError("temperature must be positive")
        cdf = np.cumsum(nn.softmax(rows / temperature), axis=1)
        if not np.all(np.isfinite(cdf)):
            raise ValueError("Boltzmann probabilities are not finite")
        cdf /= cdf[:, -1:]
        actions = np.sum(cdf <= rng.random(len(rows))[:, None], axis=1)
    else:
        raise ValueError(f"unknown exploration strategy {exploration!r}")
    return actions if q_values.ndim == 2 else int(actions[0])


def tune(primed: BiaxialParams, cfg, rng):
    """Refine the primed model's melody policy with Q-learning.

    Per iteration: act once in the melody environment (blended reward =
    log p under the frozen primed model + rule reward / c), store the
    transition, and once the replay holds a full batch take one
    q_update step followed by one target_sync. Returns the tuned
    Q-network and a trace with one (iteration, reward, log_p, rule
    reward) row per iteration.
    """
    cfg.validate()
    # frozen, so it reads the primed weights where they are
    reward_model = RewardModel(primed, cfg.note_low, cfg.n_notes)
    qnet = MelodyQNetwork.from_primed(primed, cfg.note_low, cfg.n_notes)
    target = qnet.copy()
    optimizer = nn.Adadelta(rho=cfg.adadelta_rho, eps=cfg.adadelta_eps,
                            lr=cfg.learning_rate)
    buffer = ReplayBuffer(cfg.replay_capacity)
    # the B=1 reads, act and log_dist, share one workspace: each call's
    # cells are copied before the next call writes over them
    read_ws, update_ws = nn.Workspace(), nn.Workspace()
    q_snapshot = r_snapshot = fresh_snapshot(primed, cfg.n_notes)
    history = []
    trace = []
    for it in range(cfg.rl_iterations):
        q_rows, q_cells = qnet.act(q_snapshot, read_ws)
        epsilon = epsilon_at(it, cfg.rl_iterations, cfg.epsilon_start,
                             cfg.epsilon_end)
        action = choose_action(q_rows[0], rng, exploration=cfg.exploration,
                               epsilon=epsilon,
                               temperature=cfg.temperature)
        q_next = q_snapshot.advance(q_cells, [action], len(history),
                                    cfg.note_low)
        log_dist, r_cells = reward_model.log_dist(r_snapshot, read_ws)
        log_p = float(log_dist[0, action])
        breakdown = theory_reward(history, action, cfg)
        reward = log_p + breakdown.total / cfg.c_weight
        terminal = len(history) == cfg.episode_len - 1

        buffer.append(Transition(q_snapshot, action, reward, q_next,
                                 terminal))
        trace.append((it, reward, log_p, breakdown.total))

        if terminal:
            q_snapshot = r_snapshot = fresh_snapshot(primed, cfg.n_notes)
            history = []
        else:
            q_snapshot, r_snapshot = q_next, replace(
                q_next, cells=[(h.copy(), c.copy()) for h, c in r_cells])
            history.append(action)

        if len(buffer) >= cfg.rl_batch_size:
            try:
                q_update(buffer.sample(cfg.rl_batch_size, rng), qnet, target,
                         cfg.gamma, optimizer, double_q=cfg.double_q,
                         ws=update_ws)
            except nn.NonFiniteGradientError as exc:
                raise nn.NonFiniteGradientError(
                    f"iteration {it}: {exc}") from exc
            target_sync(qnet.params(), target.params(), cfg.eta)
    return qnet, trace


def _play(model, score, cfg, rng, songs, greedy: bool, temperature: float):
    """The one lockstep step loop. Plays `songs` episodes (one when
    None), SONGS_IN_FLIGHT at a time; each step makes one
    score(snapshot, ws) call on one nn.Workspace kept for the whole
    play, giving (B, 38) action scores and the advanced cells, and one
    choose_action call over the batch: the argmax when greedy, otherwise
    a Boltzmann draw at `temperature`. Returns the melody, or the list
    of melodies when songs is given."""
    explore = (dict(exploration="epsilon", epsilon=0.0) if greedy else
               dict(exploration="boltzmann", temperature=temperature))
    count = 1 if songs is None else songs
    if count < 1:
        raise ValueError(f"songs must be positive, got {songs}")
    melodies, ws = [], nn.Workspace()
    for first in range(0, count, SONGS_IN_FLIGHT):
        snapshot = fresh_snapshot(model.trunk, model.n_notes,
                                  min(SONGS_IN_FLIGHT, count - first))
        actions = np.empty((len(snapshot), cfg.episode_len), dtype=np.int64)
        for step in range(cfg.episode_len):
            scores, cells = score(snapshot, ws)
            actions[:, step] = choose_action(scores, rng, **explore)
            snapshot = snapshot.advance(cells, actions[:, step], step,
                                        model.note_low)
        melodies.extend(actions.tolist())
    return melodies[0] if songs is None else melodies


def rollout(qnet: MelodyQNetwork, cfg, rng, greedy: bool = True,
            songs: int | None = None):
    """Play episodes from the tuned policy; greedy takes argmax Q,
    otherwise actions are Boltzmann-sampled at cfg.temperature. Returns
    one melody, or with songs=N a list of N melodies played in lockstep
    (draws are step-major across the songs in flight)."""
    return _play(qnet, qnet.act, cfg, rng, songs, greedy, cfg.temperature)


def sample_primed_melody(reward_model: RewardModel, cfg, rng,
                         greedy: bool = False, songs: int | None = None):
    """Play episode-length melodies from the primed model's own action
    distribution, RewardModel.log_dist: greedy takes its argmax,
    otherwise each step draws from it. Returns one melody, or with
    songs=N a list of N melodies played in lockstep."""
    return _play(reward_model, reward_model.log_dist, cfg, rng, songs,
                 greedy, 1.0)
