"""Shared test utilities: random valid piano rolls and a tiny corpus of
Bach-flavored MIDI files built with the package's own writer."""

import numpy as np

from rolltune import midiio
from rolltune.midiio import MidiEvent, MidiSong, NoteStateMatrix


def random_matrix(rng, n_notes=8, n_steps=32, note_low=60, density=0.15,
                  ensure_note=True):
    """A random NoteStateMatrix that satisfies the type invariants by
    construction: every sounded run starts articulated, never (0,1)."""
    data = np.zeros((n_notes, n_steps, 2), dtype=np.uint8)
    for row in range(n_notes):
        t = 0
        while t < n_steps:
            if rng.random() < density:
                dur = int(rng.integers(1, 5))
                end = min(t + dur, n_steps)
                data[row, t:end, 0] = 1
                data[row, t, 1] = 1
                if end < n_steps and rng.random() < 0.3:
                    t = end          # allow an immediate re-strike
                    continue
                t = end + 1
            else:
                t += 1
    if ensure_note and not data[:, :, 0].any():
        row = int(rng.integers(n_notes))
        t = int(rng.integers(n_steps))
        data[row, t] = (1, 1)
    m = NoteStateMatrix(data, note_low)
    m.validate()
    return m


_NOTE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


def p(name):
    """Pitch from scientific name, e.g. p('C4') == 60, p('F#3') == 54."""
    letter = name[0]
    rest = name[1:]
    sharp = rest.startswith("#")
    flat = rest.startswith("b")
    octave = int(rest[1:] if (sharp or flat) else rest)
    val = _NOTE[letter] + (1 if sharp else 0) - (1 if flat else 0)
    return 12 * (octave + 1) + val


def song_from_notes(notes, n_steps, tempo_bpm=120.0):
    """notes: iterable of (pitch, start_step, duration_steps) on the
    sixteenth grid. Returns a serialized single-track MIDI file."""
    note_low = min(n for n, _, _ in notes)
    note_high = max(n for n, _, _ in notes)
    data = np.zeros((note_high - note_low + 1, n_steps, 2), dtype=np.uint8)
    for pitch, start, dur in notes:
        row = pitch - note_low
        data[row, start:start + dur, 0] = 1
        data[row, start, 1] = 1
    matrix = NoteStateMatrix(data, note_low)
    matrix.validate()
    return midiio.serialize_midi(midiio.to_midi(matrix, tempo_bpm))


def prelude_notes():
    """Broken-chord figuration in C, eight measures of continuous
    sixteenths over sustained bass tones."""
    measures = [
        ("C4", "E4", "G4", "C5", "E5"),
        ("C4", "D4", "A4", "D5", "F5"),
        ("B3", "D4", "G4", "D5", "F5"),
        ("C4", "E4", "G4", "C5", "E5"),
        ("C4", "E4", "A4", "E5", "A5"),
        ("C4", "D4", "F#4", "A4", "D5"),
        ("B3", "D4", "G4", "D5", "G5"),
        ("B3", "C4", "E4", "G4", "C5"),
    ]
    notes = []
    for m, chord in enumerate(measures):
        base = 16 * m
        low, tenor, *upper = (p(n) for n in chord)
        notes.append((low, base, 16))
        notes.append((tenor, base + 1, 15))
        for half in (0, 8):
            for k in range(6):
                notes.append((upper[k % 3], base + half + 2 + k, 1))
    return notes, 16 * len(measures)


def minuet_notes():
    """A minuet-like G major melody with a simple bass, three quarter
    notes per measure laid on the sixteenth grid."""
    melody = [
        [("D5", 4), ("G4", 2), ("A4", 2), ("B4", 2), ("C5", 2)],
        [("D5", 4), ("G4", 4), ("G4", 4)],
        [("E5", 4), ("C5", 2), ("D5", 2), ("E5", 2), ("F#5", 2)],
        [("G5", 4), ("G4", 4), ("G4", 4)],
        [("C5", 4), ("D5", 2), ("C5", 2), ("B4", 2), ("A4", 2)],
        [("B4", 4), ("C5", 2), ("B4", 2), ("A4", 2), ("G4", 2)],
        [("F#4", 4), ("G4", 2), ("A4", 2), ("B4", 2), ("G4", 2)],
        [("A4", 12)],
    ]
    bass = [
        ["G3", "B3", "D4"], ["G3", "B3", "G3"], ["C4", "E4", "C4"],
        ["B3", "D4", "B3"], ["A3", "C4", "A3"], ["G3", "B3", "G3"],
        ["D4", "A3", "D4"], ["D4", "D4", "D4"],
    ]
    notes = []
    for m, (mel, bas) in enumerate(zip(melody, bass)):
        base = 12 * m
        t = base
        for name, dur in mel:
            notes.append((p(name), t, dur))
            t += dur
        for beat, name in enumerate(bas):
            notes.append((p(name), base + 4 * beat, 4))
    return notes, 12 * len(melody)


def chorale_notes():
    """Four-voice block chords with a repeated-note soprano line."""
    quarters = [
        ("E5", "C5", "G4", "C4"), ("E5", "C5", "G4", "B3"),
        ("E5", "C5", "A4", "A3"), ("F5", "C5", "A4", "F3"),
        ("G5", "C5", "G4", "E3"), ("G5", "B4", "G4", "G3"),
        ("F5", "B4", "G4", "G3"), ("E5", "C5", "G4", "C4"),
        ("D5", "B4", "F4", "G3"), ("D5", "B4", "G4", "G3"),
        ("E5", "C5", "G4", "C4"), ("E5", "A4", "A4", "A3"),
        ("D5", "A4", "F#4", "D4"), ("D5", "A4", "F#4", "D3"),
        ("D5", "G4", "G4", "G3"), ("D5", "G4", "B3", "G3"),
        ("E5", "G4", "C4", "C4"), ("E5", "G4", "C4", "C3"),
        ("F5", "A4", "D4", "D3"), ("F5", "A4", "D4", "D3"),
        ("E5", "G4", "C4", "E3"), ("D5", "G4", "B3", "G3"),
        ("C5", "G4", "E4", "C4"), ("C5", "G4", "E4", "C4"),
        ("D5", "F4", "B3", "G3"), ("D5", "F4", "B3", "G3"),
        ("C5", "E4", "G4", "C4"), ("B4", "D4", "G4", "G3"),
        ("C5", "E4", "G4", "C4"), ("C5", "E4", "G4", "C4"),
        ("C5", "E4", "G4", "C3"), ("C5", "E4", "G4", "C3"),
    ]
    notes = []
    for q, chord in enumerate(quarters):
        for name in chord:
            notes.append((p(name), 4 * q, 4))
    return notes, 4 * len(quarters)


def toccata_notes():
    """Toccata-style hammered sixteenths over slow pedal tones: two
    repeated-note figures per measure, closing on a drummed tonic."""
    figures = [
        ("E5", "D5"), ("C5", "B4"), ("A4", "G4"), ("A4", "B4"),
        ("C5", "D5"), ("E5", "G5"), ("F5", "D5"), ("C5", "C5"),
    ]
    pedals = ["A3", "A3", "F3", "G3", "A3", "E3", "G3", "C3"]
    notes = []
    for m, ((first, second), pedal) in enumerate(zip(figures, pedals)):
        base = 16 * m
        notes.append((p(pedal), base, 16))
        for k in range(8):
            notes.append((p(first), base + k, 1))
        for k in range(8):
            notes.append((p(second), base + 8 + k, 1))
    return notes, 16 * len(figures)


CORPUS_BUILDERS = {
    "prelude_c.mid": prelude_notes,
    "minuet_g.mid": minuet_notes,
    "chorale_c.mid": chorale_notes,
}


class SgdOptimizer:
    """Plain gradient descent with the optimizer protocol q_update uses."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for name, g in grads.items():
            params[name] -= self.lr * g


def huge_delta_file() -> bytes:
    """A MIDI file at division 1 whose one note ends 0x0FFFFFFF ticks
    after it starts, the largest 4-byte delta: at 4 steps a tick that
    asks for about 1.07e9 steps of roll."""
    body = bytes([0x00, 0x90, 60, 64, 0xFF, 0xFF, 0xFF, 0x7F, 0x80, 60, 0,
                  0x00, 0xFF, 0x2F, 0x00])
    return (b"MThd" + (6).to_bytes(4, "big") + bytes([0, 0, 0, 1, 0, 1])
            + b"MTrk" + len(body).to_bytes(4, "big") + body)


class TabularQ:
    """Dense Q-table exposing the same duck-typed protocol as the neural
    Q-network (q_batch / backward / params / copy), with integer states."""

    def __init__(self, n_states, n_actions):
        self.table = np.zeros((n_states, n_actions))

    def q_batch(self, states, ws=None):
        idx = np.asarray(states, dtype=int)
        return self.table[idx], idx

    def backward(self, cache, dq, ws=None):
        grad = np.zeros_like(self.table)
        np.add.at(grad, cache, dq)
        return {"table": grad}

    def params(self):
        return {"table": self.table}

    def copy(self):
        other = TabularQ(*self.table.shape)
        other.table = self.table.copy()
        return other


# A three-state deterministic chain: action 0 steps left, action 1 steps
# right, both saturating at the ends.
CHAIN_REWARDS = np.array([[0.0, 1.0], [2.0, 0.0], [-1.0, 3.0]])


def chain_next(state, action):
    return max(state - 1, 0) if action == 0 else min(state + 1, 2)


def chain_q_star(gamma, tol=1e-13):
    """Value-iteration fixed point of the chain, computed independently
    of the learner."""
    q = np.zeros_like(CHAIN_REWARDS)
    while True:
        new = np.empty_like(q)
        for s in range(3):
            for a in range(2):
                nxt = chain_next(s, a)
                new[s, a] = CHAIN_REWARDS[s, a] + gamma * q[nxt].max()
        if np.max(np.abs(new - q)) < tol:
            return new
        q = new


def run_chain_dqn(iterations, gamma, rng, batch_size=16, lr=1.0, eta=0.05,
                  epsilon=0.5, double_q=False):
    """Drive the package's replay/update/sync loop on the chain."""
    from rolltune import tuner

    online = TabularQ(3, 2)
    target = online.copy()
    opt = SgdOptimizer(lr)
    buffer = tuner.ReplayBuffer(500)
    state = int(rng.integers(3))
    for _ in range(iterations):
        q_row, _ = online.q_batch([state])
        action = tuner.choose_action(q_row[0], rng, exploration="epsilon",
                                     epsilon=epsilon)
        nxt = chain_next(state, action)
        buffer.append(tuner.Transition(state, action,
                                       float(CHAIN_REWARDS[state, action]),
                                       nxt, False))
        state = nxt if rng.random() >= 0.1 else int(rng.integers(3))
        if len(buffer) >= batch_size:
            tuner.q_update(buffer.sample(batch_size, rng), online, target,
                           gamma, opt, double_q=double_q)
            tuner.target_sync(online.params(), target.params(), eta)
    return online


def write_corpus(dir_path):
    """Write the three corpus files into dir_path; returns their paths."""
    paths = []
    for name, builder in sorted(CORPUS_BUILDERS.items()):
        notes, n_steps = builder()
        data = song_from_notes(notes, n_steps)
        path = dir_path / name
        path.write_bytes(data)
        paths.append(path)
    return paths
