"""Shared test utilities: random valid piano rolls, a tiny corpus of
Bach-flavored MIDI files built with the package's own writer, the
loop-at-a-time MIDI oracles the array-based midiio is checked against,
and the row-major LSTM scan and model gradient references the kernel
and its workspace passes are checked against."""

import math

import numpy as np

from rolltune import midiio, model, nn
from rolltune.features import expand_batch
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


# Oracles for the MIDI layer: the per-byte parser, the per-cell roll
# renderer and the per-note rasterizer that rolltune.midiio replaced
# with offset- and array-based code. tests/test_midiio.py checks the
# package against them byte for byte and message for message.

class _OracleReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def error(self, message):
        raise midiio.MidiParseError(f"{message} at byte {self.pos}")

    def remaining(self):
        return len(self.data) - self.pos

    def bytes(self, n, what="data"):
        if self.remaining() < n:
            self.error(f"truncated {what}: wanted {n} bytes, "
                       f"have {self.remaining()}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self, what="byte"):
        return self.bytes(1, what)[0]

    def u16(self, what="field"):
        b = self.bytes(2, what)
        return (b[0] << 8) | b[1]

    def u32(self, what="field"):
        b = self.bytes(4, what)
        return (b[0] << 24) | (b[1] << 16) | (b[2] << 8) | b[3]

    def vlq(self):
        value = 0
        for _ in range(4):
            byte = self.u8("variable-length quantity")
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        self.error("variable-length quantity longer than 4 bytes")


def oracle_parse_midi(data: bytes) -> MidiSong:
    """parse_midi one byte at a time through _OracleReader."""
    MidiParseError = midiio.MidiParseError
    if len(data) > midiio.MAX_MIDI_BYTES:
        raise MidiParseError(f"input of {len(data)} bytes is over "
                             f"MAX_MIDI_BYTES ({midiio.MAX_MIDI_BYTES}) "
                             f"at byte {midiio.MAX_MIDI_BYTES}")
    r = _OracleReader(data)
    if r.bytes(4, "header") != b"MThd":
        r.pos = 0
        r.error("malformed header: expected MThd")
    header_len = r.u32("header length")
    if header_len < 6:
        r.error(f"malformed header: length {header_len} < 6")
    fmt = r.u16("format")
    n_tracks = r.u16("track count")
    division = r.u16("division")
    r.bytes(header_len - 6, "header padding")
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported format {fmt} at byte 8")
    if division & 0x8000:
        raise MidiParseError("SMPTE division is not supported at byte 12")
    if division == 0:
        raise MidiParseError("division of zero ticks at byte 12")
    if n_tracks < 1:
        raise MidiParseError("no tracks declared at byte 10")

    tracks = []
    while len(tracks) < n_tracks:
        if r.remaining() == 0:
            r.error(f"expected {n_tracks} tracks, found {len(tracks)}")
        chunk_type = r.bytes(4, "chunk type")
        chunk_len = r.u32("chunk length")
        chunk_end = r.pos + chunk_len
        if chunk_end > len(data):
            r.error(f"truncated chunk: declared {chunk_len} bytes")
        if chunk_type != b"MTrk":
            r.pos = chunk_end
            continue
        tracks.append(_oracle_parse_track(r, chunk_end))
        r.pos = chunk_end
    return MidiSong(ticks_per_quarter=division, tracks=tracks)


def _oracle_parse_track(r, chunk_end):
    events = []
    running_status = None
    pending_delta = 0
    while True:
        if r.pos >= chunk_end:
            r.error("track ended without end-of-track meta event")
        pending_delta += r.vlq()
        status_pos = r.pos
        byte = r.u8("event status")
        if byte < 0x80:
            if running_status is None:
                raise midiio.MidiParseError(
                    f"running status with no prior status byte "
                    f"at byte {status_pos}")
            status = running_status
            r.pos = status_pos
        else:
            status = byte
        if status == 0xFF:
            meta_type = r.u8("meta type")
            length = r.vlq()
            body = r.bytes(length, "meta event body")
            running_status = None
            if meta_type == 0x2F:
                events.append(MidiEvent(pending_delta, midiio.END_OF_TRACK))
                return events
            if meta_type == 0x51:
                if length != 3:
                    r.error(f"tempo meta event with length {length}")
                tempo_us = (body[0] << 16) | (body[1] << 8) | body[2]
                events.append(MidiEvent(pending_delta, midiio.TEMPO,
                                        tempo_us=tempo_us))
                pending_delta = 0
            continue
        if status in (0xF0, 0xF7):
            r.bytes(r.vlq(), "sysex body")
            running_status = None
            continue
        if status >= 0xF0:
            raise midiio.MidiParseError(
                f"unexpected system message 0x{status:02x} "
                f"at byte {status_pos}")
        running_status = status
        kind = status & 0xF0
        if kind in (0xC0, 0xD0):
            r.bytes(1, "channel message data")
            continue
        d1 = r.u8("event data")
        d2 = r.u8("event data")
        if kind == 0x90:
            events.append(MidiEvent(pending_delta, midiio.NOTE_ON,
                                    pitch=d1, velocity=d2))
            pending_delta = 0
        elif kind == 0x80:
            events.append(MidiEvent(pending_delta, midiio.NOTE_OFF,
                                    pitch=d1, velocity=d2))
            pending_delta = 0


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def oracle_quantize(song, note_low, n_notes, steps_per_measure=16):
    """quantize with one slice assignment per note."""
    if steps_per_measure < 1 or song.ticks_per_quarter < 1:
        raise ValueError("steps_per_measure, ticks_per_quarter must be > 0")
    step_ticks = song.ticks_per_quarter * 4.0 / steps_per_measure
    notes = []
    max_tick = 0
    saw_note_event = False
    for track in song.tracks:
        tick = 0
        active = {}
        for ev in track:
            tick += ev.delta
            if ev.kind == midiio.NOTE_ON and ev.velocity > 0:
                saw_note_event = True
                if ev.pitch in active:
                    notes.append((ev.pitch, active.pop(ev.pitch), tick))
                active[ev.pitch] = tick
            elif ev.kind == midiio.NOTE_OFF or (ev.kind == midiio.NOTE_ON
                                                and ev.velocity == 0):
                if ev.pitch in active:
                    notes.append((ev.pitch, active.pop(ev.pitch), tick))
        for pitch, start in active.items():
            notes.append((pitch, start, tick))
        max_tick = max(max_tick, tick)
    if not saw_note_event:
        raise ValueError("empty song: no note events")
    end_step = _round_half_up(max_tick / step_ticks)
    if end_step > midiio.MAX_STEPS:
        raise ValueError(f"song spans {end_step} steps, more than "
                         f"MAX_STEPS = {midiio.MAX_STEPS}")
    data = np.zeros((n_notes, max(end_step, 1), 2), dtype=np.uint8)
    for pitch, start, end in notes:
        if not note_low <= pitch < note_low + n_notes:
            continue
        s = _round_half_up(start / step_ticks)
        e = _round_half_up(end / step_ticks)
        if e > s:
            data[pitch - note_low, s:e, 0] = 1
            data[pitch - note_low, s, 1] = 1
    return NoteStateMatrix(data, note_low, steps_per_measure)


def oracle_to_midi(matrix, tempo_bpm=midiio.DEFAULT_TEMPO_BPM):
    """to_midi walking the roll one (note, step) cell at a time."""
    matrix.validate()
    if tempo_bpm <= 0:
        raise ValueError("tempo must be positive")
    step_ticks = midiio.DEFAULT_DIVISION * 4.0 / matrix.steps_per_measure

    def tick_of(step):
        return _round_half_up(step * step_ticks)

    play = matrix.data[:, :, 0]
    artic = matrix.data[:, :, 1]
    timed = []          # (tick, order, pitch, kind)
    for row in range(matrix.n_notes):
        pitch = matrix.note_low + row
        start = None
        for t in range(matrix.n_steps):
            if play[row, t] and (start is None or artic[row, t]):
                if start is not None:      # re-articulation
                    timed.append((tick_of(t), 0, pitch, midiio.NOTE_OFF))
                timed.append((tick_of(t), 1, pitch, midiio.NOTE_ON))
                start = t
            elif not play[row, t] and start is not None:
                timed.append((tick_of(t), 0, pitch, midiio.NOTE_OFF))
                start = None
        if start is not None:
            timed.append((tick_of(matrix.n_steps), 0, pitch,
                          midiio.NOTE_OFF))
    timed.sort(key=lambda e: (e[0], e[1], e[2]))

    tempo_us = _round_half_up(60_000_000.0 / tempo_bpm)
    track = [MidiEvent(0, midiio.TEMPO, tempo_us=tempo_us)]
    cursor = 0
    for tick, _, pitch, kind in timed:
        velocity = 72 if kind == midiio.NOTE_ON else 0
        track.append(MidiEvent(tick - cursor, kind,
                               pitch=pitch, velocity=velocity))
        cursor = tick
    end_tick = max(tick_of(matrix.n_steps), cursor)
    track.append(MidiEvent(end_tick - cursor, midiio.END_OF_TRACK))
    return MidiSong(ticks_per_quarter=midiio.DEFAULT_DIVISION, tracks=[track])


def reference_forward(layers, xs, init_states=None, keep_masks=None):
    """Row-major reference scan: each step activates its (R, 4H)
    pre-activation block in place, i, f and o through one sigmoid call.
    Returns (stream, caches, finals) like nn.stack_forward, with caches
    as (inputs, gates (S, R, 4H), c, h, h0, c0, mask) tuples."""
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
        c_all = np.empty((s_len, rows, hs))
        h_all = np.empty_like(c_all)
        for s in range(s_len):
            z = gates[s]
            z += h @ wh.T
            z[:, :3 * hs] = nn.sigmoid(z[:, :3 * hs])
            np.tanh(z[:, 3 * hs:], out=z[:, 3 * hs:])
            c = z[:, hs:2 * hs] * c + z[:, :hs] * z[:, 3 * hs:]
            h = z[:, 2 * hs:3 * hs] * np.tanh(c)
            c_all[s], h_all[s] = c, h
        mask = None if keep_masks is None else keep_masks[li]
        caches.append((stream, gates, c_all, h_all, h0, c0, mask))
        finals.append((h, c))
        stream = h_all if mask is None else h_all * mask
    return stream, caches, finals


def reference_backward(layers, caches, dstream):
    """Backpropagation through reference_forward's row-major gates."""
    grads_out = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        layer = layers[li]
        inputs, gates, c_all, h_all, h0, c0, mask = caches[li]
        hs, d = layer.hidden_size, layer.input_size
        wx, wh, _ = layer.packed()
        s_len, rows, _ = h_all.shape
        if mask is not None:
            dstream = dstream * mask
        dh_carry = dc_carry = np.zeros((rows, hs))
        dz_all = np.empty((s_len, rows, 4 * hs))
        for s in range(s_len - 1, -1, -1):
            act = gates[s]
            sig = act[:, :3 * hs]
            i, f, o, g = (act[:, k * hs:(k + 1) * hs] for k in range(4))
            c_prev = c_all[s - 1] if s > 0 else c0
            dh = dstream[s] + dh_carry
            tc = np.tanh(c_all[s])
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            dz = dz_all[s]
            dz[:, :hs] = dc * g
            dz[:, hs:2 * hs] = dc * c_prev
            dz[:, 2 * hs:3 * hs] = dh * tc
            dz[:, :3 * hs] *= sig
            dz[:, :3 * hs] *= 1.0 - sig
            dz[:, 3 * hs:] = dc * i * (1.0 - g * g)
            dc_carry = dc * f
            dh_carry = dz @ wh
        flat_dz = dz_all.reshape(s_len * rows, 4 * hs)
        h_prev = np.concatenate([h0[None], h_all[:-1]], axis=0)
        dw = np.empty_like(layer.w)
        dw[:, :d] = flat_dz.T @ inputs.reshape(s_len * rows, d)
        dw[:, d:] = flat_dz.T @ h_prev.reshape(s_len * rows, hs)
        grads_out[li] = {"w": dw, "b": flat_dz.sum(axis=0)}
        dstream = (flat_dz @ wx).reshape(s_len, rows, d)
    return grads_out, dstream


def reference_loss_gradients(params, batch, note_low, rng=None,
                             keep_prob=1.0):
    """model.loss_gradients through reference_forward and
    reference_backward, every array fresh: no workspace, and no gradient
    stream written over anything. Dropout masks are drawn from rng in
    loss_gradients' order. Returns (loss value, log-likelihood per step,
    grads keyed like model.param_arrays)."""
    b, n, t, _ = batch.shape
    masks_t = masks_n = None
    if keep_prob < 1.0:
        masks_t = [nn.dropout_mask((b * n, lay.hidden_size), keep_prob, rng)
                   for lay in params.timewise]
        masks_n = [nn.dropout_mask((b * t, lay.hidden_size), keep_prob, rng)
                   for lay in params.notewise]
    feats = expand_batch(batch, note_low)
    xs_t = np.ascontiguousarray(feats.transpose(2, 0, 1, 3)).reshape(
        t, b * n, -1)
    top_t, caches_t, _ = reference_forward(params.timewise, xs_t,
                                           keep_masks=masks_t)
    hidden = top_t.shape[-1]
    by_song = np.concatenate(
        [top_t.reshape(t, b, n, hidden).transpose(1, 2, 0, 3),
         model.teacher_feedback(batch)], axis=-1)
    xs_n = np.ascontiguousarray(by_song.transpose(1, 0, 2, 3)).reshape(
        n, b * t, hidden + 2)
    top_n, caches_n, _ = reference_forward(params.notewise, xs_n,
                                           keep_masks=masks_n)
    logits = top_n @ params.proj_w.T + params.proj_b
    value, loglik, dlogits = model.loss_with_gradient(
        logits.reshape(n, b, t, 2).transpose(1, 0, 2, 3), batch)
    dlogits = np.ascontiguousarray(
        dlogits.transpose(1, 0, 2, 3)).reshape(n, b * t, 2)
    grads = {"proj/w": np.einsum("nrk,nrh->kh", dlogits, top_n),
             "proj/b": dlogits.sum(axis=(0, 1))}
    grads_n, dxs_n = reference_backward(params.notewise, caches_n,
                                        dlogits @ params.proj_w)
    d_top_t = np.ascontiguousarray(
        dxs_n[:, :, :hidden].reshape(n, b, t, hidden).transpose(2, 1, 0, 3))
    grads_t, _ = reference_backward(params.timewise, caches_t,
                                    d_top_t.reshape(t, b * n, hidden))
    for stack_name, stack_grads in (("timewise", grads_t),
                                    ("notewise", grads_n)):
        for i, layer_grads in enumerate(stack_grads):
            for fname, g in layer_grads.items():
                grads[f"{stack_name}/{i}/{fname}"] = g
    return value, loglik, grads


def workspace_bytes(ws, prefix=""):
    """Bytes of each array an nn.Workspace holds, keyed by its key, after
    the names of the scopes it sits in: "notewise/('gates', 0)". A pin
    compared against this names the buffer that grew."""
    sizes = {f"{prefix}{key}": arr.nbytes for key, arr in ws._arrays.items()}
    for name, child in ws._scopes.items():
        sizes.update(workspace_bytes(child, f"{prefix}{name}/"))
    return sizes
