"""Standard MIDI file reading/writing and the piano-roll data types.

The parser works directly on bytes: chunk headers, variable-length
quantities, running status, and meta events are all decoded here rather
than through a third-party reader, so malformed input can be reported
with exact byte offsets and the writer/reader pair can guarantee
bit-stable round trips.

Only the events the rest of the package consumes survive parsing:
note-on, note-off, tempo, and end-of-track. Delta times of skipped
events are folded into the next kept event so timing stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NOTE_ON = "note_on"
NOTE_OFF = "note_off"
TEMPO = "tempo"
END_OF_TRACK = "end_of_track"

# Monophonic action encoding: 0 turns the current note off, 1 holds
# whatever state is in effect, and k in [2, 37] starts MIDI pitch 46+k,
# covering C3 (48) through B5 (83).
MELODY_NOTE_OFF = 0
MELODY_NO_EVENT = 1
MELODY_PITCH_BASE = 46
MELODY_LOW = 48
MELODY_HIGH = 83
MELODY_ACTIONS = 38

DEFAULT_DIVISION = 480
DEFAULT_TEMPO_BPM = 120.0

# Longest grid quantize builds: about nine hours of sixteenth notes at
# 120 bpm. A single 4-byte delta at division 1 would otherwise ask for
# about 1e9 steps, 77 GB of roll at 36 notes.
MAX_STEPS = 1 << 18

# Longest input parse_midi reads. A file of running-status note-ons
# costs about 43 bytes of memory per input byte to parse, so this bounds
# such a parse near 180 MB; a piece MAX_STEPS long at 10 notes/s is
# about 2.6 MB.
MAX_MIDI_BYTES = 1 << 22


class MidiParseError(ValueError):
    """Malformed MIDI input; message names the offending byte offset."""


@dataclass
class MidiEvent:
    """One timed event. delta is in ticks relative to the previous event
    on the same track. tempo_us (microseconds per quarter note) is only
    meaningful for tempo events."""

    delta: int
    kind: str
    pitch: int = 0
    velocity: int = 0
    tempo_us: int = 0


@dataclass
class MidiSong:
    ticks_per_quarter: int
    tracks: list = field(default_factory=list)


def action_pitch(action: int):
    """MIDI pitch for a melody action, or None for off/hold."""
    if action < 2:
        return None
    return MELODY_PITCH_BASE + action


@dataclass
class NoteStateMatrix:
    """Binary piano roll of shape (notes, steps, 2).

    Channel 0 says the note is sounding, channel 1 that it is being
    articulated (struck) at that step. A note can never be articulated
    without sounding, and the first step of every sounded run carries
    an articulation.
    """

    data: np.ndarray
    note_low: int
    steps_per_measure: int = 16

    @property
    def n_notes(self):
        return self.data.shape[0]

    @property
    def n_steps(self):
        return self.data.shape[1]

    def validate(self):
        d = self.data
        if d.ndim != 3 or d.shape[2] != 2:
            raise ValueError(f"expected shape (notes, steps, 2), got {d.shape}")
        if not np.isin(d, (0, 1)).all():
            raise ValueError("matrix entries must be 0 or 1")
        play = d[:, :, 0]
        artic = d[:, :, 1]
        if np.any((artic == 1) & (play == 0)):
            raise ValueError("articulation without a sounding note")
        starts = (play == 1) & (np.concatenate(
            [np.ones((d.shape[0], 1), dtype=bool), play[:, :-1] == 0], axis=1))
        if np.any(starts & (artic == 0)):
            raise ValueError("sounded run does not start with an articulation")
        if self.note_low < 0 or self.note_low + self.n_notes > 128:
            raise ValueError("note range leaves 0..127")
        if self.steps_per_measure < 1:
            raise ValueError("steps_per_measure must be positive")

    def copy(self):
        return NoteStateMatrix(self.data.copy(), self.note_low,
                               self.steps_per_measure)

    def __eq__(self, other):
        if not isinstance(other, NoteStateMatrix):
            return NotImplemented
        return (self.note_low == other.note_low
                and self.steps_per_measure == other.steps_per_measure
                and self.data.shape == other.data.shape
                and bool(np.array_equal(self.data, other.data)))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def error(self, message):
        raise MidiParseError(f"{message} at byte {self.pos}")

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
        """Variable-length quantity, big-endian 7-bit groups."""
        value = 0
        for _ in range(4):
            byte = self.u8("variable-length quantity")
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        self.error("variable-length quantity longer than 4 bytes")


def parse_midi(data: bytes) -> MidiSong:
    """Decode a format 0 or 1 standard MIDI file.

    Keeps note and tempo events with exact tick deltas; a running-status
    data byte with no prior status, a truncated chunk, or a bad header
    raises MidiParseError naming the byte offset. So does input longer
    than MAX_MIDI_BYTES, before any of it is parsed.
    """
    if len(data) > MAX_MIDI_BYTES:
        raise MidiParseError(f"input of {len(data)} bytes is over "
                             f"MAX_MIDI_BYTES ({MAX_MIDI_BYTES}) at byte "
                             f"{MAX_MIDI_BYTES}")
    r = _Reader(data)
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
            r.pos = chunk_end  # alien chunk, skip whole body
            continue
        tracks.append(_parse_track(r, chunk_end))
        r.pos = chunk_end
    return MidiSong(ticks_per_quarter=division, tracks=tracks)


def _parse_track(r: _Reader, chunk_end: int):
    events = []
    running_status = None
    pending_delta = 0
    while True:
        if r.pos >= chunk_end:
            r.error("track ended without end-of-track meta event")
        delta = r.vlq()
        pending_delta += delta
        status_pos = r.pos
        byte = r.u8("event status")
        if byte < 0x80:
            if running_status is None:
                raise MidiParseError(
                    f"running status with no prior status byte "
                    f"at byte {status_pos}")
            status = running_status
            r.pos = status_pos  # the byte was the first data byte
        else:
            status = byte
        if status == 0xFF:
            meta_type = r.u8("meta type")
            length = r.vlq()
            body = r.bytes(length, "meta event body")
            running_status = None
            if meta_type == 0x2F:
                events.append(MidiEvent(pending_delta, END_OF_TRACK))
                return events
            if meta_type == 0x51:
                if length != 3:
                    r.error(f"tempo meta event with length {length}")
                tempo_us = (body[0] << 16) | (body[1] << 8) | body[2]
                events.append(MidiEvent(pending_delta, TEMPO,
                                        tempo_us=tempo_us))
                pending_delta = 0
            continue
        if status in (0xF0, 0xF7):
            length = r.vlq()
            r.bytes(length, "sysex body")
            running_status = None
            continue
        if status >= 0xF0:
            raise MidiParseError(
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
            events.append(MidiEvent(pending_delta, NOTE_ON,
                                    pitch=d1, velocity=d2))
            pending_delta = 0
        elif kind == 0x80:
            events.append(MidiEvent(pending_delta, NOTE_OFF,
                                    pitch=d1, velocity=d2))
            pending_delta = 0
        # other two-byte channel messages are skipped


def _write_vlq(out: bytearray, value: int):
    if value < 0:
        raise ValueError(f"negative delta time {value}")
    groups = [value & 0x7F]
    value >>= 7
    while value:
        groups.append((value & 0x7F) | 0x80)
        value >>= 7
    out.extend(reversed(groups))


def serialize_midi(song: MidiSong) -> bytes:
    """Encode a MidiSong as standard MIDI bytes (format 0 for one track,
    format 1 otherwise). Every event carries an explicit status byte."""
    if not song.tracks:
        raise ValueError("song has no tracks")
    out = bytearray(b"MThd")
    out += (6).to_bytes(4, "big")
    fmt = 0 if len(song.tracks) == 1 else 1
    out += fmt.to_bytes(2, "big")
    out += len(song.tracks).to_bytes(2, "big")
    out += int(song.ticks_per_quarter).to_bytes(2, "big")
    for track in song.tracks:
        if not track or track[-1].kind != END_OF_TRACK:
            raise ValueError("track does not end with end-of-track")
        body = bytearray()
        for ev in track:
            _write_vlq(body, ev.delta)
            if ev.kind == NOTE_ON:
                body += bytes([0x90, ev.pitch & 0x7F, ev.velocity & 0x7F])
            elif ev.kind == NOTE_OFF:
                body += bytes([0x80, ev.pitch & 0x7F, ev.velocity & 0x7F])
            elif ev.kind == TEMPO:
                body += bytes([0xFF, 0x51, 0x03])
                body += int(ev.tempo_us).to_bytes(3, "big")
            elif ev.kind == END_OF_TRACK:
                body += bytes([0xFF, 0x2F, 0x00])
            else:
                raise ValueError(f"cannot serialize event kind {ev.kind!r}")
        out += b"MTrk"
        out += len(body).to_bytes(4, "big")
        out += body
    return bytes(out)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def quantize(song: MidiSong, note_low: int, n_notes: int,
             steps_per_measure: int = 16) -> NoteStateMatrix:
    """Snap a song to a fixed step grid (sixteenth notes at the default
    of 16 steps per 4/4 measure).

    Note boundaries round to the nearest step; notes that collapse to
    zero length or fall outside [note_low, note_low + n_notes) are
    dropped. A note-on with velocity 0 closes the note like a note-off.
    Tempo changes do not affect the tick grid. A song longer than
    MAX_STEPS steps raises ValueError before the roll is allocated.
    """
    if steps_per_measure < 1:
        raise ValueError("steps_per_measure must be positive")
    step_ticks = song.ticks_per_quarter * 4.0 / steps_per_measure
    notes = []          # (pitch, start_tick, end_tick)
    max_tick = 0
    saw_note_event = False
    for track in song.tracks:
        tick = 0
        active = {}     # pitch -> start tick
        for ev in track:
            tick += ev.delta
            if ev.kind == NOTE_ON and ev.velocity > 0:
                saw_note_event = True
                if ev.pitch in active:
                    notes.append((ev.pitch, active.pop(ev.pitch), tick))
                active[ev.pitch] = tick
            elif ev.kind == NOTE_OFF or (ev.kind == NOTE_ON
                                         and ev.velocity == 0):
                if ev.pitch in active:
                    notes.append((ev.pitch, active.pop(ev.pitch), tick))
        for pitch, start in active.items():
            notes.append((pitch, start, tick))  # dangling note-on
        max_tick = max(max_tick, tick)
    if not saw_note_event:
        raise ValueError("empty song: no note events")

    # every note ends by max_tick, so no note extends the grid
    end_step = _round_half_up(max_tick / step_ticks)
    if end_step > MAX_STEPS:
        raise ValueError(f"song spans {end_step} steps, more than "
                         f"MAX_STEPS = {MAX_STEPS}")
    quantized = []
    for pitch, start, end in notes:
        if not note_low <= pitch < note_low + n_notes:
            continue
        s = _round_half_up(start / step_ticks)
        e = _round_half_up(end / step_ticks)
        if e <= s:
            continue    # shorter than half a step
        quantized.append((pitch - note_low, s, e))

    n_steps = max(end_step, 1)
    data = np.zeros((n_notes, n_steps, 2), dtype=np.uint8)
    for row, s, e in quantized:
        data[row, s:e, 0] = 1
        data[row, s, 1] = 1
    return NoteStateMatrix(data, note_low, steps_per_measure)


def to_midi(matrix: NoteStateMatrix,
            tempo_bpm: float = DEFAULT_TEMPO_BPM) -> MidiSong:
    """Render a piano roll as a single-track song at division 480.

    Each step spans one grid unit (a sixteenth note at 16 steps per
    measure). At a shared tick, note-offs precede note-ons so re-struck
    pitches survive a round trip; end-of-track lands at the end of the
    final step so trailing silence is preserved.
    """
    matrix.validate()
    if tempo_bpm <= 0:
        raise ValueError("tempo must be positive")
    step_ticks = DEFAULT_DIVISION * 4.0 / matrix.steps_per_measure

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
                    timed.append((tick_of(t), 0, pitch, NOTE_OFF))
                timed.append((tick_of(t), 1, pitch, NOTE_ON))
                start = t
            elif not play[row, t] and start is not None:
                timed.append((tick_of(t), 0, pitch, NOTE_OFF))
                start = None
        if start is not None:
            timed.append((tick_of(matrix.n_steps), 0, pitch, NOTE_OFF))
    timed.sort(key=lambda e: (e[0], e[1], e[2]))

    tempo_us = _round_half_up(60_000_000.0 / tempo_bpm)
    track = [MidiEvent(0, TEMPO, tempo_us=tempo_us)]
    cursor = 0
    for tick, _, pitch, kind in timed:
        velocity = 72 if kind == NOTE_ON else 0
        track.append(MidiEvent(tick - cursor, kind,
                               pitch=pitch, velocity=velocity))
        cursor = tick
    end_tick = max(tick_of(matrix.n_steps), cursor)
    track.append(MidiEvent(end_tick - cursor, END_OF_TRACK))
    return MidiSong(ticks_per_quarter=DEFAULT_DIVISION, tracks=[track])
