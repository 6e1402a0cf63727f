"""Standard MIDI file reading/writing and the piano-roll data types.

The parser works directly on bytes: chunk headers, variable-length
quantities, running status, and meta events are all decoded here rather
than through a third-party reader, so malformed input can be reported
with exact byte offsets and the writer/reader pair can guarantee
bit-stable round trips: the writer refuses any field the reader would
reject or read back changed.

Only the events the rest of the package consumes survive parsing:
note-on, note-off, tempo, and end-of-track. Delta times of skipped
events are folded into the next kept event so timing stays exact.
The parser walks byte offsets and to_midi/quantize work on whole
arrays; tests/helpers.py keeps the loop-at-a-time oracles they match.
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
# Largest tempo, in microseconds per quarter note, that a tempo event's
# 3-byte field holds: about 3.58 bpm.
MAX_TEMPO_US = 0xFFFFFF

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
        if not ((d == 0) | (d == 1)).all():
            raise ValueError("matrix entries must be 0 or 1")
        play = d[:, :, 0]
        artic = d[:, :, 1]
        if (artic > play).any():
            raise ValueError("articulation without a sounding note")
        # a sounding step needs its own strike or a sounding step before
        struck_or_held = np.maximum(play[:, :-1], artic[:, 1:])
        if (play[:, :1] > artic[:, :1]).any() or (
                play[:, 1:] > struck_or_held).any():
            raise ValueError("sounded run does not start with an articulation")
        if self.note_low < 0 or self.note_low + self.n_notes > 128:
            raise ValueError("note range leaves 0..127")
        if self.steps_per_measure < 1:
            raise ValueError("steps_per_measure must be positive")

    def __eq__(self, other):
        if not isinstance(other, NoteStateMatrix):
            return NotImplemented
        return (self.note_low == other.note_low
                and self.steps_per_measure == other.steps_per_measure
                and self.data.shape == other.data.shape
                and bool(np.array_equal(self.data, other.data)))


def _truncated(what, want, have, pos):
    return MidiParseError(f"truncated {what}: wanted {want} bytes, "
                          f"have {have} at byte {pos}")


def _field(data: bytes, pos: int, width: int, what: str) -> int:
    """The big-endian unsigned integer of width bytes at pos."""
    if len(data) - pos < width:
        raise _truncated(what, width, len(data) - pos, pos)
    return int.from_bytes(data[pos:pos + width], "big")


def _vlq(data: bytes, pos: int):
    """Variable-length quantity (big-endian 7-bit groups, at most four)
    starting at pos; returns (value, offset after it)."""
    value = 0
    for at in range(pos, pos + 4):
        if at >= len(data):
            raise _truncated("variable-length quantity", 1, 0, at)
        byte = data[at]
        value = (value << 7) | (byte & 0x7F)
        if byte < 0x80:
            return value, at + 1
    raise MidiParseError("variable-length quantity longer than 4 bytes "
                         f"at byte {pos + 4}")


def parse_midi(data: bytes) -> MidiSong:
    """Decode a format 0 or 1 standard MIDI file.

    Keeps note and tempo events with exact tick deltas; a running-status
    data byte with no prior status, a truncated chunk, or a bad header
    raises MidiParseError naming the byte offset. So does input longer
    than MAX_MIDI_BYTES, before any of it is parsed.
    """
    n = len(data)
    if n > MAX_MIDI_BYTES:
        raise MidiParseError(f"input of {n} bytes is over "
                             f"MAX_MIDI_BYTES ({MAX_MIDI_BYTES}) at byte "
                             f"{MAX_MIDI_BYTES}")
    _field(data, 0, 4, "header")
    if data[:4] != b"MThd":
        raise MidiParseError("malformed header: expected MThd at byte 0")
    header_len = _field(data, 4, 4, "header length")
    if header_len < 6:
        raise MidiParseError(f"malformed header: length {header_len} < 6 "
                             "at byte 8")
    fmt = _field(data, 8, 2, "format")
    n_tracks = _field(data, 10, 2, "track count")
    division = _field(data, 12, 2, "division")
    if n - 14 < header_len - 6:
        raise _truncated("header padding", header_len - 6, n - 14, 14)
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported format {fmt} at byte 8")
    if division & 0x8000:
        raise MidiParseError("SMPTE division is not supported at byte 12")
    if division == 0:
        raise MidiParseError("division of zero ticks at byte 12")
    if n_tracks < 1:
        raise MidiParseError("no tracks declared at byte 10")

    pos = 8 + header_len
    tracks = []
    while len(tracks) < n_tracks:
        if pos == n:
            raise MidiParseError(f"expected {n_tracks} tracks, found "
                                 f"{len(tracks)} at byte {pos}")
        _field(data, pos, 4, "chunk type")
        chunk_len = _field(data, pos + 4, 4, "chunk length")
        chunk_end = pos + 8 + chunk_len
        if chunk_end > n:
            raise MidiParseError(f"truncated chunk: declared {chunk_len} "
                                 f"bytes at byte {pos + 8}")
        if data[pos:pos + 4] == b"MTrk":
            tracks.append(_parse_track(data, pos + 8, chunk_end))
        pos = chunk_end     # an alien chunk's whole body is skipped
    return MidiSong(ticks_per_quarter=division, tracks=tracks)


def _parse_track(data: bytes, pos: int, chunk_end: int):
    """Events of the track whose body starts at pos. Reads are bounded
    by the whole input, not by chunk_end: an event only has to start
    inside the chunk, and may run past its declared end."""
    n = len(data)
    events = []
    append = events.append
    running_status = None
    pending_delta = 0
    while True:
        if pos >= chunk_end:    # so the delta's first byte is in data
            raise MidiParseError("track ended without end-of-track meta "
                                 f"event at byte {pos}")
        delta = data[pos]
        if delta < 0x80:
            pos += 1
        else:
            delta, pos = _vlq(data, pos)
        pending_delta += delta
        if pos == n:
            raise _truncated("event status", 1, 0, pos)
        status = data[pos]
        if status < 0x80:
            if running_status is None:
                raise MidiParseError("running status with no prior status "
                                     f"byte at byte {pos}")
            status = running_status     # the byte was the first data byte
        else:
            pos += 1
        if status < 0xF0:
            running_status = status
            kind = status & 0xF0
            if kind == 0xC0 or kind == 0xD0:
                if pos == n:
                    raise _truncated("channel message data", 1, 0, pos)
                pos += 1
                continue
            if pos + 2 > n:
                raise _truncated("event data", 1, 0, n)
            if kind == 0x90 or kind == 0x80:
                append(MidiEvent(pending_delta, NOTE_ON if kind == 0x90
                                 else NOTE_OFF, data[pos], data[pos + 1]))
                pending_delta = 0
            # other two-byte channel messages are skipped
            pos += 2
            continue
        running_status = None
        if status == 0xFF:
            if pos == n:
                raise _truncated("meta type", 1, 0, pos)
            meta_type = data[pos]
            length, pos = _vlq(data, pos + 1)
            if n - pos < length:
                raise _truncated("meta event body", length, n - pos, pos)
            pos += length
            if meta_type == 0x2F:
                append(MidiEvent(pending_delta, END_OF_TRACK))
                return events
            if meta_type == 0x51:
                if length != 3:
                    raise MidiParseError("tempo meta event with length "
                                         f"{length} at byte {pos}")
                tempo_us = int.from_bytes(data[pos - 3:pos], "big")
                append(MidiEvent(pending_delta, TEMPO, tempo_us=tempo_us))
                pending_delta = 0
        elif status == 0xF0 or status == 0xF7:
            length, pos = _vlq(data, pos)
            if n - pos < length:
                raise _truncated("sysex body", length, n - pos, pos)
            pos += length
        else:
            raise MidiParseError(f"unexpected system message 0x{status:02x} "
                                 f"at byte {pos - 1}")


def _write_vlq(out: bytearray, value: int):
    groups = [value & 0x7F]
    value >>= 7
    while value:
        groups.append((value & 0x7F) | 0x80)
        value >>= 7
    out.extend(reversed(groups))


def _check_field(track, index, name, value, high):
    if not 0 <= value <= high:
        raise ValueError(f"track {track} event {index}: {name} {value} is "
                         f"outside 0..{high}")


def serialize_midi(song: MidiSong) -> bytes:
    """Encode a MidiSong as standard MIDI bytes (format 0 for one track,
    format 1 otherwise). Every event carries an explicit status byte.

    A field parse_midi would refuse or read back changed (a delta over
    0x0FFFFFFF, pitch or velocity outside 0..127, tempo_us outside
    0..0xFFFFFF, ticks_per_quarter outside 1..0x7FFF) is a ValueError
    naming the track, the event index and the field."""
    if not song.tracks:
        raise ValueError("song has no tracks")
    division = int(song.ticks_per_quarter)
    if not 1 <= division <= 0x7FFF:
        raise ValueError(f"ticks_per_quarter {division} is outside "
                         "1..32767")
    out = bytearray(b"MThd")
    out += (6).to_bytes(4, "big")
    fmt = 0 if len(song.tracks) == 1 else 1
    out += fmt.to_bytes(2, "big")
    out += len(song.tracks).to_bytes(2, "big")
    out += division.to_bytes(2, "big")
    for t, track in enumerate(song.tracks):
        if not track or track[-1].kind != END_OF_TRACK:
            raise ValueError("track does not end with end-of-track")
        body = bytearray()
        for i, ev in enumerate(track):
            delta = ev.delta
            if delta < 0:
                raise ValueError(f"negative delta time {delta}")
            if delta < 0x80:
                body.append(delta)
            else:
                _check_field(t, i, "delta", delta, 0x0FFFFFFF)
                _write_vlq(body, delta)
            kind = ev.kind
            if kind == NOTE_ON or kind == NOTE_OFF:
                pitch, velocity = ev.pitch, ev.velocity
                if not (0 <= pitch <= 127 and 0 <= velocity <= 127):
                    _check_field(t, i, "pitch", pitch, 127)
                    _check_field(t, i, "velocity", velocity, 127)
                body.extend((0x90 if kind == NOTE_ON else 0x80,
                             pitch, velocity))
            elif kind == TEMPO:
                tempo_us = int(ev.tempo_us)
                _check_field(t, i, "tempo_us", tempo_us, MAX_TEMPO_US)
                body += b"\xff\x51\x03"
                body += tempo_us.to_bytes(3, "big")
            elif kind == END_OF_TRACK:
                body += b"\xff\x2f\x00"
            else:
                raise ValueError(f"cannot serialize event kind {kind!r}")
        out += b"MTrk"
        out += len(body).to_bytes(4, "big")
        out += body
    return bytes(out)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def tempo_us_of(tempo_bpm: float) -> int:
    """Microseconds per quarter note at tempo_bpm, rounded half up, as
    to_midi writes them; ValueError (NaN included) unless they land in
    the tempo field's 1..MAX_TEMPO_US."""
    beat = 60_000_000.0 / tempo_bpm if tempo_bpm > 0 else math.nan
    if not 1.0 <= beat + 0.5 < MAX_TEMPO_US + 1:
        raise ValueError(f"tempo_bpm must be positive, with a beat that "
                         f"rounds to a tempo_us in 1..{MAX_TEMPO_US}; "
                         f"got {tempo_bpm!r}")
    return _round_half_up(beat)


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
    if steps_per_measure < 1 or song.ticks_per_quarter < 1:
        raise ValueError("steps_per_measure, ticks_per_quarter must be > 0")
    step_ticks = song.ticks_per_quarter * 4.0 / steps_per_measure
    notes = []          # flat (pitch, start tick, end tick) triples
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
                    notes += (ev.pitch, active.pop(ev.pitch), tick)
                active[ev.pitch] = tick
            elif ev.kind == NOTE_OFF or (ev.kind == NOTE_ON
                                         and ev.velocity == 0):
                if ev.pitch in active:
                    notes += (ev.pitch, active.pop(ev.pitch), tick)
        for pitch, start in active.items():
            notes += (pitch, start, tick)       # dangling note-on
        max_tick = max(max_tick, tick)
    if not saw_note_event:
        raise ValueError("empty song: no note events")

    # every note ends by max_tick, so no note extends the grid
    end_step = _round_half_up(max_tick / step_ticks)
    if end_step > MAX_STEPS:
        raise ValueError(f"song spans {end_step} steps, more than "
                         f"MAX_STEPS = {MAX_STEPS}")
    n_steps = max(end_step, 1)
    notes = np.array(notes, dtype=np.int64).reshape(-1, 3)
    rows = notes[:, 0] - note_low
    bounds = np.floor(notes[:, 1:] / step_ticks + 0.5).astype(np.int64)
    keep = (rows >= 0) & (rows < n_notes) & (bounds[:, 1] > bounds[:, 0])
    rows, s, e = rows[keep], bounds[keep, 0], bounds[keep, 1]
    # +1 where a note starts and -1 where it ends: a positive running
    # sum along a row is the union of its notes, overlaps included
    edges = np.zeros((n_notes, n_steps + 1), dtype=np.int32)
    np.add.at(edges, (rows, s), 1)
    np.subtract.at(edges, (rows, e), 1)
    np.cumsum(edges, axis=1, out=edges)
    data = np.zeros((n_notes, n_steps, 2), dtype=np.uint8)
    np.greater(edges[:, :-1], 0, out=data[:, :, 0], casting="unsafe")
    data[rows, s, 1] = 1
    return NoteStateMatrix(data, note_low, steps_per_measure)


def to_midi(matrix: NoteStateMatrix,
            tempo_bpm: float = DEFAULT_TEMPO_BPM) -> MidiSong:
    """Render a piano roll as a single-track song at division 480.

    Each step spans one grid unit (a sixteenth note at 16 steps per
    measure). At a shared tick, note-offs precede note-ons so re-struck
    pitches survive a round trip; end-of-track lands at the end of the
    final step so trailing silence is preserved. The tempo must pass
    tempo_us_of; a roll over MAX_STEPS steps (quantize's limit) is refused.
    """
    matrix.validate()
    if matrix.n_steps > MAX_STEPS:
        raise ValueError(f"roll of {matrix.n_steps} steps exceeds MAX_STEPS")
    tempo_us = tempo_us_of(tempo_bpm)
    step_ticks = DEFAULT_DIVISION * 4.0 / matrix.steps_per_measure
    n_notes, n_steps = matrix.n_notes, matrix.n_steps
    width = n_steps + 1
    # one silent step on each side: column k + 1 holds step k, so each
    # of the width positions k compares step k with step k - 1
    cells = np.zeros((n_notes, n_steps + 2, 2), dtype=np.uint8)
    cells[:, 1:-1] = matrix.data
    play, artic = cells[:, 1:, 0], cells[:, 1:, 1]
    prev = cells[:, :-1, 0]
    # bits, and artic <= play: these are play & (~prev | artic) and
    # prev & (~play | artic)
    ons = np.flatnonzero(play + artic > prev)
    offs = np.flatnonzero(prev > play - artic)
    tick_of = np.floor(np.arange(width) * step_ticks + 0.5).astype(np.int64)
    at = np.concatenate([offs, ons])
    ticks = tick_of[at % width]
    onsets = np.repeat([0, 1], [len(offs), len(ons)])
    pitches = at // width + matrix.note_low
    by_time = np.lexsort((pitches, onsets, ticks))   # offs first at a tick
    ticks = ticks[by_time]
    onsets = onsets[by_time].tolist()

    track = [MidiEvent(0, TEMPO, tempo_us=tempo_us)]
    track += map(MidiEvent, np.diff(ticks, prepend=0).tolist(),
                 map((NOTE_OFF, NOTE_ON).__getitem__, onsets),
                 pitches[by_time].tolist(), map((0, 72).__getitem__, onsets))
    cursor = int(ticks[-1]) if len(ticks) else 0
    track.append(MidiEvent(int(tick_of[-1]) - cursor, END_OF_TRACK))
    return MidiSong(ticks_per_quarter=DEFAULT_DIVISION, tracks=[track])
