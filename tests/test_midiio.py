"""MIDI parsing/writing and quantization checks."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
from rolltune import midiio
from rolltune.midiio import (MidiEvent, MidiParseError, MidiSong,
                             NoteStateMatrix, NOTE_ON, NOTE_OFF, TEMPO,
                             END_OF_TRACK)


def header(fmt=0, n_tracks=1, division=480):
    return (b"MThd" + (6).to_bytes(4, "big") + fmt.to_bytes(2, "big")
            + n_tracks.to_bytes(2, "big") + division.to_bytes(2, "big"))


def track_chunk(body: bytes):
    return b"MTrk" + len(body).to_bytes(4, "big") + body


EOT = bytes([0x00, 0xFF, 0x2F, 0x00])


# Property tests run a fixed, capped set of examples: no example
# database is written and a run repeats exactly.
PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestParse:
    def test_header_fields(self):
        data = header(division=480) + track_chunk(EOT)
        song = midiio.parse_midi(data)
        assert song.ticks_per_quarter == 480
        assert len(song.tracks) == 1
        assert song.tracks[0][-1].kind == END_OF_TRACK

    def test_bad_magic_names_offset(self):
        with pytest.raises(MidiParseError, match="byte 0"):
            midiio.parse_midi(b"RIFF" + bytes(20))

    def test_truncated_chunk_names_offset(self):
        body = track_chunk(EOT)
        data = header() + body[:-2]
        with pytest.raises(MidiParseError, match="byte"):
            midiio.parse_midi(data)

    def test_running_status_without_prior_status(self):
        body = bytes([0x00, 0x3C, 0x40]) + EOT  # data byte first
        with pytest.raises(MidiParseError, match="running status"):
            midiio.parse_midi(header() + track_chunk(body))

    def test_running_status_decodes(self):
        body = bytes([0x00, 0x90, 60, 64,     # explicit note-on
                      0x10, 64, 64,           # running status note-on
                      0x10, 0x80, 60, 0]) + EOT
        song = midiio.parse_midi(header() + track_chunk(body))
        kinds = [(e.kind, e.pitch, e.delta) for e in song.tracks[0]]
        assert kinds == [(NOTE_ON, 60, 0), (NOTE_ON, 64, 0x10),
                         (NOTE_OFF, 60, 0x10), (END_OF_TRACK, 0, 0)]

    def test_format_two_rejected(self):
        with pytest.raises(MidiParseError, match="format 2"):
            midiio.parse_midi(header(fmt=2) + track_chunk(EOT))

    def test_smpte_division_rejected(self):
        with pytest.raises(MidiParseError, match="SMPTE"):
            midiio.parse_midi(header(division=0xE728) + track_chunk(EOT))

    def test_skipped_event_delta_folds_into_next(self):
        body = bytes([
            0x05, 0xB0, 0x07, 0x40,   # control change, skipped
            0x05, 0x90, 60, 64,       # note-on 10 ticks in
        ]) + EOT
        song = midiio.parse_midi(header() + track_chunk(body))
        note = song.tracks[0][0]
        assert (note.kind, note.delta) == (NOTE_ON, 10)

    def test_tempo_event_payload(self):
        body = bytes([0x00, 0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20]) + EOT
        song = midiio.parse_midi(header() + track_chunk(body))
        assert song.tracks[0][0].kind == TEMPO
        assert song.tracks[0][0].tempo_us == 500000

    def test_missing_end_of_track(self):
        body = bytes([0x00, 0x90, 60, 64])
        with pytest.raises(MidiParseError, match="end-of-track"):
            midiio.parse_midi(header() + track_chunk(body))

    def test_alien_chunks_skipped(self):
        data = (header(n_tracks=1)
                + b"XFIH" + (3).to_bytes(4, "big") + b"abc"
                + track_chunk(EOT))
        song = midiio.parse_midi(data)
        assert len(song.tracks) == 1


def naive_note_spans(data: bytes):
    """Independent minimal reader used as a cross-check: returns
    (pitch, on_tick, off_tick) treating velocity-0 note-ons as offs."""
    assert data[:4] == b"MThd"
    pos = 14
    assert data[pos:pos + 4] == b"MTrk"
    pos += 8
    tick, status = 0, None
    active, spans = {}, []
    while pos < len(data):
        delta, shift = 0, True
        while shift:
            byte = data[pos]
            pos += 1
            delta = (delta << 7) | (byte & 0x7F)
            shift = bool(byte & 0x80)
        tick += delta
        if data[pos] >= 0x80:
            status = data[pos]
            pos += 1
        if status == 0xFF:
            mtype = data[pos]
            length = data[pos + 1]
            pos += 2 + length
            if mtype == 0x2F:
                break
            continue
        hi = status & 0xF0
        if hi in (0xC0, 0xD0):
            pos += 1
            continue
        d1, d2 = data[pos], data[pos + 1]
        pos += 2
        if hi == 0x90 and d2 > 0:
            active[d1] = tick
        elif hi == 0x80 or (hi == 0x90 and d2 == 0):
            if d1 in active:
                spans.append((d1, active.pop(d1), tick))
    return sorted(spans)


VALID_FILE = midiio.serialize_midi(midiio.to_midi(
    helpers.random_matrix(np.random.default_rng(3), n_notes=4, n_steps=8)))


def parse_or_parse_error(data: bytes):
    """parse_midi's only way to fail is MidiParseError."""
    try:
        midiio.parse_midi(data)
    except MidiParseError:
        pass


class TestParseFuzz:

    @PROPERTIES
    @given(st.one_of(st.binary(max_size=64),
                     st.binary(max_size=96).map(lambda b: header() + b),
                     st.binary(max_size=96).map(
                         lambda b: header() + track_chunk(b))))
    def test_arbitrary_bytes(self, data):
        parse_or_parse_error(data)

    @PROPERTIES
    @given(st.lists(st.tuples(st.integers(0, len(VALID_FILE) - 1),
                              st.integers(0, 255)), max_size=6),
           st.integers(0, len(VALID_FILE)))
    def test_mutated_valid_file(self, edits, keep):
        data = bytearray(VALID_FILE)
        for pos, value in edits:
            data[pos] = value
        parse_or_parse_error(bytes(data[:keep]))


class TestVelocityZero:
    def test_matches_reference_reader(self):
        body = bytes([0x00, 0x90, 60, 64,
                      0x78, 0x90, 60, 0x00,      # vel 0 acts as note-off
                      0x00, 0x90, 62, 64,
                      0x78, 0x80, 62, 0x00]) + EOT
        data = header() + track_chunk(body)
        ref = naive_note_spans(data)
        m = midiio.quantize(midiio.parse_midi(data), note_low=55, n_notes=12)
        ours = []
        for row in range(12):
            t = 0
            while t < m.n_steps:
                if m.data[row, t, 0]:
                    start = t
                    while t < m.n_steps and m.data[row, t, 0]:
                        t += 1
                    ours.append((55 + row, start * 120, t * 120))
                else:
                    t += 1
        assert sorted(ours) == ref


class TestSerialize:
    def test_round_trips_event_list(self):
        track = [
            MidiEvent(0, TEMPO, tempo_us=500000),
            MidiEvent(0, NOTE_ON, pitch=60, velocity=72),
            MidiEvent(240, NOTE_OFF, pitch=60, velocity=0),
            MidiEvent(1000, NOTE_ON, pitch=64, velocity=72),
            MidiEvent(480, NOTE_OFF, pitch=64, velocity=0),
            MidiEvent(0, END_OF_TRACK),
        ]
        song = MidiSong(480, [track])
        parsed = midiio.parse_midi(midiio.serialize_midi(song))
        assert parsed.ticks_per_quarter == 480
        assert parsed.tracks == song.tracks

    def test_bytes_stable(self):
        notes, n_steps = helpers.minuet_notes()
        a = helpers.song_from_notes(notes, n_steps)
        b = helpers.song_from_notes(notes, n_steps)
        assert a == b

    def test_track_missing_eot_rejected(self):
        song = MidiSong(480, [[MidiEvent(0, NOTE_ON, pitch=60, velocity=1)]])
        with pytest.raises(ValueError, match="end-of-track"):
            midiio.serialize_midi(song)


class TestNoteStateMatrix:
    def test_articulation_without_play_rejected(self):
        data = np.zeros((2, 3, 2), dtype=np.uint8)
        data[0, 1] = (0, 1)
        with pytest.raises(ValueError, match="articulation"):
            NoteStateMatrix(data, 60).validate()

    def test_run_without_onset_rejected(self):
        data = np.zeros((1, 3, 2), dtype=np.uint8)
        data[0, 1, 0] = 1   # sounding but never struck
        with pytest.raises(ValueError, match="articulation"):
            NoteStateMatrix(data, 60).validate()

    def test_valid_matrix_passes(self):
        m = helpers.random_matrix(np.random.default_rng(0))
        m.validate()


class TestQuantize:
    def song(self, events, division=480):
        track = list(events) + [MidiEvent(0, END_OF_TRACK)]
        return MidiSong(division, [track])

    def test_basic_grid(self):
        song = self.song([
            MidiEvent(0, NOTE_ON, pitch=60, velocity=64),
            MidiEvent(240, NOTE_OFF, pitch=60),   # half a quarter = 2 steps
        ])
        m = midiio.quantize(song, note_low=60, n_notes=1)
        assert m.n_steps == 2
        assert m.data[0].tolist() == [[1, 1], [1, 0]]

    def test_restrike_rearticulates(self):
        song = self.song([
            MidiEvent(0, NOTE_ON, pitch=60, velocity=64),
            MidiEvent(120, NOTE_ON, pitch=60, velocity=64),
            MidiEvent(120, NOTE_OFF, pitch=60),
        ])
        m = midiio.quantize(song, note_low=60, n_notes=1)
        assert m.data[0].tolist() == [[1, 1], [1, 1]]

    def test_rounding_to_nearest_step(self):
        song = self.song([
            MidiEvent(50, NOTE_ON, pitch=60, velocity=64),   # -> step 0
            MidiEvent(130, NOTE_OFF, pitch=60),              # 180 -> step 2
        ])
        m = midiio.quantize(song, note_low=60, n_notes=1)
        assert m.data[0, :, 0].tolist() == [1, 1]

    def test_sub_half_step_note_dropped(self):
        song = self.song([
            MidiEvent(0, NOTE_ON, pitch=60, velocity=64),
            MidiEvent(40, NOTE_OFF, pitch=60),
            MidiEvent(440, NOTE_ON, pitch=62, velocity=64),
            MidiEvent(240, NOTE_OFF, pitch=62),
        ])
        m = midiio.quantize(song, note_low=60, n_notes=3)
        assert not m.data[0].any()
        assert m.data[2, 4, 1] == 1

    def test_out_of_range_pitches_dropped(self):
        song = self.song([
            MidiEvent(0, NOTE_ON, pitch=30, velocity=64),
            MidiEvent(0, NOTE_ON, pitch=60, velocity=64),
            MidiEvent(240, NOTE_OFF, pitch=30),
            MidiEvent(0, NOTE_OFF, pitch=60),
        ])
        m = midiio.quantize(song, note_low=60, n_notes=2)
        assert m.data[:, :, 0].sum() == 2

    def test_empty_song_rejected(self):
        song = self.song([MidiEvent(0, TEMPO, tempo_us=500000)])
        with pytest.raises(ValueError, match="empty song"):
            midiio.quantize(song, note_low=60, n_notes=2)

    def test_oversized_grid_rejected_before_allocating(self):
        song = midiio.parse_midi(helpers.huge_delta_file())
        assert song.tracks[0][1].delta == 0x0FFFFFFF
        with pytest.raises(ValueError, match="MAX_STEPS"):
            midiio.quantize(song, note_low=48, n_notes=36)

    def test_grid_of_max_steps_is_accepted(self):
        song = self.song([
            MidiEvent(0, NOTE_ON, pitch=60, velocity=64),
            MidiEvent(midiio.MAX_STEPS, NOTE_OFF, pitch=60),
        ], division=4)                      # one tick per step
        m = midiio.quantize(song, note_low=60, n_notes=1)
        assert m.n_steps == midiio.MAX_STEPS
        song.tracks[0][-1].delta = 1
        with pytest.raises(ValueError, match="MAX_STEPS"):
            midiio.quantize(song, note_low=60, n_notes=1)


class TestRoundTrip:
    def test_all_silent_matrix_renders_tempo_and_eot_only(self):
        m = NoteStateMatrix(np.zeros((4, 8, 2), dtype=np.uint8), 60)
        song = midiio.to_midi(m)
        kinds = [e.kind for e in song.tracks[0]]
        assert kinds == [TEMPO, END_OF_TRACK]
        assert song.tracks[0][-1].delta == 8 * 120

    def test_single_note(self):
        data = np.zeros((1, 4, 2), dtype=np.uint8)
        data[0, 1:3, 0] = 1
        data[0, 1, 1] = 1
        m = NoteStateMatrix(data, 72)
        rt = midiio.quantize(midiio.to_midi(m), note_low=72, n_notes=1)
        assert rt == m

    def test_property_random_matrices(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            m = helpers.random_matrix(
                rng,
                n_notes=int(rng.integers(3, 12)),
                n_steps=int(rng.integers(4, 48)),
                note_low=int(rng.integers(30, 90)),
            )
            rt = midiio.quantize(midiio.to_midi(m), note_low=m.note_low,
                                 n_notes=m.n_notes)
            assert rt == m, f"round trip changed the matrix on trial {trial}"

    @PROPERTIES
    @given(st.data())
    def test_property_serialized_round_trip(self, data):
        n_notes = data.draw(st.integers(1, 12), "n_notes")
        n_steps = data.draw(st.integers(1, 40), "n_steps")
        note_low = data.draw(st.integers(0, 128 - n_notes), "note_low")
        cells = st.lists(st.booleans(), min_size=n_notes * n_steps,
                         max_size=n_notes * n_steps)
        play = np.array(data.draw(cells, "play")).reshape(n_notes, n_steps)
        artic = np.array(data.draw(cells, "artic")).reshape(n_notes, n_steps)
        # quantize rejects a song with no note events
        play[data.draw(st.integers(0, n_notes - 1), "row"),
             data.draw(st.integers(0, n_steps - 1), "step")] = True
        artic &= play
        artic[:, 0] |= play[:, 0]
        artic[:, 1:] |= play[:, 1:] & ~play[:, :-1]
        m = NoteStateMatrix(np.stack([play, artic], axis=-1).astype(np.uint8),
                            note_low)
        m.validate()
        data_bytes = midiio.serialize_midi(midiio.to_midi(m))
        rt = midiio.quantize(midiio.parse_midi(data_bytes),
                             note_low=note_low, n_notes=n_notes)
        assert rt == m

    def test_serialized_bytes_round_trip(self):
        m = helpers.random_matrix(np.random.default_rng(5))
        data = midiio.serialize_midi(midiio.to_midi(m))
        again = midiio.serialize_midi(midiio.parse_midi(data))
        assert data == again
