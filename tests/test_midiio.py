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

    def test_oversized_input_rejected_before_parsing(self):
        data = header() + track_chunk(EOT)
        data += bytes(midiio.MAX_MIDI_BYTES + 1 - len(data))
        with pytest.raises(MidiParseError,
                           match=f"{midiio.MAX_MIDI_BYTES + 1} bytes"):
            midiio.parse_midi(data)

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


def parses_like_oracle(data: bytes):
    """parse_midi returns the byte-at-a-time oracle's song, or raises
    MidiParseError (its only way to fail) with the oracle's message."""
    try:
        expected = helpers.oracle_parse_midi(data)
    except MidiParseError as exc:
        with pytest.raises(MidiParseError) as got:
            midiio.parse_midi(data)
        assert str(got.value) == str(exc)
    else:
        assert midiio.parse_midi(data) == expected


# Deltas and events that reach every branch of the track decoder:
# multi-byte and over-long deltas, running status, skipped channel and
# system messages, tempo of good and bad length, end-of-track.
DELTAS = [bytes(b) for b in (
    [0x00], [0x78], [0x81, 0x00], [0xFF, 0xFF, 0xFF, 0x7F],
    [0x80, 0x80, 0x80, 0x80])]
EVENTS = [bytes(b) for b in (
    [0x90, 60, 64], [0x90, 60, 0], [0x80, 60, 0], [0x91, 127, 1], [62, 70],
    [0xB0, 7, 100], [0xC0, 5], [0xD0, 9], [0xF0, 0x02, 1, 2], [0xF7, 0x00],
    [0xF2], [0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20], [0xFF, 0x51, 0x02, 1, 2],
    [0xFF, 0x01, 0x81, 0x00] + [65] * 128, [0xFF, 0x2F, 0x00])]
TRACK_BODIES = st.builds(
    lambda events, eot: b"".join(d + e for d, e in events) + (EOT * eot),
    st.lists(st.tuples(st.sampled_from(DELTAS), st.sampled_from(EVENTS)),
             max_size=24),
    st.booleans())


class TestParseFuzz:

    @PROPERTIES
    @given(st.one_of(st.binary(max_size=64),
                     st.binary(max_size=96).map(lambda b: header() + b),
                     st.binary(max_size=96).map(
                         lambda b: header() + track_chunk(b))))
    def test_arbitrary_bytes(self, data):
        parses_like_oracle(data)

    @PROPERTIES
    @given(st.lists(st.tuples(st.integers(0, len(VALID_FILE) - 1),
                              st.integers(0, 255)), max_size=6),
           st.one_of(st.just(len(VALID_FILE)),
                     st.integers(0, len(VALID_FILE))))
    def test_mutated_valid_file(self, edits, keep):
        data = bytearray(VALID_FILE)
        for pos, value in edits:
            data[pos] = value
        parses_like_oracle(bytes(data[:keep]))

    @PROPERTIES
    @given(st.lists(st.one_of(TRACK_BODIES.map(track_chunk),
                              st.just(b"XFIH" + bytes([0, 0, 0, 1, 9]))),
                    min_size=1, max_size=3),
           st.sampled_from([None, 0, 1, 4]), st.sampled_from([0, 1, 3]))
    def test_spliced_events(self, chunks, n_tracks, drop):
        """Tracks spliced from whole events under a header declaring
        their number (or another), the file then cut short by drop
        bytes."""
        data = header(fmt=1, n_tracks=len(chunks) if n_tracks is None
                      else n_tracks) + b"".join(chunks)
        parses_like_oracle(data[:len(data) - drop])


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

    @staticmethod
    def one_note_song(**fields):
        """A valid song with the note-on's fields overridden."""
        note = dict(delta=0, kind=NOTE_ON, pitch=60, velocity=72)
        note.update(fields)
        return MidiSong(480, [[MidiEvent(0, TEMPO, tempo_us=500000),
                               MidiEvent(**note),
                               MidiEvent(0, END_OF_TRACK)]])

    def assert_round_trips(self, song):
        assert midiio.parse_midi(midiio.serialize_midi(song)) == song

    # Each field's largest legal value round trips; one past it, which
    # parse_midi would refuse or read back changed, is refused.
    def test_delta_over_four_vlq_bytes_rejected(self):
        self.assert_round_trips(self.one_note_song(delta=0x0FFFFFFF))
        with pytest.raises(ValueError,
                           match=r"track 0 event 1: delta 268435456 is "
                                 r"outside 0\.\.268435455"):
            midiio.serialize_midi(self.one_note_song(delta=1 << 28))

    def test_pitch_outside_midi_range_rejected(self):
        self.assert_round_trips(self.one_note_song(pitch=127))
        for pitch in (128, 200, -1):
            with pytest.raises(ValueError,
                               match=f"track 0 event 1: pitch {pitch} "):
                midiio.serialize_midi(self.one_note_song(pitch=pitch))

    def test_velocity_outside_midi_range_rejected(self):
        self.assert_round_trips(self.one_note_song(velocity=127))
        for velocity in (128, 300, -1):
            song = self.one_note_song(kind=NOTE_OFF, velocity=velocity)
            with pytest.raises(ValueError,
                               match=f"track 0 event 1: velocity {velocity} "):
                midiio.serialize_midi(song)

    def test_tempo_outside_three_bytes_rejected(self):
        song = self.one_note_song()
        song.tracks[0][0].tempo_us = 0xFFFFFF
        self.assert_round_trips(song)
        for tempo_us in (1 << 24, -1):
            song.tracks[0][0].tempo_us = tempo_us
            with pytest.raises(ValueError,
                               match=f"track 0 event 0: tempo_us {tempo_us} "):
                midiio.serialize_midi(song)

    def test_ticks_per_quarter_outside_metrical_range_rejected(self):
        song = self.one_note_song()
        for division in (1, 0x7FFF):
            song.ticks_per_quarter = division
            self.assert_round_trips(song)
        # 0x8064 would read back as SMPTE, 0 as a zero division
        for division in (0, 0x8000, 0x8064, 70000):
            song.ticks_per_quarter = division
            with pytest.raises(ValueError,
                               match=f"ticks_per_quarter {division} is "
                                     r"outside 1\.\.32767"):
                midiio.serialize_midi(song)

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


class TestToMidiOracle:

    @PROPERTIES
    @given(st.sampled_from([6, 1, 10, 3]),
           st.sampled_from([32, 1, 7, 40, 2, 16]), st.integers(0, 118),
           # 7, 9, 11 and 2500 do not divide 1920; above 1920 steps per
           # measure, neighbouring steps share a tick
           st.sampled_from([16, 3, 4, 7, 9, 11, 32, 1920, 2500, 4000]),
           st.sampled_from([120.0, 97.0, 61.3, 333.0]),
           st.sampled_from([0.15, 0.5, 0.85, 0.3, 0.0]),
           st.integers(0, 2**32 - 1))
    def test_bytes_match_the_cell_loop(self, n_notes, n_steps, note_low,
                                       steps_per_measure, tempo, density,
                                       seed):
        """Random valid rolls, silent ones (density 0) and one-step ones
        among them, with held notes, re-strikes and notes still sounding
        at the last step."""
        rng = np.random.default_rng(seed)
        play = rng.random((n_notes, n_steps)) < density
        artic = play & (rng.random((n_notes, n_steps)) < 0.3)
        artic[:, 0] |= play[:, 0]
        artic[:, 1:] |= play[:, 1:] & ~play[:, :-1]
        m = NoteStateMatrix(np.stack([play, artic], -1).astype(np.uint8),
                            note_low, steps_per_measure)
        expected = helpers.oracle_to_midi(m, tempo)
        song = midiio.to_midi(m, tempo)
        assert song == expected
        assert (midiio.serialize_midi(song)
                == midiio.serialize_midi(expected))


def note_events(pitches):
    """Note-ons (velocity 0 often), note-offs and tempo changes at
    deltas that land on, between and just off step boundaries."""
    delta = st.one_of(st.sampled_from([0, 0, 1, 59, 60, 61, 119, 120, 240]),
                      st.integers(0, 2000))
    return st.one_of(
        st.builds(lambda d, p, v: MidiEvent(d, NOTE_ON, p, v), delta,
                  pitches, st.one_of(st.just(0), st.integers(0, 127))),
        st.builds(lambda d, p, v: MidiEvent(d, NOTE_OFF, p, v), delta,
                  pitches, st.integers(0, 127)),
        st.builds(lambda d: MidiEvent(d, TEMPO, tempo_us=400000), delta))


def quantize_or_error(quantize, song, *args):
    try:
        return quantize(song, *args)
    except ValueError as exc:
        return str(exc)


class TestQuantizeOracle:

    @PROPERTIES
    @given(st.data())
    def test_matches_the_per_note_rasterizer(self, data):
        """Several tracks over a few rows, so same-pitch notes overlap
        across tracks, velocity-0 note-ons close notes and note-ons
        dangle at a track's end; pitches also fall outside the range."""
        note_low, n_notes = 60, 5
        tracks = data.draw(st.lists(
            st.lists(note_events(st.integers(58, 66)), max_size=30),
            min_size=1, max_size=4), "tracks")
        division = data.draw(st.sampled_from([480, 96, 7, 1]), "division")
        steps_per_measure = data.draw(st.integers(1, 24), "steps")
        song = MidiSong(division, tracks)
        args = (note_low, n_notes, steps_per_measure)
        assert (quantize_or_error(midiio.quantize, song, *args)
                == quantize_or_error(helpers.oracle_quantize, song, *args))


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
