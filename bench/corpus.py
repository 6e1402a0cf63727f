"""Seeded polyphonic corpus for the benchmark.

Every song is a three-voice piece in the desk register (MIDI 48..83):
a bass line, an inner voice of held chord tones and a running melody,
all in one randomly chosen major key on a sixteenth-note grid. Voices
keep to disjoint pitch bands, so no two voices ever share a row of the
piano roll. Songs are rendered through the package's own MIDI writer
and each is checked to survive the writer and reader unchanged, so the
command line sees ordinary standard MIDI files and nothing else.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from rolltune import midiio

NOTE_LOW = 48
N_NOTES = 36
STEPS_PER_MEASURE = 16
MAJOR = (0, 2, 4, 5, 7, 9, 11)

# (lowest pitch, highest pitch, durations in steps, chance of a rest)
VOICES = (
    (48, 59, (4, 8, 8, 16), 0.05),
    (60, 69, (2, 4, 4, 8), 0.15),
    (70, 83, (1, 2, 2, 4), 0.10),
)


def _voice_notes(rng, key_root, low, high, durations, rest_chance,
                 n_steps):
    """(pitch, start, end) triples for one voice, moving stepwise or by
    small leaps through the key's scale."""
    scale = [p for p in range(low, high + 1) if (p - key_root) % 12 in MAJOR]
    notes = []
    idx = int(rng.integers(len(scale)))
    t = 0
    while t < n_steps:
        dur = int(durations[int(rng.integers(len(durations)))])
        end = min(t + dur, n_steps)
        if rng.random() >= rest_chance:
            notes.append((scale[idx], t, end))
        idx = int(np.clip(idx + rng.integers(-2, 3), 0, len(scale) - 1))
        t = end
    return notes


def synthesize_song(rng, n_measures: int) -> midiio.NoteStateMatrix:
    """One valid desk-register piano roll of n_measures measures."""
    n_steps = n_measures * STEPS_PER_MEASURE
    key_root = int(rng.integers(12))
    data = np.zeros((N_NOTES, n_steps, 2), dtype=np.uint8)
    for low, high, durations, rest_chance in VOICES:
        for pitch, start, end in _voice_notes(rng, key_root, low, high,
                                              durations, rest_chance,
                                              n_steps):
            row = pitch - NOTE_LOW
            data[row, start:end, 0] = 1
            data[row, start, 1] = 1
    matrix = midiio.NoteStateMatrix(data, NOTE_LOW, STEPS_PER_MEASURE)
    matrix.validate()
    return matrix


def write_corpus(directory, seed: int, n_songs: int = 8,
                 measures=(6, 10)) -> list:
    """Write n_songs seeded songs as .mid files under directory and
    return their paths. Raises ValueError if any song fails to round
    trip through to_midi/serialize_midi and back."""
    rng = np.random.default_rng([seed, 0x6D696469])
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(n_songs):
        matrix = synthesize_song(
            rng, int(rng.integers(measures[0], measures[1] + 1)))
        song = midiio.to_midi(matrix)
        if midiio.quantize(song, NOTE_LOW, N_NOTES,
                           STEPS_PER_MEASURE) != matrix:
            raise ValueError(f"song {k} of seed {seed} does not survive "
                             "quantize(to_midi(m))")
        data = midiio.serialize_midi(song)
        if midiio.quantize(midiio.parse_midi(data), NOTE_LOW, N_NOTES,
                           STEPS_PER_MEASURE) != matrix:
            raise ValueError(f"song {k} of seed {seed} does not survive "
                             "its serialized MIDI bytes")
        path = directory / f"song_{k:02d}.mid"
        path.write_bytes(data)
        paths.append(path)
    return paths
