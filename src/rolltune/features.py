"""Per-note input features for the recurrent model.

Every (note, step) cell of a piano roll expands to an 80-wide vector:

  [ 0]      MIDI number of the note, scaled by 1/128
  [ 1..12]  one-hot pitch class (0 = C)
  [13..62]  vicinity: the (play, articulate) pairs of the 25 notes from
            an octave below to an octave above, ascending, zeros past
            the edges of the roll
  [63..74]  count of sounding notes in each pitch class at this step
  [75..78]  position within the measure as 4 binary digits of
            (step mod 16), least significant first
  [79]      constant zero pad

The expansion has no parameters and depends only on the step's own
column plus the step index, which lets generation and the tuner expand
single columns on the fly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .nn import Workspace

FEATURE_WIDTH = 80
VICINITY_RADIUS = 12
_VICINITY = 2 * VICINITY_RADIUS + 1
BEAT_PERIOD = 16


@lru_cache(maxsize=None)
def _constants(note_low: int, n: int):
    """The parts of an expansion that depend only on the note range,
    read-only: the scaled MIDI column (N,), the pitch-class one-hot
    (N, 12) and the beat-bit table (16, 4) by step mod 16."""
    midi = note_low + np.arange(n)
    beat_bits = (np.arange(BEAT_PERIOD)[:, None] >> np.arange(4)) & 1
    consts = (midi / 128.0, np.eye(12)[midi % 12],
              beat_bits.astype(np.float64))
    for arr in consts:
        arr.setflags(write=False)
    return consts


def expand_columns(columns: np.ndarray, note_low: int,
                   positions: np.ndarray, ws=None) -> np.ndarray:
    """Expand a batch of single-step columns.

    columns has shape (R, N, 2) and positions (R,), giving each column's
    absolute step index (negative values wrap, so a column seeded one
    step before a piece starts sits at the last beat of a measure).
    Returns (R, N, FEATURE_WIDTH) float64, an array of the nn.Workspace
    ws.
    """
    ws = Workspace() if ws is None else ws
    columns = np.asarray(columns, dtype=np.float64)
    r, n, _ = columns.shape
    midi_scaled, pitch_class, beat_bits = _constants(note_low, n)
    out = ws.empty("features", (r, n, FEATURE_WIDTH))
    out[:, :, FEATURE_WIDTH - 1] = 0.0
    out[:, :, 0] = midi_scaled
    out[:, :, 1:13] = pitch_class

    # Row j's vicinity is the 50 contiguous values of the padded column
    # starting at pair j: a read-only view with the padded array's own
    # strides, one pair apart per row, and nothing copied.
    padded = np.zeros((r, n + 2 * VICINITY_RADIUS, 2))
    padded[:, VICINITY_RADIUS:VICINITY_RADIUS + n] = columns
    vicinity = np.ndarray((r, n, 2 * _VICINITY), np.float64, padded, 0,
                          padded.strides)
    vicinity.flags.writeable = False
    out[:, :, 13:63] = vicinity

    # Summing 0/1 play bits is exact in any order.
    out[:, :, 63:75] = (columns[:, :, 0] @ pitch_class)[:, None, :]

    beat = np.mod(np.asarray(positions, dtype=np.int64), BEAT_PERIOD)
    out[:, :, 75:79] = beat_bits[beat][:, None, :]
    return out


def expand_batch(batch: np.ndarray, note_low: int, ws=None) -> np.ndarray:
    """Expand a batch of rolls (B, N, T, 2) to (B, N, T, FEATURE_WIDTH);
    every segment is assumed to start on a measure boundary.

    The columns are expanded time-major, so the result is a view of a
    contiguous (T, B, N, FEATURE_WIDTH) array: the time scan's input
    layout, which model.timewise_pass then reads without a copy.
    """
    b, n, t, _ = batch.shape
    cols = np.transpose(batch, (2, 0, 1, 3)).reshape(t * b, n, 2)
    positions = np.repeat(np.arange(t), b)
    feats = expand_columns(cols, note_low, positions, ws)
    return np.transpose(feats.reshape(t, b, n, FEATURE_WIDTH), (1, 2, 0, 3))
