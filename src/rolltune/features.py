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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .midiio import NoteStateMatrix
from .nn import buffer

FEATURE_WIDTH = 80
VICINITY_RADIUS = 12
_VICINITY = 2 * VICINITY_RADIUS + 1
_BEAT_PERIOD = 16


def expand_columns(columns: np.ndarray, note_low: int,
                   positions: np.ndarray, ws=None) -> np.ndarray:
    """Expand a batch of single-step columns.

    columns has shape (R, N, 2) and positions (R,), giving each column's
    absolute step index (negative values wrap, so a column seeded one
    step before a piece starts sits at the last beat of a measure).
    Returns (R, N, FEATURE_WIDTH) float64, the array of the nn.Workspace
    ws when one is given.
    """
    columns = np.asarray(columns, dtype=np.float64)
    r, n, _ = columns.shape
    out = buffer(ws, "features", (r, n, FEATURE_WIDTH))
    out[:, :, FEATURE_WIDTH - 1] = 0.0
    midi = note_low + np.arange(n)
    out[:, :, 0] = midi / 128.0
    pitch_class = np.eye(12)[midi % 12]                  # (N, 12) one-hot
    out[:, :, 1:13] = pitch_class

    # Row j's vicinity is the 50 values of the padded, flattened column
    # starting at pair j, so it is one window of a sliding view.
    padded = np.zeros((r, n + 2 * VICINITY_RADIUS, 2))
    padded[:, VICINITY_RADIUS:VICINITY_RADIUS + n] = columns
    out[:, :, 13:63] = sliding_window_view(
        padded.reshape(r, -1), 2 * _VICINITY, axis=1)[:, ::2]

    # Summing 0/1 play bits is exact in any order.
    out[:, :, 63:75] = (columns[:, :, 0] @ pitch_class)[:, None, :]

    beat = np.mod(np.asarray(positions, dtype=np.int64), _BEAT_PERIOD)
    out[:, :, 75:79] = ((beat[:, None] >> np.arange(4)) & 1)[:, None, :]
    return out


def expand(matrix: NoteStateMatrix) -> np.ndarray:
    """Expand a whole piano roll to (N, T, FEATURE_WIDTH).

    Step 0 of the matrix is taken to sit on a measure boundary.
    """
    cols = np.transpose(matrix.data, (1, 0, 2))       # (T, N, 2)
    feats = expand_columns(cols, matrix.note_low,
                           np.arange(matrix.n_steps))
    return np.transpose(feats, (1, 0, 2))             # (N, T, 80)


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
