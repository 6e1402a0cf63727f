"""Input-feature expansion checked against a brute-force re-derivation."""

import numpy as np
import pytest

import helpers
from rolltune import features
from rolltune.midiio import NoteStateMatrix


def brute_force_column(column, note_low, position):
    """Independent loop oracle for one (N, 2) column at an absolute step
    position: returns its (N, 80) expansion."""
    n = len(column)
    out = np.zeros((n, 80))
    for note in range(n):
        midi = note_low + note
        vec = []
        vec.append(midi / 128.0)
        one_hot = [0.0] * 12
        one_hot[midi % 12] = 1.0
        vec.extend(one_hot)
        for offset in range(-12, 13):
            other = note + offset
            if 0 <= other < n:
                vec.append(float(column[other][0]))
                vec.append(float(column[other][1]))
            else:
                vec.extend([0.0, 0.0])
        counts = [0.0] * 12
        for other in range(n):
            if column[other][0]:
                counts[(note_low + other) % 12] += 1.0
        vec.extend(counts)
        beat = position % 16
        vec.extend(float((beat >> bit) & 1) for bit in range(4))
        vec.append(0.0)
        out[note] = vec
    return out


def brute_force_expand(matrix):
    """The column oracle over every step of a roll, (N, T, 80)."""
    return np.stack([brute_force_column(matrix.data[:, t], matrix.note_low, t)
                     for t in range(matrix.n_steps)], axis=1)


class TestExpand:
    def test_all_silent(self):
        m = NoteStateMatrix(np.zeros((4, 3, 2), dtype=np.uint8), 60)
        feats = features.expand(m)
        assert feats.shape == (4, 3, 80)
        # only the static identity features and beat bits are nonzero
        assert feats[:, :, 13:75].sum() == 0
        np.testing.assert_allclose(feats[2, 0, 0], 62 / 128.0)
        assert feats[2, 0, 1 + (62 % 12)] == 1.0

    def test_single_note_example(self):
        data = np.zeros((88, 2, 2), dtype=np.uint8)
        row = 60 - 21
        data[row, 0] = (1, 1)
        m = NoteStateMatrix(data, 21)
        feats = features.expand(m)
        # the vicinity center pair of the sounding note reads (1, 1)
        center = 13 + 2 * 12
        assert feats[row, 0, center] == 1.0
        assert feats[row, 0, center + 1] == 1.0
        # pitch-class counts are a one-hot at class 0 (C) for every note
        counts = feats[5, 0, 63:75]
        assert counts.tolist() == [1.0] + [0.0] * 11
        # beat bits at t = 0 are all zero
        assert feats[row, 0, 75:79].tolist() == [0.0] * 4
        assert feats[row, 1, 75:79].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        m = helpers.random_matrix(rng, n_notes=30, n_steps=33, note_low=40,
                                  density=0.2)
        np.testing.assert_array_equal(features.expand(m),
                                      brute_force_expand(m))

    def test_matches_brute_force_full_range(self):
        rng = np.random.default_rng(43)
        m = helpers.random_matrix(rng, n_notes=88, n_steps=17, note_low=21,
                                  density=0.1)
        np.testing.assert_array_equal(features.expand(m),
                                      brute_force_expand(m))

    def test_beat_bits_lsb_first(self):
        m = NoteStateMatrix(np.zeros((1, 20, 2), dtype=np.uint8), 60)
        feats = features.expand(m)
        for t in range(20):
            bits = feats[0, t, 75:79]
            assert int(sum(b * 2 ** k for k, b in enumerate(bits))) == t % 16

    def test_pad_lane_always_zero(self):
        rng = np.random.default_rng(44)
        m = helpers.random_matrix(rng, n_notes=12, n_steps=8)
        assert features.expand(m)[:, :, 79].sum() == 0

    def test_translation_covariance_interior(self):
        # shifting content up k rows shifts vicinity rows and rotates the
        # pitch-class features for interior notes
        rng = np.random.default_rng(45)
        shift = 5
        base = helpers.random_matrix(rng, n_notes=40, n_steps=6, note_low=30,
                                     density=0.2)
        base.data[-shift:] = 0   # nothing may fall off the top when shifted
        shifted_data = np.zeros_like(base.data)
        shifted_data[shift:] = base.data[:-shift]
        shifted = NoteStateMatrix(shifted_data, 30)
        fa = features.expand(base)
        fb = features.expand(shifted)
        for note in range(12 + shift, 40 - 12):
            np.testing.assert_array_equal(fb[note, :, 13:63],
                                          fa[note - shift, :, 13:63])
            np.testing.assert_array_equal(
                np.roll(fb[note, :, 63:75], -shift, axis=1),
                fa[note - shift, :, 63:75])

    def test_expand_batch_consistent_with_expand(self):
        rng = np.random.default_rng(46)
        mats = [helpers.random_matrix(rng, n_notes=10, n_steps=7, note_low=50)
                for _ in range(3)]
        batch = np.stack([m.data for m in mats])
        feats = features.expand_batch(batch, 50)
        for k, m in enumerate(mats):
            np.testing.assert_array_equal(feats[k], features.expand(m))

    def test_negative_positions_wrap(self):
        cols = np.zeros((1, 4, 2))
        feats = features.expand_columns(cols, 60, np.array([-1]))
        bits = feats[0, 0, 75:79]
        assert bits.tolist() == [1.0, 1.0, 1.0, 1.0]   # position 15

    @pytest.mark.parametrize("rows", [1, 3, 32])
    def test_batched_columns_match_brute_force(self, rows):
        rng = np.random.default_rng(47 + rows)
        n_notes, note_low = 30, 41
        cols = np.stack([helpers.random_matrix(
            rng, n_notes=n_notes, n_steps=1, note_low=note_low,
            density=0.3).data[:, 0] for _ in range(rows)])
        positions = rng.integers(-40, 200, size=rows)
        positions[0] = -1
        feats = features.expand_columns(cols.astype(np.float64), note_low,
                                        positions)
        assert feats.shape == (rows, n_notes, 80)
        for r in range(rows):
            np.testing.assert_array_equal(
                feats[r], brute_force_column(cols[r], note_low,
                                             int(positions[r])))
