"""Metric suite tests, centered on an independently written brute-force
oracle that recomputes every report row from scratch."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rolltune import metrics, theory
from rolltune.metrics import (MetricReport, evaluate, report_from_csv,
                              report_table, report_to_csv, song_metrics)
from rolltune.theory import TheoryConfig

CFG = TheoryConfig()

C_MAJOR_PCS = {0, 2, 4, 5, 7, 9, 11}


def naive_pitches(actions):
    return [46 + a for a in actions if a >= 2]


def naive_series(actions):
    held = None
    out = []
    for a in actions:
        if a >= 2:
            held = 46 + a
        out.append(held)
    if all(v is None for v in out):
        return None
    first = next(v for v in out if v is not None)
    filled = []
    prev = first
    for v in out:
        prev = v if v is not None else prev
        filled.append(float(prev))
    # rests carry the previous pitch: "None" after a note-off means the
    # pitch that sounded before it, which the loop above already does
    # because note-offs never reset `held`... they don't appear in it.
    return filled


def naive_pearson(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd * xd).sum() * (yd * yd).sum())
    return float((xd * yd).sum() / denom) if denom else 0.0


def naive_song_metrics(actions):
    """Report rows recomputed with plain loops and no shared helpers."""
    actions = list(actions)
    p = naive_pitches(actions)
    row = {}

    row["notes_repeated_pct"] = (
        100.0 * sum(1 for i in range(1, len(p)) if p[i] == p[i - 1])
        / (len(p) - 1) if len(p) > 1 else 0.0)

    series = naive_series(actions)
    for lag in (1, 2, 3):
        if series is None or len(series) <= lag + 1:
            row[f"mean_autocorr_lag{lag}"] = 0.0
        else:
            row[f"mean_autocorr_lag{lag}"] = naive_pearson(series[:-lag],
                                                           series[lag:])

    row["notes_not_in_key_pct"] = (
        100.0 * sum(1 for q in p if q % 12 not in C_MAJOR_PCS) / len(p)
        if p else 0.0)
    row["melody_starts_tonic_pct"] = 100.0 * bool(p and p[0] % 12 == 0)

    leaps = resolved = 0
    for i in range(len(p) - 2):
        first = p[i + 1] - p[i]
        second = p[i + 2] - p[i + 1]
        if abs(first) >= 7:
            leaps += 1
            if (first > 0 and second < 0) or (first < 0 and second > 0):
                resolved += 1
    row["leaps_resolved_pct"] = 100.0 * resolved / leaps if leaps else 0.0

    row["unique_highest_pct"] = 100.0 * bool(p and p.count(max(p)) == 1)
    row["unique_lowest_pct"] = 100.0 * bool(p and p.count(min(p)) == 1)

    covered = set()
    covered_rep = set()
    for start in range(0, len(actions) - 7):
        window = actions[start:start + 8]
        wp = naive_pitches(window)
        if len(set(wp)) >= 3:
            covered.update(range(start, start + 8))
            before = naive_pitches(actions[:start + 8])
            earlier = before[:len(before) - len(wp)]
            q = len(wp)
            if any(earlier[i:i + q] == wp
                   for i in range(len(earlier) - q + 1)):
                covered_rep.update(range(start, start + 8))
    onset_idx = [i for i, a in enumerate(actions) if a >= 2]
    row["notes_in_motif_pct"] = (
        100.0 * sum(1 for i in onset_idx if i in covered) / len(p)
        if p else 0.0)
    row["notes_in_repeated_motif_pct"] = (
        100.0 * sum(1 for i in onset_idx if i in covered_rep) / len(p)
        if p else 0.0)
    return row


def naive_evaluate(melodies):
    rows = [naive_song_metrics(m) for m in melodies]
    n = len(rows)
    agg = {k: math.fsum(r[k] for r in rows) / n for k in rows[0]}
    return MetricReport(song_count=n, **agg)


def random_melodies(seed, count, length=32):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        # Mix onsets with holds and rests so every rule path is hit.
        probs = [0.1, 0.35] + [0.55 / 36] * 36
        out.append([int(a) for a in
                    rng.choice(38, size=length, p=probs)])
    return out


class TestSongMetrics:

    def test_single_pitch_hammering(self):
        report = evaluate([[10] * 8], CFG)
        assert report.notes_repeated_pct == 100.0
        assert report.unique_highest_pct == 0.0
        assert report.unique_lowest_pct == 0.0

    def test_ascending_major_scale(self):
        scale = [14, 16, 18, 19, 21, 23, 25, 26]
        report = evaluate([scale], CFG)
        assert report.notes_not_in_key_pct == 0.0
        assert report.melody_starts_tonic_pct == 100.0
        assert report.notes_repeated_pct == 0.0
        assert report.unique_highest_pct == 100.0
        assert report.unique_lowest_pct == 100.0

    def test_all_rest_melody_contributes_zeros(self):
        row = song_metrics([0, 1] * 8, CFG)
        for name, value in row.items():
            assert value == 0.0, name

    def test_leap_resolution_counts_only_followed_leaps(self):
        # 60 ->67 is a leap resolved downward; the final 67 ->79 leap has
        # no successor so it never enters the denominator.
        melody = [14, 21, 18, 21, 33]
        row = song_metrics(melody, CFG)
        assert row["leaps_resolved_pct"] == 100.0
        # Unison after a leap counts as unresolved.
        row = song_metrics([14, 21, 21], CFG)
        assert row["leaps_resolved_pct"] == 0.0


class TestOracleEquivalence:

    def test_fifty_random_melodies_match_exactly(self):
        melodies = random_melodies(seed=4, count=50)
        got = evaluate(melodies, CFG)
        want = naive_evaluate(melodies)
        assert got == want

    def test_edge_shapes_match_exactly(self):
        cases = [[1] * 10, [0] * 10, [14] * 12, [2, 4, 6, 7] * 4,
                 list(range(2, 34)), [14]]
        got = evaluate(cases, CFG)
        want = naive_evaluate(cases)
        assert got == want


class TestEvaluateInvariants:

    def test_permutation_invariance_is_exact(self):
        melodies = random_melodies(seed=5, count=20)
        shuffled = list(melodies)
        np.random.default_rng(0).shuffle(shuffled)
        assert evaluate(melodies, CFG) == evaluate(shuffled, CFG)

    def test_empty_list_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate([], CFG)

    def test_action_outside_the_encoding_is_rejected(self):
        """Action 99 is no MIDI pitch 145: it is refused as theory_reward
        refuses it, not scored as a note out of key."""
        for bad in (99, 38, -1):
            with pytest.raises(ValueError,
                               match=r"action must be in \[0, 38\)"):
                evaluate([[bad] * 32], CFG)
            with pytest.raises(ValueError, match="action must be in"):
                song_metrics([2, 5, bad, 9], CFG)

    def test_zero_key_penalty_iff_zero_out_of_key_metric(self):
        for melody in random_melodies(seed=6, count=30, length=24):
            penalty = math.fsum(
                theory.theory_reward(melody[:i], a, CFG).key
                for i, a in enumerate(melody))
            row = song_metrics(melody, CFG)
            assert (penalty == 0.0) == (row["notes_not_in_key_pct"] == 0.0)


class TestSerialization:

    def test_csv_round_trip_is_lossless(self):
        report = evaluate(random_melodies(seed=7, count=9), CFG)
        assert report_from_csv(report_to_csv(report)) == report

    def test_csv_rows_follow_table_order(self):
        report = evaluate([[14, 16, 18]], CFG)
        rows = report_to_csv(report).strip().splitlines()
        names = [line.split(",")[0] for line in rows[1:]]
        assert names == [n for n, _ in metrics.METRIC_LABELS] + \
            ["song_count"]

    def test_bad_header_and_missing_fields_are_rejected(self):
        with pytest.raises(ValueError, match="header"):
            report_from_csv("bogus\n")
        report = evaluate([[14]], CFG)
        text = report_to_csv(report)
        clipped = "\n".join(text.strip().splitlines()[:-2]) + "\n"
        with pytest.raises(ValueError, match="mismatch"):
            report_from_csv(clipped)

    def test_repeated_metric_is_rejected(self):
        """A second row for a metric is refused, not read as its later
        value."""
        text = report_to_csv(evaluate([[14, 16, 18]], CFG))
        with pytest.raises(ValueError, match="repeats metric "
                                             "'notes_repeated_pct'"):
            report_from_csv(text + "notes_repeated_pct,55.0\n")

    def test_table_lists_every_metric(self):
        report = evaluate(random_melodies(seed=8, count=3), CFG)
        table = report_table(report)
        lines = table.strip().splitlines()
        assert len(lines) == len(metrics.METRIC_LABELS) + 1
        for _, label in metrics.METRIC_LABELS:
            assert any(line.startswith(label) for line in lines)


class TestReportValidation:

    def test_out_of_range_values_are_rejected(self):
        good = evaluate([[14, 16, 18]], CFG)
        with pytest.raises(ValueError, match="outside"):
            replace(good, notes_repeated_pct=101.0).validate()
        with pytest.raises(ValueError, match="outside"):
            replace(good, mean_autocorr_lag2=1.5).validate()
        with pytest.raises(ValueError, match="song_count"):
            replace(good, song_count=0).validate()

    @pytest.mark.parametrize("row, raw, message", [
        ("mean_autocorr_lag1", "nan", "mean_autocorr_lag1 is not finite"),
        ("leaps_resolved_pct", "100.5", "leaps_resolved_pct = 100.5 outside"),
        ("notes_not_in_key_pct", "-1.0",
         "notes_not_in_key_pct = -1.0 outside"),
        ("song_count", "0", "song_count must be positive"),
        ("song_count", "1.5", "report row song_count: invalid literal"),
        ("notes_repeated_pct", "abc",
         "report row notes_repeated_pct: could not convert"),
    ])
    def test_parsed_report_is_validated(self, row, raw, message):
        """A report read back from CSV is held to what evaluate()
        promises, and the refusal names the row."""
        lines = report_to_csv(evaluate([[14, 16, 18]], CFG)).splitlines()
        text = "\n".join(f"{row},{raw}" if line.startswith(row + ",")
                         else line for line in lines) + "\n"
        with pytest.raises(ValueError, match=message):
            report_from_csv(text)
