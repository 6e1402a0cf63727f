"""Quantitative report over generated melodies.

Every statistic reuses the predicates from the theory module, so a
melody that takes zero key penalty is guaranteed to score 0% on the
out-of-key metric, and so on. Per-song values are averaged over the
song list; songs where a statistic is undefined (no onsets, no leaps)
contribute 0 to that row, a convention the docstrings call out where
it applies.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import theory
from .theory import MOTIF_WINDOW, TheoryConfig

METRIC_LABELS = (
    ("notes_repeated_pct", "Notes repeated"),
    ("mean_autocorr_lag1", "Mean autocorrelation - lag 1"),
    ("mean_autocorr_lag2", "Mean autocorrelation - lag 2"),
    ("mean_autocorr_lag3", "Mean autocorrelation - lag 3"),
    ("notes_not_in_key_pct", "Notes not in key"),
    ("melody_starts_tonic_pct", "Melodies starting with the tonic"),
    ("leaps_resolved_pct", "Leaps resolved"),
    ("unique_highest_pct", "Melodies with a unique highest note"),
    ("unique_lowest_pct", "Melodies with a unique lowest note"),
    ("notes_in_motif_pct", "Notes in a motif"),
    ("notes_in_repeated_motif_pct", "Notes in a repeated motif"),
)


@dataclass(frozen=True)
class MetricReport:
    notes_repeated_pct: float
    mean_autocorr_lag1: float
    mean_autocorr_lag2: float
    mean_autocorr_lag3: float
    notes_not_in_key_pct: float
    melody_starts_tonic_pct: float
    leaps_resolved_pct: float
    unique_highest_pct: float
    unique_lowest_pct: float
    notes_in_motif_pct: float
    notes_in_repeated_motif_pct: float
    song_count: int

    def validate(self):
        for name, _ in METRIC_LABELS:
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} is not finite")
            if name.endswith("_pct") and not 0.0 <= v <= 100.0:
                raise ValueError(f"{name} = {v} outside [0, 100]")
            if name.startswith("mean_autocorr") and not -1.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [-1, 1]")
        if self.song_count < 1:
            raise ValueError("song_count must be positive")


def song_metrics(actions, config: TheoryConfig) -> dict:
    """Per-song values for every report row, keyed by field name.

    Percentages are 0 when their denominator is empty: a melody with no
    onsets repeats nothing, and one with no (followed) leaps resolves
    nothing. Boolean rows (tonic start, unique extremes) come back as
    0.0 or 100.0 so the aggregate mean is a percentage of songs.
    """
    actions = list(actions)
    pitches = theory.onset_pitches(actions)
    out = {}

    # Numerator: onsets equal to the previous sounded pitch. The first
    # onset has no predecessor, so the denominator is the transition
    # count: eight hammered onsets of one pitch score 100%, not 7/8.
    repeats = sum(1 for a, b in zip(pitches, pitches[1:]) if a == b)
    out["notes_repeated_pct"] = _pct(repeats, max(len(pitches) - 1, 0))

    series = theory.pitch_series(actions)
    for lag in theory.AUTOCORR_LAGS:
        value = 0.0 if series is None else theory.autocorr(series, lag)
        out[f"mean_autocorr_lag{lag}"] = value

    outside = sum(1 for p in pitches if not theory.in_key(p, config))
    out["notes_not_in_key_pct"] = _pct(outside, len(pitches))

    starts = bool(pitches) and pitches[0] % 12 == config.key_root
    out["melody_starts_tonic_pct"] = 100.0 * starts

    leaps = resolved = 0
    for i in range(len(pitches) - 2):
        move = pitches[i + 1] - pitches[i]
        if abs(move) >= theory.LEAP_SEMITONES:
            leaps += 1
            follow = pitches[i + 2] - pitches[i + 1]
            if follow != 0 and (follow > 0) != (move > 0):
                resolved += 1
    out["leaps_resolved_pct"] = _pct(resolved, leaps)

    out["unique_highest_pct"] = \
        100.0 * (bool(pitches) and pitches.count(max(pitches)) == 1)
    out["unique_lowest_pct"] = \
        100.0 * (bool(pitches) and pitches.count(min(pitches)) == 1)

    in_motif, in_repeated = _motif_coverage(actions, pitches)
    out["notes_in_motif_pct"] = _pct(in_motif, len(pitches))
    out["notes_in_repeated_motif_pct"] = _pct(in_repeated, len(pitches))
    return out


def _pct(count, denom) -> float:
    return 100.0 * count / denom if denom else 0.0


def _motif_coverage(actions, pitches):
    """Count onsets covered by at least one motif window, and by at
    least one window whose material recurs earlier in the piece.
    pitches are the song's onset pitches; with before[k] the number of
    onsets among the first k actions, each window's pitches and the
    earlier ones are slices of them."""
    onset_at = np.array([theory.is_onset(a) for a in actions], dtype=bool)
    before = [0, *itertools.accumulate(onset_at.tolist())]
    motif = np.zeros(len(actions), dtype=bool)
    repeated = np.zeros(len(actions), dtype=bool)
    for end in range(MOTIF_WINDOW, len(actions) + 1):
        first = before[end - MOTIF_WINDOW]
        window = pitches[first:before[end]]
        if theory.is_motif(window):
            motif[end - MOTIF_WINDOW:end] = True
            if theory.occurs_in(window, pitches[:first]):
                repeated[end - MOTIF_WINDOW:end] = True
    return (int(np.count_nonzero(motif & onset_at)),
            int(np.count_nonzero(repeated & onset_at)))


def evaluate(melodies, config: TheoryConfig) -> MetricReport:
    """Average per-song metrics over a list of melodies.

    Sums use math.fsum, which is correctly rounded, so the report is
    bit-identical under any permutation of the song list.
    """
    if not melodies:
        raise ValueError("cannot evaluate an empty melody list")
    values = {name: [] for name, _ in METRIC_LABELS}
    for melody in melodies:
        for name, value in song_metrics(melody, config).items():
            values[name].append(value)
    n = len(melodies)
    report = MetricReport(song_count=n,
                          **{name: math.fsum(vs) / n
                             for name, vs in values.items()})
    report.validate()
    return report


def report_to_csv(report: MetricReport) -> str:
    """One metric per row; floats via repr so parsing is lossless."""
    lines = ["metric,value"]
    for name, _ in METRIC_LABELS:
        lines.append(f"{name},{getattr(report, name)!r}")
    lines.append(f"song_count,{report.song_count}")
    return "\n".join(lines) + "\n"


def report_from_csv(text: str) -> MetricReport:
    values = {}
    stream = io.StringIO(text)
    header = stream.readline().strip()
    if header != "metric,value":
        raise ValueError(f"unexpected report header {header!r}")
    for line in stream:
        line = line.strip()
        if not line:
            continue
        name, _, raw = line.partition(",")
        if name in values:
            raise ValueError(f"report repeats metric {name!r}")
        if name == "song_count":
            values[name] = int(raw)
        else:
            values[name] = float(raw)
    known = {f.name for f in fields(MetricReport)}
    if set(values) != known:
        missing = sorted(known - set(values))
        extra = sorted(set(values) - known)
        raise ValueError(f"report fields mismatch: missing {missing}, "
                         f"unknown {extra}")
    return MetricReport(**values)


def report_table(report: MetricReport) -> str:
    """Aligned two-column text table, one row per metric."""
    width = max(len(label) for _, label in METRIC_LABELS)
    lines = []
    for name, label in METRIC_LABELS:
        value = getattr(report, name)
        if name.endswith("_pct"):
            rendered = f"{value:7.2f}%"
        else:
            rendered = f"{value:8.4f}"
        lines.append(f"{label:<{width}}  {rendered}")
    lines.append(f"{'Songs evaluated':<{width}}  {report.song_count:8d}")
    return "\n".join(lines) + "\n"
