"""Rule-based reward over monophonic melodies.

A melody is a sequence of 38-way actions (note-off, no-event, or one of
36 pitch onsets; see midiio). Each rule inspects the melody formed by
appending a proposed action to the history and contributes a signed
amount from a configurable table. The same predicates double as the
evaluation metrics, so the reward and the report can never drift apart.

Conventions used throughout:
  * holds sustain whatever the previous action established,
  * note-offs introduce silence,
  * pitch class arithmetic is modulo 12 relative to the configured key.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .midiio import (MELODY_NO_EVENT, MELODY_NOTE_OFF, MELODY_ACTIONS,
                     action_pitch)

MAJOR_DEGREES = frozenset({0, 2, 4, 5, 7, 9, 11})
MINOR_DEGREES = frozenset({0, 2, 3, 5, 7, 8, 10})

GOOD_INTERVALS = frozenset({0, 3, 4, 5, 7, 8, 12})
CLUMSY_INTERVALS = frozenset({6, 11})
OCTAVE = 12
LEAP_SEMITONES = 7

MOTIF_WINDOW = 8
MOTIF_DISTINCT = 3

TONIC_OPENING_STEPS = 4     # the first beat, in sixteenth steps
TONIC_CLOSING_STEPS = 16    # the last four beats

AUTOCORR_SPAN = 16
AUTOCORR_LAGS = (1, 2, 3)

# config field annotation -> (accepted type, name in messages); a bool
# passes only where the annotation is bool
TYPED_FIELDS = {"int": (numbers.Integral, "an integer"),
                "float": (numbers.Real, "a real number"),
                "bool": (bool, "a boolean")}


@dataclass
class TheoryConfig:
    """Key, thresholds, and the per-rule reward table; RunConfig extends it."""

    key_root: int = 0             # pitch class of the tonic, 0 = C
    key_mode: str = "major"
    episode_len: int = 32         # steps; places the closing tonic window

    key_penalty: float = -1.0
    tonic_reward: float = 3.0
    max_repeats: int = 4
    repeat_penalty: float = -1.0
    autocorr_threshold: float = 0.15
    autocorr_penalty: float = -3.0
    interval_reward: float = 0.5
    clumsy_penalty: float = -1.0
    leap_resolution_reward: float = 1.0
    leap_continuation_penalty: float = -1.0
    extreme_reward: float = 1.0
    extreme_retouch_penalty: float = -1.0
    motif_reward: float = 1.0
    repeated_motif_reward: float = 4.0

    def __post_init__(self):
        TheoryConfig.validate(self)

    def validate(self):
        """Type-check every numeric and boolean field, a subclass's too,
        then the ranges the rules need."""
        # Annotations are strings here (postponed evaluation).
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type in TYPED_FIELDS:
                kind, noun = TYPED_FIELDS[f.type]
                if isinstance(v, bool) != (f.type == "bool") \
                        or not isinstance(v, kind):
                    raise ValueError(f"{f.name} must be {noun}, got {v!r}")
                if f.type == "float" and not np.isfinite(v):
                    raise ValueError(f"{f.name} must be finite")
        if not 0 <= self.key_root < 12:
            raise ValueError(f"key_root must be a pitch class, "
                             f"got {self.key_root}")
        if self.key_mode not in ("major", "minor"):
            raise ValueError(f"key_mode must be 'major' or 'minor', "
                             f"got {self.key_mode!r}")
        if self.autocorr_threshold <= 0:
            raise ValueError("autocorr_threshold must be positive")
        if self.max_repeats < 1:
            raise ValueError("max_repeats must be at least 1")
        if self.episode_len < 1:
            raise ValueError("episode_len must be positive")
        return self

    @classmethod
    def from_run_config(cls, cfg) -> "TheoryConfig":
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})

    def scale_degrees(self) -> frozenset:
        base = MAJOR_DEGREES if self.key_mode == "major" else MINOR_DEGREES
        return frozenset((d + self.key_root) % 12 for d in base)


@dataclass(frozen=True)
class RewardBreakdown:
    """Signed per-rule contributions; total is their exact sum."""

    key: float = 0.0
    tonic: float = 0.0
    repeat: float = 0.0
    autocorrelation: float = 0.0
    interval: float = 0.0
    leap: float = 0.0
    extrema: float = 0.0
    motif: float = 0.0
    total: float = 0.0

    @classmethod
    def make(cls, **contributions) -> "RewardBreakdown":
        return cls(total=sum(contributions.values()), **contributions)


def in_key(pitch: int, config: TheoryConfig) -> bool:
    return pitch % 12 in config.scale_degrees()


def is_onset(action: int) -> bool:
    return action >= 2


def onset_pitches(actions) -> list:
    """MIDI pitches of every onset, in order."""
    return [action_pitch(a) for a in actions if is_onset(a)]


def pitch_series(actions):
    """Per-step pitch signal for periodicity checks.

    Holds extend the sounding pitch, rests carry the previous value so a
    pause does not masquerade as novelty, and any leading silence is
    backfilled with the first pitch. None when nothing ever sounds.
    """
    pitches = np.zeros(len(actions))
    current = None
    first_onset = None
    for i, a in enumerate(actions):
        if is_onset(a):
            current = action_pitch(a)
            if first_onset is None:
                first_onset = i
        if current is not None:
            pitches[i] = current
    if first_onset is None:
        return None
    pitches[:first_onset] = pitches[first_onset]
    return pitches


def autocorr(series, lag: int) -> float:
    """Pearson correlation of a series with its lag-shifted copy.

    Series too short to overlap, or with a constant slice, correlate as
    0 so the periodicity rule simply stays inactive.
    """
    series = np.asarray(series, dtype=np.float64)
    if len(series) <= lag + 1:
        return 0.0
    x = series[:-lag]
    y = series[lag:]
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd * xd).sum() * (yd * yd).sum())
    if denom == 0.0:
        return 0.0
    return float((xd * yd).sum() / denom)


def repeat_run(actions) -> int:
    """Length of the trailing same-pitch onset run.

    Holds keep a run alive, rests and different pitches end it. Zero
    when the last action is not an onset.
    """
    actions = list(actions)
    if not actions or not is_onset(actions[-1]):
        return 0
    pitch = action_pitch(actions[-1])
    run = 1
    for a in reversed(actions[:-1]):
        if a == MELODY_NO_EVENT:
            continue
        if a == MELODY_NOTE_OFF or action_pitch(a) != pitch:
            break
        run += 1
    return run


def motif_content(actions):
    """Onset pitches inside the trailing motif window, or None when the
    melody is shorter than the window."""
    if len(actions) < MOTIF_WINDOW:
        return None
    return onset_pitches(list(actions)[-MOTIF_WINDOW:])


def is_motif(window_pitches) -> bool:
    return (window_pitches is not None
            and len(set(window_pitches)) >= MOTIF_DISTINCT)


def motif_repeats_earlier(actions) -> bool:
    """True when the trailing window is a motif whose pitch sequence
    already occurred, contiguously, in earlier onsets."""
    seq = motif_content(actions)
    if not is_motif(seq):
        return False
    all_pitches = onset_pitches(actions)
    return occurs_in(seq, all_pitches[:len(all_pitches) - len(seq)])


def occurs_in(seq, pitches) -> bool:
    """True when the list seq occurs contiguously in the list pitches."""
    n, q = len(pitches), len(seq)
    return any(pitches[i:i + q] == seq for i in range(n - q + 1))


def theory_reward(history, action: int,
                  config: TheoryConfig) -> RewardBreakdown:
    """Score an action against the melody so far.

    history holds the actions already taken; the rules see the melody
    with the action appended, at step index len(history).
    """
    if not 0 <= action < MELODY_ACTIONS:
        raise ValueError(f"action must be in [0, {MELODY_ACTIONS}), "
                         f"got {action}")
    past = list(history)
    melody = past + [action]
    step = len(past)
    parts = dict(key=0.0, tonic=0.0, repeat=0.0, autocorrelation=0.0,
                 interval=0.0, leap=0.0, extrema=0.0, motif=0.0)

    if is_onset(action):
        pitch = action_pitch(action)
        if not in_key(pitch, config):
            parts["key"] = config.key_penalty

        opening = step < TONIC_OPENING_STEPS
        closing = step >= config.episode_len - TONIC_CLOSING_STEPS
        if pitch % 12 == config.key_root and (opening or closing):
            parts["tonic"] = config.tonic_reward

        if repeat_run(melody) > config.max_repeats:
            parts["repeat"] = config.repeat_penalty

        previous = onset_pitches(past)
        if previous:
            move = pitch - previous[-1]
            d = abs(move)
            if d in GOOD_INTERVALS:
                parts["interval"] = config.interval_reward
            elif d in CLUMSY_INTERVALS or d > OCTAVE:
                parts["interval"] = config.clumsy_penalty

            if len(previous) >= 2:
                prior_move = previous[-1] - previous[-2]
                if abs(prior_move) >= LEAP_SEMITONES and move != 0:
                    if (move > 0) == (prior_move > 0):
                        parts["leap"] = config.leap_continuation_penalty
                    else:
                        parts["leap"] = config.leap_resolution_reward

            high, low = max(previous), min(previous)
            if pitch > high:
                parts["extrema"] += config.extreme_reward
            elif pitch == high:
                parts["extrema"] += config.extreme_retouch_penalty
            if pitch < low:
                parts["extrema"] += config.extreme_reward
            elif pitch == low:
                parts["extrema"] += config.extreme_retouch_penalty

    series = pitch_series(melody)
    if series is not None:
        tail = series[-AUTOCORR_SPAN:]
        for lag in AUTOCORR_LAGS:
            if abs(autocorr(tail, lag)) > config.autocorr_threshold:
                parts["autocorrelation"] += config.autocorr_penalty

    window = motif_content(melody)
    if is_motif(window):
        parts["motif"] = config.motif_reward
        if motif_repeats_earlier(melody):
            parts["motif"] += config.repeated_motif_reward

    return RewardBreakdown.make(**parts)
