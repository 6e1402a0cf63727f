"""Flat run configuration shared by the CLI and the library entry points.

Precedence: command-line flag > config-file key > built-in default.
Config files are JSON objects whose keys match the field names below and
those RunConfig inherits from theory.TheoryConfig (key, episode length,
rule rewards), so the rules and metrics take a RunConfig as it is.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field

from .midiio import MAX_STEPS, tempo_us_of
from .theory import TheoryConfig


@dataclass
class RunConfig(TheoryConfig):
    # global
    seed: int = 0
    tempo_bpm: float = 120.0

    # piano-roll register; the grid is features.BEAT_PERIOD steps a bar
    note_low: int = 21
    n_notes: int = 88

    # model shape and training
    timewise_hidden: list = field(default_factory=lambda: [64, 64])
    notewise_hidden: list = field(default_factory=lambda: [64, 32])
    keep_prob: float = 0.75
    segment_len: int = 128
    batch_size: int = 8
    iterations: int = 1000
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    learning_rate: float = 1.0

    # generation
    gen_steps: int = 128

    # tuner
    gamma: float = 0.5
    eta: float = 0.01
    c_weight: float = 0.5
    rl_batch_size: int = 32
    rl_iterations: int = 5000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    exploration: str = "epsilon"
    temperature: float = 1.0
    replay_capacity: int = 10000
    double_q: bool = False

    # evaluation
    eval_songs: int = 1000
    sampling: str = "boltzmann"

    def validate(self):
        super().validate()    # numeric field types, the rules' ranges
        if self.n_notes < 1 or self.note_low < 0 \
                or self.note_low + self.n_notes > 128:
            raise ValueError("note range must fit inside MIDI 0..127")
        for name in ("timewise_hidden", "notewise_hidden"):
            sizes = getattr(self, name)
            if not isinstance(sizes, list) or not sizes:
                raise ValueError(f"{name} must be a non-empty list")
            if any(isinstance(h, bool) or not isinstance(h, numbers.Integral)
                   for h in sizes):
                raise ValueError(f"{name} must hold integers, got {sizes!r}")
            if any(h < 1 for h in sizes):
                raise ValueError("hidden sizes must be positive")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if self.segment_len < 2:
            raise ValueError("segment_len must be >= 2")
        if self.batch_size < 1 or self.rl_batch_size < 1:
            raise ValueError("batch sizes must be positive")
        if self.iterations < 0 or self.rl_iterations < 0:
            raise ValueError("iteration counts cannot be negative")
        # eps 0 divides 0 by 0 where a gradient entry is 0, and a rho
        # outside [0, 1] can turn a running average, then its root, NaN
        if not 0.0 <= self.adadelta_rho <= 1.0:
            raise ValueError("adadelta_rho must lie in [0, 1]")
        if self.adadelta_eps <= 0.0:
            raise ValueError("adadelta_eps must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.c_weight == 0.0:
            raise ValueError("c_weight cannot be zero")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("epsilon schedule must satisfy "
                             "0 <= end <= start <= 1")
        if self.exploration not in ("epsilon", "boltzmann"):
            raise ValueError(f"unknown exploration {self.exploration!r}")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.replay_capacity < 1:
            raise ValueError("replay_capacity must be positive")
        if self.rl_batch_size > self.replay_capacity:
            raise ValueError(
                f"rl_batch_size {self.rl_batch_size} exceeds "
                f"replay_capacity {self.replay_capacity}: the replay "
                "never holds a full batch, so tune would take no Q-update")
        tempo_us_of(self.tempo_bpm)     # the tempo to_midi will write
        # MAX_STEPS is the longest roll midiio.quantize reads back
        if self.eval_songs < 1 or not 1 <= self.gen_steps <= MAX_STEPS:
            raise ValueError("eval_songs must be positive and gen_steps in "
                             f"1..MAX_STEPS = {MAX_STEPS}")
        if self.sampling not in ("greedy", "boltzmann"):
            raise ValueError(f"unknown sampling {self.sampling!r}")
        return self

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_sources(cls, file_mapping=None, overrides=None):
        """Defaults, then config-file keys, then explicit overrides. An
        override of None is a flag not given and is skipped; a None in
        file_mapping is a value like any other, which validate() refuses."""
        names, values = {f.name for f in dataclasses.fields(cls)}, {}
        for source, skip_none in ((file_mapping or {}, False),
                                  (overrides or {}, True)):
            for key, val in source.items():
                if key not in names:
                    raise ValueError(f"unknown configuration key {key!r}")
                if val is not None or not skip_none:
                    values[key] = val
        return cls(**values).validate()
