"""Rule-by-rule tests for the melody reward: hand-built trigger and
non-trigger melodies per rule family, the autocorrelation helper, and
the breakdown's structural invariants.

Action codes here follow the melody encoding: 0 note-off, 1 hold,
k >= 2 an onset of MIDI pitch 46 + k (so 14 = C4 at 60, 21 = G4).
"""

import dataclasses

import numpy as np
import pytest

from rolltune import midiio, theory
from rolltune.config import RunConfig
from rolltune.theory import RewardBreakdown, TheoryConfig, theory_reward

CFG = TheoryConfig()

# Onset melody frozen after checking all three lag correlations of its
# pitch series stay below 0.10, comfortably inside the 0.15 threshold.
APERIODIC = [19, 31, 31, 24, 27, 36, 24, 15, 4, 21, 10, 23, 2, 32, 36, 7]


class TestAutocorrFunction:

    def test_constant_series_is_zero(self):
        assert theory.autocorr([5.0] * 10, 1) == 0.0

    def test_linear_series_is_perfectly_correlated(self):
        r = theory.autocorr(np.arange(1.0, 11.0), 1)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_alternating_series_is_perfectly_anticorrelated(self):
        series = [1.0, -1.0] * 5
        assert theory.autocorr(series, 1) == pytest.approx(-1.0, abs=1e-12)

    def test_short_series_is_zero(self):
        assert theory.autocorr([1.0, 2.0], 1) == 0.0
        assert theory.autocorr([1.0, 2.0, 3.0], 2) == 0.0

    def test_matches_numpy_pearson(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            series = rng.normal(size=16)
            for lag in (1, 2, 3):
                want = np.corrcoef(series[:-lag], series[lag:])[0, 1]
                got = theory.autocorr(series, lag)
                assert got == pytest.approx(want, abs=1e-12)


class TestKeyAndTonic:

    def test_out_of_key_onset_is_penalized(self):
        fsharp = 66 - 46
        assert theory_reward([], fsharp, CFG).key == CFG.key_penalty

    def test_same_pitch_in_key_of_g_is_clean(self):
        fsharp = 66 - 46
        g_major = TheoryConfig(key_root=7)
        assert theory_reward([], fsharp, g_major).key == 0.0

    def test_non_onsets_have_no_key_contribution(self):
        history = [20] * 3
        assert theory_reward(history, 0, CFG).key == 0.0
        assert theory_reward(history, 1, CFG).key == 0.0

    def test_tonic_rewarded_in_opening_and_closing_windows(self):
        c4 = 14
        assert theory_reward([], c4, CFG).tonic == CFG.tonic_reward
        assert theory_reward([1] * 20, c4, CFG).tonic == CFG.tonic_reward

    def test_tonic_unrewarded_mid_melody_and_for_other_pitches(self):
        c4, g4 = 14, 21
        assert theory_reward([1] * 8, c4, CFG).tonic == 0.0
        assert theory_reward([], g4, CFG).tonic == 0.0

    def test_closing_window_follows_episode_len(self):
        c4 = 14
        long_cfg = TheoryConfig(episode_len=64)
        assert theory_reward([1] * 20, c4, long_cfg).tonic == 0.0
        assert theory_reward([1] * 48, c4, long_cfg).tonic == \
            long_cfg.tonic_reward


class TestRepeats:

    def test_fifth_consecutive_onset_is_penalized(self):
        assert theory_reward([10] * 4, 10, CFG).repeat == CFG.repeat_penalty

    def test_fourth_consecutive_onset_is_allowed(self):
        assert theory_reward([10] * 3, 10, CFG).repeat == 0.0

    def test_holds_sustain_a_run(self):
        history = [10, 1, 10, 1, 10, 1, 10]
        assert theory_reward(history, 10, CFG).repeat == CFG.repeat_penalty

    def test_rests_break_a_run(self):
        assert theory_reward([10] * 4 + [0], 10, CFG).repeat == 0.0

    def test_different_pitch_breaks_a_run(self):
        assert theory_reward([10] * 4 + [12], 10, CFG).repeat == 0.0

    def test_hold_and_note_off_actions_never_fire(self):
        history = [10] * 6
        assert theory_reward(history, 1, CFG).repeat == 0.0
        assert theory_reward(history, 0, CFG).repeat == 0.0


class TestAutocorrelationRule:

    def test_period_two_alternation_is_penalized(self):
        history = [2, 4, 2, 4, 2, 4, 2]
        breakdown = theory_reward(history, 4, CFG)
        assert breakdown.autocorrelation < 0
        assert breakdown.autocorrelation % CFG.autocorr_penalty == 0.0

    def test_aperiodic_melody_is_clean(self):
        got = theory_reward(APERIODIC[:-1], APERIODIC[-1], CFG)
        assert got.autocorrelation == 0.0

    def test_single_held_note_is_clean(self):
        # Constant series has zero variance, the rule stays inactive.
        assert theory_reward([14] + [1] * 15, 1, CFG).autocorrelation == 0.0


class TestIntervals:

    @pytest.mark.parametrize("action,name", [
        (21, "perfect fifth"), (17, "minor third"), (18, "major third"),
        (19, "perfect fourth"), (22, "minor sixth"), (26, "octave"),
        (14, "unison")])
    def test_traditional_intervals_are_rewarded(self, action, name):
        got = theory_reward([14], action, CFG)
        assert got.interval == CFG.interval_reward, name

    @pytest.mark.parametrize("action,name", [
        (20, "tritone"), (25, "eleven semitones"), (27, "over an octave")])
    def test_clumsy_and_oversized_intervals_are_penalized(self, action,
                                                          name):
        assert theory_reward([14], action, CFG).interval == \
            CFG.clumsy_penalty, name

    def test_neutral_interval_and_first_onset_contribute_nothing(self):
        assert theory_reward([14], 16, CFG).interval == 0.0
        assert theory_reward([], 21, CFG).interval == 0.0

    def test_interval_measured_from_last_onset_across_holds(self):
        history = [14, 1, 1, 0, 1]
        assert theory_reward(history, 21, CFG).interval == \
            CFG.interval_reward


class TestLeapResolution:

    def test_opposite_motion_after_a_leap_is_rewarded(self):
        got = theory_reward([14, 21], 18, CFG)
        assert got.leap == CFG.leap_resolution_reward

    def test_same_direction_after_a_leap_is_penalized(self):
        got = theory_reward([14, 21], 23, CFG)
        assert got.leap == CFG.leap_continuation_penalty

    def test_unison_after_a_leap_is_neutral(self):
        assert theory_reward([14, 21], 21, CFG).leap == 0.0

    def test_small_prior_motion_does_not_arm_the_rule(self):
        assert theory_reward([14, 19], 16, CFG).leap == 0.0

    def test_downward_leap_resolves_upward(self):
        got = theory_reward([21, 14], 18, CFG)
        assert got.leap == CFG.leap_resolution_reward

    def test_holds_do_not_interrupt_the_leap_memory(self):
        got = theory_reward([14, 1, 1, 21, 1], 18, CFG)
        assert got.leap == CFG.leap_resolution_reward


class TestExtrema:

    def test_new_high_and_new_low_are_rewarded(self):
        assert theory_reward([14, 16], 18, CFG).extrema == \
            CFG.extreme_reward
        assert theory_reward([18, 16], 14, CFG).extrema == \
            CFG.extreme_reward

    def test_retouching_an_extreme_is_penalized(self):
        assert theory_reward([14, 18, 16], 18, CFG).extrema == \
            CFG.extreme_retouch_penalty
        assert theory_reward([18, 14, 16], 14, CFG).extrema == \
            CFG.extreme_retouch_penalty

    def test_interior_pitch_is_neutral(self):
        assert theory_reward([14, 22], 18, CFG).extrema == 0.0

    def test_first_onset_is_neutral(self):
        assert theory_reward([], 18, CFG).extrema == 0.0

    def test_single_pitch_melody_retouches_both_extremes(self):
        assert theory_reward([14], 14, CFG).extrema == \
            2 * CFG.extreme_retouch_penalty


class TestMotifs:

    def test_three_distinct_pitches_in_the_window_form_a_motif(self):
        history = [2, 4, 6, 1, 1, 1, 1]
        assert theory_reward(history, 2, CFG).motif == CFG.motif_reward

    def test_two_distinct_pitches_do_not(self):
        history = [2, 4, 2, 1, 1, 1, 1]
        assert theory_reward(history, 2, CFG).motif == 0.0

    def test_melody_shorter_than_the_window_has_no_motif(self):
        assert theory_reward([2, 4, 6], 7, CFG).motif == 0.0

    def test_recurrence_of_earlier_material_earns_the_bonus(self):
        history = [2, 4, 6, 7, 1, 1, 1, 1, 2, 4, 6]
        got = theory_reward(history, 7, CFG)
        assert got.motif == CFG.motif_reward + CFG.repeated_motif_reward

    def test_fresh_motif_earns_no_bonus(self):
        history = [2, 4, 6, 7, 1, 1, 1, 1, 9, 11, 13]
        got = theory_reward(history, 16, CFG)
        assert got.motif == CFG.motif_reward


def random_melody(rng, length):
    return [int(a) for a in rng.integers(0, 38, size=length)]


class TestBreakdownInvariants:

    def test_total_is_the_exact_sum_of_contributions(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            history = random_melody(rng, int(rng.integers(0, 24)))
            action = int(rng.integers(0, 38))
            b = theory_reward(history, action, CFG)
            parts = [b.key, b.tonic, b.repeat, b.autocorrelation,
                     b.interval, b.leap, b.extrema, b.motif]
            assert b.total == sum(parts)

    def test_reward_is_a_pure_function(self):
        rng = np.random.default_rng(2)
        history = random_melody(rng, 20)
        assert theory_reward(history, 14, CFG) == \
            theory_reward(history, 14, CFG)

    def test_in_key_onsets_never_take_a_key_penalty(self):
        degrees = CFG.scale_degrees()
        for action in range(2, 38):
            b = theory_reward([], action, CFG)
            if (46 + action) % 12 in degrees:
                assert b.key >= 0.0
            else:
                assert b.key < 0.0

    def test_doubling_every_magnitude_doubles_every_contribution(self):
        # Lambda = 2 keeps all the float arithmetic exact.
        magnitudes = [f.name for f in dataclasses.fields(TheoryConfig)
                      if f.type == "float" and f.name != "autocorr_threshold"]
        doubled = TheoryConfig(
            **{name: 2.0 * getattr(CFG, name) for name in magnitudes})
        rng = np.random.default_rng(3)
        for _ in range(100):
            history = random_melody(rng, int(rng.integers(0, 24)))
            action = int(rng.integers(0, 38))
            one = theory_reward(history, action, CFG)
            two = theory_reward(history, action, doubled)
            for f in dataclasses.fields(RewardBreakdown):
                assert getattr(two, f.name) == 2.0 * getattr(one, f.name)

    def test_out_of_range_action_is_rejected(self):
        with pytest.raises(ValueError, match="action"):
            theory_reward([], 38, CFG)
        with pytest.raises(ValueError, match="action"):
            theory_reward([], -1, CFG)


class TestConfig:

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="key_root"):
            TheoryConfig(key_root=12)
        with pytest.raises(ValueError, match="key_mode"):
            TheoryConfig(key_mode="dorian")
        with pytest.raises(ValueError, match="autocorr_threshold"):
            TheoryConfig(autocorr_threshold=0.0)
        with pytest.raises(ValueError, match="max_repeats"):
            TheoryConfig(max_repeats=0)
        with pytest.raises(ValueError, match="finite"):
            TheoryConfig(motif_reward=float("nan"))
        # a run config that tune or eval would reject is rejected up front
        with pytest.raises(ValueError, match="autocorr_threshold"):
            RunConfig(autocorr_threshold=0).validate()
        with pytest.raises(ValueError, match="finite"):
            RunConfig(motif_reward=float("nan")).validate()
        # wrong types fail validation instead of crashing the rules later
        with pytest.raises(ValueError, match="key_penalty"):
            RunConfig(key_penalty="x").validate()
        with pytest.raises(ValueError, match="tonic_reward"):
            RunConfig(tonic_reward=True).validate()
        with pytest.raises(ValueError, match="max_repeats"):
            RunConfig(max_repeats=2.5).validate()
        with pytest.raises(ValueError, match="key_root"):
            RunConfig(key_root=True).validate()
        with pytest.raises(ValueError, match="episode_len"):
            RunConfig(episode_len=32.0).validate()
        # every numeric run field is type-checked, not only the rules'
        with pytest.raises(ValueError, match="rl_batch_size"):
            RunConfig(rl_batch_size=2.5).validate()
        with pytest.raises(ValueError, match="eval_songs"):
            RunConfig(eval_songs=2.5).validate()
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=True).validate()
        with pytest.raises(ValueError, match="gamma"):
            RunConfig(gamma="0.5").validate()
        # validate() checks types itself, not only at construction
        cfg = RunConfig()
        cfg.rl_batch_size = 2.5
        with pytest.raises(ValueError, match="rl_batch_size"):
            cfg.validate()
        # a boolean field takes only a bool: a quoted "false" is truthy
        with pytest.raises(ValueError, match="double_q"):
            RunConfig.from_sources({"double_q": "false"})
        # a retired field is an unknown key like any other
        with pytest.raises(ValueError, match="unknown configuration key "
                                             "'teacher_forcing'"):
            RunConfig.from_sources({"teacher_forcing": True})
        with pytest.raises(ValueError, match="double_q"):
            RunConfig(double_q=0).validate()
        # hidden sizes are integers as given, never coerced
        with pytest.raises(ValueError, match="timewise_hidden"):
            RunConfig.from_sources({"timewise_hidden": [2.5]})
        with pytest.raises(ValueError, match="notewise_hidden"):
            RunConfig.from_sources({"notewise_hidden": [True]})
        with pytest.raises(ValueError, match="notewise_hidden"):
            RunConfig(notewise_hidden=[4, "8"]).validate()
        with pytest.raises(ValueError, match="timewise_hidden"):
            RunConfig(timewise_hidden=[]).validate()
        # a replay that never holds a full batch would never update
        with pytest.raises(ValueError, match="rl_batch_size 8 exceeds "
                                             "replay_capacity 4"):
            RunConfig(rl_batch_size=8, replay_capacity=4).validate()
        RunConfig(rl_batch_size=4, replay_capacity=4).validate()
        # Adadelta settings that would put NaN into the weights
        with pytest.raises(ValueError, match="adadelta_eps must be positive"):
            RunConfig(adadelta_eps=0.0).validate()
        with pytest.raises(ValueError, match="adadelta_eps"):
            RunConfig(adadelta_eps=-1e-6).validate()
        for rho in (1.5, -0.5):
            with pytest.raises(ValueError, match="adadelta_rho must lie in "
                                                 r"\[0, 1\]"):
                RunConfig(adadelta_rho=rho).validate()
        RunConfig(adadelta_rho=0.0).validate()
        RunConfig(adadelta_rho=1.0, adadelta_eps=1e-12).validate()
        with pytest.raises(ValueError, match="positive"):
            RunConfig(timewise_hidden=[0]).validate()
        # integers are real numbers
        RunConfig(key_penalty=-2, autocorr_threshold=1).validate()
        cfg = RunConfig.from_sources({"double_q": True,
                                      "timewise_hidden": [3, 2]})
        assert cfg.double_q is True and cfg.timewise_hidden == [3, 2]

    def test_from_sources_skips_none_only_among_overrides(self):
        """An override of None is a flag not given. A null in the file
        mapping (a --config file or a checkpoint's snapshot) is refused
        like any other bad value, and an unknown key whatever its
        value."""
        assert RunConfig.from_sources({"seed": 3}, {"seed": None}).seed == 3
        with pytest.raises(ValueError, match="seed must be an integer, "
                                             "got None"):
            RunConfig.from_sources({"seed": None})
        with pytest.raises(ValueError, match="unknown configuration key "
                                             "'bogus_key'"):
            RunConfig.from_sources({"seed": None, "bogus_key": None})
        with pytest.raises(ValueError, match="unknown configuration key "
                                             "'bogus_flag'"):
            RunConfig.from_sources({}, {"bogus_flag": None})

    def test_the_grid_is_not_a_setting(self):
        """The grid is features.BEAT_PERIOD, which the beat features
        encode, so a config naming the retired key is refused whatever
        its value, 16 included."""
        with pytest.raises(ValueError, match="unknown configuration key "
                                             "'steps_per_measure'"):
            RunConfig.from_sources({"steps_per_measure": 16})

    def test_tempo_must_fit_a_midi_tempo_event(self):
        """The slowest tempo validate() accepts renders and serializes;
        one a hair slower, whose beat overflows the 3-byte tempo field,
        is refused up front and the message names the setting."""
        roll = midiio.NoteStateMatrix(np.zeros((2, 4, 2), np.uint8), 60)
        edge = 60_000_000.0 / (midiio.MAX_TEMPO_US + 0.5)
        slowest = float(np.nextafter(edge, np.inf))
        RunConfig(tempo_bpm=slowest).validate()
        midiio.serialize_midi(midiio.to_midi(roll, slowest))
        for bpm in (float(np.nextafter(edge, 0.0)), 3.0):
            with pytest.raises(ValueError, match="tempo_us"):
                midiio.serialize_midi(midiio.to_midi(roll, bpm))
        for bpm in (float(np.nextafter(edge, 0.0)), 3.0, 1e-310, 0.0):
            with pytest.raises(ValueError, match="tempo_bpm must be "
                                                 "positive, with a beat"):
                RunConfig(tempo_bpm=bpm).validate()

    def test_gen_steps_must_fit_what_quantize_reads_back(self):
        """quantize refuses a song longer than MAX_STEPS steps, so a roll
        generate writes may be at most that long; one step more is
        refused up front and the message names the setting."""
        RunConfig(gen_steps=midiio.MAX_STEPS).validate()
        with pytest.raises(ValueError, match="gen_steps in 1..MAX_STEPS"):
            RunConfig(gen_steps=midiio.MAX_STEPS + 1).validate()

    def test_tempo_too_fast_for_the_field_is_refused(self):
        """A beat that rounds to 0 us would be written as tempo 0; the
        fastest tempo validate() accepts is the one whose beat rounds to
        1 us."""
        RunConfig(tempo_bpm=1.2e8).validate()
        for bpm in (2e8, 1.21e8):
            with pytest.raises(ValueError, match="tempo_bpm must be "
                                                 "positive, with a beat"):
                RunConfig(tempo_bpm=bpm).validate()

    def test_from_run_config_copies_every_field(self):
        run = RunConfig(key_root=7, key_mode="minor", tonic_reward=9.0,
                        episode_len=48, max_repeats=2)
        cfg = TheoryConfig.from_run_config(run)
        assert cfg.key_root == 7
        assert cfg.key_mode == "minor"
        assert cfg.tonic_reward == 9.0
        assert cfg.episode_len == 48
        assert cfg.max_repeats == 2
        assert cfg.key_penalty == run.key_penalty

    def test_relative_minor_shares_the_major_scale(self):
        a_minor = TheoryConfig(key_root=9, key_mode="minor")
        assert a_minor.scale_degrees() == CFG.scale_degrees()
