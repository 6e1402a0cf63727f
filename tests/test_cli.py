"""End-to-end tests for the command-line interface, driven in-process
through cli.main so exit codes and artifacts can be asserted."""

import itertools
import json

import numpy as np
import pytest

import helpers
from rolltune import checkpoint, cli, metrics, midiio, model, tuner
from rolltune.config import RunConfig
from rolltune.midiio import MELODY_ACTIONS

TINY_CONFIG = {
    "note_low": 48, "n_notes": 36,
    "timewise_hidden": [6], "notewise_hidden": [5],
    "keep_prob": 1.0, "segment_len": 16, "batch_size": 2, "iterations": 2,
    "gen_steps": 16, "rl_iterations": 6, "rl_batch_size": 2,
    "replay_capacity": 16, "episode_len": 8, "eval_songs": 3,
}


def nan_at_call(fn, k):
    """fn, except that its k-th call (from 0) returns a NaN in the first
    array of its gradient dict, the last item it returns."""
    calls = itertools.count()

    def poisoned(*args, **kwargs):
        out = fn(*args, **kwargs)
        if next(calls) == k:
            next(iter(out[-1].values())).flat[0] = np.nan
        return out
    return poisoned


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    corpus.mkdir()
    helpers.write_corpus(corpus)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    return root


@pytest.fixture(scope="module")
def trained_ckpt(workdir):
    out = workdir / "trained.ckpt"
    rc = cli.main(["train", "--data", str(workdir / "corpus"),
                   "--config", str(workdir / "cfg.json"),
                   "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def tuned_ckpt(workdir, trained_ckpt):
    out = workdir / "tuned.ckpt"
    rc = cli.main(["tune", "--ckpt", str(trained_ckpt),
                   "--config", str(workdir / "cfg.json"),
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


class TestTrain:

    def test_writes_checkpoint_and_full_loss_csv(self, workdir,
                                                 trained_ckpt):
        assert trained_ckpt.exists()
        arrays, meta = checkpoint.read_checkpoint(trained_ckpt)
        assert meta["kind"] == "biaxial"
        assert meta["iterations"] == 2
        assert meta["config"]["n_notes"] == 36
        assert "proj/w" in arrays
        lines = (workdir / "trained.ckpt.loss.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss,loglik"
        assert len(lines) == 1 + 2

    def test_same_seed_gives_byte_identical_checkpoints(self, workdir):
        outs = []
        for name in ("rep_a.ckpt", "rep_b.ckpt"):
            out = workdir / name
            rc = cli.main(["train", "--data", str(workdir / "corpus"),
                           "--config", str(workdir / "cfg.json"),
                           "--seed", "9", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_iterations_checkpoints_the_initial_parameters(
            self, workdir):
        out = workdir / "init.ckpt"
        rc = cli.main(["train", "--data", str(workdir / "corpus"),
                       "--config", str(workdir / "cfg.json"),
                       "--seed", "4", "--iters", "0", "--out", str(out)])
        assert rc == 0
        arrays, meta = checkpoint.read_checkpoint(out)
        assert meta["iterations"] == 0
        fresh = model.init_biaxial_params([6], [5],
                                          np.random.default_rng(4))
        for name, arr in model.param_arrays(fresh).items():
            np.testing.assert_array_equal(arrays[name], arr)
        csv_lines = (workdir / "init.ckpt.loss.csv").read_text().splitlines()
        assert csv_lines == ["iteration,loss,loglik"]

    def test_flag_overrides_config_file(self, workdir):
        out = workdir / "flag.ckpt"
        rc = cli.main(["train", "--data", str(workdir / "corpus"),
                       "--config", str(workdir / "cfg.json"),
                       "--seed", "1", "--iters", "1", "--out", str(out)])
        assert rc == 0
        lines = (workdir / "flag.ckpt.loss.csv").read_text().splitlines()
        assert len(lines) == 2
        _, meta = checkpoint.read_checkpoint(out)
        assert meta["iterations"] == 1

    def test_empty_corpus_fails_with_a_message(self, workdir, capsys):
        empty = workdir / "empty"
        empty.mkdir(exist_ok=True)
        rc = cli.main(["train", "--data", str(empty),
                       "--config", str(workdir / "cfg.json"),
                       "--out", str(workdir / "no.ckpt")])
        assert rc != 0
        assert "error:" in capsys.readouterr().err
        assert not (workdir / "no.ckpt").exists()

    def test_unparseable_files_are_skipped_with_a_warning(self, workdir):
        mixed = workdir / "mixed"
        if not mixed.exists():
            mixed.mkdir()
            good = sorted((workdir / "corpus").iterdir())[0]
            (mixed / good.name).write_bytes(good.read_bytes())
            (mixed / "broken.mid").write_bytes(b"not a midi file")
        with pytest.warns(UserWarning, match="broken.mid"):
            rc = cli.main(["train", "--data", str(mixed),
                           "--config", str(workdir / "cfg.json"),
                           "--iters", "0",
                           "--out", str(workdir / "mixed.ckpt")])
        assert rc == 0

    def test_oversized_grid_is_skipped_with_a_warning(self, workdir):
        cfg = RunConfig(**TINY_CONFIG).validate()
        mixed = workdir / "oversized"
        if not mixed.exists():
            mixed.mkdir()
            good = sorted((workdir / "corpus").iterdir())[0]
            (mixed / good.name).write_bytes(good.read_bytes())
            (mixed / "huge.mid").write_bytes(helpers.huge_delta_file())
        with pytest.warns(UserWarning, match="huge.mid.*MAX_STEPS"):
            corpus = cli.load_corpus(mixed, cfg)
        assert len(corpus) == 1

    def test_oversized_file_is_skipped_unread_with_a_warning(self,
                                                             workdir):
        cfg = RunConfig(**TINY_CONFIG).validate()
        mixed = workdir / "long_file"
        if not mixed.exists():
            mixed.mkdir()
            good = sorted((workdir / "corpus").iterdir())[0]
            (mixed / good.name).write_bytes(good.read_bytes())
            # a valid file, longer than the bound by an ignored chunk
            data = good.read_bytes()
            pad = midiio.MAX_MIDI_BYTES + 100 - len(data) - 8
            (mixed / "long.mid").write_bytes(
                data + b"XPAD" + pad.to_bytes(4, "big") + bytes(pad))
        limit = midiio.MAX_MIDI_BYTES
        # only the bound and one byte more are read
        with pytest.warns(UserWarning,
                          match=f"long.mid: input of {limit + 1} bytes"):
            corpus = cli.load_corpus(mixed, cfg)
        assert len(corpus) == 1

    def test_rejected_step_names_its_iteration(self, workdir, capsys,
                                               monkeypatch):
        monkeypatch.setattr(model, "loss_gradients",
                            nan_at_call(model.loss_gradients, 1))
        out = workdir / "nan.ckpt"
        rc = cli.main(["train", "--data", str(workdir / "corpus"),
                       "--config", str(workdir / "cfg.json"),
                       "--seed", "5", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "iteration 1:" in err and "step rejected" in err
        assert not out.exists()


class TestGenerate:

    def test_writes_a_parseable_roll_of_requested_length(self, workdir,
                                                         trained_ckpt):
        out = workdir / "sample.mid"
        rc = cli.main(["generate", "--ckpt", str(trained_ckpt),
                       "--steps", "24", "--seed", "1", "--out", str(out)])
        assert rc == 0
        song = midiio.parse_midi(out.read_bytes())
        matrix = midiio.quantize(song, 48, 36)
        matrix.validate()
        assert matrix.n_steps == 24

    def test_same_seed_twice_is_byte_identical(self, workdir,
                                               trained_ckpt):
        blobs = []
        for name in ("g_a.mid", "g_b.mid"):
            out = workdir / name
            rc = cli.main(["generate", "--ckpt", str(trained_ckpt),
                           "--steps", "20", "--seed", "3",
                           "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_single_step_roll(self, workdir, trained_ckpt):
        out = workdir / "one.mid"
        rc = cli.main(["generate", "--ckpt", str(trained_ckpt),
                       "--steps", "1", "--seed", "2", "--out", str(out)])
        assert rc == 0
        matrix = midiio.quantize(midiio.parse_midi(out.read_bytes()), 48, 36)
        assert matrix.n_steps == 1

    def test_corrupt_checkpoint_is_rejected(self, workdir, capsys):
        bad = workdir / "bad.ckpt"
        bad.write_bytes(b"garbage bytes, not a checkpoint")
        rc = cli.main(["generate", "--ckpt", str(bad),
                       "--out", str(workdir / "no.mid")])
        assert rc != 0
        assert "magic" in capsys.readouterr().err
        assert not (workdir / "no.mid").exists()


class TestTune:

    def test_writes_tuned_checkpoint_and_trace(self, workdir,
                                               trained_ckpt):
        out = workdir / "tuned.ckpt"
        rc = cli.main(["tune", "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "cfg.json"),
                       "--seed", "3", "--out", str(out)])
        assert rc == 0
        arrays, meta = checkpoint.read_checkpoint(out)
        assert meta["kind"] == "qnet"
        assert meta["iterations"] == 6
        assert arrays["head/w"].shape == (MELODY_ACTIONS, MELODY_ACTIONS)
        lines = (workdir / "tuned.ckpt.trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,mean_reward,mean_log_p,mean_r_mt"
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            _, reward, log_p, r_mt = line.split(",")
            assert float(reward) == pytest.approx(
                float(log_p) + float(r_mt) / 0.5, rel=1e-12)

    def test_zero_iterations_keeps_the_primed_initialization(
            self, workdir, trained_ckpt):
        out = workdir / "tuned0.ckpt"
        rc = cli.main(["tune", "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "cfg.json"),
                       "--seed", "3", "--iters", "0", "--out", str(out)])
        assert rc == 0
        tuned, _ = checkpoint.read_checkpoint(out)
        primed, _ = checkpoint.read_checkpoint(trained_ckpt)
        for name, arr in primed.items():
            np.testing.assert_array_equal(tuned[f"trunk/{name}"], arr)
        np.testing.assert_array_equal(tuned["head/w"],
                                      np.eye(MELODY_ACTIONS))

    def test_tuned_checkpoint_cannot_feed_generate(self, workdir,
                                                   tuned_ckpt, capsys):
        rc = cli.main(["generate", "--ckpt", str(tuned_ckpt),
                       "--out", str(workdir / "no2.mid")])
        assert rc == 1
        assert "'qnet'" in capsys.readouterr().err

    def test_tuned_checkpoint_cannot_feed_tune(self, workdir, tuned_ckpt,
                                               capsys):
        out = workdir / "retuned.ckpt"
        rc = cli.main(["tune", "--ckpt", str(tuned_ckpt),
                       "--out", str(out)])
        assert rc == 1
        assert "'qnet'" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_update_names_its_iteration(self, workdir, capsys,
                                                 trained_ckpt, monkeypatch):
        # with rl_batch_size 2 the first update runs at iteration 1, so
        # the third update runs at iteration 3
        monkeypatch.setattr(tuner, "q_loss_gradients",
                            nan_at_call(tuner.q_loss_gradients, 2))
        out = workdir / "nan_tuned.ckpt"
        rc = cli.main(["tune", "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "cfg.json"),
                       "--seed", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "iteration 3:" in err and "step rejected" in err
        assert not out.exists()


class TestEval:

    def test_report_files_for_a_primed_checkpoint(self, workdir,
                                                  trained_ckpt):
        out = workdir / "primed_report.csv"
        rc = cli.main(["eval", "--ckpt", str(trained_ckpt),
                       "--songs", "3", "--seed", "5", "--out", str(out)])
        assert rc == 0
        report = metrics.report_from_csv(out.read_text())
        assert report.song_count == 3
        table = (workdir / "primed_report.csv.txt").read_text()
        assert "Notes not in key" in table

    def test_report_for_a_tuned_checkpoint_and_greedy_mode(
            self, workdir, tuned_ckpt):
        out = workdir / "tuned_report.csv"
        rc = cli.main(["eval", "--ckpt", str(tuned_ckpt), "--songs", "2",
                       "--sampling", "greedy", "--seed", "0",
                       "--out", str(out)])
        assert rc == 0
        report = metrics.report_from_csv(out.read_text())
        assert report.song_count == 2

    def test_greedy_primed_eval_takes_the_argmax_of_log_dist(
            self, workdir, trained_ckpt, monkeypatch):
        played = []
        evaluate = metrics.evaluate
        monkeypatch.setattr(metrics, "evaluate", lambda melodies, cfg: (
            played.extend(melodies) or evaluate(melodies, cfg)))
        songs = tuner.SONGS_IN_FLIGHT + 1
        rc = cli.main(["eval", "--ckpt", str(trained_ckpt),
                       "--songs", str(songs), "--sampling", "greedy",
                       "--seed", "4", "--out", str(workdir / "g.csv")])
        assert rc == 0
        arrays, meta = checkpoint.read_checkpoint(trained_ckpt)
        cfg = RunConfig.from_sources(meta["config"])
        primed = model.params_from_arrays(arrays)
        # the Q-network route greedy primed eval once took, whose Q-values
        # are the unnormalized scores log_dist normalizes
        qnet = tuner.MelodyQNetwork.from_primed(primed, 48, 36)
        assert played == tuner.rollout(qnet, cfg, np.random.default_rng(4),
                                       greedy=True, songs=songs)
        reward_model = tuner.RewardModel(primed, 48, 36)
        actions = np.array(played)
        for first in (0, tuner.SONGS_IN_FLIGHT):
            chunk = actions[first:first + tuner.SONGS_IN_FLIGHT]
            snapshot = tuner.fresh_snapshot(primed, 36, len(chunk))
            for step in range(cfg.episode_len):
                log_dist, cells = reward_model.log_dist(snapshot)
                np.testing.assert_array_equal(chunk[:, step],
                                              log_dist.argmax(axis=1))
                snapshot = snapshot.advance(cells, chunk[:, step], step, 48)

    def test_unknown_model_kind_is_refused(self, workdir, trained_ckpt,
                                           capsys):
        arrays, meta = checkpoint.read_checkpoint(trained_ckpt)
        odd = workdir / "odd.ckpt"
        checkpoint.write_checkpoint(odd, arrays, dict(meta, kind="odd"))
        rc = cli.main(["eval", "--ckpt", str(odd),
                       "--out", str(workdir / "odd.csv")])
        assert rc == 1
        assert "'odd'" in capsys.readouterr().err
        assert not (workdir / "odd.csv").exists()

    def test_metadata_that_is_not_an_object_is_refused(self, workdir,
                                                        capsys):
        odd = workdir / "list_meta.ckpt"
        checkpoint.write_checkpoint(odd, {"w": np.ones(2)}, {})
        data = bytearray(odd.read_bytes())
        data[12:14] = b"[]"     # the 2-byte metadata block was {}
        odd.write_bytes(bytes(data))
        rc = cli.main(["eval", "--ckpt", str(odd),
                       "--out", str(workdir / "odd.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "metadata block: expected a JSON object, got list" in err
        assert not (workdir / "odd.csv").exists()

    def test_fixed_seed_reproduces_the_report(self, workdir,
                                              trained_ckpt):
        blobs = []
        for name in ("r_a.csv", "r_b.csv"):
            out = workdir / name
            rc = cli.main(["eval", "--ckpt", str(trained_ckpt),
                           "--songs", "3", "--seed", "11",
                           "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestParserPlumbing:

    def test_default_artifact_names_resolve_in_cwd(self, workdir,
                                                   trained_ckpt,
                                                   monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["generate", "--ckpt", str(trained_ckpt),
                       "--steps", "4", "--seed", "0"])
        assert rc == 0
        assert (tmp_path / "sample.mid").exists()

    def test_unknown_config_key_is_an_error(self, workdir, capsys,
                                            tmp_path):
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({"unknown_knob": 3}))
        rc = cli.main(["train", "--data", str(workdir / "corpus"),
                       "--config", str(bad_cfg),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc != 0
        assert "unknown_knob" in capsys.readouterr().err

    def test_invalid_config_value_is_an_error(self, workdir, capsys,
                                              tmp_path):
        bad_cfg = tmp_path / "bad2.json"
        bad_cfg.write_text(json.dumps(dict(TINY_CONFIG, gamma=1.5)))
        rc = cli.main(["train", "--data", str(workdir / "corpus"),
                       "--config", str(bad_cfg),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc != 0
        assert "gamma" in capsys.readouterr().err


class TestRetiredConfigKey:
    """Checkpoints written while training still had a sampling mode
    record "teacher_forcing" in their config snapshot. The commands that
    read a checkpoint drop it; a config file that names it is refused."""

    @pytest.mark.parametrize("value", [True, False])
    def test_old_checkpoint_runs_generate_tune_and_eval(
            self, workdir, trained_ckpt, tmp_path, value):
        arrays, meta = checkpoint.read_checkpoint(trained_ckpt)
        old = tmp_path / "old.ckpt"
        checkpoint.write_checkpoint(old, arrays, dict(
            meta, config=dict(meta["config"], teacher_forcing=value)))
        for ckpt, name in ((trained_ckpt, "new.mid"), (old, "old.mid")):
            rc = cli.main(["generate", "--ckpt", str(ckpt), "--seed", "4",
                           "--out", str(tmp_path / name)])
            assert rc == 0
        assert ((tmp_path / "old.mid").read_bytes()
                == (tmp_path / "new.mid").read_bytes())
        tuned = tmp_path / "tuned.ckpt"
        rc = cli.main(["tune", "--ckpt", str(old), "--out", str(tuned)])
        assert rc == 0
        assert "teacher_forcing" not in checkpoint.read_checkpoint(
            tuned)[1]["config"]
        for ckpt in (old, tuned):
            rc = cli.main(["eval", "--ckpt", str(ckpt),
                           "--out", str(tmp_path / f"{ckpt.stem}.csv")])
            assert rc == 0

    def test_config_file_naming_it_is_refused(self, trained_ckpt, tmp_path,
                                              capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, teacher_forcing=True)))
        out = tmp_path / "out.mid"
        rc = cli.main(["generate", "--ckpt", str(trained_ckpt),
                       "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert ("unknown configuration key 'teacher_forcing'"
                in capsys.readouterr().err)
        assert not out.exists()
