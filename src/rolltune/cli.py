"""Command-line entry point: train, generate, tune, and eval.

Configuration precedence everywhere: command-line flag, then JSON config
file (--config), then the config snapshot stored in the input checkpoint
(when a command reads one), then built-in defaults. Checkpoints carry
their full RunConfig, so a generate or tune run inherits the note range
and grid the model was trained with unless explicitly overridden.

Exit status is 0 only when every requested artifact was fully written;
any error prints a message to stderr and exits nonzero. Artifacts are
written through checkpoint.write_atomic, so a failed run never leaves a
partly written file in place of an old one.
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import checkpoint, metrics, midiio, model, tuner
from .config import RunConfig

KIND_BIAXIAL = "biaxial"
KIND_QNET = "qnet"


def _csv_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows):
    lines = [header]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    checkpoint.write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def resolve_config(args, base_mapping=None, **flag_overrides):
    """Merge checkpoint snapshot, config file, and flags into a
    validated RunConfig."""
    mapping = dict(base_mapping or {})
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_mapping = json.load(fh)
        if not isinstance(file_mapping, dict):
            raise ValueError(f"config file {config_path} must hold a "
                             "JSON object")
        mapping.update(file_mapping)
    if getattr(args, "seed", None) is not None:
        flag_overrides["seed"] = args.seed
    return RunConfig.from_sources(mapping, flag_overrides)


def load_corpus(data_dir, cfg):
    """Parse and quantize every .mid/.midi file under data_dir, sorted
    by name. Unreadable files are skipped with a warning; a file is
    read no further than needed to see it is over MAX_MIDI_BYTES."""
    root = Path(data_dir)
    if not root.is_dir():
        raise ValueError(f"--data {data_dir} is not a directory")
    paths = sorted(p for p in root.iterdir()
                   if p.suffix.lower() in (".mid", ".midi"))
    corpus = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data = fh.read(midiio.MAX_MIDI_BYTES + 1)
            song = midiio.parse_midi(data)
            corpus.append(midiio.quantize(song, cfg.note_low, cfg.n_notes,
                                          cfg.steps_per_measure))
        except (midiio.MidiParseError, ValueError) as exc:
            warnings.warn(f"skipping {path.name}: {exc}")
    if not corpus:
        raise ValueError(f"no parseable MIDI files in {data_dir}")
    return corpus


def checkpoint_metadata(kind, cfg, iterations):
    return {"kind": kind, "config": cfg.to_dict(),
            "iterations": int(iterations)}


def read_model_checkpoint(args, kinds, **flag_overrides):
    """Read the checkpoint at args.ckpt, refusing a model kind outside
    kinds, and resolve the run's config over its stored snapshot.
    Returns (kind, arrays, cfg)."""
    arrays, meta = checkpoint.read_checkpoint(args.ckpt)
    kind = meta.get("kind", KIND_BIAXIAL)
    if kind not in kinds:
        raise ValueError(f"checkpoint {args.ckpt} holds a {kind!r} model; "
                         f"this command reads {' or '.join(kinds)}")
    base = meta.get("config")
    base = dict(base) if isinstance(base, dict) else {}
    base.pop("teacher_forcing", None)   # retired; older snapshots hold it
    return kind, arrays, resolve_config(args, base, **flag_overrides)


def cmd_train(args):
    cfg = resolve_config(args, iterations=args.iters)
    corpus = load_corpus(args.data, cfg)
    rng = np.random.default_rng(cfg.seed)
    params, history = model.train(corpus, cfg, rng)
    checkpoint.write_checkpoint(args.out, model.param_arrays(params),
                                checkpoint_metadata(KIND_BIAXIAL, cfg,
                                                    cfg.iterations))
    loss_csv = args.loss_csv or f"{args.out}.loss.csv"
    write_csv(loss_csv, "iteration,loss,loglik", history)
    print(f"trained {cfg.iterations} iterations on {len(corpus)} songs; "
          f"wrote {args.out} and {loss_csv}")
    return 0


def cmd_generate(args):
    _, arrays, cfg = read_model_checkpoint(args, (KIND_BIAXIAL,),
                                           gen_steps=args.steps)
    params = model.params_from_arrays(arrays)
    rng = np.random.default_rng(cfg.seed)
    matrix = model.generate(params, cfg, cfg.gen_steps, rng)
    data = midiio.serialize_midi(midiio.to_midi(matrix, cfg.tempo_bpm))
    checkpoint.write_atomic(args.out, data)
    print(f"wrote {matrix.n_steps} steps to {args.out}")
    return 0


def cmd_tune(args):
    _, arrays, cfg = read_model_checkpoint(args, (KIND_BIAXIAL,),
                                           rl_iterations=args.iters,
                                           c_weight=args.c)
    primed = model.params_from_arrays(arrays)
    rng = np.random.default_rng(cfg.seed)
    qnet, trace = tuner.tune(primed, cfg, rng)
    checkpoint.write_checkpoint(args.out, qnet.params(),
                                checkpoint_metadata(KIND_QNET, cfg,
                                                    cfg.rl_iterations))
    trace_csv = args.trace_csv or f"{args.out}.trace.csv"
    write_csv(trace_csv, "iteration,mean_reward,mean_log_p,mean_r_mt",
              trace)
    print(f"tuned for {cfg.rl_iterations} iterations; "
          f"wrote {args.out} and {trace_csv}")
    return 0


def cmd_eval(args):
    kind, arrays, cfg = read_model_checkpoint(
        args, (KIND_BIAXIAL, KIND_QNET), eval_songs=args.songs,
        sampling=args.sampling)
    rng = np.random.default_rng(cfg.seed)
    greedy = cfg.sampling == "greedy"
    if kind == KIND_QNET:
        qnet = tuner.qnetwork_from_arrays(arrays, cfg.note_low, cfg.n_notes)
        melodies = tuner.rollout(qnet, cfg, rng, greedy=greedy,
                                 songs=cfg.eval_songs)
    else:
        reward_model = tuner.RewardModel(model.params_from_arrays(arrays),
                                         cfg.note_low, cfg.n_notes)
        melodies = tuner.sample_primed_melody(reward_model, cfg, rng,
                                              greedy=greedy,
                                              songs=cfg.eval_songs)
    report = metrics.evaluate(melodies, cfg)
    checkpoint.write_atomic(args.out,
                            metrics.report_to_csv(report).encode("ascii"))
    table = metrics.report_table(report)
    table_path = args.table or f"{args.out}.txt"
    checkpoint.write_atomic(table_path, (table + "\n").encode("ascii"))
    print(table)
    print(f"wrote {args.out} and {table_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rolltune",
        description="Polyphonic piano-roll modeling: train a recurrent "
                    "note model, refine its melody policy with "
                    "Q-learning, and score the results.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit the note model on a MIDI "
                                         "corpus")
    train.add_argument("--data", required=True,
                       help="directory of .mid/.midi files")
    train.add_argument("--iters", type=int, help="training iterations")
    train.add_argument("--out", default="model.ckpt",
                       help="checkpoint path (default: %(default)s)")
    train.add_argument("--loss-csv",
                       help="loss trace path (default: <out>.loss.csv)")
    train.set_defaults(func=cmd_train)

    gen = sub.add_parser("generate", help="sample a MIDI file from a "
                                          "trained checkpoint")
    gen.add_argument("--ckpt", required=True, help="model checkpoint")
    gen.add_argument("--steps", type=int, help="timesteps to generate")
    gen.add_argument("--out", default="sample.mid",
                     help="MIDI path (default: %(default)s)")
    gen.set_defaults(func=cmd_generate)

    tune = sub.add_parser("tune", help="refine the melody policy with "
                                       "Q-learning")
    tune.add_argument("--ckpt", required=True, help="primed checkpoint")
    tune.add_argument("--iters", type=int, help="tuning iterations")
    tune.add_argument("--c", type=float,
                      help="divisor blending rule rewards into log "
                           "probability")
    tune.add_argument("--out", default="tuned.ckpt",
                      help="tuned checkpoint path (default: %(default)s)")
    tune.add_argument("--trace-csv",
                      help="reward trace path (default: <out>.trace.csv)")
    tune.set_defaults(func=cmd_tune)

    ev = sub.add_parser("eval", help="sample melodies and report the "
                                     "metric suite")
    ev.add_argument("--ckpt", required=True,
                    help="primed or tuned checkpoint")
    ev.add_argument("--songs", type=int, help="melodies to sample")
    ev.add_argument("--sampling", choices=("greedy", "boltzmann"),
                    help="action selection while sampling")
    ev.add_argument("--out", default="eval_report.csv",
                    help="report CSV path (default: %(default)s)")
    ev.add_argument("--table",
                    help="rendered table path (default: <out>.txt)")
    ev.set_defaults(func=cmd_eval)

    for p in (train, gen, tune, ev):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="rng seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
