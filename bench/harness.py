"""Workloads, measurement and metrics of the rolltune benchmark.

Imported by run.py once the package under src/ is importable; see
run.py for what the workloads and metrics are.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from rolltune import cli
from rolltune.config import RunConfig

import checks
import corpus
import environment
import reference
from tracer import TraceError, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

DESK = dict(note_low=48, n_notes=36, timewise_hidden=[24],
            notewise_hidden=[24], segment_len=32, batch_size=4)
TUNE_OVERRIDES = dict(repeat_penalty=-10.0, c_weight=0.5, rl_batch_size=32)
EPISODE_LEN = RunConfig().episode_len     # steps per evaluated melody

SETUP_REPEATS = 3          # at least this many set-ups per run,
SETUP_MIN_SECONDS = 2.0    # and more until this long was spent
MIN_ROUNDS = 4
PRIME_TRAIN_ITERS = 8
PRIME_TUNE_ITERS = 40
TRAIN_ITERS = 12
TUNE_ITERS = 96
GEN_STEPS = 32
EVAL_SONGS = 3


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Command:
    stage: str                 # train, tune, generate or eval
    argv: list
    units: int                 # iterations, columns or melodies
    check: object              # callable raising CheckFailed
    artifacts: dict = field(default_factory=dict)


@dataclass
class Outcome:
    stage: str
    units: int
    seconds: float
    error: str = ""
    loglik: float = None


# -- workloads ---------------------------------------------------------


class Workload:
    """Set-up, one measured round of commands, and the spans a traced
    round must produce."""

    name = ""
    unit = ""
    expected_spans = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def argv(self, *args):
        return [*map(str, args), "--seed", str(self.seed)]

    def setup(self):
        corpus.write_corpus(self.work / "corpus", self.seed)
        (self.work / "desk.json").write_text(json.dumps(DESK))
        (self.work / "tune.json").write_text(json.dumps(TUNE_OVERRIDES))

    def prime(self, command: Command):
        outcome = run_command(command, tracer=None)
        if outcome.error:
            raise BenchmarkError(f"set-up command {command.argv} failed: "
                                 f"{outcome.error}")

    def train_command(self, out, iters):
        loss_csv = f"{out}.loss.csv"

        def check():
            checks.checkpoint_kind(out, "biaxial", iters)
            return checks.loss_trace(loss_csv, iters)

        return Command("train", self.argv(
            "train", "--data", self.work / "corpus", "--iters", iters,
            "--out", out, "--config", self.work / "desk.json"),
            iters, check, {"train.ckpt": out, "train.loss.csv": loss_csv})

    def tune_command(self, ckpt, out, iters):
        trace_csv = f"{out}.trace.csv"

        def check():
            checks.checkpoint_kind(out, "qnet", iters)
            checks.tune_trace(trace_csv, iters)

        return Command("tune", self.argv(
            "tune", "--ckpt", ckpt, "--iters", iters, "--out", out,
            "--config", self.work / "tune.json"),
            iters, check, {"tune.ckpt": out, "tune.trace.csv": trace_csv})

    def round(self) -> list:
        raise NotImplementedError


class TrainDesk(Workload):
    name = "train-desk"
    unit = "iteration"
    expected_spans = (
        "cli", "midiio.parse_midi", "midiio.quantize",
        "features.expand_batch", "features.expand_columns",
        "nn.stack_forward", "nn.stack_backward", "nn.sigmoid", "nn.packed",
        "nn.Adadelta.step", "model.train", "model.sample_segments",
        "model.timewise_pass", "model.notewise_pass",
        "model.loss_with_gradient", "model.loss_gradients",
        "checkpoint.write_checkpoint")

    def round(self):
        return [self.train_command(self.work / "model.ckpt", TRAIN_ITERS)]


class TuneDesk(Workload):
    name = "tune-desk"
    unit = "iteration"
    expected_spans = (
        "cli", "checkpoint.read_checkpoint", "checkpoint.write_checkpoint",
        "features.expand_columns", "nn.stack_forward", "nn.stack_backward",
        "nn.sigmoid", "nn.packed", "nn.Adadelta.step", "tuner.tune",
        "tuner.trunk_scores", "tuner.trunk_scores_backward",
        "tuner.q_targets", "tuner.q_update", "tuner.target_sync",
        "tuner.choose_action", "tuner.ReplayBuffer.sample",
        "tuner.ReplayBuffer.append", "theory.theory_reward")

    def setup(self):
        super().setup()
        self.prime(self.train_command(self.work / "primed.ckpt",
                                      PRIME_TRAIN_ITERS))

    def round(self):
        return [self.tune_command(self.work / "primed.ckpt",
                                  self.work / "tuned.ckpt", TUNE_ITERS)]


class SampleDesk(Workload):
    name = "sample-desk"
    unit = "column"
    expected_spans = (
        "cli", "checkpoint.read_checkpoint", "midiio.to_midi",
        "midiio.serialize_midi", "features.expand_columns",
        "nn.stack_forward", "nn.stack_step", "nn.sigmoid", "nn.packed",
        "model.generate", "model.sample_pairs", "tuner.rollout",
        "tuner.sample_primed_melody", "tuner.trunk_scores",
        "tuner.choose_action", "metrics.evaluate")

    def setup(self):
        super().setup()
        self.prime(self.train_command(self.work / "primed.ckpt",
                                      PRIME_TRAIN_ITERS))
        self.prime(self.tune_command(self.work / "primed.ckpt",
                                     self.work / "tuned.ckpt",
                                     PRIME_TUNE_ITERS))

    def generate_command(self):
        out = self.work / "sample.mid"
        return Command("generate", self.argv(
            "generate", "--ckpt", self.work / "primed.ckpt",
            "--steps", GEN_STEPS, "--out", out),
            GEN_STEPS, lambda: checks.generated_midi(
                out, DESK["note_low"], DESK["n_notes"], GEN_STEPS),
            {"sample.mid": out})

    def eval_command(self, which):
        out = self.work / f"{which}_eval.csv"
        return Command("eval", self.argv(
            "eval", "--ckpt", self.work / f"{which}.ckpt",
            "--songs", EVAL_SONGS, "--sampling", "boltzmann", "--out", out),
            EVAL_SONGS, lambda: checks.eval_report(out, EVAL_SONGS),
            {f"{which}_eval.csv": out})

    def round(self):
        return [self.generate_command(), self.eval_command("primed"),
                self.eval_command("tuned")]


WORKLOADS = {w.name: w for w in (TrainDesk, TuneDesk, SampleDesk)}


def columns(outcome: Outcome) -> int:
    """Sampled columns a sample-desk command produced."""
    if outcome.stage == "eval":
        return outcome.units * EPISODE_LEN
    return outcome.units


# -- running -----------------------------------------------------------


def run_command(command: Command, tracer) -> Outcome:
    """Run one CLI command in-process, timed, then check its outputs
    (untimed, untraced)."""
    captured = io.StringIO()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            code = cli.main(command.argv)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    outcome = Outcome(command.stage, command.units, seconds)
    if code != 0:
        outcome.error = f"exit code {code}: {captured.getvalue()[-500:]}"
        return outcome
    try:
        outcome.loglik = command.check()
    except (checks.CheckFailed, OSError, ValueError) as exc:
        outcome.error = f"check failed: {exc}"
    return outcome


def timed_setups(workload_cls, seed) -> tuple:
    """Set up from scratch SETUP_REPEATS times, and again until
    SETUP_MIN_SECONDS were spent, timing the reference kernel between
    set-ups. Return the workload left by the last set-up, every set-up
    time as measured and every set-up time at nominal host speed."""
    times, scaled = [], []
    kernel = reference.kernel_seconds()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        work = WORK / workload_cls.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = workload_cls(work, seed)
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        after = reference.kernel_seconds()
        scaled.append(reference.nominal(times[-1], (kernel + after) / 2))
        kernel = after
    return workload, times, scaled


@dataclass
class Round:
    traced: bool
    outcomes: list
    kernel_seconds: float      # reference kernel, mean of before and after

    def units(self, unit_of) -> float:
        return sum(unit_of(o) for o in self.outcomes)

    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def nominal_rate(self, unit_of) -> float:
        """Units of work per second at nominal host speed."""
        return self.units(unit_of) / reference.nominal(self.seconds(),
                                                       self.kernel_seconds)


def measure(workload: Workload, seconds: float, tracer):
    """Run rounds until `seconds` have passed (and at least MIN_ROUNDS
    have run), timing the reference kernel between rounds. With a
    tracer, every second round is traced. Returns the rounds and the sha256 of
    every artifact."""
    rounds, hashes = [], {}
    deadline = time.perf_counter() + seconds
    kernel = reference.kernel_seconds()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        outcomes = []
        for command in workload.round():
            outcome = run_command(command, tracer if traced else None)
            outcomes.append(outcome)
            if outcome.error:
                print(f"bench: {command.stage} failed: {outcome.error}",
                      file=sys.stderr)
                continue
            for kind, path in command.artifacts.items():
                hashes.setdefault(kind, set()).add(checks.sha256(path))
        after = reference.kernel_seconds()
        rounds.append(Round(traced, outcomes, (kernel + after) / 2))
        kernel = after
    return rounds, {k: sorted(v) for k, v in hashes.items()}


# -- metrics -----------------------------------------------------------

CALLS = ("features.expand_columns", "nn.stack_forward", "nn.stack_step",
         "nn.sigmoid", "nn.packed", "tuner.trunk_scores",
         "theory.theory_reward")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, units: float, untraced_rate, traced_rate,
              tune_iterations: int) -> dict:
    """Per-layer metrics from the traced rounds, per unit of work."""
    totals = tracer.totals()
    counters = tracer.counters
    out = {}
    for name in tracer.names:
        out[f"{name}.self_ms"] = (1e3 * totals[name][1] / units, "ms")
    for name in CALLS:
        out[f"{name}.calls"] = (totals[name][0] / units, "count")
    for name in ("nn.stack_forward", "tuner.trunk_scores"):
        out[f"{name}.rows"] = (_ratio(counters[f"{name}.rows"],
                                      totals[name][0]), "rows")
    out["tuner.q_update.per_iter"] = (
        _ratio(totals["tuner.q_update"][0], tune_iterations), "count")
    out["tuner.replay.bytes_per_transition"] = (_ratio(
        counters["tuner.ReplayBuffer.append.bytes"],
        totals["tuner.ReplayBuffer.append"][0]), "B")
    ckpt = ("checkpoint.write_checkpoint", "checkpoint.read_checkpoint")
    out["checkpoint.bytes"] = (_ratio(
        sum(counters[f"{n}.bytes"] for n in ckpt),
        sum(totals[n][0] for n in ckpt)), "B")
    out["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0),
                                 "%")
    return out


def stage_metrics(outcomes) -> dict:
    """Every stage metric by its name: median wall-clock rate over the
    untraced commands of each stage."""
    out = {}
    per_stage = {}
    for o in outcomes:
        per_stage.setdefault(o.stage, []).append(o)
    names = {"train": ("train.iter_per_s", "iter/s"),
             "tune": ("tune.iter_per_s", "iter/s"),
             "generate": ("generate.steps_per_s", "columns/s"),
             "eval": ("eval.melodies_per_s", "melodies/s")}
    for stage, group in per_stage.items():
        name, unit = names[stage]
        out[name] = {"value": statistics.median(o.units / o.seconds
                                                for o in group),
                     "unit": unit}
    logliks = [o.loglik for o in per_stage.get("train", ())
               if o.loglik is not None]
    if logliks:
        out["train.loglik"] = {"value": statistics.median(logliks),
                               "unit": "nats/step"}
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """Set up and measure one workload; return (detail, result)."""
    workload, setup_times, setup_nominal = timed_setups(
        WORKLOADS[workload_name], seed)
    tracer = Tracer() if trace else None
    rounds, hashes = measure(workload, seconds, tracer)
    unit_of = columns if workload.unit == "column" else (lambda o: o.units)
    outcomes = [o for r in rounds for o in r.outcomes]
    failed = sum(1 for o in outcomes if o.error)
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    untraced_rate = statistics.median(r.nominal_rate(unit_of)
                                      for r in untraced)

    if trace:
        fired = {name for name, (calls, _) in tracer.totals().items()
                 if calls}
        missing = sorted(set(workload.expected_spans) - fired)
        if missing:
            raise TraceError(f"{workload.name}: expected spans never "
                             f"fired: {', '.join(missing)}")
        traced_rate = statistics.median(r.nominal_rate(unit_of)
                                        for r in traced)
        traced_outcomes = [o for r in traced for o in r.outcomes]
        layers = per_layer(
            tracer, sum(r.units(unit_of) for r in traced), untraced_rate,
            traced_rate,
            sum(o.units for o in traced_outcomes if o.stage == "tune"))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.write(workload.work / "spans.npz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_nominal),
                        "unit": "s"},
            "throughput": {"value": untraced_rate, "unit": "units/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }

    detail = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "unit": workload.unit, "rounds": len(rounds),
        "setup_s_measured": setup_times,
        "wall_rate_median": statistics.median(
            r.units(unit_of) / r.seconds() for r in untraced),
        "kernel_ms_median": 1e3 * statistics.median(
            r.kernel_seconds for r in rounds),
        "nominal_rates": [r.nominal_rate(unit_of) for r in untraced],
        "stages": stage_metrics([o for r in untraced for o in r.outcomes]),
        "failed_pct": 100.0 * failed / len(outcomes),
        "sha256": hashes,
        "environment": environment.describe(ROOT),
    }
    result = {"correct": failed == 0, "attempted": len(outcomes),
              "failed": failed, "metrics": metrics}
    (workload.work / "result.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    return detail, result
