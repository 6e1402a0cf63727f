"""rolltune benchmark: the four CLI stages at the desk configuration.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 35 --trace 0

Every workload drives `rolltune.cli.main` in-process, one command at a
time (a closed loop with one client), at the acceptance-test desk
configuration: MIDI 48..83 (36 notes), one 24-unit LSTM layer per
axis, 32-step segments, batch 4. The seed picks the synthesized corpus
(corpus.py) and the seed every command runs with.

  train-desk   `train` on the corpus. The note model's forward and
               backward passes, feature expansion, the loss and Adadelta
               do the work; the tuner, theory and metrics modules do none.
  tune-desk    `tune` from a checkpoint primed in set-up. Each iteration
               scores one state with the Q-network and the reward model
               and, once the replay holds a batch, takes a 32-state
               Q-update and a target sync. The only replay buffer.
  sample-desk  `generate`, then `eval` on the primed and on the tuned
               checkpoint. Inference only: every recurrent call has 36
               rows, so per-call overhead shows here first.

End-to-end metrics (--trace 0). Wall time on the shared host this was
tuned on swings by up to 2x between runs of the same code, so times are
scaled to a nominal host speed gauged by the fixed kernel in
reference.py, timed next to every measured interval.
  setup_s      median time of one set-up at nominal speed: synthesizing
               the corpus and priming the checkpoints the workload reads.
               Set-up runs at least SETUP_REPEATS times, and until
               SETUP_MIN_SECONDS of set-up were spent.
  throughput   units of work per second at nominal speed, median over
               rounds of commands.
  peak_rss_mb  peak resident set of the benchmark process.
The unit of work is one iteration on train-desk and tune-desk and one
sampled column on sample-desk (a generated column, or one step of an
evaluated melody).

With --trace 1 the run alternates untraced and traced rounds and reports
per-layer self time, call counts and sizes per unit of work (see
tracer.py), plus the tracing overhead on throughput.

One operation is one command plus its output checks (checks.py). The
last line of standard output is the result as one JSON object; the line
before it holds the detail: each stage's wall-clock rate by name, the
unscaled times, the artifact hashes and the environment. Work files go
under .bench_work/ at the repository root.

BLAS is held to one thread. On two shared cores, two BLAS threads made
round rates on sample-desk bimodal (270 to 400 columns/s within one run)
where one thread held 273 to 290.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="train-desk, tune-desk or sample-desk")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import rolltune
    except ImportError as exc:
        print(f"bench: cannot import rolltune from {src}: {exc}",
              file=sys.stderr)
        return 2
    if Path(rolltune.__file__).resolve().parent != src / "rolltune":
        print(f"bench: rolltune was imported from {rolltune.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)}")
    try:
        detail, result = harness.run(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except (harness.BenchmarkError, harness.TraceError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
