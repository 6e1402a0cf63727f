"""Output checks for each CLI command the benchmark runs.

A check raises CheckFailed with a message; the benchmark counts the
command as failed. Artifact hashes are recorded, never compared, so
two commits can be told apart by whether their arithmetic is bit
identical.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from rolltune import checkpoint, metrics, midiio


class CheckFailed(AssertionError):
    """A command's output is missing or wrong."""


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def checkpoint_kind(path, kind: str, iterations: int):
    """The checkpoint reads back, holds a `kind` model and records the
    iteration count it was asked for."""
    _, meta = checkpoint.read_checkpoint(path)
    if meta.get("kind") != kind:
        raise CheckFailed(f"{path} holds kind {meta.get('kind')!r}, "
                          f"expected {kind!r}")
    if meta.get("iterations") != iterations:
        raise CheckFailed(f"{path} records {meta.get('iterations')} "
                          f"iterations, expected {iterations}")


def csv_trace(path, header: str, rows: int) -> list:
    """One finite row per iteration, numbered 0..rows-1. Returns the
    parsed rows."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path} header is {lines[:1]}, expected "
                          f"{header!r}")
    parsed = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(parsed) != rows:
        raise CheckFailed(f"{path} has {len(parsed)} rows, expected {rows}")
    for k, row in enumerate(parsed):
        if row[0] != k or not all(math.isfinite(v) for v in row):
            raise CheckFailed(f"{path} row {k} is {row}")
    return parsed


def loss_trace(path, iterations: int) -> float:
    """Check a training loss CSV; return the mean log-likelihood per
    step over its last tenth."""
    rows = csv_trace(path, "iteration,loss,loglik", iterations)
    tail = rows[-max(1, len(rows) // 10):]
    return math.fsum(r[2] for r in tail) / len(tail)


def tune_trace(path, iterations: int):
    csv_trace(path, "iteration,mean_reward,mean_log_p,mean_r_mt",
              iterations)


def generated_midi(path, note_low: int, n_notes: int, steps: int):
    """The MIDI file parses and quantizes to a valid roll of the
    requested length."""
    song = midiio.parse_midi(Path(path).read_bytes())
    matrix = midiio.quantize(song, note_low, n_notes)
    try:
        matrix.validate()
    except ValueError as exc:
        raise CheckFailed(f"{path} quantizes to an invalid roll: {exc}")
    if matrix.data.shape != (n_notes, steps, 2):
        raise CheckFailed(f"{path} quantizes to shape {matrix.data.shape},"
                          f" expected {(n_notes, steps, 2)}")


def eval_report(path, songs: int):
    """The report CSV round-trips through report_from_csv and
    validates, and the rendered table was written beside it."""
    report = metrics.report_from_csv(Path(path).read_text(encoding="ascii"))
    try:
        report.validate()
    except ValueError as exc:
        raise CheckFailed(f"{path} does not validate: {exc}")
    if report.song_count != songs:
        raise CheckFailed(f"{path} scores {report.song_count} songs, "
                          f"expected {songs}")
    if not Path(f"{path}.txt").read_text(encoding="ascii").strip():
        raise CheckFailed(f"{path}.txt is empty")
