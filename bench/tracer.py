"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each rolltune module from the
outside: nothing in the package is edited. A wrapped function records
one span per call (name, start, end, parent span) into flat in-memory
arrays, optionally adds to named counters, and is written out only when
the run ends. A function imported by name into another module is bound
there too, so the wrapper replaces the original object in every module
namespace that holds it; methods are replaced on their class.

Self time of a span is its duration minus the durations of its direct
children. Spans nest strictly (one thread), so children never overlap.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np


class TraceError(RuntimeError):
    """The instrumentation does not match the program: a target is
    missing, or a span a workload expects never fired."""


def _stack_forward_rows(args, kwargs, result):
    return {"rows": args[1].shape[1]}


def _trunk_scores_rows(args, kwargs, result):
    return {"rows": len(args[2])}


def _checkpoint_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class _ReplayBytes:
    """Bytes of array memory each appended transition adds to the
    replay buffer. Consecutive transitions share the snapshot between
    them, so only arrays the previous transition did not already hold
    count; a view counts as the array it views."""

    def __init__(self):
        self._buffer = None
        self._held = set()

    def __call__(self, args, kwargs, result):
        buffer, transition = args[0], args[1]
        if self._buffer is None or self._buffer() is not buffer:
            self._buffer = weakref.ref(buffer)
            self._held = set()
        arrays = {}
        for snap in (transition.state, transition.next_state):
            for a in [snap.col] + [x for cell in snap.cells for x in cell]:
                base = a if a.base is None else a.base
                arrays[id(base)] = base.nbytes
        added = sum(n for k, n in arrays.items() if k not in self._held)
        self._held = set(arrays)
        return {"bytes": added}


# (module, attribute, span name, counter hook). Attributes with a dot
# are methods, patched on their class. A hook that is a class keeps
# state, so each install gets a fresh instance.
TARGETS = (
    ("cli", "main", "cli", None),
    ("midiio", "parse_midi", "midiio.parse_midi", None),
    ("midiio", "quantize", "midiio.quantize", None),
    ("midiio", "to_midi", "midiio.to_midi", None),
    ("midiio", "serialize_midi", "midiio.serialize_midi", None),
    ("features", "expand_batch", "features.expand_batch", None),
    ("features", "expand_columns", "features.expand_columns", None),
    ("nn", "stack_forward", "nn.stack_forward", _stack_forward_rows),
    ("nn", "stack_backward", "nn.stack_backward", None),
    ("nn", "stack_step", "nn.stack_step", None),
    ("nn", "sigmoid", "nn.sigmoid", None),
    ("nn", "LstmCellParams.packed", "nn.packed", None),
    ("nn", "Adadelta.step", "nn.Adadelta.step", None),
    ("model", "train", "model.train", None),
    ("model", "generate", "model.generate", None),
    ("model", "sample_segments", "model.sample_segments", None),
    ("model", "timewise_pass", "model.timewise_pass", None),
    ("model", "notewise_pass", "model.notewise_pass", None),
    ("model", "loss_with_gradient", "model.loss_with_gradient", None),
    ("model", "loss_gradients", "model.loss_gradients", None),
    ("model", "sample_pairs", "model.sample_pairs", None),
    ("tuner", "tune", "tuner.tune", None),
    ("tuner", "rollout", "tuner.rollout", None),
    ("tuner", "sample_primed_melody", "tuner.sample_primed_melody", None),
    ("tuner", "trunk_scores", "tuner.trunk_scores", _trunk_scores_rows),
    ("tuner", "trunk_scores_backward", "tuner.trunk_scores_backward",
     None),
    ("tuner", "q_targets", "tuner.q_targets", None),
    ("tuner", "q_update", "tuner.q_update", None),
    ("tuner", "target_sync", "tuner.target_sync", None),
    ("tuner", "choose_action", "tuner.choose_action", None),
    ("tuner", "ReplayBuffer.sample", "tuner.ReplayBuffer.sample", None),
    ("tuner", "ReplayBuffer.append", "tuner.ReplayBuffer.append",
     _ReplayBytes),
    ("theory", "theory_reward", "theory.theory_reward", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("checkpoint", "write_checkpoint", "checkpoint.write_checkpoint",
     _checkpoint_bytes),
    ("checkpoint", "read_checkpoint", "checkpoint.read_checkpoint",
     _checkpoint_bytes),
)


def rolltune_modules() -> dict:
    """Every module of the rolltune package, by short name."""
    pkg = importlib.import_module("rolltune")
    return {info.name: importlib.import_module(f"rolltune.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)}


class Tracer:
    """Collects spans and counters while installed; see module doc."""

    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self._name_id = {name: k for k, name in enumerate(self.names)}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn, hook):
        sid = self._name_id[name]
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack, counters = self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result
        return traced

    # -- installing ----------------------------------------------------

    def install(self):
        """Replace every target in every namespace that binds it."""
        if self._patches:
            raise TraceError("tracer is already installed")
        modules = rolltune_modules()
        for mod_name, attr, name, hook in TARGETS:
            if isinstance(hook, type):
                hook = hook()
            module = modules.get(mod_name)
            if module is None:
                raise TraceError(f"module rolltune.{mod_name} is missing")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                original = vars(owner).get(meth) if owner else None
                if original is None:
                    raise TraceError(f"{mod_name}.{attr} is missing")
                self._patch(owner, meth, original,
                            self._wrap(name, original, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                raise TraceError(f"{mod_name}.{attr} is missing")
            wrapper = self._wrap(name, original, hook)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def totals(self):
        """Per span name: (calls, self seconds) over every span."""
        ids = np.array(self.name_ids, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        secs = np.bincount(ids, weights=dur - child, minlength=n)
        return {name: (int(calls[k]), float(secs[k]))
                for k, name in enumerate(self.names)}

    def write(self, path):
        """Write every span and counter to an .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.array(self.name_ids, dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int32),
            start=np.array(self.starts), end=np.array(self.ends),
            counter_names=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k]
                                     for k in sorted(self.counters)]))
