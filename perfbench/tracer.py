"""Spans around densedml's public functions, recorded from outside the package.

`Tracer.install` replaces each function listed in surface.json with a timing
wrapper in every loaded densedml module that binds it (and each listed
method on its class), so a call is timed whichever module it is made from.
`uninstall` restores the originals.  Spans stay in memory until
`fold_session` turns one session's spans into per-layer numbers, scaled to
reference host speed like every other timing (see hostspeed.py).

A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# What a call's arguments and result tell, noted when it returns.  Keyed by
# span; Tracer checks that each is a wrapped span, so a renamed function
# fails the run instead of reading 0.
OBSERVERS = {
    "sampling.sample_triplets": lambda args, out: (len(out), out.positives, out.negatives),
    "das.combine_factors": lambda args, out: (len(out.labels), out.dropped),
    "das.TransformationBank.update": lambda args, out: (
        int(args[0].filled.sum()), args[0].filled.size * args[0].capacity),
    "losses.triplet_loss": lambda args, out: (out.active_count, len(args[1])),
    "core.pairwise_distances": lambda args, out: (out.shape[0], len(args[0][0])),
}


class PhaseClock:
    """The `trace` object handed to train(): stamps every phase name it is
    told.  After a step's "update" it samples host speed when a sample is
    due; the next step starts once that is done, so sampling stays out of
    every step."""

    def __init__(self, host):
        self.host = host
        self.events = []
        self.resumed = []  # when train() got control back after each "update"

    def append(self, phase):
        now = time.perf_counter_ns()
        self.events.append((phase, now))
        if phase == "update":
            if self.host.due(now):
                self.host.sample()
            self.resumed.append(time.perf_counter_ns())

    def names(self):
        return [name for name, _ in self.events]

    def updates(self):
        return [ns for name, ns in self.events if name == "update"]

    def step_windows(self):
        """(start, end) ns of steps 2..S; step 1 also holds train()'s set-up."""
        return list(zip(self.resumed[:-1], self.updates()[1:]))

    def sampling_ns(self):
        return sum(r - u for u, r in zip(self.updates(), self.resumed))


class Tracer:
    """Timing wrappers for surface.json's 'wrapped' map, and the per-layer
    tables derived from it (see the map's 'about')."""

    def __init__(self, wrapped: dict):
        self.targets = {}  # span -> "densedml.module.name" or "...Class.method"
        self.step_ms = {}  # per-layer metric -> spans whose self time it sums, per step
        self.eval_ms = {}  # the same, per evaluate_checkpoint call
        self.setup_ms = {}  # the same, before step 1
        self.count_per_step = {}  # span -> per-layer metric; counted, not timed
        self.once_per_step = {}  # span -> "always" or "with_das"
        for target, role in wrapped.items():
            span = target.removeprefix("densedml.")
            self.targets[span] = target
            for key, table in (("step_ms", self.step_ms), ("eval_ms", self.eval_ms),
                               ("setup_ms", self.setup_ms)):
                if key in role:
                    table.setdefault(role[key], []).append(span)
            if "count_per_step" in role:
                self.count_per_step[span] = role["count_per_step"]
            if "once_per_step" in role:
                self.once_per_step[span] = role["once_per_step"]
        unknown = set(OBSERVERS) - set(self.targets)
        if unknown:
            raise ValueError(f"observed spans {sorted(unknown)} are not in surface.json")
        self.spans = []  # (name, start_ns, self_ns)
        self.notes = []  # (name, start_ns, value) observed when a call returns
        self._open = []  # enclosed time of each open span
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _timed(self, name, fn):
        spans, notes, open_ = self.spans, self.notes, self._open
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                enclosed = open_.pop()
                if open_:
                    open_[-1] += end - start
                spans.append((name, start, end - start - enclosed))
            if observe is not None:
                notes.append((name, start, observe(args, out)))
            return out

        return wrapper

    def _counted(self, name, fn):
        notes = self.notes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            notes.append((name, clock(), 1))
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for name, target in self.targets.items():
            module, owner, attr = _resolve(target)
            original = getattr(owner, attr)
            make = self._counted if name in self.count_per_step else self._timed
            wrapper = make(name, original)
            if owner is module:
                # rebind the function wherever a densedml module imported it
                for mod in [m for key, m in sys.modules.items()
                            if key == "densedml" or key.startswith("densedml.")]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def clear(self):
        self.spans.clear()
        self.notes.clear()

    # -- folding spans into per-layer numbers ------------------------------

    @staticmethod
    def _by_window(records, windows):
        """Bucket (name, ns, value) records into (start, end] windows."""
        out = [[] for _ in windows]
        if not windows:
            return out
        starts = np.asarray([w[0] for w in windows], dtype=np.int64)
        at = np.asarray([r[1] for r in records], dtype=np.int64)
        slot = np.searchsorted(starts, at, side="left") - 1
        for rec, i in zip(records, slot):
            if i >= 0 and rec[1] <= windows[i][1]:
                out[i].append(rec)
        return out

    def step_layers(self, windows, scale):
        """Per-step self times (scaled to reference host speed) and counts,
        one dict per (start, end) step window."""
        span_win = self._by_window(self.spans, windows)
        note_win = self._by_window(self.notes, windows)
        steps = []
        for (start, end), k, spans, notes in zip(windows, scale, span_win, note_win):
            self_ns, calls = {}, {}
            for name, _, ns in spans:
                self_ns[name] = self_ns.get(name, 0) + ns * k
                calls[name] = calls.get(name, 0) + 1
            noted = {}
            for name, _, value in notes:
                noted.setdefault(name, []).append(value)
            steps.append({"wall_ns": (end - start) * k, "self_ns": self_ns, "calls": calls,
                          "notes": noted})
        return steps

    def window_self_ms(self, start_ns, end_ns):
        """Self time (ms) per span name over spans that start in the window."""
        out = {}
        for name, start, ns in self.spans:
            if start_ns <= start <= end_ns:
                out[name] = out.get(name, 0.0) + ns / 1e6
        return out

    def fold_session(self, session):
        """Per-layer numbers of one traced session (see run.run_session)."""
        eval_calls = []  # per evaluate_checkpoint call
        for (t2, t3), k in zip(session["eval_windows"], session["eval_scales"]):
            eval_self = self.window_self_ms(t2, t3)
            eval_calls.append({metric: k * sum(eval_self.get(n, 0.0) for n in names)
                               for metric, names in self.eval_ms.items()})
        before_step1 = self.window_self_ms(*session["setup_window"])
        shapes = [v for name, ns, v in self.notes if name == "core.pairwise_distances"
                  and any(t2 <= ns <= t3 for t2, t3 in session["eval_windows"])]
        return {
            "steps": self.step_layers(session["step_windows"], session["step_scale"]),
            "eval_ms": eval_calls,
            "setup_ms": {metric: session["setup_scale"]
                         * sum(before_step1.get(n, 0.0) for n in names)
                         for metric, names in self.setup_ms.items()},
            # bytes of the n x n x d float64 difference tensor of the largest call
            "pairwise_bytes": max((n * n * d * 8 for n, d in shapes), default=0),
        }

    def summarize_steps(self, steps, n_real):
        """Per-layer per-step metrics from `step_layers` output (steps pooled
        over every traced session).  `n_real` is the real rows per batch."""
        n = len(steps)
        out = {}
        for metric, names in self.step_ms.items():
            total = sum(s["self_ns"].get(name, 0) for s in steps for name in names)
            out[metric] = total / n / 1e6
        wall = np.asarray([s["wall_ns"] for s in steps], dtype=np.float64)
        spanned = np.asarray([sum(s["self_ns"].values()) for s in steps], dtype=np.float64)
        out["training.self_ms"] = float(np.mean(wall - spanned)) / 1e6

        triplets = [t for s in steps for t in s["notes"].get("sampling.sample_triplets", [])]
        mined = sum(t[0] for t in triplets)
        out["sampling.triplets_per_step"] = mined / n
        for metric, column in (("sampling.produced_pos_frac", 1),
                               ("sampling.produced_neg_frac", 2)):
            rows = sum(int(np.count_nonzero(t[column] >= n_real)) for t in triplets)
            out[metric] = rows / mined if mined else 0.0

        produced = [p for s in steps for p in s["notes"].get("das.combine_factors", [])]
        out["das.produced_per_step"] = sum(p[0] for p in produced) / n
        out["das.dropped_per_step"] = sum(p[1] for p in produced) / n
        for span, metric in self.count_per_step.items():
            out[metric] = sum(len(s["notes"].get(span, [])) for s in steps) / n
        fills = [f for s in steps
                 for f in s["notes"].get("das.TransformationBank.update", [])]
        out["das.bank_fill_frac"] = (
            float(np.mean([filled / slots for filled, slots in fills])) if fills else 0.0)

        losses = [a for s in steps for a in s["notes"].get("losses.triplet_loss", [])]
        sampled = sum(a[1] for a in losses)
        out["losses.active_frac"] = sum(a[0] for a in losses) / sampled if sampled else 0.0
        return out

    def call_count_failures(self, steps, das_enabled):
        """Spans that some step did not enter exactly once (or, with DAS off,
        entered at all): a call that bypasses its wrapper shows up here."""
        want = {name: int(when == "always" or das_enabled)
                for name, when in self.once_per_step.items()}
        bad = set()
        for s in steps:
            for name, count in want.items():
                if s["calls"].get(name, 0) != count:
                    bad.add(f"{name}: {s['calls'].get(name, 0)} calls in a step, want {count}")
        return sorted(bad)


def _resolve(target):
    """'densedml.das.TransformationBank.update' -> (module, owner, 'update')."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = module
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        getattr(owner, parts[-1])  # raises AttributeError when the surface moved
        return module, owner, parts[-1]
    raise ImportError(f"cannot import any module of {target!r}")
