"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each public layer function with a wrapper at
every module name the program calls it by (``evaluate.advance``,
``schedule.slice_scores`` and so on). A wrapper records one span with
name, start, end and parent, timed with the clock the tracer is given,
and adds its counts. Spans stay in memory;
``self_times`` turns them into self times, a span's duration minus its
child spans, and ``dump`` writes them out when the run ends. The counting
a wrapper does after the call is a span of its own, ``tracer``, so that it
is not charged to the caller's layer.
"""

from __future__ import annotations

import json
import os

# layer function -> the module names it is called by
WRAPPED = {
    "history.read_history": ("history",),
    "history.extract_flips": ("history",),
    "sensitivity.build_delta": ("sensitivity", "evaluate"),
    "sensitivity.advance": ("sensitivity", "evaluate"),
    "sensitivity.slice_scores": ("sensitivity", "evaluate", "schedule"),
    "sensitivity.select_top_n": ("sensitivity", "evaluate", "schedule"),
    "sensitivity.incremental_observe": ("sensitivity",),
    "sensitivity.incremental_apply": ("sensitivity",),
    "sensitivity.save_matrix": ("sensitivity",),
    "sensitivity.load_matrix": ("sensitivity",),
    "evaluate.replay_sizes": ("evaluate",),
    "evaluate.sweep_alpha": ("evaluate",),
    "baselines.shuffled_universe": ("baselines", "evaluate"),
    "baselines.hbtp_scores": ("baselines",),
    "baselines.dissimilarity_order": ("baselines", "schedule"),
    "schedule.office_hours_tick": ("schedule",),
    "schedule.select_stable": ("schedule",),
    "schedule.day_tick": ("schedule",),
    "schedule.save_state": ("schedule",),
    "schedule.load_state": ("schedule",),
}

# per-layer metric -> the spans whose self time it sums
SELF_TIMES = {
    "history.parse_s": ("history.read_history",),
    "history.flips_s": ("history.extract_flips",),
    "sensitivity.advance_s": ("sensitivity.advance",),
    "sensitivity.delta_s": ("sensitivity.build_delta",),
    "sensitivity.slice_s": ("sensitivity.slice_scores",),
    "sensitivity.select_s": ("sensitivity.select_top_n",),
    "sensitivity.observe_s": ("sensitivity.incremental_observe",),
    "sensitivity.apply_s": ("sensitivity.incremental_apply",),
    "sensitivity.save_s": ("sensitivity.save_matrix",),
    "sensitivity.load_s": ("sensitivity.load_matrix",),
    "evaluate.self_s": ("evaluate.replay_sizes", "evaluate.sweep_alpha"),
    "baselines.shuffle_s": ("baselines.shuffled_universe",),
    "baselines.hbtp_s": ("baselines.hbtp_scores",),
    "baselines.dissimilarity_s": ("baselines.dissimilarity_order",),
    "schedule.office_s": ("schedule.office_hours_tick",),
    "schedule.stable_s": ("schedule.select_stable",),
    "schedule.tick_s": ("schedule.day_tick",),
    "schedule.state_save_s": ("schedule.save_state",),
    "schedule.state_load_s": ("schedule.load_state",),
}

COUNTS = (
    "history.parse_mb",
    "sensitivity.advance_calls",
    "sensitivity.advance_nnz_in",
    "sensitivity.slice_calls",
    "sensitivity.slice_probes",
    "sensitivity.slice_hits",
    "sensitivity.select_calls",
    "sensitivity.nnz_final",
    "sensitivity.apply_calls",
    "sensitivity.snapshot_mb",
    "evaluate.requests",
    "evaluate.selections",
    "baselines.dissimilarity_ordered",
    "schedule.state_mb",
    "schedule.stable_picked",
)

MB = 1024 * 1024


def _nnz(matrix):
    return sum(len(col) for col in matrix.cols.values())


class Tracer:
    """Spans are timed with ``clock``, a function returning seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._saved = []

    def _count(self, name, args, result):
        c = self.counts
        if name == "sensitivity.advance":
            c["sensitivity.advance_calls"] += 1
            c["sensitivity.advance_nnz_in"] += _nnz(args[0])
            c["sensitivity.nnz_final"] = max(c["sensitivity.nnz_final"], _nnz(result))
        elif name == "sensitivity.slice_scores":
            matrix, changed = args[0], set(args[1])
            c["sensitivity.slice_calls"] += 1
            c["sensitivity.slice_probes"] += len(matrix.tests) * len(changed)
            c["sensitivity.slice_hits"] += sum(
                len(changed.intersection(col)) for col in matrix.cols.values()
            )
        elif name == "sensitivity.select_top_n":
            c["sensitivity.select_calls"] += 1
        elif name == "sensitivity.incremental_apply":
            c["sensitivity.apply_calls"] += 1
            c["sensitivity.nnz_final"] = max(c["sensitivity.nnz_final"], _nnz(result[0]))
        elif name == "sensitivity.load_matrix":
            c["sensitivity.nnz_final"] = max(c["sensitivity.nnz_final"], _nnz(result))
        elif name == "sensitivity.save_matrix":
            c["sensitivity.snapshot_mb"] += args[1].tell() / MB
        elif name == "schedule.save_state":
            c["schedule.state_mb"] += args[1].tell() / MB
        elif name == "history.read_history":
            c["history.parse_mb"] += os.path.getsize(args[0]) / MB
        elif name == "evaluate.replay_sizes":
            c["evaluate.requests"] += 1
            per_build = len(args[3]) * (args[2].policy.runs if args[2].policy else 1)
            c["evaluate.selections"] += next(iter(result.values())).evaluated_builds * per_build
        elif name == "baselines.dissimilarity_order":
            c["baselines.dissimilarity_ordered"] += len(result)
        elif name == "schedule.select_stable":
            c["schedule.stable_picked"] += len(result)

    def _wrap(self, name, fn):
        spans, stack, count, clock = self.spans, self.stack, self._count, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            count(name, args, result)
            spans.append(["tracer", span[2], clock(), span[3]])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules):
        """Wrap every function of WRAPPED in the given {name: module} map."""
        for qualname, homes in WRAPPED.items():
            home, attr = qualname.split(".")
            fn = getattr(modules[home], attr)
            wrapper = self._wrap(qualname, fn)
            for mod in homes:
                self._saved.append((modules[mod], attr, getattr(modules[mod], attr)))
                setattr(modules[mod], attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self, start=0, end=None):
        """{span name: self seconds} over spans[start:end]."""
        end = len(self.spans) if end is None else end
        own = [e - s for _, s, e, _ in self.spans[start:end]]
        for _, s, e, parent in self.spans[start:end]:
            if parent >= start:
                own[parent - start] -= e - s
        out = {}
        for (name, _, _, _), t in zip(self.spans[start:end], own):
            out[name] = out.get(name, 0.0) + t
        return out

    def inclusive(self, names, start=0, end=None):
        """Seconds in spans of ``names`` not nested in another of them."""
        end = len(self.spans) if end is None else end
        return sum(
            e - s
            for name, s, e, parent in self.spans[start:end]
            if name in names and (parent < start or self.spans[parent][0] not in names)
        )

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for i, (name, s, e, parent) in enumerate(self.spans):
                fp.write(json.dumps({"id": i, "name": name, "start": s, "end": e, "parent": parent}))
                fp.write("\n")
