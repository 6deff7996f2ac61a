"""Traced run: spans around the calls into each uprsim layer.

Wrappers are installed on the names the calling module looks up (for
example `harness.pointing_error`, `harness.sched.step`, and the methods of
the classes the harness instantiates), only while a traced op runs, and the
originals are put back afterwards. The program itself is not edited.

A span records name, start, end, parent span, op id and an outcome tag. Spans
are kept in memory as columns and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns

import uprsim
import uprsim.cli  # noqa: F401  (loads every module TARGETS names)
from uprsim.geometry import GeometryError

ROOT = "cli.main"

#: (span name, owner, attribute), with the owner given as a dotted path from
#: the uprsim package: the module or class the caller looks the name up on.
#: cli.run serves simulate, harness.run the sweep cells.
TARGETS = [
    ("harness.from_file", "harness.ExperimentConfig", "from_file"),
    ("harness.run", "cli", "run"),
    ("harness.run", "harness", "run"),
    ("harness.sweep", "cli", "sweep"),
    ("harness.write_csv", "cli", "write_outputs"),
    ("harness.write_csv", "cli", "write_sweep_csv"),
    ("harness.summarize", "harness", "_summarize"),
    ("tracksim.generate_trace", "harness", "generate_trace"),
    ("tracksim.read_trace_csv", "harness", "read_trace_csv"),
    ("tracksim.flow_measure", "harness.FlowSimulator", "measure"),
    ("tracksim.face_track", "harness.FaceTracker", "track"),
    ("scheduler.step", "harness.sched", "step"),
    ("scheduler.apply_recalculation", "harness.sched", "apply_recalculation"),
    ("viewgen.pointing_error", "harness", "pointing_error"),
    ("geometry.invert", "geometry.RigidTransform", "invert"),
    ("geometry.intersect_ray_plane", "viewgen", "intersect_ray_plane"),
    ("geometry.project_pinhole", "viewgen", "project_pinhole"),
]


def _resolve(path: str, attr: str):
    """The object holding attr in its own namespace, or None if the program
    no longer has that name; its span then simply records no calls."""
    owner = uprsim
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner if attr in getattr(owner, "__dict__", {}) else None


def _tag(name: str, result) -> str:
    """Outcome of a returning call that the per-layer counts need."""
    if name == "scheduler.step":
        decision = result[0]
        return decision.reason.value if decision.reason else decision.kind.value
    if name == "tracksim.flow_measure":
        return "failed" if result.failed else ""
    return ""


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = [ROOT] + sorted({t[0] for t in TARGETS})
        self.tags: list[str] = [""]
        self._name_ix = {n: i for i, n in enumerate(self.names)}
        self._tag_ix = {"": 0}
        self.op = array("l")
        self.parent = array("l")
        self.name = array("B")
        self.tag = array("B")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = [-1]  # open spans; -1 is "no parent"
        self._op_id = -1
        self._originals = []
        self.missing = []
        for name, path, attr in TARGETS:
            owner = _resolve(path, attr)
            if owner is None:
                self.missing.append(f"{path}.{attr}")
            else:
                self._originals.append((name, owner, attr, owner.__dict__[attr]))

    def __len__(self) -> int:
        return len(self.op)

    def _tag_index(self, tag: str) -> int:
        if tag not in self._tag_ix:
            self._tag_ix[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ix[tag]

    def _wrap(self, name: str, fn):
        """fn wrapped in a span. A span's id is its row, reserved when the
        span starts, so parents precede their children."""
        name_ix = self._name_ix[name]
        op, parent, names, tags = self.op, self.parent, self.name, self.tag
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(op)
            op.append(self._op_id)
            parent.append(stack[-1])
            names.append(name_ix)
            tags.append(0)
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = "GeometryError" if isinstance(exc, GeometryError) else type(exc).__name__
                tags[sid] = self._tag_index(kind)
                raise
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            tag = _tag(name, result)
            if tag:
                tags[sid] = self._tag_index(tag)
            return result
        return wrapper

    def traced_op(self, op_id: int, fn, *args):
        """Run one op with every wrapper installed; remove them afterwards."""
        self._op_id = op_id
        try:
            for name, owner, attr, original in self._originals:
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                setattr(owner, attr, wrapped)
            return self._wrap(ROOT, fn)(*args)
        finally:
            for _, owner, attr, original in self._originals:
                setattr(owner, attr, original)
            self._op_id = -1

    def installed(self) -> bool:
        """True if any wrapper is still in place."""
        return any(owner.__dict__[attr] is not original
                   for _, owner, attr, original in self._originals)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("op,span,parent,name,start_ns,end_ns,tag\n")
            for i in range(len(self.op)):
                f.write(f"{self.op[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                        f"{self.start[i]},{self.end[i]},{self.tags[self.tag[i]]}\n")

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per traced op: calls, inclusive ms and self ms for each span name,
        plus call counts by outcome tag ("<name>#<tag>")."""
        dur = [(e - s) / 1e6 for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, op in enumerate(self.op):
            stats = out[op]
            name = self.names[self.name[i]]
            stats[name + ".calls"] += 1
            stats[name + ".ms"] += dur[i]
            stats[name + ".self_ms"] += dur[i] - child[i]
            if self.tag[i]:
                stats[f"{name}#{self.tags[self.tag[i]]}"] += 1
        return out
