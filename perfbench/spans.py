"""In-memory spans around calls into the package's public functions.

:class:`Tracer` wraps the functions listed in :data:`TRACED` where the
package's modules have bound them, and the listed methods on their
classes, so that calls made by the package itself are recorded too.
Each span holds its name, start and end (``perf_counter_ns``), its parent
span and an optional tag.  Calls made in worker processes of the sweep
pool are not recorded.  The spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from statistics import median

# (module, attribute) pairs; "Class.method" wraps a method on the class
TRACED = (
    ("mtphase.simulator", "Stepper.__init__"),
    ("mtphase.simulator", "Stepper.step_array"),
    ("mtphase.simulator", "simulate"),
    ("mtphase.spectral", "solve_spectrum"),
    ("mtphase.spectral", "mode_spectra"),
    ("mtphase.threshold", "ParameterPlane.at"),
    ("mtphase.threshold", "classify_region"),
    ("mtphase.threshold", "find_threshold"),
    ("mtphase.threshold", "stability_exchange_report"),
    ("mtphase.threshold", "trace_threshold_curve"),
    ("mtphase.transition", "classify_transition"),
    ("mtphase.sweep", "sweep"),
    ("mtphase.sweep", "resolve_workers"),
    ("mtphase.output", "write_csv"),
    ("mtphase.output", "write_manifest"),
    ("mtphase.config", "parse_config"),
    ("mtphase.cli", "main"),
    ("mtphase.artifacts", "run_phase_diagram"),
    ("mtphase.artifacts", "run_simulate"),
    ("mtphase.model", "validate_params"),
)


def _boundary_condition(args, kwargs) -> str:
    """The tag of a ``classify_transition`` span: its point's boundary condition."""
    point = args[0] if args else kwargs.get("tp")
    params = getattr(point, "lambda0", point)
    return params.bc.value


class Tracer:
    """Records spans; :meth:`install` wraps the traced functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns, tag]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str, tag) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                  time.perf_counter_ns(), 0, tag]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        record[4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tagged = name == "transition.classify_transition"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name, _boundary_condition(args, kwargs) if tagged else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a package module bound it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "mtphase"]
        for module_name, attr in TRACED:
            short = module_name.split(".")[1]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module_name], cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{short}.{attr}", original))
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(f"{short}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Duration minus the time covered by direct children, per span (ns)."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def under(self, root_prefix: str) -> list[list]:
        """Spans whose outermost ancestor's name starts with ``root_prefix``."""
        roots: list[str] = []
        out = []
        for s in self.spans:
            roots.append(s[2] if s[1] < 0 else roots[s[1]])
            if roots[-1].startswith(root_prefix):
                out.append(s)
        return out

    def durations(self, name: str, spans=None, tag=None) -> list[float]:
        """Durations in seconds of the spans called ``name``."""
        return [
            (s[4] - s[3]) * 1e-9
            for s in (self.spans if spans is None else spans)
            if s[2] == name and (tag is None or s[5] == tag)
        ]

    def children(self, parent_name: str, name: str) -> list[float]:
        """Durations (s) of spans ``name`` whose direct parent is ``parent_name``."""
        return [
            (s[4] - s[3]) * 1e-9
            for s in self.spans
            if s[2] == name and s[1] >= 0 and self.spans[s[1]][2] == parent_name
        ]

    def write(self, path: str, summary: dict) -> None:
        """Write the spans with self times, a per-name summary, and ``summary``."""
        own = self.self_times()
        by_name: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for s, self_ns in zip(self.spans, own):
            entry = by_name[s[2]]
            entry[0] += 1
            entry[1] += s[4] - s[3]
            entry[2] += self_ns
        t0 = self.spans[0][3] if self.spans else 0
        doc = {
            "metrics": summary,
            "by_name": {
                name: {"calls": c, "total_s": tot * 1e-9, "self_s": own_ns * 1e-9}
                for name, (c, tot, own_ns) in sorted(by_name.items())
            },
            "columns": ["id", "parent", "name", "start_us", "end_us", "self_us", "tag"],
            "spans": [
                [s[0], s[1], s[2], (s[3] - t0) / 1e3, (s[4] - t0) / 1e3, o / 1e3, s[5]]
                for s, o in zip(self.spans, own)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.record = self.tracer._open(self.name, None)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.record)


def med(values) -> float:
    values = list(values)
    return float(median(values)) if values else float("nan")
