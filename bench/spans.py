"""Span tracing around the program's public functions, from outside the program.

Tracer.install() replaces every public function of the quadboson modules
(including the names a module imports from another, such as cli's
adjoint_rep) and the numpy/scipy LAPACK entry points they call with a
wrapper that records a span: name, start, end, parent. uninstall()
puts every original object back. Spans stay in memory; layer metrics
are computed from them after the run.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy.linalg
import scipy.linalg

import quadboson
from quadboson import algebra, cli, fock, spectral, swanson

LAYERS = {"algebra": algebra, "spectral": spectral, "swanson": swanson, "fock": fock, "cli": cli}
LAPACK = ((numpy.linalg, ("eig", "eigvals", "svd")), (scipy.linalg, ("expm", "logm")))


def _assemble_attrs(form, trunc, *_, **__):
    return {"dim": trunc.dimension}


def _levels_attrs(decomp, count, *_, **__):
    return {"occupations": (count + 1) ** decomp.frequencies.size}


ATTRS = {"fock.assemble": _assemble_attrs, "fock.predicted_levels": _levels_attrs}


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    root: int
    pass_index: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict | None = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_index = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._installed = False

    # ------------------------------------------------------------ recording
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, parent, self.spans[parent].root if parent >= 0 else index,
                    self.pass_index)
        self.spans.append(span)
        if parent >= 0:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Root span for one benchmark operation; program spans nest under it."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            if attrs is not None:
                span.attrs = attrs(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        self._patched.clear()
        # one wrapper per function, named after its defining module, installed
        # under every name that refers to it
        wrappers: dict[int, object] = {}
        for module in [*LAYERS.values(), quadboson]:
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or not fn.__module__.startswith("quadboson."):
                    continue
                if id(fn) not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
                self._patch(module, name, wrappers[id(fn)])
        for module, names in LAPACK:
            for name in names:
                self._patch(module, name, self._wrap(f"lapack.{name}", getattr(module, name)))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._installed = False

    def leftovers(self) -> list[str]:
        """Patched names that do not hold their original object any more."""
        return [name for owner, name, original in self._patched
                if getattr(owner, name) is not original]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------- analysis
    def self_time(self, index: int) -> float:
        span = self.spans[index]
        covered, reach = 0.0, span.start
        for child in sorted((self.spans[c] for c in span.children), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def self_sum_error(self) -> float:
        """Largest |sum of self times in a root's subtree - root duration|."""
        totals: dict[int, float] = {}
        for index, span in enumerate(self.spans):
            totals[span.root] = totals.get(span.root, 0.0) + self.self_time(index)
        return max((abs(total - self.spans[root].duration) for root, total in totals.items()),
                   default=0.0)

    def _program_ancestor(self, span: Span) -> str:
        """Layer of the nearest enclosing program span ('' under a bench span only)."""
        parent = span.parent
        while parent >= 0:
            name = self.spans[parent].name
            if name.split(".", 1)[0] in LAYERS:
                return name.split(".", 1)[0]
            parent = self.spans[parent].parent
        return ""

    def pass_metrics(self, pass_index: int, units: int) -> dict[str, float]:
        """Layer metrics of one traced pass; units are the pass's checked results.

        For each program function: `.calls`, `.s` (inclusive, outermost call
        only) and `.self_s`. A LAPACK span adds to `<layer>.<routine>.s` and
        `<layer>.lapack.s` of its nearest program ancestor.
        """
        m: dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0.0) + value

        for index, span in enumerate(self.spans):
            name = span.name
            if span.pass_index != pass_index or name.startswith("bench."):
                continue
            if name.startswith("lapack."):
                layer, routine = self._program_ancestor(span), name[len("lapack."):]
                add(f"{layer}.{routine}.s", span.duration)
                add(f"{layer}.lapack.s", span.duration)
                if layer in ("spectral", "cli") and routine in ("eig", "eigvals", "svd"):
                    add("svd_calls" if routine == "svd" else "eig_calls", 1)
                continue
            add(name + ".calls", 1)
            add(name + ".self_s", self.self_time(index))
            if not self._has_ancestor_named(span, name):
                add(name + ".s", span.duration)
            if name == "fock.assemble":
                add("fock.assemble.bytes_computed", 16 * span.attrs["dim"] ** 2)
            elif name == "fock.predicted_levels":
                add("fock.predicted_levels.occupations", span.attrs["occupations"])
            elif name == "fock.verify_spectrum":
                dims = [self.spans[c].attrs["dim"] for c in span.children
                        if self.spans[c].name == "fock.assemble"]
                # first run, then the grown() re-run; a call that raised has fewer
                add("fock.oracle_dim", dims[0] if dims else 0)
                add("fock.regrow_dim", dims[1] if len(dims) > 1 else 0)
        m["spectral.eig_calls_per_point"] = m.pop("eig_calls", 0.0) / units
        m["spectral.svd_calls_per_point"] = m.pop("svd_calls", 0.0) / units
        m["trace.spans"] = float(sum(1 for s in self.spans if s.pass_index == pass_index))
        return m

    def _has_ancestor_named(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def median_metrics(per_pass: list[dict[str, float]], names) -> dict[str, float]:
    """Median over passes of each named metric (0 where a layer never ran)."""
    return {name: float(statistics.median(p.get(name, 0.0) for p in per_pass)) for name in names}
