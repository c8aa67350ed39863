"""Span tracing by wrapping module attributes from outside the package.

The package modules import names directly (``from .coeffs import
build_table``), so each function is wrapped in the namespace its caller looks
it up in.  A span records name, start, end, parent span and thread; spans are
kept in per-thread column arrays in memory and written out at the end.
``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from array import array

import numpy as np

# (module, attribute, span name).  A function reached through several
# namespaces gets one span name, so its numbers add up across callers.
TARGETS = (
    ("integrator", "solve", "integrator.solve"),
    ("integrator", "step", "integrator.step"),
    ("integrator", "fixed_point_stages", "integrator.fixed_point_stages"),
    ("integrator", "build_table", "coeffs.build_table"),
    ("coeffs", "scalar_weight", "coeffs.scalar_weight"),
    ("coeffs", "decompose_symmetric", "matfun.decompose_symmetric"),
    ("coeffs", "phi_pair_spectral", "matfun.phi_pair_spectral"),
    ("coeffs", "phi_pair_series", "matfun.phi_pair_series"),
    ("lagrange", "eval_basis_derivative", "lagrange.eval_basis_derivative"),
    ("lagrange", "weighted_moment", "lagrange.weighted_moment"),
    ("stability", "scalar_weight", "coeffs.scalar_weight"),
    ("cli", "main", "cli.main"),
    ("cli", "solve", "integrator.solve"),
    ("cli", "scan_region", "stability.scan_region"),
    ("cli", "build_problem", "problems.build_problem"),
    ("cli", "build_table", "coeffs.build_table"),
)


class _Buffer:
    """Spans of one thread, as parallel columns; parent is a row index."""

    def __init__(self):
        self.tid = threading.get_ident()
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._live: list[_Buffer] = []
        self._saved: list[tuple[int, _Buffer]] = []  # (operation, buffer)
        self._installed: list[tuple[object, str, object]] = []
        self.table_bytes: list[int] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._live.append(buf)
        return buf

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules: dict) -> None:
        """Wrap every TARGETS entry; ``modules`` maps short name to module."""
        for mod, attr, name in TARGETS:
            owner = modules[mod]
            original = getattr(owner, attr)
            if name == "problems.build_problem":
                self._set(owner, attr, self.wrap(original, name, self._wrap_spec))
            elif name == "coeffs.build_table":
                self._set(owner, attr, self.wrap(original, name, self._keep_table))
            else:
                self._set(owner, attr, self.wrap(original, name))

    def wrap_ivp(self, ivp) -> None:
        """Wrap the force and Hamiltonian callbacks of a built problem."""
        self._set(ivp, "force", self.wrap(ivp.force, "problems.force"))
        if ivp.hamiltonian is not None:
            self._set(ivp, "hamiltonian", self.wrap(ivp.hamiltonian, "problems.hamiltonian"))

    def _wrap_spec(self, spec) -> None:
        self.wrap_ivp(spec.ivp)

    def _keep_table(self, table) -> None:
        with self._lock:
            self.table_bytes.append(table_nbytes(table))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- harvesting --------------------------------------------------------

    def span_count(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._live)

    def harvest(self, op: int) -> list[_Buffer]:
        """Move the spans recorded so far into operation ``op``."""
        with self._lock:
            bufs, self._live = self._live, []
        self._local = threading.local()
        self._saved.extend((op, b) for b in bufs)
        return bufs

    def write(self, path) -> None:
        """All harvested spans as columns: op, thread, name, start, end, parent."""
        cols = {k: [] for k in ("op", "thread", "name", "start", "end", "parent")}
        for op, b in self._saved:
            n = len(b)
            cols["op"].append(np.full(n, op, dtype=np.int32))
            cols["thread"].append(np.full(n, b.tid, dtype=np.int64))
            cols["name"].append(np.frombuffer(b.name, dtype=np.int32))
            cols["start"].append(np.frombuffer(b.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(b.end, dtype=np.float64))
            cols["parent"].append(np.frombuffer(b.parent, dtype=np.int32))
        arrays = {
            k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()
        }
        np.savez(path, names=np.array(self.names), **arrays)


def table_nbytes(obj, seen=None) -> int:
    """Bytes of every distinct array reachable through a table's fields."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(table_nbytes(v, seen) for v in obj)
    if dataclasses.is_dataclass(obj):
        return sum(table_nbytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


def summarize(names: list[str], bufs: list[_Buffer]) -> dict:
    """Per span name: calls, busy seconds, self seconds and durations.

    Self time is a span's duration minus the durations of its direct
    children; children run on the span's own thread and nest inside it.
    Also counts, per parent name, the direct children by name.
    """
    out: dict[str, dict] = {}
    child_calls: dict[tuple[str, str], int] = {}
    for b in bufs:
        if not len(b):
            continue
        name = np.frombuffer(b.name, dtype=np.int32)
        dur = np.frombuffer(b.end, dtype=np.float64) - np.frombuffer(b.start, dtype=np.float64)
        parent = np.frombuffer(b.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        for nid in np.unique(name):
            sel = name == nid
            rec = out.setdefault(
                names[nid], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
            )
            rec["calls"] += int(sel.sum())
            rec["busy_s"] += float(dur[sel].sum())
            rec["self_s"] += float(self_time[sel].sum())
            rec["durations"].append(dur[sel])
        pairs = np.stack([name[parent[has_parent]], name[has_parent]], axis=1)
        if pairs.size:
            uniq, counts = np.unique(pairs, axis=0, return_counts=True)
            for (pn, cn), k in zip(uniq, counts):
                key = (names[pn], names[cn])
                child_calls[key] = child_calls.get(key, 0) + int(k)
    for rec in out.values():
        rec["durations"] = np.concatenate(rec["durations"])
    return {"spans": out, "child_calls": child_calls}
