"""Span tracer for the traced pass, installed from the benchmark's files only.

``Tracer.install`` wraps the program's functions and methods listed in
``LAYERS``.  A function is replaced in every ``hopflike`` module namespace
that binds it (``symfunc.apply_generator``, ``hopfverify.enumerate_matrices``
and so on); a method is replaced on its class.  Lazy in-function imports
such as ``from .contingency import kappa`` read the module attribute at
call time, so they reach the wrapper too.

Each wrapped call records one span: name, start, end and the enclosing
span.  Spans stay in flat arrays in memory and are written out once, at
the end.  Self time is derived from them afterwards: a span's duration
minus the durations of its direct children.  Memo statistics come from
``cache_info()`` of the ``lru_cache`` objects, never from a wrapper.

Layers whose only statistic is a call count get a counting wrapper with
no span, because they are called too often for a span to be cheap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

# metric prefix, module, attribute (``Class.method`` for a method), stats.
# ``calls``, ``built`` and ``evals`` count calls; ``self_s`` and ``wall_s``
# come from spans (``wall_s`` over calls not nested in another call of the
# same layer); any other stat sums ``len()`` of the results.
LAYERS = [
    ("symfunc.TensorElement", "symfunc", "TensorElement.__init__", ("built", "self_s")),
    ("symfunc.RealizedMap", "symfunc", "RealizedMap.__call__", ("evals", "self_s")),
    ("symfunc.realize_word", "symfunc", "PshRealization.realize_word",
     ("calls", "self_s", "wall_s")),
    ("symfunc.tensor_comult_component", "symfunc", "tensor_comult_component",
     ("calls", "self_s", "wall_s")),
    ("symfunc.tensor_mult_slots", "symfunc", "tensor_mult_slots",
     ("calls", "self_s", "wall_s")),
    ("symfunc.tensor_permute", "symfunc", "tensor_permute",
     ("calls", "self_s", "wall_s")),
    ("contingency.kappa", "contingency", "kappa", ("calls", "self_s")),
    ("category.apply_generator", "category", "apply_generator",
     ("calls", "self_s", "wall_s")),
    ("category.MorphismWord", "category", "MorphismWord.__init__", ("built", "self_s")),
    ("contingency.sigma_K", "contingency", "sigma_K", ("calls", "self_s", "wall_s")),
    ("contingency.enumerate_matrices", "contingency", "enumerate_matrices",
     ("calls", "matrices", "self_s", "wall_s")),
    ("category.enumerate_relation_instances", "category",
     "enumerate_relation_instances", ("calls", "instances", "self_s", "wall_s")),
    ("category.semantic_equal", "category", "semantic_equal",
     ("calls", "self_s", "wall_s")),
    ("symfunc.comult_splittings", "symfunc", "comult_splittings", ("calls",)),
    ("symfunc.degree_matrix", "symfunc", "TransitionCache.degree_matrix",
     ("calls", "self_s", "wall_s")),
    ("symfunc.inverse_transition", "symfunc", "_inverse_transition",
     ("calls", "self_s", "wall_s")),
    ("contingency.count_matrices", "contingency", "count_matrices",
     ("calls", "self_s", "wall_s")),
    ("symfunc.schur", "symfunc", "schur", ("calls", "self_s")),
    ("symfunc.hall_inner", "symfunc", "hall_inner", ("calls", "self_s", "wall_s")),
    ("hopfverify.check_relation_family", "hopfverify", "check_relation_family",
     ("self_s", "wall_s")),
    ("hopfverify.check_mixed_relations", "hopfverify", "check_mixed_relations",
     ("self_s", "wall_s")),
    ("hopfverify.check_worked_examples", "hopfverify", "check_worked_examples",
     ("self_s", "wall_s")),
    ("hopfverify.check_square_condition", "hopfverify", "check_square_condition",
     ("self_s", "wall_s")),
    ("hopfverify.check_hopf_compat", "hopfverify", "check_hopf_compat",
     ("self_s", "wall_s")),
    ("hopfverify.check_bidegree12", "hopfverify", "check_bidegree12",
     ("self_s", "wall_s")),
    ("simplicial.verify_simplicial_identities", "simplicial",
     "verify_simplicial_identities", ("self_s", "wall_s")),
    ("compositions.enumerate_compositions", "compositions", "enumerate_compositions",
     ("calls", "self_s")),
    ("compositions.common_coarsenings", "compositions", "common_coarsenings",
     ("calls", "self_s")),
    ("cli.main", "cli", "main", ("calls", "self_s")),
    ("reports.to_json", "reports", "VerificationReport.to_json_dict",
     ("calls", "self_s")),
    ("parsing.parse_composition", "parsing", "parse_composition", ("calls",)),
    ("symfunc.format_tensor", "symfunc", "format_tensor", ("calls", "self_s")),
]

# metric prefix, module, attribute of an lru_cache'd function, stats.
MEMOS = [
    ("symfunc.comult_table", "symfunc", "_comult_table", ("hit_ratio", "entries")),
    ("contingency._count", "contingency", "_count", ("hit_ratio", "entries")),
    ("symfunc.inverse_transition", "symfunc", "_inverse_transition", ("entries",)),
    ("symfunc.partitions_of", "symfunc", "partitions_of", ("entries",)),
]

PACKAGE = "hopflike"
COUNT_STATS = ("calls", "built", "evals")
TIME_STATS = ("self_s", "wall_s")
OVERHEAD = "trace.overhead_s"
# entries of the h -> m transition memo, read from TransitionCache.stats()
TRANSITION_ENTRIES = "symfunc.degree_matrix.entries"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for prefix, _, _, stats in LAYERS:
        for stat in stats:
            units[f"{prefix}.{stat}"] = "s" if stat in TIME_STATS else "count"
    for prefix, _, _, stats in MEMOS:
        for stat in stats:
            units[f"{prefix}.{stat}"] = "ratio" if stat == "hit_ratio" else "count"
    units[TRANSITION_ENTRIES] = "count"
    units[OVERHEAD] = "s"
    return units


def _resolve(module, attr):
    """The object that holds ``attr`` (a module or a class) and its name."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = bytearray()  # 1 when no enclosing span has the same name
        self.stack = []
        self.depth = []
        self.items = {}
        self.counts = {}
        self._undo = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self.name_ids[name]

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        nid = self._name_id(name)
        idx = self._open(nid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, nid, t0, time.perf_counter())

    def _open(self, nid):
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(self.depth[nid] == 0)
        self.depth[nid] += 1
        self.stack.append(idx)
        self.start.append(0.0)
        self.end.append(0.0)
        return idx

    def _close(self, idx, nid, t0, t1):
        self.stack.pop()
        self.depth[nid] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    def _span_wrapper(self, prefix, fn, item_stat):
        nid = self._name_id(prefix)
        open_, close, clock = self._open, self._close, time.perf_counter
        items = self.items
        items[prefix] = 0

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, nid, t0, clock())
            if item_stat:
                items[prefix] += len(result)
            return result

        return wrapper

    def _count_wrapper(self, prefix, fn):
        counts = self.counts
        counts[prefix] = 0

        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for _, module, attr, _ in LAYERS:
            _resolve(module, attr)
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for prefix, module, attr, stats in LAYERS:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            if any(s in TIME_STATS for s in stats):
                item_stat = any(s not in COUNT_STATS + TIME_STATS for s in stats)
                wrapper = self._span_wrapper(prefix, original, item_stat)
            else:
                wrapper = self._count_wrapper(prefix, original)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _per_name(self):
        """Calls, self time and wall time per span name, from the spans."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        wall = [0.0] * n_names
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(durations)
        for p, d in zip(self.parent, durations):
            if p >= 0:
                children[p] += d
        for nid, d, c, outer in zip(self.span_name, durations, children, self.outer):
            calls[nid] += 1
            self_s[nid] += d - c
            if outer:
                wall[nid] += d
        return calls, self_s, wall

    def metrics(self) -> dict:
        """Every per-layer metric but the overhead, which needs a plain pass.

        Restores the program's own functions first.
        """
        self.uninstall()
        calls, self_s, wall = self._per_name()
        values = {}
        for prefix, _, _, stats in LAYERS:
            nid = self.name_ids.get(prefix)
            for stat in stats:
                if stat in COUNT_STATS:
                    value = calls[nid] if nid is not None else self.counts[prefix]
                elif stat == "self_s":
                    value = self_s[nid]
                elif stat == "wall_s":
                    value = wall[nid]
                else:
                    value = self.items[prefix]
                values[f"{prefix}.{stat}"] = value
        for prefix, module, attr, stats in MEMOS:
            owner, name = _resolve(module, attr)
            info = owner.__dict__[name].cache_info()
            lookups = info.hits + info.misses
            if "hit_ratio" in stats:
                values[f"{prefix}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            values[f"{prefix}.entries"] = info.currsize
        symfunc = importlib.import_module(f"{PACKAGE}.symfunc")
        values[TRANSITION_ENTRIES] = symfunc.transition_cache().stats()["entries"]
        units = metric_units()
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name != OVERHEAD
        }

    def write(self, stem):
        """Spans as flat binary arrays plus a JSON index naming the layout."""
        arrays = (
            ("name", self.span_name), ("parent", self.parent),
            ("start", self.start), ("end", self.end),
        )
        with open(f"{stem}.spans", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        index = {
            "count": len(self.start),
            "names": self.names,
            "arrays": [[field, arr.typecode, arr.itemsize] for field, arr in arrays],
            "clock": "time.perf_counter, seconds",
            "parent": "index of the enclosing span, -1 at the top",
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)
