"""Outside-in tracing of tropmono for the per-layer benchmark metrics.

The package is not modified.  ``Tracer.install`` replaces the public names
of every tropmono module with wrappers: module functions (including names
re-bound by ``from ... import`` in another module, each binding wrapped on
its own) and the public and arithmetic methods of the classes defined
there.  A wrapped call opens a span; spans live in flat arrays in memory
and are written out once at the end.  The hottest calls (``Poly``
construction, scalar helpers) are only counted, which keeps memory
bounded; their time stays in the span that made them.

All times are integer nanoseconds from ``time.perf_counter_ns`` so the
self-time arithmetic is exact: the self times of all spans plus the time
outside every span equal the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from collections import Counter

# Layers are modules, except that report belongs to the cli layer and the
# bundled fixtures in library to the dual_complex layer.
LAYER_OF_MODULE = {
    "cli": "cli", "report": "cli",
    "forms": "forms",
    "simplex": "simplex",
    "dual_complex": "dual_complex", "library": "dual_complex",
    "order_map": "order_map",
    "linalg": "linalg",
    "poly": "poly",
    "randgen": "randgen",
}
LAYERS = ("cli", "forms", "simplex", "dual_complex", "order_map", "linalg",
          "poly", "randgen")

# Wrapped dunders; every other underscore name is private and left alone.
ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__matmul__")

# Calls made tens of thousands of times per op: counted, never given a span.
COUNT_ONLY = frozenset({
    "linalg.as_fraction", "linalg.rat_str", "linalg.shuffle_sign",
    "linalg.perm_sign", "linalg.QMatrix.row", "linalg.QMatrix.column",
    "poly.Poly.is_zero", "poly.Poly.is_constant", "poly.Poly.const",
    "poly.Poly.zero", "poly.Poly.variable", "poly.Poly.affine",
    "poly.Poly.__neg__", "poly.Poly.__add__", "poly.Poly.__sub__",
    "simplex.SimplexContext.vertex", "simplex.SimplexContext.barycenter",
    "dual_complex.SemistableCombinatorics.level",
    "dual_complex.SemistableCombinatorics.stratum",
    "dual_complex.SemistableCombinatorics.position",
    "dual_complex.H2Model.dim",
})

# Metric groups: one per-layer metric may sum several wrapped names.
GROUPS = {
    "linalg.rank": ("linalg.rank",),
    "linalg.det": ("linalg.det",),
    "linalg.matmul": ("linalg.QMatrix.__matmul__",),
    "linalg.elimination": ("linalg.rank", "linalg.rref", "linalg.det"),
    "dual_complex.e2_p0": ("dual_complex.e2_p0",),
    "dual_complex.corner_monodromy": ("dual_complex.corner_monodromy",),
    "dual_complex.relation_composite": ("dual_complex.relation_composite",),
    "dual_complex.lookup": ("dual_complex.SemistableCombinatorics.children",
                            "dual_complex.SemistableCombinatorics.stratum_by_index_set"),
    "simplex.ray_integrate": ("simplex.SimplexForm.ray_integrate",),
    "simplex.normalize": ("simplex.SimplexForm.canonical",
                          "simplex.SimplexForm.reduce_to_face"),
    "simplex.beta_recursion": ("simplex.beta_recursion",),
    "poly.eval_poly": ("poly.Poly.eval_poly",),
    "poly.mul": ("poly.Poly.__mul__",),
    "order_map.dolbeault_ladder": ("order_map.dolbeault_ladder",),
    "forms.wedge": ("forms.Superform.wedge",),
    "forms.derivative": ("forms.Superform.d_prime", "forms.Superform.d_second"),
    "forms.pullback": ("forms.AffineMap.pullback",),
    "forms.monodromy": ("forms.Superform.monodromy",),
    "report.render": ("report.RunReport.render",),
}

# (metric, kind, source): kind "calls" counts spans, "busy" sums outermost
# span time in seconds, "count" reads a counter.  Layer busy/self are added
# for every layer below.
METRICS = (
    ("linalg.eliminations", "calls", "linalg.elimination"),
    ("linalg.elim_cells", "count", "linalg.elim_cells"),
    ("linalg.rank.calls", "calls", "linalg.rank"),
    ("linalg.matmul.calls", "calls", "linalg.matmul"),
    ("linalg.matmul.busy_s", "busy", "linalg.matmul"),
    ("linalg.det.calls", "calls", "linalg.det"),
    ("linalg.det.busy_s", "busy", "linalg.det"),
    ("dual_complex.e2_p0.calls", "calls", "dual_complex.e2_p0"),
    ("dual_complex.e2_p0.busy_s", "busy", "dual_complex.e2_p0"),
    ("dual_complex.corner_monodromy.busy_s", "busy", "dual_complex.corner_monodromy"),
    ("dual_complex.relation_composite.busy_s", "busy", "dual_complex.relation_composite"),
    ("dual_complex.lookup.calls", "calls", "dual_complex.lookup"),
    ("simplex.ray_integrate.calls", "calls", "simplex.ray_integrate"),
    ("simplex.ray_integrate.busy_s", "busy", "simplex.ray_integrate"),
    ("simplex.normalize.calls", "calls", "simplex.normalize"),
    ("simplex.normalize.busy_s", "busy", "simplex.normalize"),
    ("simplex.beta_recursion.calls", "calls", "simplex.beta_recursion"),
    ("poly.eval_poly.calls", "calls", "poly.eval_poly"),
    ("poly.eval_poly.busy_s", "busy", "poly.eval_poly"),
    ("poly.mul.calls", "calls", "poly.mul"),
    ("poly.mul.busy_s", "busy", "poly.mul"),
    ("poly.constructed", "count", "poly.Poly.__new__"),
    ("order_map.dolbeault_ladder.calls", "calls", "order_map.dolbeault_ladder"),
    ("forms.wedge.calls", "calls", "forms.wedge"),
    ("forms.derivative.calls", "calls", "forms.derivative"),
    ("forms.pullback.calls", "calls", "forms.pullback"),
    ("forms.monodromy.calls", "calls", "forms.monodromy"),
    ("report.render.busy_s", "busy", "report.render"),
)

RATIOS = (
    # (metric, numerator counter, denominator counter)
    ("linalg.extend_basis.kept_ratio", "linalg.extend_basis.kept",
     "linalg.extend_basis.scanned"),
    ("order_map.ladder.integration_useful_ratio",
     "order_map.ladder.distinct_integrations",
     "order_map.ladder.integrations"),
)


def metric_names() -> list[str]:
    names = [m for m, _, _ in METRICS] + [m for m, _, _ in RATIOS]
    for layer in LAYERS:
        names += [f"{layer}.busy_s", f"{layer}.self_s"]
    return names + ["trace.overhead_ratio"]


def _layer(name: str) -> str:
    return LAYER_OF_MODULE[name.split(".", 1)[0]]


class Tracer:
    """Span recorder.  Create one per traced pass, ``install`` it on the
    tropmono modules, run the ops, then ``uninstall``."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._ladder_keys: set | None = None
        self._ladder_pins: list = []

    # --- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._count_wrapper(name, fn)
        if name == "order_map.dolbeault_ladder":
            return self._ladder_wrapper(fn)
        return self._span_wrapper(name, fn, HOOKS.get(name))

    def _ladder_wrapper(self, fn):
        """Span for a ladder that also collects its star integrations (see
        ``_integrate_cochain``) for the useful-integration ratio."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer._ladder_keys is None
            if outer:
                tracer._ladder_keys, tracer._ladder_pins = set(), []
            idx = tracer.open("order_map.dolbeault_ladder")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if outer:
                    tracer.counts["order_map.ladder.distinct_integrations"] += \
                        len(tracer._ladder_keys)
                    tracer._ladder_keys, tracer._ladder_pins = None, []
        return wrapper

    def install(self, modules):
        """Wrap the public names of the given tropmono modules (a mapping
        from short module name to module object)."""
        wrapped_classes = set()
        for module in modules.values():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("tropmono."):
                    continue
                home_short = home.split(".", 1)[1]
                if inspect.isfunction(obj):
                    self._replace(module, attr,
                                  self._wrap(f"{home_short}.{obj.__name__}", obj))
                elif (inspect.isclass(obj) and obj not in wrapped_classes
                      and not issubclass(obj, BaseException)):
                    wrapped_classes.add(obj)
                    self._install_class(home_short, obj)

    def _install_class(self, home: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{home}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._replace(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, self._wrap(name, raw))
        if cls.__name__ == "Poly":
            counts = self.counts
            key = f"{home}.Poly.__new__"

            def counting_new(klass, *args, **kwargs):
                counts[key] += 1
                return object.__new__(klass)
            # CPython cannot give a class back the default __new__ once one
            # was assigned, so uninstall leaves a plain forwarding one.
            self._undo.append((cls, "__new__", vars(cls).get(
                "__new__", staticmethod(_plain_new))))
            cls.__new__ = staticmethod(counting_new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # --- output ----------------------------------------------------------

    def write(self, path: str):
        """Write the spans as text: a first line with the JSON list of span
        names, then one line per span with its name index, start and end
        in ns, parent span index (-1 for none) and op index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(self.names) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write("%d %d %d %d %d\n" % row)


def _plain_new(klass, *args, **kwargs):
    return object.__new__(klass)


# --- size counters computed at the call boundary ----------------------------

def _elim_cells(tracer: Tracer, args, result):
    m = args[0]
    tracer.counts["linalg.elim_cells"] += m.nrows * m.ncols


def _extend_basis(tracer: Tracer, args, result):
    tracer.counts["linalg.extend_basis.scanned"] += len(args[1])
    tracer.counts["linalg.extend_basis.kept"] += len(result)


def _integrate_cochain(tracer: Tracer, args, result):
    """Inside a ladder, a star integration is identified by the cochain
    object it integrates (one per top stratum and stage r) and the subset;
    the pinned cochains keep their ids unique until the ladder ends."""
    keys = tracer._ladder_keys
    if keys is None:
        return
    cochain = args[1]
    tracer._ladder_pins.append(cochain)
    for subset in cochain.values:
        keys.add((id(cochain), subset))
    tracer.counts["order_map.ladder.integrations"] += len(cochain.values)


HOOKS = {
    "linalg.rank": _elim_cells,
    "linalg.rref": _elim_cells,
    "linalg.det": _elim_cells,
    "linalg.extend_basis": _extend_basis,
    "simplex.integrate_cochain": _integrate_cochain,
}


# --- span arithmetic -------------------------------------------------------

def self_times(start, end, parent) -> list[int]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover (the union of the children, clipped to the span)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        covered = _covered(start[i], end[i],
                           [(start[c], end[c]) for c in children.get(i, ())])
        out.append(end[i] - start[i] - covered)
    return out


def _covered(lo: int, hi: int, intervals) -> int:
    total = 0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def outside_time(t0: int, t1: int, start, end, parent) -> int:
    """Part of [t0, t1] covered by no span."""
    roots = [(start[i], end[i]) for i in range(len(start)) if parent[i] < 0]
    return (t1 - t0) - _covered(t0, t1, roots)


def _outermost_in_layer(parent, layer) -> list[bool]:
    """For each span, True when no ancestor span is in the same layer.
    Parents precede children in index order, so one forward pass that
    carries the ancestors' layers as a bitmask suffices."""
    above: list[int] = []
    flags = []
    for i, p in enumerate(parent):
        mask = 0 if p < 0 else above[p] | 1 << layer[p]
        above.append(mask)
        flags.append(not mask >> layer[i] & 1)
    return flags


def layer_times(tracer: Tracer) -> tuple[list[int], list[int]]:
    """(busy ns, self ns) per layer, in LAYERS order.  Busy time counts the
    spans with no enclosing span of the same layer; self time sums the self
    times of all the layer's spans."""
    start, end, parent = tracer.start, tracer.end, tracer.parent
    selfs = self_times(start, end, parent)
    layer_of_name = [LAYERS.index(_layer(nm)) for nm in tracer.names]
    layer = [layer_of_name[k] for k in tracer.name]
    top = _outermost_in_layer(parent, layer)
    busy = [0] * len(LAYERS)
    own = [0] * len(LAYERS)
    for i, lay in enumerate(layer):
        own[lay] += selfs[i]
        if top[i]:
            busy[lay] += end[i] - start[i]
    return busy, own


def layer_metrics(tracer: Tracer, wall_untraced_ns: int, t0: int, t1: int) -> dict:
    """Per-layer metrics of one traced pass that ran from t0 to t1; the same
    pass took wall_untraced_ns with tracing off."""
    start, end, parent, name_of = tracer.start, tracer.end, tracer.parent, tracer.name
    busy, own = layer_times(tracer)
    values: dict[str, float] = {}
    for k, lay in enumerate(LAYERS):
        values[f"{lay}.busy_s"] = busy[k] / 1e9
        values[f"{lay}.self_s"] = own[k] / 1e9

    spans_of: dict[int, list[int]] = {}
    for i, k in enumerate(name_of):
        spans_of.setdefault(k, []).append(i)
    calls: dict[str, int] = {}
    group_busy: dict[str, int] = {}
    for group, members in GROUPS.items():
        ids = {tracer._name_ids[m] for m in members if m in tracer._name_ids}
        member_spans = [i for k in ids for i in spans_of[k]]
        calls[group] = len(member_spans)
        total = 0
        for i in member_spans:
            p = parent[i]
            while p >= 0 and name_of[p] not in ids:
                p = parent[p]
            if p < 0:   # no enclosing span of the same group
                total += end[i] - start[i]
        group_busy[group] = total
    for metric, kind, source in METRICS:
        if kind == "calls":
            values[metric] = calls[source]
        elif kind == "busy":
            values[metric] = group_busy[source] / 1e9
        else:
            values[metric] = tracer.counts[source]
    for metric, num, den in RATIOS:
        d = tracer.counts[den]
        values[metric] = tracer.counts[num] / d if d else 0.0
    values["trace.overhead_ratio"] = (t1 - t0) / wall_untraced_ns
    return values
