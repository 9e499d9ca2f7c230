"""Spans around the package's public functions, recorded from outside.

The tracer wraps functions where their callers look them up: the package
binds names with ``from .x import y``, so ``simple_module`` is wrapped both
at ``takiff.ext.simple_module`` and at ``takiff.cli.simple_module``, and
``ext1``/``stabilize_ext`` in both ``takiff.ext`` and ``takiff.cli``.
``SparseSystem.eliminate`` is wrapped on the class and only calls that do
work open a span (it returns at once once ``_eliminated`` is set, and
``rank``/``nullspace_basis`` call it again).  The recursive ``lru_cache``
``_gen_times_word`` is never wrapped, since a wrapper would change what it
caches; it is read through ``cache_info()`` deltas instead.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory and are written out when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

import functools
import importlib
import statistics
from time import perf_counter

# (span name, [(module path, attribute)]) for plain functions
FUNCTIONS = [
    ("cli.main", [("takiff.cli", "main")]),
    ("ext.stabilize_ext", [("takiff.ext", "stabilize_ext"),
                           ("takiff.cli", "stabilize_ext")]),
    ("ext.ext1", [("takiff.ext", "ext1"), ("takiff.cli", "ext1")]),
    ("ext.assemble_extension", [("takiff.ext", "assemble_extension")]),
    ("modules.simple_module", [("takiff.ext", "simple_module"),
                               ("takiff.cli", "simple_module"),
                               ("takiff.modules", "simple_module")]),
    ("modules.verma", [("takiff.modules", "verma"), ("takiff.cli", "verma"),
                       ("takiff.structure", "verma")]),
    ("modules.check_relations", [("takiff.cli", "check_relations"),
                                 ("takiff.modules", "check_relations")]),
    ("algebra.straighten_word", [("takiff.modules", "straighten_word")]),
    ("structure.singular_vectors", [("takiff.cli", "singular_vectors"),
                                    ("takiff.structure", "singular_vectors")]),
    ("structure.submodule", [("takiff.structure", "submodule")]),
    ("structure.multiplicities", [("takiff.cli", "multiplicities")]),
    ("structure.mn_filtration", [("takiff.cli", "mn_filtration")]),
    ("structure.hasse_diagram", [("takiff.cli", "hasse_diagram")]),
    ("linalg.kernel_basis", [("takiff.structure", "kernel_basis")]),
    ("linalg.solve_columns", [("takiff.structure", "solve_columns")]),
    ("linalg.rref", [("takiff.linalg", "rref")]),
]

# (span name, class path, method) for methods wrapped on their class
METHODS = [
    ("linalg.eliminate", "takiff.linalg.SparseSystem", "eliminate"),
    ("linalg.nullspace_basis", "takiff.linalg.SparseSystem",
     "nullspace_basis"),
    ("linalg.reduce_vector", "takiff.linalg.SparseSystem", "reduce_vector"),
    ("linalg.mat_mul", "takiff.linalg.Mat", "__mul__"),
    ("linalg.mat_add", "takiff.linalg.Mat", "__add__"),
    ("linalg.mat_sub", "takiff.linalg.Mat", "__sub__"),
    ("linalg.matvec", "takiff.linalg.Mat", "matvec"),
    ("linalg.rowspace_add", "takiff.linalg.RowSpace", "add"),
    ("linalg.rowspace_contains", "takiff.linalg.RowSpace", "contains"),
]

DENSE = ("linalg.kernel_basis", "linalg.solve_columns", "linalg.rref",
         "linalg.mat_mul", "linalg.mat_add", "linalg.mat_sub",
         "linalg.matvec", "linalg.rowspace_add", "linalg.rowspace_contains")

# every per-layer metric a traced run reports, with its unit
PER_LAYER = [
    ("linalg.eliminate_s", "s"),
    ("linalg.eliminate.calls", "count"),
    ("linalg.eliminate.unknowns", "count"),
    ("linalg.eliminate.rows", "count"),
    ("linalg.eliminate.rank", "count"),
    ("linalg.eliminate.nnz_in", "count"),
    ("linalg.eliminate.nnz_out", "count"),
    ("linalg.eliminate.fill_ratio", "ratio"),
    ("linalg.eliminate.max_bits", "bits"),
    ("ext.stabilize.calls", "count"),
    ("ext.ext1.calls", "count"),
    ("ext.windows_per_stabilize", "ratio"),
    ("ext.ext1_self_s", "s"),
    ("modules.simple_module_s", "s"),
    ("modules.simple_module.calls", "count"),
    ("linalg.nullspace_s", "s"),
    ("ext.assemble_extension_s", "s"),
    ("cli.self_s", "s"),
    ("algebra.straighten_s", "s"),
    ("algebra.straighten.calls", "count"),
    ("algebra.gen_times_word.misses", "count"),
    ("algebra.gen_times_word.hit_ratio", "ratio"),
    ("modules.verma_s", "s"),
    ("modules.verma.calls", "count"),
    ("modules.check_relations_s", "s"),
    ("modules.check_relations.checked", "count"),
    ("linalg.dense_s", "s"),
    ("structure.singular_vectors_s", "s"),
    ("structure.submodule_s", "s"),
    ("structure.multiplicities_s", "s"),
    ("structure.mn_filtration_s", "s"),
    ("structure.hasse_diagram_s", "s"),
    ("host.calib_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# per-layer metrics that are exact counts of work, not times
EXACT = [name for name, unit in PER_LAYER
         if unit in ("count", "bits") or name in (
             "linalg.eliminate.fill_ratio", "ext.windows_per_stabilize",
             "algebra.gen_times_word.hit_ratio")]

# span record fields
NAME, START, END, PARENT, OP, CHILD, ATTRS = range(7)


def _resolve(path):
    mod, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(mod), attr)


def _max_bits(rows):
    bits = 0
    for row in rows:
        for v in row.values():
            num = getattr(v, "numerator", v)
            den = getattr(v, "denominator", 1)
            bits = max(bits, abs(num).bit_length(), den.bit_length())
    return bits


class Tracer:
    """Installs span-recording wrappers while a traced pass runs."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._saved = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent, self.op, 0.0, None]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    def _hide(self, seconds):
        """Charge bookkeeping time to no program span: the enclosing span
        treats it as time covered by a child."""
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += seconds

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if name == "modules.check_relations":
                rec[ATTRS] = {"checked": result.checked}
            return result
        return wrapper

    def _wrap_eliminate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def eliminate(system):
            if getattr(system, "_eliminated", False):
                return fn(system)
            t = perf_counter()
            attrs = {"unknowns": system.ncols, "rows": len(system.rows),
                     "nnz_in": sum(len(r) for r in system.rows)}
            tracer._hide(perf_counter() - t)
            rec = tracer._open("linalg.eliminate")
            try:
                fn(system)
            finally:
                tracer._close(rec)
            t = perf_counter()
            attrs["rank"] = system.rank()
            attrs["nnz_out"] = sum(len(r) for r in system.rows)
            attrs["max_bits"] = _max_bits(system.rows)
            rec[ATTRS] = attrs
            tracer._hide(perf_counter() - t)
        return eliminate

    # -- installation -----------------------------------------------------

    def install(self):
        for name, sites in FUNCTIONS:
            for mod_path, attr in sites:
                mod = importlib.import_module(mod_path)
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))
        for name, cls_path, attr in METHODS:
            cls = _resolve(cls_path)
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            wrapped = (self._wrap_eliminate(fn) if name == "linalg.eliminate"
                       else self._wrap(fn, name))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def layer_metrics(spans):
    """Per-layer self times and exact counts from one traced pass."""
    self_s = {}
    calls = {}
    for rec in spans:
        name = rec[NAME]
        self_s[name] = self_s.get(name, 0.0) + (rec[END] - rec[START]
                                                - rec[CHILD])
        calls[name] = calls.get(name, 0) + 1

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    elim = [rec[ATTRS] for rec in spans if rec[NAME] == "linalg.eliminate"]
    tot = {k: sum(a[k] for a in elim)
           for k in ("unknowns", "rows", "rank", "nnz_in", "nnz_out")}
    in_stab = 0
    for rec in spans:
        if rec[NAME] != "ext.ext1":
            continue
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != "ext.stabilize_ext":
            p = spans[p][PARENT]
        in_stab += p >= 0
    stab = calls.get("ext.stabilize_ext", 0)
    checked = sum(rec[ATTRS]["checked"] for rec in spans
                  if rec[NAME] == "modules.check_relations")
    m = {
        "linalg.eliminate_s": s("linalg.eliminate"),
        "linalg.eliminate.calls": len(elim),
        "linalg.eliminate.unknowns": tot["unknowns"],
        "linalg.eliminate.rows": tot["rows"],
        "linalg.eliminate.rank": tot["rank"],
        "linalg.eliminate.nnz_in": tot["nnz_in"],
        "linalg.eliminate.nnz_out": tot["nnz_out"],
        "linalg.eliminate.fill_ratio": (tot["nnz_out"] / tot["nnz_in"]
                                        if tot["nnz_in"] else 0.0),
        "linalg.eliminate.max_bits": max((a["max_bits"] for a in elim),
                                         default=0),
        "ext.stabilize.calls": stab,
        "ext.ext1.calls": calls.get("ext.ext1", 0),
        "ext.windows_per_stabilize": in_stab / stab if stab else 0.0,
        "ext.ext1_self_s": s("ext.ext1"),
        "modules.simple_module_s": s("modules.simple_module"),
        "modules.simple_module.calls": calls.get("modules.simple_module", 0),
        "linalg.nullspace_s": s("linalg.nullspace_basis",
                                "linalg.reduce_vector"),
        "ext.assemble_extension_s": s("ext.assemble_extension"),
        "cli.self_s": s("cli.main"),
        "algebra.straighten_s": s("algebra.straighten_word"),
        "algebra.straighten.calls": calls.get("algebra.straighten_word", 0),
        "modules.verma_s": s("modules.verma"),
        "modules.verma.calls": calls.get("modules.verma", 0),
        "modules.check_relations_s": s("modules.check_relations"),
        "modules.check_relations.checked": checked,
        "linalg.dense_s": s(*DENSE),
        "structure.singular_vectors_s": s("structure.singular_vectors"),
        "structure.submodule_s": s("structure.submodule"),
        "structure.multiplicities_s": s("structure.multiplicities"),
        "structure.mn_filtration_s": s("structure.mn_filtration"),
        "structure.hasse_diagram_s": s("structure.hasse_diagram"),
    }
    return m


def median_metrics(passes):
    """Median of each metric over several traced passes (exact counts are
    equal across passes, so their median is the count itself)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def spans_to_json(spans, t0):
    return [{"name": r[NAME], "start": r[START] - t0, "end": r[END] - t0,
             "parent": r[PARENT], "op": r[OP], "attrs": r[ATTRS]}
            for r in spans]
