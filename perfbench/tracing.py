"""Per-layer tracing of mforge from outside the package.

`Tracer.install()` wraps the public entry points of every mforge module:
public module functions, public methods of the classes each module
defines, and a few dunder boundaries named in `EXTRA_METHODS` (products,
constructors).  A wrapped name is replaced everywhere it is bound: in its
own module, in every other mforge module that imported it with
`from ... import`, and in module-level dicts that map names to it.
`uninstall()` puts every original back.

Each wrapper aggregates into one record per entry point, so memory stays
bounded however many calls a run makes:
    count, inclusive ns, self ns (inclusive minus wrapped callees),
    exceptions leaving the layer, scalar field ops made inside, and the
    work a table sweep stands for.
Module functions are named `<module>.<function>`, methods
`<Class>.<method>`, table kernel functions `kernel.<function>`.
A layer's self time is the sum of its entry points' self times.  Calls
made while no check is open (set-up) are recorded too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

# Module -> layer.
LAYERS = {
    "mforge.scalars": "scalars",
    "mforge.composition": "composition",
    "mforge.linalg": "linalg",
    "mforge.handles": "handles",
    "mforge.octonion_aut": "octonion_aut",
    "mforge.polygons": "polygons",
    "mforge.tables": "tables",
    "mforge.pseudoquad": "pseudoquad",
    "mforge.quadspace": "quadspace",
    "mforge.unitary": "unitary",
    "mforge.moufang": "moufang",
    "mforge.foundations": "foundations",
    "mforge.catalog": "catalog",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

# Dunder methods that are layer boundaries worth counting.
EXTRA_METHODS = {
    ("mforge.composition", "CDAlgebra"): ("__init__",),
    ("mforge.composition", "CDElement"): ("__mul__",),
    ("mforge.polygons", "WordGroup"): ("__init__",),
    ("mforge.pseudoquad", "TPoint"): ("__mul__",),
}

# The field payload ops on subclasses of `scalars.Field`: the hottest
# leaf boundary (`scalars.ops`).  Element methods of the same names, such
# as `Scalar.inv`, call these and are not counted again.
SCALAR_OPS = ("add", "sub", "mul", "neg", "inv", "div")

# The element-level table kernel (`mforge.tables._kernel`, compiled or
# numpy), wrapped whichever backend is active, with the work each sweep
# stands for: n^3 triples for associativity, n^2 pairs for the others.
KERNEL_WORK = {
    "first_assoc_violation": lambda table, *a: int(table.shape[0]) ** 3,
    "first_identity_violation": lambda table, *a: int(table.shape[0]),
    "first_inverse_violation": lambda table, *a: int(table.shape[0]),
    "first_hom_violation": lambda table, *a: int(table.shape[0]) ** 2,
}

COUNT, TOTAL_NS, SELF_NS, RAISED, INNER_OPS, WORK = range(6)


class Tracer:
    """Wraps the mforge entry points (`install`) and aggregates their
    calls; `uninstall` restores the package."""

    def __init__(self):
        self.stats = {}          # (layer, qualified name) -> record
        self._stack = []         # [layer, ns covered by child spans]
        self._ops = [0]          # scalar field ops so far (one cell)
        self._undo = []          # (setter, original)

    # -- spans --------------------------------------------------------------
    def _record(self, layer, qualname):
        return self.stats.setdefault((layer, qualname), [0] * 6)

    def _wrap(self, fn, layer, qualname, scalar_op=False, work=None):
        stat = self._record(layer, qualname)
        stack, ops = self._stack, self._ops
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            if scalar_op:
                ops[0] += 1
            if work is not None:
                stat[WORK] += work(*args, **kwargs)
            ops0 = ops[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][0] != layer:
                    stat[RAISED] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat[COUNT] += 1
                stat[TOTAL_NS] += dt
                stat[SELF_NS] += dt - frame[1]
                stat[INNER_OPS] += ops[0] - ops0
                if stack:
                    stack[-1][1] += dt
        return traced

    @contextlib.contextmanager
    def check_span(self):
        """The root span of one check (or of set-up) for its layers."""
        self._stack.append(["check", 0])
        try:
            yield
        finally:
            self._stack.pop()

    # -- patching -------------------------------------------------------------
    def install(self):
        modules = {name: importlib.import_module(name) for name in LAYERS}
        replaced = {}                       # id(original) -> wrapper
        for modname, mod in modules.items():
            layer = LAYERS[modname]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    qual = "%s.%s" % (modname.rsplit(".", 1)[1], name)
                    replaced[id(obj)] = (obj, self._wrap(obj, layer, qual))
                elif (inspect.isclass(obj) and obj.__module__ == modname
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(modname, layer, obj)
        # rebind every wrapped function wherever mforge bound it
        for mod in _all_mforge_modules():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(mod, name, replaced[id(obj)][1])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in replaced and replaced[id(val)][0] is val:
                            self._set_item(obj, key, replaced[id(val)][1])
        kernel = modules["mforge.tables"]._kernel
        for name, work in KERNEL_WORK.items():
            self._set(kernel, name, self._wrap(
                getattr(kernel, name), "tables", "kernel." + name, work=work))
        return self

    def _wrap_class(self, modname, layer, cls):
        names = [n for n, v in vars(cls).items()
                 if not n.startswith("_") and _function_of(v) is not None]
        names += EXTRA_METHODS.get((modname, cls.__name__), ())
        for name in names:
            raw = vars(cls)[name]
            fn = _function_of(raw)
            scalar_op = (layer == "scalars" and name in SCALAR_OPS
                         and issubclass(cls, sys.modules[modname].Field))
            wrapped = self._wrap(fn, layer, "%s.%s" % (cls.__name__, name),
                                 scalar_op=scalar_op)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._set(cls, name, wrapped)

    def _set(self, owner, name, value):
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append((lambda v, o=owner, n=name: setattr(o, n, v),
                           original))

    def _set_item(self, mapping, key, value):
        original = mapping[key]
        mapping[key] = value
        self._undo.append((lambda v, m=mapping, k=key: m.__setitem__(k, v),
                           original))

    def uninstall(self):
        for setter, original in reversed(self._undo):
            setter(original)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    @property
    def scalar_ops(self):
        return self._ops[0]

    def layer_totals(self):
        """layer -> {calls, self_s, raised}."""
        out = {}
        for layer in LAYER_NAMES:
            rec = self.select(layer, lambda q: True)
            out[layer] = {"calls": rec[COUNT], "self_s": rec[SELF_NS] / 1e9,
                          "raised": rec[RAISED]}
        return out

    def snapshot(self):
        return {key: list(rec) for key, rec in self.stats.items()}

    def select(self, layer, predicate, since=None):
        """Summed record over the entry points of `layer` whose qualified
        name satisfies `predicate`, less what `since` (a snapshot) held."""
        total = [0] * 6
        for key, rec in self.stats.items():
            if key[0] == layer and predicate(key[1]):
                base = (since or {}).get(key, [0] * 6)
                total = [t + a - b for t, a, b in zip(total, rec, base)]
        return total


def _function_of(value):
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    return value if inspect.isfunction(value) else None


def _all_mforge_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mforge"
                                  or name.startswith("mforge."))]
