"""In-process span recorder for a traced ``gq3 batch`` run.

``Recorder.install()`` replaces the public functions of ``gq3.cli``,
``gq3.core``, ``gq3.matrices``, ``gq3.polar`` and ``gq3.lie`` with wrappers
that record one span per call, at every module attribute and class attribute
that binds them (``bilinear_f`` is bound in core, cli, polar, lie and the
package, for example).  ``json.loads`` as seen by ``gq3.cli`` is wrapped
through a proxy of the ``json`` module that the CLI looks up.  Constructions
are counted by wrapping ``GQuat``/``GVec3.__post_init__`` and the shared
``Mat3``/``Mat4.__new__``.  ``Recorder.restore()`` puts every original object
back; ``unpatched()`` checks that it did.

Spans stay in memory as tuples and are written out by ``write_spans`` after
the run.  A span's self time is its duration minus the time its child spans
cover; the layer of a span is the module that defines the function, so time
spent in ``GQuat.__mul__`` called from ``lie.adjoint_group`` counts to core.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import types

LAYER_MODULES = ("cli", "core", "matrices", "polar", "lie")
# Operator dunders and construction hooks wrapped besides public names.
_DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__post_init__", "__new__"}
# Constructions counted, by the class whose hook runs.
_COUNTED = {"GQuat": "core.gquat_new", "GVec3": "core.gquat_new",
            "_TaggedMatrix": "matrices.mat_new"}


class _JsonProxy(types.SimpleNamespace):
    """Stands in for the ``json`` module inside ``gq3.cli``."""

    def __getattr__(self, name):
        return getattr(json, name)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        # (span id, parent id, request id, name index, t0, t1, child seconds)
        self.spans: list[tuple] = []
        self.request_ops: list[tuple[str, float]] = []
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._req = [0]

    # --- wrappers ------------------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, counter: str | None = None,
              new_request: bool = False, request_op: bool = False):
        ix = self._name(name, layer)
        spans, stack, ids, req = self.spans, self._stack, self._ids, self._req
        clock = time.perf_counter
        counts, ops = self.counts, self.request_ops

        def wrapper(*args, **kwargs):
            if new_request:
                req[0] += 1
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + 1
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            request = req[0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((frame[0], parent, request, ix, t0, t1, frame[1]))
                if request_op:
                    op = args[0].get("op") if args and isinstance(args[0], dict) else None
                    ops.append((op if isinstance(op, str) else "", t1 - t0))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every public function of the layer modules; see module doc."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        mods = {name: sys.modules["gq3." + name] for name in LAYER_MODULES}
        cli = mods["cli"]
        replaced: dict[int, object] = {}   # id(original function) -> wrapper

        def module_function(layer, fn, name, **kw):
            replaced[id(fn)] = self._wrap(fn, name, layer, **kw)

        module_function("cli.emit", cli.main, "cli.main")
        module_function("cli.request", cli.execute_request, "cli.execute_request",
                        request_op=True)
        for layer in LAYER_MODULES[1:]:
            mod = mods[layer]
            for public in mod.__all__:
                obj = getattr(mod, public)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    module_function(layer, obj, f"{layer}.{public}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, layer)

        # Rebind every module attribute that holds a wrapped function.
        for modname, mod in list(sys.modules.items()):
            if modname != "gq3" and not modname.startswith("gq3."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])

        proxy = _JsonProxy(loads=self._wrap(json.loads, "cli.json.loads", "cli.decode",
                                            new_request=True))
        self._set(cli, "json", proxy)

    def _patch_class(self, cls: type, layer: str) -> None:
        for klass in cls.__mro__:
            if klass.__module__ != cls.__module__:
                continue
            for attr, raw in list(vars(klass).items()):
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                if any(o is klass and a == attr for o, a, _ in self._patches):
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    fn, rewrap = raw.__func__, type(raw)
                elif isinstance(raw, types.FunctionType):
                    fn, rewrap = raw, None
                else:
                    continue
                counter = _COUNTED.get(klass.__name__) if attr in ("__post_init__", "__new__") else None
                wrapped = self._wrap(fn, f"{layer}.{klass.__name__}.{attr}", layer, counter=counter)
                self._set(klass, attr, rewrap(wrapped) if rewrap else wrapped)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def patched_objects(self) -> list[tuple[object, str, object]]:
        """The (owner, attribute, original) triples currently patched."""
        return list(self._patches)

    # --- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: self seconds and number of spans."""
        out: dict[str, dict[str, float]] = {}
        layers = self.layers
        for _, _, _, ix, t0, t1, child in self.spans:
            agg = out.setdefault(layers[ix], {"self_s": 0.0, "calls": 0})
            agg["self_s"] += (t1 - t0) - child
            agg["calls"] += 1
        return out

    def write_spans(self, path) -> None:
        """Write spans as TSV: id, parent, request, name, start and end in ns."""
        if not self.spans:
            return
        base = min(s[4] for s in self.spans)
        names = self.names
        rows = ["id\tparent\trequest\tname\tstart_ns\tend_ns"]
        rows.extend(f"{i}\t{p}\t{r}\t{names[ix]}\t{round((t0 - base) * 1e9)}\t{round((t1 - base) * 1e9)}"
                    for i, p, r, ix, t0, t1, _ in sorted(self.spans))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")


def unpatched(patches) -> bool:
    """True when every (owner, attribute, original) holds the original again."""
    return all(vars(owner).get(attr) is raw for owner, attr, raw in patches)
