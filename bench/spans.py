"""In-memory span recorder that wraps spinlight's public functions from outside.

``SpanRecorder(layers).install()`` replaces every public function of each
layer module (the names in its ``__all__`` that the module itself defines) by
a timing wrapper, in every ``spinlight.*`` namespace that holds the same
object.  ``cli`` and ``protocols`` bind their helpers with ``from ... import``,
so patching only the defining module would miss their calls.
``GaussianState.__post_init__`` is wrapped as well, so state constructions are
counted as spans named ``gaussian.GaussianState``.

Spans are appended to flat arrays while the program runs and nothing is
written until :meth:`SpanRecorder.write` is called at the end of the run.
Each span keeps its name, its parent span, the op it belongs to and its
start and end times; self time is the span's duration minus the durations of
its direct children.
"""

import array
import inspect
import sys
import time

import numpy as np

_ROOT = -1


class SpanRecorder:
    def __init__(self, layers, notes=None):
        """``layers`` maps a layer name to its module; ``notes`` maps a span
        name to ``fn(args, kwargs, result)`` whose value is kept per span."""
        self.layers = layers
        self.note_fns = notes or {}
        self.names = []
        self.layer_of = []
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.ops = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.notes = {}
        self.op = 0
        self._stack = [_ROOT]
        self._patches = self._plan()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        note_fn = self.note_fns.get(name)
        rec = self
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(rec.starts)
            rec.name_ids.append(nid)
            rec.parents.append(stack[-1])
            rec.ops.append(rec.op)
            rec.starts.append(0.0)
            rec.ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec.starts[idx] = start
                rec.ends[idx] = end
            if note_fn is not None:
                rec.notes[idx] = note_fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _plan(self):
        """(owner, attribute, original, wrapper) for every patch to apply."""
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "spinlight" or key.startswith("spinlight.")
        ]
        patches = []
        for layer, module in self.layers.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, value in vars(ns).items():
                        if value is obj:
                            patches.append((ns, key, obj, wrapper))
        state_cls = self.layers["gaussian"].GaussianState
        original = state_cls.__post_init__
        wrapper = self._wrap("gaussian", "gaussian.GaussianState", original)
        patches.append((state_cls, "__post_init__", original, wrapper))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent, op, start, end, self time."""
        name = np.frombuffer(self.name_ids, dtype=np.int32).copy()
        parent = np.frombuffer(self.parents, dtype=np.int32).copy()
        op = np.frombuffer(self.ops, dtype=np.int32).copy()
        start = np.frombuffer(self.starts, dtype=np.float64).copy()
        end = np.frombuffer(self.ends, dtype=np.float64).copy()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=name.size
        )
        return name, parent, op, start, end, duration - child_time

    @staticmethod
    def has_ancestor(name_id, parent, target_id):
        """Boolean mask: spans with a span named ``target_id`` above them."""
        result = np.zeros(parent.size, dtype=bool)
        cursor = parent.copy()
        while True:
            live = cursor >= 0
            if not live.any():
                return result
            result[live] |= name_id[cursor[live]] == target_id
            cursor[live] = parent[cursor[live]]

    def write(self, path):
        """Write every span, with names resolved, as one ``.npz`` file."""
        name, parent, op, start, end, self_time = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name=name,
            parent=parent,
            op=op,
            start=start,
            end=end,
            self_time=self_time,
        )
