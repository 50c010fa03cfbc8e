"""Span tracer that measures andlab's layers from outside the package.

``Tracer.install()`` replaces every public function and method of the traced
andlab modules, in every andlab namespace that binds it, with a wrapper that
records one span: name, start, end and parent span.  ``numpy.linalg.eigh``
and ``eigvalsh`` are wrapped the same way and form the ``linalg`` layer.
``uninstall()`` puts the originals back, so untraced timing runs execute the
package exactly as shipped.

Spans live in flat arrays while the workload runs and are written out once
it ends; self time, counts and repeat ratios are all derived from them
afterwards by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("configs", "torus", "potential", "operators", "linalg", "msa",
          "wegner", "cli")

# module -> layer; the experiment config (config hash, derived objects) is
# part of the batch front end
MODULE_LAYER = {
    "andlab.configs": "configs",
    "andlab.torus": "torus",
    "andlab.potential": "potential",
    "andlab.operators": "operators",
    "andlab.msa": "msa",
    "andlab.wegner": "wegner",
    "andlab.cli": "cli",
    "andlab.expconfig": "cli",
}

BFS_ROUTINES = ("configs.distances_within", "configs.graph_distance",
                "configs.capped_ball", "configs.pairwise_distances")


def _hull_key(args, kwargs, result):
    """(field, phase, truncation) of one HaarHull.value call."""
    hull, omega = args[0], args[1]
    N = args[2] if len(args) > 2 else kwargs.get("N")
    field = hull.theta
    field_id = (type(field).__name__, getattr(field, "seed", None),
                tuple(sorted(getattr(field, "_overrides", {}).items())),
                getattr(field, "constant", None))
    return field_id, hull.b, np.asarray(omega, dtype=float).tobytes(), N


def _first_arg(args, kwargs, result):
    return args[0]


def _scan_cells(args, kwargs, result):
    return result.n_balls * result.n_energies


def _matrix_shape(args, kwargs, result):
    return np.shape(args[0] if args else kwargs["a"])


# span name -> function of (args, kwargs, result) whose value is kept
PROBES = {
    "configs.neighbors": _first_arg,
    "potential.HaarHull.value": _hull_key,
    "msa.sparseness_scan": _scan_cells,
    "linalg.eigh": _matrix_shape,
    "linalg.eigvalsh": _matrix_shape,
}


def _traced_callables(module, layer):
    """(owner, attribute, raw value, span name, function) for each public
    function and public method defined in ``module``."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, f"{layer}.{name}", obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn):
                    out.append((obj, attr, raw, f"{layer}.{name}.{attr}", fn))
    return out


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.probes = {name: [] for name in PROBES}
        self.op_start = array("i")   # first span index of each operation
        self._restore = []

    def mark_operation(self):
        """Start a new operation: repeat ratios are scoped to one operation."""
        self.op_start.append(len(self.name_id))

    def _wrap(self, fn, name):
        nid = self._name_index.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self
        probe = PROBES.get(name)
        kept = self.probes.get(name)

        if probe is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = tracer.current
                idx = len(ids)
                ids.append(nid)
                parents.append(parent)
                ends.append(0.0)
                tracer.current = idx
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    tracer.current = parent
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = tracer.current
                idx = len(ids)
                ids.append(nid)
                parents.append(parent)
                ends.append(0.0)
                tracer.current = idx
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    tracer.current = parent
                kept.append((idx, probe(args, kwargs, result)))
                return result
        return traced

    def install(self):
        """Wrap andlab's public callables and numpy's symmetric eigensolvers."""
        replacements = {}   # id(original function) -> wrapper
        targets = []
        for modname, layer in MODULE_LAYER.items():
            targets.extend(_traced_callables(sys.modules[modname], layer))
        for owner, attr, raw, name, fn in targets:
            wrapper = self._wrap(fn, name)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(wrapper))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(wrapper))
            else:
                replacements[id(fn)] = (fn, wrapper)
                setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, raw))
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            wrapper = self._wrap(fn, f"linalg.{attr}")
            replacements[id(fn)] = (fn, wrapper)
            setattr(np.linalg, attr, wrapper)
            self._restore.append((np.linalg, attr, fn))
        # rebind names imported with ``from .x import y`` in other andlab modules
        for modname, module in list(sys.modules.items()):
            if modname != "andlab" and not modname.startswith("andlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value and getattr(module, attr) is not hit[1]:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # ---- derived numbers ---------------------------------------------------

    def arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def self_times(self):
        """Per-span duration minus the time covered by its wrapped children."""
        ids, parent, start, end = self.arrays()
        dur = end - start
        covered = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        return dur - covered

    def counts(self):
        ids = self.arrays()[0]
        per_id = np.bincount(ids, minlength=len(self.names))
        return {name: int(per_id[i]) for i, name in enumerate(self.names)}

    def durations(self, name):
        ids, _, start, end = self.arrays()
        nid = self._name_index.get(name)
        if nid is None:
            return np.zeros(0)
        sel = ids == nid
        return end[sel] - start[sel]

    def repeat_fraction(self, name):
        """Share of ``name`` calls whose probed key was already seen in the
        same operation; 0.0 when there were no calls."""
        kept = self.probes[name]
        if not kept:
            return 0.0
        ops = np.searchsorted(np.array(self.op_start, dtype=np.int32),
                              [idx for idx, _ in kept], side="right")
        seen = set()
        repeats = 0
        for op, (_, key) in zip(ops.tolist(), kept):
            if (op, key) in seen:
                repeats += 1
            else:
                seen.add((op, key))
        return repeats / len(kept)

    def write(self, path):
        ids, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names, dtype=str),
                            name_id=ids, parent=parent, start=start, end=end,
                            op_start=np.asarray(self.op_start, dtype=np.int32))


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  bytes_written: int) -> dict:
    """Every per-layer metric of one traced phase, keyed by metric name.

    ``traced_wall`` is the wall time of the traced phase and
    ``untraced_wall`` the same amount of work timed without the tracer.
    """
    self_t = tracer.self_times()
    ids = tracer.arrays()[0]
    layer_of = np.asarray([LAYERS.index(n.split(".", 1)[0]) for n in tracer.names], dtype=np.intp)
    per_layer = np.bincount(layer_of[ids], weights=self_t, minlength=len(LAYERS))
    m = {}
    for k, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = (float(per_layer[k]), "s")
        m[f"{layer}.share"] = (float(per_layer[k]) / traced_wall, "fraction")
    c = tracer.counts()
    n = lambda name: c.get(name, 0)  # noqa: E731
    m["configs.neighbors_calls"] = (n("configs.neighbors"), "count")
    m["configs.bfs_calls"] = (sum(n(r) for r in BFS_ROUTINES), "count")
    m["configs.neighbors_repeat"] = (tracer.repeat_fraction("configs.neighbors"), "fraction")
    m["torus.cell_key_calls"] = (n("torus.cell_key"), "count")
    m["potential.hull_evals"] = (n("potential.HaarHull.value"), "count")
    m["potential.amp_lookups"] = (n("potential.AmplitudeField.value")
                                  + n("potential.ConstantAmplitudeField.value"), "count")
    m["potential.hull_repeat"] = (tracer.repeat_fraction("potential.HaarHull.value"), "fraction")
    m["msa.scan_cells"] = (sum(v for _, v in tracer.probes["msa.sparseness_scan"]), "count")
    m["operators.assemble_calls"] = (n("operators.assemble"), "count")
    m["operators.restrict_calls"] = (n("operators.FiniteHamiltonian.restrict"), "count")
    shapes = [s for name in ("linalg.eigh", "linalg.eigvalsh")
              for _, s in tracer.probes[name]]
    m["linalg.calls"] = (len(shapes), "count")
    m["linalg.max_dim"] = (max((s[-1] for s in shapes), default=0), "rows")
    m["linalg.flops_computed"] = (sum(int(np.prod(s[:-2], dtype=np.int64)) * s[-1] ** 3
                                      for s in shapes), "flop")
    trials_ms = tracer.durations("wegner.wegner_trial") * 1e3
    m["wegner.trials"] = (int(trials_ms.size), "count")
    p50, p99 = np.percentile(trials_ms, (50, 99)) if trials_ms.size else (0.0, 0.0)
    m["wegner.trial_p50_ms"] = (float(p50), "ms")
    m["wegner.trial_p99_ms"] = (float(p99), "ms")
    m["cli.bytes_written"] = (int(bytes_written), "bytes")
    m["trace.overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
