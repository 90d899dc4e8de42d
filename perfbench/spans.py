"""Span recorder that wraps tiltrec's public functions from outside.

`Tracer.install` replaces each listed function (or class constructor) in
every loaded ``tiltrec`` module that holds it, so calls made through
``from .x import f`` names are seen too.  Each call records one span
``(id, parent, name, start, end)`` in memory; `uninstall` restores the
originals.  Self times are derived from the spans afterwards.

A call made on a worker thread whose own stack is empty (the experiment
thread pool) takes as parent the innermost span open on the main thread,
so the pool's work is charged to the command that started it.  Children may
then overlap in time, which is why self time subtracts the union of the
child intervals rather than their sum.
"""

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


def _admm_result(res, args):
    return {"admm.runs": 1, "admm.converged": int(res.converged),
            "admm.iters": res.n_iter}


def _em_result(res, args):
    return {"em.iters": res.n_iter}


def _outer_flops(res, args):
    n, width = args[0].shape
    return {"spectral.blockwise_mean_outer.flop": 8 * n * width * width}


def _bytes_read(res, args):
    return {"cli.io.bytes_read": os.path.getsize(args[0])}


def _bytes_written(path_arg):
    def observe(res, args):
        return {"cli.io.bytes_written": os.path.getsize(args[path_arg])}
    return observe


# (module, attribute, span name, observer or None).  An observer maps
# (result, args) to counters added under their own names; byte counts are
# computed from file sizes, not measured I/O.
TARGETS = [
    ("tiltrec.basis", "eval_basis_matrix", "basis.eval_basis_matrix", None),
    ("tiltrec.basis", "eval_tilt_matrix", "basis.eval_tilt_matrix", None),
    ("tiltrec.basis", "synthesize_image", "basis.synthesize_image", None),
    ("tiltrec.sim", "generate_batch", "sim.generate_batch", None),
    ("tiltrec.sim", "project_clean", "sim.project_clean", None),
    ("tiltrec.sim", "save_batch", "sim.save_batch", _bytes_written(1)),
    ("tiltrec.sim", "load_batch", "sim.load_batch", _bytes_read),
    ("tiltrec.spectral", "transform_batch", "spectral.transform_batch", None),
    ("tiltrec.spectral", "blockwise_mean_outer",
     "spectral.blockwise_mean_outer", _outer_flops),
    ("tiltrec.moments", "empirical_moments", "moments.empirical_moments", None),
    ("tiltrec.moments", "population_features", "moments.population_features",
     None),
    ("tiltrec.admm", "init_admm_state", "admm.init_admm_state", None),
    ("tiltrec.admm", "run_admm", "admm.run_admm", _admm_result),
    ("tiltrec.admm", "update_a", "admm.update_a", None),
    ("tiltrec.admm", "update_z", "admm.update_z", None),
    ("tiltrec.admm", "update_p", "admm.update_p", None),
    ("tiltrec.admm", "augmented_lagrangian", "admm.augmented_lagrangian", None),
    ("tiltrec.admm", "moment_objective", "admm.moment_objective", None),
    ("tiltrec.em", "EmWorkspace", "em.EmWorkspace", None),
    ("tiltrec.em", "m_step", "em.m_step", None),
    ("tiltrec.em", "run_em", "em.run_em", _em_result),
    ("tiltrec.metrics", "relative_error", "metrics.relative_error", None),
    ("tiltrec.metrics", "total_variation_dist", "metrics.total_variation_dist",
     None),
    ("tiltrec.metrics", "joint_alignment", "metrics.joint_alignment", None),
    ("tiltrec.cli", "cmd_simulate", "cli.simulate", None),
    ("tiltrec.cli", "cmd_reconstruct", "cli.reconstruct", None),
    ("tiltrec.cli", "cmd_evaluate", "cli.evaluate", None),
    ("tiltrec.cli", "cmd_experiment", "cli.experiment", None),
    ("tiltrec.cli", "_sha256", "cli.sha256", _bytes_read),
    ("tiltrec.cli", "load_coeff_file", "cli.load_coeff_file", _bytes_read),
    ("tiltrec.cli", "save_coeff_file", "cli.save_coeff_file",
     _bytes_written(0)),
    ("tiltrec.cli", "write_pgm", "cli.write_pgm", _bytes_written(0)),
]


class Tracer:
    """In-memory span and counter store; one per traced phase."""

    def __init__(self):
        self.spans = []                      # (id, parent, name, t0, t1)
        self.counters = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()     # called on the main thread
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main and stack is not main else None

    def span(self, name, fn, observe=None):
        """Return `fn` wrapped so each call records a span named `name`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                counts = observe(result, args)
                with self._lock:
                    for key, val in counts.items():
                        self.counters[key] += val
            return result
        return wrapper

    def install(self, targets=TARGETS):
        for module_name, attr, name, observe in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if isinstance(original, type):
                init = original.__init__
                original.__init__ = self.span(name, init, observe)
                self._undo.append((original, "__init__", init))
                continue
            wrapped = self.span(name, original, observe)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "tiltrec" or mod_name.startswith("tiltrec.")) \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_totals(self):
        """name -> {"s", "self_s", "calls"} summed over all recorded spans."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for sid, _, name, t0, t1 in self.spans:
            row = totals[name]
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            row["calls"] += 1
        return totals

    def dump(self):
        return [{"id": sid, "parent": parent, "name": name,
                 "start": t0, "end": t1}
                for sid, parent, name, t0, t1 in self.spans]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
