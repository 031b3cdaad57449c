"""Span tracer that wraps the public entry points of nrayleigh's modules.

Used only in the traced benchmark process; the program is not changed.
After import, every public function of each layer module (its ``__all__``
entries defined in that module; for ``cli`` only ``main``) is replaced by a
wrapper in the namespace of every loaded ``nrayleigh`` module, so calls
between modules and inside a module are seen too.  A layer whose module or
entry points no longer exist is reported as absent, not an error.

Each span records (id, name, parent id, start, end).  Spans stay in memory
and are written out by ``Tracer.save`` at the end of the process.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("specfun", "schemes", "moments", "montecarlo", "validation", "cli")


def _entry_points(layer: str) -> dict:
    try:
        module = importlib.import_module(f"nrayleigh.{layer}")
    except ImportError:
        return {}
    # The click commands below cli.main are not plain functions, and all
    # the work under them belongs to other layers.
    names = ["main"] if layer == "cli" else getattr(module, "__all__", ())
    found = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[name] = obj
    return found


def _find_arg(args, kwargs, fields):
    """The first argument that has every attribute in ``fields``."""
    for value in itertools.chain(args, kwargs.values()):
        if all(hasattr(value, f) for f in fields):
            return value
    return None


@dataclasses.dataclass(frozen=True)
class Simulation:
    """A top-level Monte-Carlo call and the channel it simulated."""

    fn: object
    args: tuple
    kwargs: dict
    key: tuple  # (n, n_t, n_r, master_seed, trials)

    @property
    def trials(self) -> int:
        return self.key[4]

    @property
    def hops(self) -> int:
        n, n_t, n_r, _, trials = self.key
        return trials * n * n_t * n_r


class Tracer:
    """Records one span per call into a traced entry point."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self._spans: list[tuple[int, int, int, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._mc_calls: dict[int, tuple] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            entries = _entry_points(layer)
            if not entries:
                self.absent.append(layer)
            for name, fn in entries.items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn, layer == "montecarlo")
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".", 1)[0] != "nrayleigh":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound.clear()

    def _wrap(self, name: str, fn, keep_args: bool):
        name_id = len(self.names)
        self.names.append(name)
        ids, local, spans, mc_calls = self._ids, self._local, self._spans, self._mc_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            if keep_args:
                mc_calls[span_id] = (fn, args, kwargs)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name_id, parent, start, end))

        return traced

    def _table(self):
        """Span columns indexed by span id (ids are dense from 0)."""
        spans = sorted(self._spans)
        if spans and spans[-1][0] != len(spans) - 1:
            raise RuntimeError("a traced call has not returned")
        table = np.array(spans, dtype=float).reshape(len(spans), 5)
        name_id = table[:, 1].astype(np.int64)
        parent = table[:, 2].astype(np.int64)
        return name_id, parent, table[:, 3], table[:, 4] - table[:, 3]

    def save(self, path: str) -> None:
        name_id, parent, start, duration = self._table()
        np.savez_compressed(
            path, name_id=name_id, parent=parent, start=start, duration=duration,
            names=np.array(self.names, dtype=str), absent=np.array(self.absent, dtype=str),
        )

    def simulations(self) -> list[Simulation]:
        """Every Monte-Carlo call not made from inside another one that
        carries a channel (n, n_t, n_r) and settings (trials, master_seed)."""
        layer_of = [n.split(".", 1)[0] for n in self.names]
        name_id, parent, _, _ = self._table()
        found = []
        for span_id, (fn, args, kwargs) in sorted(self._mc_calls.items()):
            p = parent[span_id]
            if p >= 0 and layer_of[name_id[p]] == "montecarlo":
                continue
            cfg = _find_arg(args, kwargs, ("n", "n_t", "n_r"))
            settings = _find_arg(args, kwargs, ("trials", "master_seed"))
            if cfg is None or settings is None:
                continue
            key = (int(cfg.n), int(cfg.n_t), int(cfg.n_r),
                   int(settings.master_seed), int(settings.trials))
            found.append(Simulation(fn, args, kwargs, key))
        return found

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans.

        ``<layer>.calls`` counts entries into the layer from outside it;
        ``<layer>.self_s`` sums each span's duration minus the time its
        child spans cover.
        """
        name_id, parent, _, duration = self._table()
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        names = np.array(self.names, dtype=str)
        layers = np.array([n.split(".", 1)[0] for n in self.names], dtype=str)
        span_name = names[name_id]
        span_layer = layers[name_id]
        parent_name = np.where(has_parent, names[name_id[np.maximum(parent, 0)]], "-")
        parent_layer = np.where(has_parent, layers[name_id[np.maximum(parent, 0)]], "-")

        def mean_duration(name: str) -> float:
            mask = span_name == name
            return float(duration[mask].mean()) if mask.any() else 0.0

        out: dict[str, float] = {}
        for layer in ("montecarlo", "schemes", "specfun", "moments"):
            out[f"{layer}.calls"] = int(np.count_nonzero((span_layer == layer) & (parent_layer != layer)))
            out[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())
        for layer in ("validation", "cli"):
            out[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())

        sims = self.simulations()
        trials = sum(s.trials for s in sims)
        hops = sum(s.hops for s in sims)
        mc_s = out["montecarlo.self_s"]
        out["montecarlo.trials"] = trials
        out["montecarlo.hops"] = hops
        out["montecarlo.mhops_per_s"] = hops / mc_s / 1e6 if mc_s > 0 else 0.0
        unique_trials = sum(key[4] for key in {s.key for s in sims})
        out["montecarlo.unique_trial_share"] = unique_trials / trials if trials else 0.0

        solves = int(np.count_nonzero(span_name == "schemes.required_snr"))
        evals = int(np.count_nonzero((span_name == "schemes.outage")
                                     & (parent_name == "schemes.required_snr")))
        out["schemes.outage.us_per_call"] = mean_duration("schemes.outage") * 1e6
        out["schemes.required_snr.us_per_call"] = mean_duration("schemes.required_snr") * 1e6
        out["schemes.outage_evals_per_solve"] = evals / solves if solves else 0.0
        calls = out["specfun.calls"]
        out["specfun.us_per_call"] = out["specfun.self_s"] / calls * 1e6 if calls else 0.0
        out["moments.moment_oracle.ms_per_call"] = mean_duration("moments.moment_oracle") * 1e3
        return out

    def parallel_efficiency(self) -> float:
        """Replay the largest simulation, untraced, on 1 and on 2 workers.

        Returns 2-worker throughput over twice the 1-worker throughput, or
        0.0 when there is no simulation whose settings take a worker count.
        """
        sims = self.simulations()
        if not sims:
            return 0.0
        sim = max(sims, key=lambda s: s.hops)
        settings = _find_arg(sim.args, sim.kwargs, ("trials", "master_seed"))
        if not hasattr(settings, "workers"):
            return 0.0
        seconds = []
        for workers in (1, 2):
            replaced = dataclasses.replace(settings, workers=workers)
            args = [replaced if a is settings else a for a in sim.args]
            kwargs = {k: replaced if v is settings else v for k, v in sim.kwargs.items()}
            start = time.perf_counter()
            sim.fn(*args, **kwargs)
            seconds.append(time.perf_counter() - start)
        return seconds[0] / (2.0 * seconds[1])
