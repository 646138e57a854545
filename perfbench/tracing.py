"""Span tracing of fdtsim's layers from outside the package.

``Tracer`` wraps every public module-level function of each layer module,
plus ``play_generation`` of each game adapter class, in a wrapper that
records a span (name, start, end, parent) while ``recording`` is set. The
wrapper replaces the function in every fdtsim namespace that holds it, so
calls made through ``from .module import name`` are traced too. Calls made
through a private reference (such as the evaluator table in ``graphs``)
and calls to other methods count as self time of the calling span.

Spans live in flat arrays in memory and are written out once, by
``Tracer.write``, after the traced pass.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("graphs", "scenarios", "beliefs", "games", "evolve", "experiments", "cli")

# Work counters recorded at a span boundary: span name -> (counter, count of one call).
COUNTERS = {
    "games.pd_play_many": ("games.pd_pairings", lambda args, result: len(args[0])),
    "experiments.trajectory_csv": ("experiments.csv_bytes", lambda args, result: len(result)),
}

PD_PLAY = "games.PdGame.play_generation"
PLAY_GENERATION = (PD_PLAY, "games.NewcombGame.play_generation", "games.BeautyGame.play_generation")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_us", "_us_p50", "_us_p99")):
        return "us"
    if metric.endswith(("self_share", "overhead_frac")):
        return "fraction"
    if metric.endswith("_per_solve"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B/op"
    return "count/op"


class Tracer:
    """Installs span wrappers on construction; ``uninstall`` restores the originals."""

    def __init__(self, fdt):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {counter: 0 for counter, _ in COUNTERS.values()}
        self.recording = False
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._install(fdt)

    def _install(self, fdt) -> None:
        namespaces = [sys.modules["fdtsim"]] + [getattr(fdt, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(fdt, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = self._wrap(obj, f"{layer}.{attr}", layer)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, span)
                elif inspect.isclass(obj) and "play_generation" in vars(obj):
                    method = vars(obj)["play_generation"]
                    self._patch(obj, "play_generation",
                                self._wrap(method, f"{layer}.{attr}.play_generation", layer))

    def _patch(self, owner, key: str, new) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def uninstall(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        return all(vars(owner)[key] is original for owner, key, original in self._patches)

    def _wrap(self, fn, name: str, layer: str):
        index = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        counter, count = COUNTERS.get(name, (None, None))
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(start)
            name_id.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter] += count(args, result)
            return result

        return span

    def write(self, path: Path) -> None:
        """Save every span: name table, then one row per span in call order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_metrics(self, wall_s: float, ops: int) -> dict[str, float]:
        """Per-layer metrics of the traced pass; 0 where a layer was not called.

        Times are per-call medians unless named otherwise; counts are per
        operation. ``wall_s`` is the traced pass's total operation time.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        start = np.frombuffer(self.start)
        duration = np.frombuffer(self.end) - start
        nested = parent >= 0
        self_time = duration - np.bincount(
            parent[nested], weights=duration[nested], minlength=duration.size
        )

        def mask(*names: str) -> np.ndarray:
            ids = [self.names.index(n) for n in names if n in self.names]
            return np.isin(name_id, ids)

        def pct(values: np.ndarray, q: float, scale: float) -> float:
            return float(np.percentile(values, q)) * scale if values.size else 0.0

        def p50(name: str, scale: float, times=duration) -> float:
            return pct(times[mask(name)], 50, scale)

        def calls(name: str) -> int:
            return int(np.count_nonzero(mask(name)))

        solver_calls = calls("games.solve_fdt_pd_policy")
        decide = duration[mask("graphs.decide")]
        m = {
            "games.pd_play_generation_ms": p50(PD_PLAY, 1e3),
            "games.pd_play_many_ms": p50("games.pd_play_many", 1e3),
            "games.pd_matching_self_ms": p50(PD_PLAY, 1e3, self_time),
            "games.pd_pairings": self.counts["games.pd_pairings"] / ops,
            "games.beauty_play_generation_ms": p50("games.BeautyGame.play_generation", 1e3),
            "games.beauty_play_round_us": p50("games.beauty_play_round", 1e6),
            "games.beauty_rounds": calls("games.beauty_play_round") / ops,
            "games.solve_fdt_pd_policy_ms": p50("games.solve_fdt_pd_policy", 1e3),
            "games.solver_calls": solver_calls / ops,
            "beliefs.posterior_us": p50("beliefs.posterior", 1e6),
            "beliefs.posterior_calls_per_solve": (
                calls("beliefs.posterior") / solver_calls if solver_calls else 0.0
            ),
            "games.newcomb_play_generation_ms": p50("games.NewcombGame.play_generation", 1e3),
            "evolve.repopulate_ms": p50("evolve.repopulate", 1e3),
            "evolve.loop_self_ms": pct(
                self._loop_self(name_id, start, duration, mask), 50, 1e3
            ),
            "experiments.sweep_configs_ms": p50("experiments.sweep_configs", 1e3),
            "experiments.trajectory_csv_ms": p50("experiments.trajectory_csv", 1e3),
            "experiments.csv_bytes": self.counts["experiments.csv_bytes"] / ops,
            "cli.main_self_ms": p50("cli.main", 1e3, self_time),
            "scenarios.build_us": p50("scenarios.build", 1e6),
            "graphs.decide_us_p50": pct(decide, 50, 1e6),
            "graphs.decide_us_p99": pct(decide, 99, 1e6),
        }
        layer_of = np.array(self.layer_of)[name_id]
        for layer in LAYERS:
            m[f"{layer}.self_share"] = float(self_time[layer_of == layer].sum()) / wall_s
        return m

    def _loop_self(self, name_id, start, duration, mask) -> np.ndarray:
        """Per ``experiments.run`` call: its time outside play and repopulate spans."""
        runs = mask("experiments.run")
        run_start = start[runs]
        inner = mask(*PLAY_GENERATION, "evolve.repopulate")
        # Runs never nest, so the latest run started before a span encloses it.
        owner = np.searchsorted(run_start, start[inner], side="right") - 1
        enclosed = owner >= 0
        inside = np.bincount(
            owner[enclosed], weights=duration[inner][enclosed], minlength=run_start.size
        )
        return duration[runs] - inside
