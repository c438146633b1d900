"""Spans around calls into tmqubit's public functions, recorded from the
benchmark's own files by rebinding those functions in every tmqubit module.

Each span holds its name, start and end (``time.perf_counter``), the CPU time
of the process and of its reaped children over the call, the index of its
parent span and the run id. Spans stay in memory until ``write_jsonl``.
Calls made inside pool worker processes are not seen: only the parent's
``run_schedule`` span, whose CPU time includes the reaped workers, covers them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans; span name is
# "<module>.<function>".
TARGETS = (
    ("engine", "run_shot"),
    ("engine", "run_schedule"),
    ("readout", "calibrate"),
    ("readout", "forward_matrix"),
    ("fitting", "least_squares"),
    ("fitting", "chi2_profile"),
    ("protocols", "build_protocol"),
    ("schedule", "parse_sequence"),
    ("config", "load_config"),
    ("cli", "main"),
    ("figures", "fig4"),
    ("figures", "fig2e"),
)


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "cpu0": _cpu_s()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = _cpu_s() - span.pop("cpu0")
                self._stack.pop()
            if hasattr(result, "n_iterations"):
                span["iterations"] = result.n_iterations
            return result
        return traced

    def install(self) -> None:
        """Rebind every target in each tmqubit module that refers to it, so
        calls through ``from .engine import run_schedule`` are seen too."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "tmqubit" or key.startswith("tmqubit."))]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"tmqubit.{module_name}"], attr)
            traced = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def summary(self) -> dict:
        """Per span name: calls, total s, self s (minus child spans), CPU s,
        errors and summed iterations."""
        child_s = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                    "cpu_s": 0.0, "errors": 0,
                                                    "iterations": 0})
        for index, span in enumerate(self.spans):
            agg = out[span["name"]]
            duration = span["end"] - span["start"]
            agg["calls"] += 1
            agg["s"] += duration
            agg["self_s"] += duration - child_s[index]
            agg["cpu_s"] += span["cpu_s"]
            agg["errors"] += "error" in span
            agg["iterations"] += span.get("iterations", 0)
        return dict(out)

    def write_jsonl(self, path) -> None:
        with open(path, "a") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, **span}) + "\n")


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics that come from spans, by their benchmark names."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    shots = get("engine.run_shot", "calls")
    fits = get("fitting.least_squares", "calls")
    fit_errors = get("fitting.least_squares", "errors")
    return {
        "engine.run_shot.calls": shots,
        "engine.run_shot.self_s": get("engine.run_shot", "self_s"),
        "engine.ms_per_shot": 1e3 * get("engine.run_shot", "s") / shots if shots else 0.0,
        "engine.run_schedule.calls": get("engine.run_schedule", "calls"),
        "engine.run_schedule.s": get("engine.run_schedule", "s"),
        "engine.run_schedule.cpu_s": get("engine.run_schedule", "cpu_s"),
        "readout.calibrate.calls": get("readout.calibrate", "calls"),
        "readout.calibrate.self_s": get("readout.calibrate", "self_s"),
        "readout.forward_matrix.calls": get("readout.forward_matrix", "calls"),
        "readout.forward_matrix.s": get("readout.forward_matrix", "s"),
        "fitting.least_squares.calls": fits,
        "fitting.least_squares.s": get("fitting.least_squares", "s"),
        "fitting.iterations": get("fitting.least_squares", "iterations"),
        "fitting.fit_errors": fit_errors,
        "fitting.converged_ratio": (fits - fit_errors) / fits if fits else 0.0,
        "fitting.chi2_profile.s": get("fitting.chi2_profile", "s"),
        "protocols.build_protocol.calls": get("protocols.build_protocol", "calls"),
        "protocols.build_protocol.s": get("protocols.build_protocol", "s"),
        "schedule.parse_sequence.calls": get("schedule.parse_sequence", "calls"),
        "schedule.parse_sequence.s": get("schedule.parse_sequence", "s"),
        "config.load_config.calls": get("config.load_config", "calls"),
        "config.load_config.s": get("config.load_config", "s"),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "figures.fig4.self_s": get("figures.fig4", "self_s"),
        "figures.fig2e.self_s": get("figures.fig2e", "self_s"),
    }
