"""Span recorder that times spindetect's layers from outside the program.

Each wrapper is installed at the attribute where its caller looks the name
up (a module global or a class attribute), so the program's code is left
as it is.  A span is [name, start, end, parent index, info]; spans are kept
in memory and summarised once the traced run has ended.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

ROOT = "run"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a timed wrapper; observe(result, args) may
        return a dict of counters that is kept on the span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                self.spans[index][4] = observe(result, args)
            return result

        setattr(owner, attr, traced)


def _solution_info(sol, args):
    return {"nodes": int(sol.k.size), "failed": int(sol.failed.sum()),
            "flux_defect_max": _finite_max(sol.flux_defect),
            "matching_residual_max": _finite_max(sol.matching_residual)}


def _finite_max(values) -> float:
    finite = values[values == values]
    return float(finite.max()) if finite.size else 0.0


def _trajectory_info(traj, args):
    return {"steps": len(traj.times) - 1, "points": traj.grid.n_points}


def _file_info(path, args):
    return {"bytes": path.stat().st_size}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the run kinds go through."""
    from spindetect import conditional, discrete, output, runner

    layers = {
        "config.resolve": ["resolve_config", "get_by_path", "set_by_path"],
        "bath.rates": ["decay_rate_and_shift", "markov_summary"],
        "packets.init": ["free_evolved_packet"],
        "discrete.series": ["detection_density_discrete"],
        "conditional.potential": ["build_conditional_potential",
                                  "one_channel_limit_potential",
                                  "adiabaticity_ratio"],
        "analysis": ["arrival_stats", "compare_curves", "mass_accounting"],
        "output.json": ["write_json"],
    }
    for name, attrs in layers.items():
        for attr in attrs:
            tracer.wrap(runner, attr, name)
    tracer.wrap(runner, "propagate_conditional", "conditional.cn", _trajectory_info)
    tracer.wrap(runner, "propagate_two_channel", "conditional.two_channel",
                _trajectory_info)
    # write_csv is bound in runner and discrete at import, and imported
    # from output at call time by the trajectories' to_csv methods
    for module in (runner, discrete, output):
        tracer.wrap(module, "write_csv", "output.csv", _file_info)
    tracer.wrap(discrete, "match_at_origin", "discrete.match", _solution_info)
    tracer.wrap(discrete.ScatteringSynthesis, "no_flip_norm_series",
                "discrete.norm_series")
    tracer.wrap(conditional.CrankNicolson1D, "__init__", "conditional.cn_factor")
    tracer.wrap(conditional.CrankNicolson1D, "step", "conditional.cn_step")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals from the spans of one traced run.

    Attribution counts the spans opened directly under the root span, so a
    nested span (a CN step inside its propagation) is not counted twice.
    """
    root = next(i for i, s in enumerate(spans) if s[0] == ROOT and s[3] == -1)
    wall = spans[root][2] - spans[root][1]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, list[dict]] = {}
    attributed = 0.0
    for name, start, end, parent, extra in spans:
        if name == ROOT:
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if extra is not None:
            info.setdefault(name, []).append(extra)
        if parent == root:
            attributed += end - start

    def t(name):
        return total.get(name, 0.0)

    def summed(name, key):
        return sum(d[key] for d in info.get(name, []))

    def peak(name, key):
        return max((d[key] for d in info.get(name, [])), default=0.0)

    cn_point_steps = sum(d["steps"] * d["points"] for d in info.get("conditional.cn", []))
    two_point_steps = sum(d["steps"] * d["points"]
                          for d in info.get("conditional.two_channel", []))
    csv_bytes = summed("output.csv", "bytes")
    return {
        "runner.wall_s": wall,
        "runner.attributed_share": attributed / wall if wall > 0 else 0.0,
        "runner.unattributed_s": wall - attributed,
        "config.resolve_s": t("config.resolve"),
        "bath.rates_s": t("bath.rates"),
        "bath.rates_calls": calls.get("bath.rates", 0),
        "packets.init_s": t("packets.init"),
        "discrete.series_s": t("discrete.series"),
        "discrete.match_s": t("discrete.match"),
        "discrete.match_nodes": summed("discrete.match", "nodes"),
        "discrete.match_failed_nodes": summed("discrete.match", "failed"),
        "discrete.flux_defect_max": peak("discrete.match", "flux_defect_max"),
        "discrete.matching_residual_max": peak("discrete.match", "matching_residual_max"),
        "discrete.norm_series_s": t("discrete.norm_series"),
        "conditional.potential_s": t("conditional.potential"),
        "conditional.cn_s": t("conditional.cn"),
        "conditional.cn_factor_s": t("conditional.cn_factor"),
        "conditional.cn_steps": summed("conditional.cn", "steps"),
        "conditional.cn_step_s": t("conditional.cn_step"),
        "conditional.cn_loop_self_s": (t("conditional.cn") - t("conditional.cn_step")
                                       - t("conditional.cn_factor")),
        "conditional.cn_ns_per_point_step": (t("conditional.cn_step") / cn_point_steps * 1e9
                                             if cn_point_steps else 0.0),
        "conditional.two_channel_s": t("conditional.two_channel"),
        "conditional.two_channel_steps": summed("conditional.two_channel", "steps"),
        "conditional.two_channel_ns_per_point_step": (
            t("conditional.two_channel") / two_point_steps * 1e9 if two_point_steps else 0.0),
        "analysis.s": t("analysis"),
        "output.csv_s": t("output.csv"),
        "output.csv_bytes": csv_bytes,
        "output.csv_mb_per_s": (csv_bytes / 1e6 / t("output.csv")
                                if t("output.csv") > 0 else 0.0),
        "output.json_s": t("output.json"),
        "trace.spans": len(spans),
    }
