"""Spans around ecolab's public functions, installed from outside the package.

`Tracer.install` replaces each function in TRACED wherever an `ecolab`
module holds a reference to it (`ecolab.sweep`, `analysis.integrate_report`,
`cli.simulate_epidemic`, ...), so calls between modules are recorded too.
Spans stay in memory until the run ends.  The derivative closures that
`community_rhs` compiles are the hot leaf: their calls are counted and
timed on the innermost open span instead of getting spans of their own.
The tracer's own work inside a span (the units it computes when a child
ends, and the counting wrapper's cost per evaluation, measured once by
`Tracer.calibrate`) is taken out of the span's time by `settle`.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# layer (ecolab module) -> traced public functions
TRACED = {
    "core": ("validate_scenario",),
    "scenario_io": ("parse_scenario", "serialize_scenario", "scenario_digest", "write_csv"),
    "svg": ("render_svg",),
    "continuous": ("integrate_report", "community_rhs"),
    "analysis": ("sweep", "find_fixed_points", "stability_report", "set_parameter"),
    "epidemic": ("barabasi_albert", "simulate_epidemic", "persistence_fraction", "estimate_threshold"),
    "cli": ("cli_main",),
}


def _events_estimate(model, prevalence) -> float:
    """Infection plus recovery events of one SIS run, estimated as 2*gamma*integral(I dt)."""
    times = prevalence.times
    infected = prevalence.infected_fraction * model.graph.n_nodes
    if prevalence.extinction_time is not None:
        alive = times < prevalence.extinction_time
        times = np.append(times[alive], prevalence.extinction_time)
        infected = np.append(infected[alive], 0.0)
    area = float(np.sum(0.5 * (infected[1:] + infected[:-1]) * np.diff(times)))
    return 2.0 * model.gamma * area


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# units of work per call, from the call's arguments and result
UNITS = {
    "integrate_report": lambda a, k, r: r.trajectory.n_samples - 1,  # accepted steps
    "barabasi_albert": lambda a, k, r: r.n_nodes,
    "simulate_epidemic": lambda a, k, r: _events_estimate(_arg(a, k, 0, "model"), r),
    "persistence_fraction": lambda a, k, r: _arg(a, k, 4, "n_runs"),
    "write_csv": lambda a, k, r: r.count("\n") - 1,  # data rows
    "render_svg": lambda a, k, r: np.size(_arg(a, k, 0, "trajectory").values),
}


@dataclass(eq=False)
class Span:
    id: int
    name: str
    parent: int | None
    item: int  # id of the top-level span this call serves
    start: float
    end: float = 0.0
    leaf_calls: int = 0  # derivative evaluations made directly under this span
    leaf_s: float = 0.0  # their time as the counting wrapper measured it
    units: float = 0.0
    units_s: float = 0.0  # time spent computing the units of this span's children
    # Set by `settle`: the span's time and its own part of it, both with the
    # tracer's bookkeeping taken out.
    net_s: float = 0.0
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "item": self.item,
            "start_s": self.start - origin,
            "end_s": self.end - origin,
            "net_s": self.net_s,
            "self_s": self.self_s,
            "leaf_calls": self.leaf_calls,
            "leaf_s": self.leaf_s,
            "units": self.units,
        }


@dataclass(frozen=True)
class LeafCost:
    """What the counting wrapper adds to one derivative evaluation, in seconds."""

    total_s: float  # the whole wrapper: timers, stack lookup, counter updates
    timed_s: float  # the part that falls between its two timer reads, into leaf_s


def settle(spans: list[Span], cost: LeafCost) -> None:
    """Set net_s and self_s on every span.

    A span's tracer bookkeeping is the units computed after its children
    end plus `cost.total_s` per derivative evaluation, over its subtree.
    net_s is the duration without it; self_s is net_s minus the children's
    net_s and the derivative time (leaf_s less `cost.timed_s` per call).
    """
    overhead = [s.units_s + s.leaf_calls * cost.total_s for s in spans]
    children_net = [0.0] * len(spans)
    # A child is appended after its parent, so walking backwards finishes
    # every subtree before its parent is reached.
    for span in reversed(spans):
        span.net_s = span.duration - overhead[span.id]
        rhs_s = max(span.leaf_s - span.leaf_calls * cost.timed_s, 0.0)
        span.self_s = span.net_s - children_net[span.id] - rhs_s
        if span.parent is not None:
            overhead[span.parent] += overhead[span.id]
            children_net[span.parent] += span.net_s


class Tracer:
    """Records spans while installed; `uninstall` restores the original functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = perf_counter()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        # derivative evaluations made outside any span
        self._root = Span(-1, "(root)", None, -1, 0.0)
        self.leaf_cost = LeafCost(0.0, 0.0)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "ecolab" or name.startswith("ecolab.")]
        for layer, names in TRACED.items():
            home = sys.modules["ecolab." + layer]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def calibrate(self, calls: int = 10_000, repeats: int = 20) -> LeafCost:
        """Measure the counting wrapper's own cost on a derivative that does nothing."""

        def noop(state):
            return state

        root = self._root
        saved = root.leaf_calls, root.leaf_s
        counted = self._count_leaf(noop)
        bare_s, wrapped_s, timed_s = [], [], []
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                noop(None)
            bare_s.append((perf_counter() - start) / calls)
            root.leaf_s = 0.0
            start = perf_counter()
            for _ in range(calls):
                counted(None)
            wrapped_s.append((perf_counter() - start) / calls)
            timed_s.append(root.leaf_s / calls)
        root.leaf_calls, root.leaf_s = saved
        bare = min(bare_s)
        self.leaf_cost = LeafCost(max(min(wrapped_s) - bare, 0.0), max(min(timed_s) - bare, 0.0))
        return self.leaf_cost

    def _wrap(self, name, fn):
        stack, spans = self._stack, self.spans
        units = UNITS.get(name)
        counted = self._count_leaf if name == "community_rhs" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(
                len(spans),
                name,
                parent.id if parent else None,
                parent.item if parent else len(spans),
                perf_counter(),
            )
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if units is not None:
                # Runs inside the parent's span: charged to the tracer, not the parent.
                start = perf_counter()
                span.units = units(args, kwargs, result)
                if parent is not None:
                    parent.units_s += perf_counter() - start
            return counted(result) if counted else result

        return traced

    def _count_leaf(self, rhs):
        stack, root = self._stack, self._root

        def counted(state):
            start = perf_counter()
            out = rhs(state)
            elapsed = perf_counter() - start
            owner = stack[-1] if stack else root
            owner.leaf_calls += 1
            owner.leaf_s += elapsed
            return out

        return counted

    def as_json(self) -> list[dict]:
        return [span.as_json(self.origin) for span in self.spans]


# Per-layer metrics: name -> unit.  Counts are per pass; times are per unit
# of the layer's own work, summed over every traced pass.
LAYER_METRICS = {
    "continuous.rhs_evals": "count",
    "continuous.rhs_us_per_eval": "us",
    "continuous.rhs_evals_per_step": "evals/step",
    "continuous.steps": "count",
    "continuous.step_us": "us",
    "analysis.find_fixed_points_ms": "ms",
    "analysis.newton_rhs_evals": "count",
    "analysis.stability_report_us": "us",
    "analysis.set_parameter_us": "us",
    "epidemic.ba_us_per_node": "us",
    "epidemic.sim_calls": "count",
    "epidemic.sim_ms_per_call": "ms",
    "epidemic.events_est": "count",
    "epidemic.sim_us_per_event_est": "us",
    "epidemic.mc_ms_per_run": "ms",
    "epidemic.persistence_evals": "count",
    "scenario_io.parse_us_per_doc": "us",
    "scenario_io.serialize_us_per_doc": "us",
    "scenario_io.digest_us_per_doc": "us",
    "scenario_io.write_csv_us_per_row": "us",
    "svg.render_us_per_point": "us",
    "core.validate_calls": "count",
    "core.validate_us": "us",
    "cli.command_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """num/den scaled; 0 when the layer did no work on this workload."""
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int, cost: LeafCost) -> dict[str, float]:
    """Per-layer metrics from the spans of `passes` traced passes, bookkeeping excluded."""
    settle(spans, cost)

    def of(name):
        return [s for s in spans if s.name == name]

    def total(items, attr):
        return sum(getattr(s, attr) for s in items)

    integ, fixed = of("integrate_report"), of("find_fixed_points")
    sims, ba, mc = of("simulate_epidemic"), of("barabasi_albert"), of("persistence_fraction")
    csv, svg, cli = of("write_csv"), of("render_svg"), of("cli_main")
    evals = total(spans, "leaf_calls")
    rhs_s = total(spans, "leaf_s") - evals * cost.timed_s
    per_call_us = {
        "analysis.stability_report_us": "stability_report",
        "analysis.set_parameter_us": "set_parameter",
        "scenario_io.parse_us_per_doc": "parse_scenario",
        "scenario_io.serialize_us_per_doc": "serialize_scenario",
        "scenario_io.digest_us_per_doc": "scenario_digest",
        "core.validate_us": "validate_scenario",
    }
    metrics = {
        "continuous.rhs_evals": evals / passes,
        "continuous.rhs_us_per_eval": _ratio(rhs_s, evals, 1e6),
        "continuous.rhs_evals_per_step": _ratio(total(integ, "leaf_calls"), total(integ, "units")),
        "continuous.steps": total(integ, "units") / passes,
        "continuous.step_us": _ratio(total(integ, "self_s"), total(integ, "units"), 1e6),
        "analysis.find_fixed_points_ms": _ratio(total(fixed, "net_s"), len(fixed), 1e3),
        "analysis.newton_rhs_evals": total(fixed, "leaf_calls") / passes,
        "epidemic.ba_us_per_node": _ratio(total(ba, "net_s"), total(ba, "units"), 1e6),
        "epidemic.sim_calls": len(sims) / passes,
        "epidemic.sim_ms_per_call": _ratio(total(sims, "net_s"), len(sims), 1e3),
        "epidemic.events_est": total(sims, "units") / passes,
        "epidemic.sim_us_per_event_est": _ratio(total(sims, "net_s"), total(sims, "units"), 1e6),
        "epidemic.mc_ms_per_run": _ratio(total(mc, "net_s"), total(mc, "units"), 1e3),
        "epidemic.persistence_evals": len(mc) / passes,
        "scenario_io.write_csv_us_per_row": _ratio(total(csv, "net_s"), total(csv, "units"), 1e6),
        "svg.render_us_per_point": _ratio(total(svg, "net_s"), total(svg, "units"), 1e6),
        "core.validate_calls": len(of("validate_scenario")) / passes,
        "cli.command_ms": _ratio(total(cli, "net_s"), len(cli), 1e3),
        "cli.self_ms": _ratio(total(cli, "self_s"), len(cli), 1e3),
    }
    for metric, name in per_call_us.items():
        calls = of(name)
        metrics[metric] = _ratio(total(calls, "net_s"), len(calls), 1e6)
    return {name: metrics[name] for name in LAYER_METRICS if name in metrics}
