"""In-memory tracing of renyi_quant from outside the package.

Each traced public function is replaced by a wrapper under every module-level
name that refers to it. Callers that bound the function by name
(`from .quantizer import cell_probabilities`) and callers that go through a
module attribute (`quadrature.integrate`) therefore both reach the wrapper,
and nothing under `src/` changes. A wrapper records one span
(name, start, end, parent index); the density methods that run inside
integrands are only counted, because a span per call would cost more than the
call. `uninstall` puts every original back.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from collections import Counter

from renyi_quant import cli, compander, density, experiments, quadrature, quantizer, theory

# span name -> (module, attribute) of the function it wraps
SPANNED_FUNCTIONS = {
    "cli.main": (cli, "main"),
    "quantizer.cell_probabilities": (quantizer, "cell_probabilities"),
    "quantizer.cell_distortions": (quantizer, "cell_distortions"),
    "quantizer.region_metrics": (quantizer, "region_metrics"),
    "quantizer.restricted_metrics": (quantizer, "restricted_metrics"),
    "compander.build_compander": (compander, "build_compander"),
    "compander.refine_codepoints": (compander, "refine_codepoints"),
    "compander.optimal_point_density": (compander, "optimal_point_density"),
    "density.check_weak_unimodality": (density, "check_weak_unimodality"),
    "quadrature.integrate": (quadrature, "integrate"),
    **{
        f"theory.{name}": (theory, name)
        for name, fn in vars(theory).items()
        if inspect.isfunction(fn) and fn.__module__ == theory.__name__ and not name.startswith("_")
    },
}

# span name -> (class, method)
SPANNED_METHODS = {
    "density.absolute_moment": (density.Density, "absolute_moment"),
    "cli.write_csv": (experiments.ConvergenceReport, "write_csv"),
    "cli.write_summary": (experiments.ConvergenceReport, "write_summary"),
}

DENSITY_CLASSES = (
    density.Uniform,
    density.Gaussian,
    density.Laplacian,
    density.Exponential,
    density.PiecewiseLinear,
    density.RestrictedDensity,
    density.TiltedDensity,
)
COUNTED_METHODS = ("pdf", "cdf", "sf", "quantile", "isf", "interval_mass")

# span name -> layer metric whose time it adds to; a span nested inside another
# span of the same group adds nothing, so no interval is counted twice
GROUPS = {
    "quantizer.cell_probabilities": "quantizer.probabilities_s",
    "quantizer.cell_distortions": "quantizer.distortion_s",
    "quantizer.region_metrics": "quantizer.region_s",
    "quantizer.restricted_metrics": "quantizer.region_s",
    "compander.build_compander": "compander.build_s",
    "compander.refine_codepoints": "compander.refine_s",
    "compander.optimal_point_density": "compander.point_density_s",
    "quadrature.integrate": "quadrature.busy_s",
    "density.check_weak_unimodality": "experiments.hypothesis_s",
    "density.absolute_moment": "experiments.hypothesis_s",
    "theory.check_density_ratio_bound": "experiments.hypothesis_s",
    "cli.write_csv": "cli.io_s",
    "cli.write_summary": "cli.io_s",
    **{
        name: "theory.busy_s"
        for name in SPANNED_FUNCTIONS
        if name.startswith("theory.") and name != "theory.check_density_ratio_bound"
    },
}
SWEEP = "experiments.sweep"
CELL_PASSES = ("quantizer.cell_probabilities", "quantizer.cell_distortions")

# span name -> Tracer method run on (span index, call arguments, result)
AFTER = {
    "quadrature.integrate": "_after_integrate",
    "quantizer.cell_probabilities": "_after_cell_pass",
    "quantizer.cell_distortions": "_after_cell_pass",
}


class Tracer:
    """Spans and counts of one traced pass; `reset` starts the next pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.sweeps: dict[int, tuple[str, int]] = {}  # sweep span index -> (config name, rate points)

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these objects
        self.spans.clear()
        del self._stack[1:]
        self.counts.clear()
        self.sweeps.clear()

    # --- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for name, (module, attr) in SPANNED_FUNCTIONS.items():
            fn = getattr(module, attr)
            after = getattr(self, AFTER[name]) if name in AFTER else None
            replacements[fn] = self._spanned(name, fn, after)
        modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "renyi_quant"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    self._patch(module, attr, replacements[value])
        for name, (cls, attr) in SPANNED_METHODS.items():
            self._patch(cls, attr, self._spanned(name, cls.__dict__[attr]))
        for cls in DENSITY_CLASSES:
            for attr in COUNTED_METHODS:
                self._patch(cls, attr, self._counted(f"{cls.__name__}.{attr}", getattr(cls, attr)))
        runners = experiments.RUNNERS
        for key, fn in list(runners.items()):
            self._patch(runners, key, self._spanned(SWEEP, fn, self._after_sweep))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            elif original is _INHERITED:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr: str, wrapper) -> None:
        if isinstance(target, dict):
            self._patches.append((target, attr, target[attr]))
            target[attr] = wrapper
        else:
            # class attributes are read from __dict__ so a staticmethod or an
            # inherited method is restored exactly as it was
            self._patches.append((target, attr, vars(target).get(attr, _INHERITED)))
            setattr(target, attr, wrapper)

    def _spanned(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(index, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _after_integrate(self, index, args, result) -> None:
        self.counts["subdivisions"] += result.subdivisions

    def _after_cell_pass(self, index, args, result) -> None:
        self.counts["cells_evaluated"] += args[0].size

    def _after_sweep(self, index, args, report) -> None:
        self.sweeps[index] = (args[0].name, len(report.rows))

    # --- derived numbers ---------------------------------------------------------

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Per-layer times and counts of the pass traced since `reset`, and the
        cell passes per rate point of each sweep in it.

        A time is the inclusive duration of the spans of its group. Counts,
        and ratios of counts, repeat exactly from pass to pass."""
        group_time = dict.fromkeys(GROUPS.values(), 0.0)
        calls = Counter()
        cell_passes = Counter()
        open_groups: list[frozenset] = []
        sweep_of: list[int] = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            outer = open_groups[parent] if parent >= 0 else frozenset()
            group = GROUPS.get(name)
            if group is not None and group not in outer:
                group_time[group] += end - start
                outer = outer | {group}
            open_groups.append(outer)
            sweep_of.append(index if name == SWEEP else sweep_of[parent] if parent >= 0 else -1)
            if name in CELL_PASSES:
                cell_passes[sweep_of[index]] += 1
        tally = self.counts

        def count_of(method: str) -> int:
            return sum(tally[f"{cls.__name__}.{method}"] for cls in DENSITY_CLASSES)

        rate_points = sum(rows for _, rows in self.sweeps.values())
        cells = tally["cells_evaluated"]
        integrate_calls = calls["quadrature.integrate"]
        times = {
            **group_time,
            "quantizer.s_per_kcell": _ratio(
                group_time["quantizer.probabilities_s"] + group_time["quantizer.distortion_s"],
                cells / 1000.0,
            ),
        }
        counts = {
            "quantizer.cells_evaluated": cells,
            "quantizer.passes_per_point": _ratio(sum(cell_passes.values()), rate_points),
            "density.pdf_evals": count_of("pdf"),
            "density.cdf_evals": count_of("cdf") + count_of("sf"),
            "density.quantile_calls": count_of("quantile") + count_of("isf"),
            "density.interval_mass_calls": count_of("interval_mass"),
            "quadrature.integrate_calls": integrate_calls,
            "quadrature.subdivisions": tally["subdivisions"],
            "quadrature.subdivisions_per_call": _ratio(tally["subdivisions"], integrate_calls),
            "theory.calls": sum(n for name, n in calls.items() if GROUPS.get(name) == "theory.busy_s"),
            "experiments.sweeps": len(self.sweeps),
            "experiments.rate_points": rate_points,
        }
        per_sweep = {
            config: cell_passes[index] / rows for index, (config, rows) in self.sweeps.items()
        }
        return times, counts, per_sweep

    def self_times(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive time and self time (inclusive minus child spans) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = table.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["inclusive_s"] += end - start
            row["self_s"] += end - start - children
        return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


_INHERITED = object()
