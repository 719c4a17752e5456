"""Span and count recording around wigsim's module boundaries.

The tracer treats the package as a black box. While installed, every public
function defined in a wigsim module is replaced, in every wigsim module
namespace that holds it, by a wrapper that records one span per call: the
callee's qualified name (``<module>.<function>``), its parent span, and its
start and end times. Because modules look their collaborators up as module
globals at call time, the wrappers see each call that crosses a module
boundary (and calls between public functions of one module). A few boundaries
also add counts that are computed from the call's operands, so they repeat
exactly from run to run. ``uninstall`` puts every original function back.

Spans are kept in memory; ``layer_metrics`` turns them into the per-layer
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter

MODULES = (
    "cli",
    "distill",
    "fock",
    "grids",
    "monotones",
    "special",
    "states",
    "symplectic",
)

# states generators other than the cubic-phase family
GENERATORS = {
    "states.gaussian_wigner",
    "states.vacuum_wigner",
    "states.number_state_wigner",
    "states.on_state_wigner",
    "states.photon_mod_wigner",
    "states.ideal_cubic_wigner",
}


def _count_sweep(counts, args):
    # the workloads give both grids explicitly
    config = args["config"]
    grid_in = config.input_grid
    grid_out = config.output_grid
    n = len(config.p_v_samples)
    nq_in = grid_in.shape[0]
    nq_out, np_out = grid_out.shape
    # the q-blur contracts an (nq_out x nq_in) kernel with nq_in x np_out
    # samples once per outcome
    counts["distill.blur_gflop"] += 2.0 * nq_out * nq_in * np_out * n / 1e9


def _count_window(counts, args, result):
    records = args["records"]
    full = (records[0].p_v, records[-1].p_v)
    if tuple(result) != full:
        n = len(records)
        counts["distill.window_pairs"] += n * (n - 1) // 2


def _count_airy(counts, args, result):
    import numpy as np

    counts["special.airy_points"] += int(np.size(args["x"]))


def _count_neg_clamp(counts, args, result):
    if result == 0.0:
        counts["monotones.clamp_events"] += 1


def _count_fid_clamp(counts, args, result):
    from wigsim.grids import TOL_NORM

    if result == 0.0 or result == 1.0 + TOL_NORM:
        counts["monotones.clamp_events"] += 1


def _count_resample(counts, args, result):
    samples = args["field"].samples
    m = samples.size
    d = samples.ndim
    corners = 2**d * m
    counts["symplectic.points_resampled"] += m
    counts["symplectic.corner_gathers"] += corners
    # computed, not measured: 8-byte corner gathers, d source coordinates
    # per point and one output value per point
    counts["symplectic.bytes_moved_mb"] += 8 * (corners + d * m + m) / 1e6


def _count_csv(counts, args, result):
    counts["grids.csv_write_mb"] += os.path.getsize(args["path"]) / 1e6


# qualified name -> hook(counts, bound arguments, result), run after the call
HOOKS = {
    "distill.select_window": _count_window,
    "special.airy_ai": _count_airy,
    "special.airy_ai_scaled": _count_airy,
    "monotones.log_negativity": _count_neg_clamp,
    "monotones.fidelity_to_pure": _count_fid_clamp,
    "symplectic.apply_symplectic": _count_resample,
    "grids.write_field_csv": _count_csv,
}
# hooks that run before the call, so a sweep that raises is still counted
PRE_HOOKS = {"distill.distill_sweep": _count_sweep}

DEGENERATE_SOURCES = {"distill.distill_sweep", "distill.distill_conditional"}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._wrappers = {}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            module = sys.modules.get(f"wigsim.{short}") or __import__(
                f"wigsim.{short}", fromlist=["_"]
            )
            for attr, obj in list(vars(module).items()):
                if not self._traceable(attr, obj):
                    continue
                self._patches.append((module, attr, obj))
                setattr(module, attr, self._wrapper(obj))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @staticmethod
    def _traceable(attr, obj) -> bool:
        return (
            inspect.isfunction(obj)
            and not attr.startswith("_")
            and obj.__module__.startswith("wigsim.")
            and obj.__module__.split(".")[1] in MODULES
        )

    def _wrapper(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = f"{fn.__module__.split('.')[1]}.{fn.__name__}"
        hook = HOOKS.get(name)
        pre_hook = PRE_HOOKS.get(name)
        signature = inspect.signature(fn) if hook or pre_hook else None
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if pre_hook is not None:
                pre_hook(counts, bound)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name in DEGENERATE_SOURCES and type(exc).__name__ == (
                    "DegenerateConditioningError"
                ):
                    counts["distill.degenerate_outcomes"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, bound, result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end) in enumerate(spans)]


def _covered(spans, names):
    """Time inside calls to `names`, counting nested calls among them once."""
    total = 0.0
    for name, parent, start, end in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            total += end - start
    return total


def outcome_intervals(spans):
    """Per-outcome wall times inside each distill_sweep span.

    A sweep computes one log-negativity per outcome (plus one for its
    input), so the spacing between the ends of its successive
    log_negativity calls is the span of one outcome.
    """
    ends = {}
    for name, parent, start, end in spans:
        if name == "monotones.log_negativity" and parent >= 0:
            if spans[parent][0] == "distill.distill_sweep":
                ends.setdefault(parent, []).append(end)
    out = []
    for marks in ends.values():
        marks.sort()
        out.extend(b - a for a, b in zip(marks, marks[1:]))
    return out


def tail_value(values):
    """Highest order statistic with at least ten samples beyond it.

    Returns (value, percentile); with ten or fewer samples it is the
    maximum, reported as the 100th percentile.
    """
    if not values:
        return 0.0, 100.0
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# per-layer metric -> (unit, kind, argument); time metrics are per task
LAYER_METRICS = {
    "distill.conditional_self_s": ("s", "self_of", {"distill.distill_sweep"}),
    "distill.blur_gflop": ("GFLOP", "count", "distill.blur_gflop"),
    "distill.outcome_s_p50": ("s", "outcome_p50", None),
    "distill.outcome_s_tail": ("s", "outcome_tail", None),
    "distill.select_window_s": ("s", "covered", {"distill.select_window"}),
    "distill.window_pairs": ("count", "count", "distill.window_pairs"),
    "distill.degenerate_outcomes": ("count", "count", "distill.degenerate_outcomes"),
    "states.cubic_wigner_s": ("s", "covered", {"states.cubic_phase_wigner"}),
    "states.cubic_wigner_calls": ("count", "calls", "states.cubic_phase_wigner"),
    "states.generator_s": ("s", "covered", GENERATORS),
    "special.airy_s": ("s", "covered", {"special.airy_ai", "special.airy_ai_scaled"}),
    "special.airy_points": ("count", "count", "special.airy_points"),
    "monotones.log_negativity_s": ("s", "covered", {"monotones.log_negativity"}),
    "monotones.log_negativity_calls": ("count", "calls", "monotones.log_negativity"),
    "monotones.fidelity_s": ("s", "covered", {"monotones.fidelity_to_pure"}),
    "monotones.fidelity_calls": ("count", "calls", "monotones.fidelity_to_pure"),
    "monotones.clamp_events": ("count", "count", "monotones.clamp_events"),
    "grids.integrate_s": ("s", "covered", {"grids.integrate_samples"}),
    "grids.integrate_calls": ("count", "calls", "grids.integrate_samples"),
    "grids.field_wrap_s": ("s", "self_of", {"grids.field_from_samples"}),
    "grids.csv_write_s": ("s", "covered", {"grids.write_field_csv"}),
    "grids.csv_write_mb": ("MB", "count", "grids.csv_write_mb"),
    "grids.csv_read_s": ("s", "covered", {"grids.read_field_csv"}),
    "grids.wavefunction_wigner_s": ("s", "covered", {"grids.wigner_from_wavefunction"}),
    "grids.marginal_s": ("s", "covered", {"grids.marginal_over"}),
    "fock.wigner_from_fock_s": ("s", "covered", {"fock.wigner_from_fock"}),
    "symplectic.apply_s": ("s", "covered", {"symplectic.apply_symplectic"}),
    "symplectic.points_resampled": ("count", "count", "symplectic.points_resampled"),
    "symplectic.corner_gathers": ("count", "count", "symplectic.corner_gathers"),
    "symplectic.bytes_moved_mb": ("MB", "count", "symplectic.bytes_moved_mb"),
    "symplectic.condition_s": ("s", "covered", {"symplectic.condition_on_homodyne"}),
    "cli.self_s": ("s", "layer_self", "cli"),
}


def layer_metrics(spans, tasks, count_spans, counts, count_tasks):
    """Per-layer metrics per traced task, keyed as in LAYER_METRICS.

    Times come from `spans` over `tasks` tasks; counts and call counts from
    `count_spans` and `counts` over `count_tasks` tasks.
    """
    selfs = _self_times(spans)
    outcomes = outcome_intervals(spans)
    calls = Counter(span[0] for span in count_spans)
    out = {}
    for metric, (unit, kind, arg) in LAYER_METRICS.items():
        if kind == "count":
            value = counts[arg] / count_tasks
        elif kind == "calls":
            value = calls[arg] / count_tasks
        elif kind == "covered":
            value = _covered(spans, arg) / tasks
        elif kind == "self_of":
            value = sum(s for s, span in zip(selfs, spans) if span[0] in arg) / tasks
        elif kind == "layer_self":
            prefix = arg + "."
            value = (
                sum(s for s, span in zip(selfs, spans) if span[0].startswith(prefix))
                / tasks
            )
        elif kind == "outcome_p50":
            value = statistics.median(outcomes) if outcomes else 0.0
        else:
            value = tail_value(outcomes)[0]
        out[metric] = (value, unit)
    return out


def function_table(spans, tasks):
    """(name, calls, inclusive s, self s) per traced function, per task."""
    selfs = _self_times(spans)
    rows = {}
    for (name, _, start, end), own in zip(spans, selfs):
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return sorted(
        ((name, c / tasks, inc / tasks, own / tasks) for name, (c, inc, own) in rows.items()),
        key=lambda r: -r[3],
    )
