"""Span recorder that wraps regretlab's public functions from the outside.

The library is not modified. `install` replaces each function at the name its
callers resolve it through (a module attribute or a class attribute) with a
wrapper that records a span around the call, and `uninstall` puts the
originals back. Spans nest by call stack: each closed span adds its duration
to its parent's child coverage, so a span's self time is its duration minus
the part its children cover. Spans are aggregated per name in memory while the
workload runs (count, total, self, and per-call durations where asked) and
written out once at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter


class SpanStats:
    __slots__ = ("count", "total", "self_time", "durations")

    def __init__(self, keep_durations: bool):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = array("d") if keep_durations else None


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.switch_rounds: list[int] = []
        self._open: list[list[float]] = []  # child coverage of each open span
        self._ldim_depth = 0
        self._ldim_seen: dict[int, set[int]] = {}

    def _stats(self, name: str, keep_durations: bool = False) -> SpanStats:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats(keep_durations)
        return stats

    def wrap(self, name, fn, keep_durations: bool = False):
        """Return `fn` wrapped in a span; `name` may be a function of the call's args."""
        open_spans = self._open
        clock = self.clock
        fixed = None if callable(name) else self._stats(name, keep_durations)

        def traced(*args, **kwargs):
            covered = [0.0]
            open_spans.append(covered)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                stats = fixed or self._stats(name(*args), keep_durations)
                stats.count += 1
                stats.total += duration
                stats.self_time += duration - covered[0]
                if stats.durations is not None:
                    stats.durations.append(duration)

        return traced

    def write(self) -> dict:
        """The aggregated spans and counters as a JSON-ready dict."""
        return {
            "spans": {
                name: {"count": s.count, "total_s": s.total, "self_s": s.self_time}
                for name, s in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def install(tracer: Tracer):
    """Wrap the library's layer boundaries; returns the `uninstall` callable."""
    import regretlab.cli as cli
    import regretlab.experiments as experiments
    import regretlab.learners as learners
    import regretlab.sequences as sequences
    from regretlab.learners import Sampled

    # `regretlab.ldim` as a package attribute is the function `ldim`, not the module.
    LdimComputer = sys.modules["regretlab.ldim"].LdimComputer
    PermutationStream = sequences.PermutationStream
    counts = tracer.counts
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    run_span = tracer.wrap(
        lambda config, *rest: f"learners.run.{config.kind}",
        experiments.run,
        keep_durations=True,
    )

    def run(config, cls, seq, mode=learners.ANALYTIC, collect_rounds=True):
        trace = run_span(config, cls, seq, mode, collect_rounds)
        rounds = len(seq)
        counts["learners.rounds"] += rounds
        counts["learners.randomized_rounds"] += trace.randomized_rounds
        if isinstance(mode, Sampled):
            counts["learners.sampled_draws"] += mode.trials * rounds
        if trace.switch_round is not None:
            tracer.switch_rounds.append(trace.switch_round)
        return trace

    patch(experiments, "run", run)
    for owner in (experiments, cli):
        patch(owner, "evaluate", tracer.wrap("experiments.evaluate", owner.evaluate))
        patch(owner, "emit_report", tracer.wrap("experiments.emit_report", owner.emit_report))
        patch(
            owner,
            "make_case_inputs",
            tracer.wrap("sequences.make_case_inputs", owner.make_case_inputs),
        )
    patch(experiments, "mistake_profile", tracer.wrap("hypotheses.mistake_profile", experiments.mistake_profile))
    patch(experiments, "check_bounds", tracer.wrap("experiments.check_bounds", experiments.check_bounds))
    patch(learners, "restrict", tracer.wrap("hypotheses.restrict", learners.restrict))
    patch(cli, "run_cli", tracer.wrap("cli.run_cli", cli.run_cli))

    orders = PermutationStream.orders
    next_order = tracer.wrap("sequences.orders", next)

    def traced_orders(stream):
        it = orders(stream)
        while True:
            try:
                order = next_order(it)
            except StopIteration:
                return
            counts["sequences.orders"] += 1
            yield order

    patch(PermutationStream, "orders", traced_orders)

    init = LdimComputer.__init__
    value = LdimComputer.value
    top_value = tracer.wrap("ldim.value", value)
    seen = tracer._ldim_seen

    def traced_init(computer, cls):
        init(computer, cls)
        counts["ldim.computers"] += 1
        seen[id(computer)] = set()

    def traced_value(computer, mask):
        counts["ldim.calls"] += 1
        masks = seen.setdefault(id(computer), set())
        if mask in masks:
            counts["ldim.hits"] += 1
        else:
            masks.add(mask)
        if tracer._ldim_depth:  # recursive call: counted, but inside the outermost span
            return value(computer, mask)
        tracer._ldim_depth += 1
        try:
            return top_value(computer, mask)
        finally:
            tracer._ldim_depth -= 1

    patch(LdimComputer, "__init__", traced_init)
    patch(LdimComputer, "value", traced_value)

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return uninstall


LEARNER_KINDS = ("wm", "wm_halving", "wm_soa", "soa")  # the kinds the workloads run


def layer_metrics(tracer: Tracer, report_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `report_s` seconds."""
    spans, counts = tracer.spans, tracer.counts

    def calls(name):
        return spans[name].count if name in spans else 0

    def total(name):
        return spans[name].total if name in spans else 0.0

    def self_time(name):
        return spans[name].self_time if name in spans else 0.0

    runs = [f"learners.run.{kind}" for kind in LEARNER_KINDS]
    durations = sorted(d for name in runs if name in spans for d in spans[name].durations)
    run_self = sum(self_time(name) for name in runs)
    rounds = counts["learners.rounds"]
    ldim_calls = counts["ldim.calls"]
    switches = tracer.switch_rounds
    metrics = {
        "learners.run_calls": sum(calls(name) for name in runs),
        "learners.rounds": rounds,
        "learners.run_self_s": run_self,
        **{f"learners.run_self_s.{kind}": self_time(f"learners.run.{kind}") for kind in LEARNER_KINDS},
        "learners.round_us": run_self / rounds * 1e6 if rounds else 0.0,
        "learners.run_ms.p50": percentile(durations, 50) * 1e3,
        "learners.run_ms.p99": percentile(durations, 99) * 1e3,
        "learners.randomized_rounds": counts["learners.randomized_rounds"],
        "learners.sampled_draws": counts["learners.sampled_draws"],
        "learners.switch_round.mean": sum(switches) / len(switches) if switches else 0.0,
        "hypotheses.restrict_calls": calls("hypotheses.restrict"),
        "hypotheses.restrict_s": total("hypotheses.restrict"),
        "hypotheses.mistake_profile_s": total("hypotheses.mistake_profile"),
        "ldim.computers": counts["ldim.computers"],
        "ldim.top_calls": calls("ldim.value"),
        "ldim.value_s": total("ldim.value"),
        "ldim.calls": ldim_calls,
        "ldim.states": ldim_calls - counts["ldim.hits"],
        "ldim.hit_ratio": counts["ldim.hits"] / ldim_calls if ldim_calls else 0.0,
        "sequences.make_case_inputs_calls": calls("sequences.make_case_inputs"),
        "sequences.make_case_inputs_s": total("sequences.make_case_inputs"),
        "sequences.orders": counts["sequences.orders"],
        "sequences.orders_s": total("sequences.orders"),
        "experiments.evaluate_self_s": self_time("experiments.evaluate"),
        "experiments.bounds_s": total("experiments.check_bounds"),
        "experiments.emit_s": total("experiments.emit_report"),
        "cli.run_cli_self_s": self_time("cli.run_cli"),
        "trace.coverage_frac": sum(s.self_time for s in spans.values()) / report_s,
    }
    return metrics


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil(n q / 100)
    return sorted_values[int(rank) - 1]
