"""Span recording around the package's public functions, from outside the package.

``install`` replaces each traced function in every namespace it is looked up
from (``cli.load_codebook``, ``estimation.substream``, ``FadingSpec.sample``
...) by a wrapper that records one span per call: name, start, end, thread,
parent span and a few counts taken from the arguments and the result.  A span
opened on a worker thread with no open span of its own takes the innermost
open span of the main thread as its parent, so the estimator's pool work nests
under the estimate that started it.  ``layer_metrics`` turns the spans into
the per-layer metrics; self time is a span's duration minus the union of its
children's intervals.
"""

import importlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        """Wrapper of fn recording a span per call, with counter's counts if given."""

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(pos, name):
    return lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, pos, name))}


# (span name, counter, namespaces the function is looked up from)
_TRACED = (
    ("cli.main", None, ("cli",)),
    ("geometry.generate_saturated_packing", lambda a, k, r: {"accepted": r.count},
     ("geometry", "codec")),
    ("geometry.sample_in_ball", lambda a, k, r: {"size": len(r)}, ("geometry",)),
    ("geometry.min_pairwise_distance", None, ("geometry", "codec", "analysis")),
    ("geometry.estimate_packing_density",
     lambda a, k, r: {"samples": _arg(a, k, 1, "samples")}, ("geometry",)),
    ("codec.codebook_to_text", None, ("codec",)),
    ("codec.save_codebook", _file_bytes(1, "path"), ("codec", "cli")),
    ("codec.load_codebook", _file_bytes(0, "path"), ("codec", "cli")),
    ("channel.FadingSpec.sample", lambda a, k, r: {"size": len(r)}, ()),
    ("seeding.substream", lambda a, k, r: {"noise": int(_arg(a, k, 1, "label") == "noise")},
     ("estimation", "cli", "geometry", "channel")),
    ("estimation.estimate_type1", lambda a, k, r: {"decisions": r.trials},
     ("estimation", "cli")),
    ("estimation.estimate_type2", lambda a, k, r: {"decisions": r.trials},
     ("estimation", "cli")),
    ("estimation.estimate_worst_case", None, ("estimation", "cli")),
    ("estimation.near_codeword_experiment", None, ("estimation", "cli")),
)

_PUBLIC = {
    "oracles": ("chi2_cdf", "chi2_sf", "noncentral_chi2_cdf", "noncentral_chi2_sf",
                "reg_gamma_lower", "reg_gamma_upper"),
    "analysis": ("achievable_rate_lower_bound", "converse_rate_upper_bound",
                 "codebook_size_log2_bound", "empirical_rate", "converse_spacing",
                 "dominates", "classify_regime", "log2_scale", "loglog2_scale",
                 "scale_chain", "ri_capacity"),
}


def install(tracer: Tracer) -> None:
    """Patch every traced function of the difading package in place."""
    modules = {
        name: importlib.import_module(f"difading.{name}")
        for name in ("cli", "geometry", "codec", "channel", "seeding", "estimation",
                     "oracles", "analysis")
    }
    for span_name, counter, namespaces in _TRACED:
        home, _, attr = span_name.partition(".")
        if attr == "FadingSpec.sample":
            cls = modules["channel"].FadingSpec
            cls.sample = tracer.wrap(span_name, cls.sample, counter)
            continue
        original = getattr(modules[home], attr)
        wrapper = tracer.wrap(span_name, original, counter)
        for namespace in {home, *namespaces}:
            if getattr(modules[namespace], attr, None) is original:
                setattr(modules[namespace], attr, wrapper)
    for home, names in _PUBLIC.items():
        for attr in names:
            setattr(modules[home], attr, tracer.wrap(f"{home}.{attr}",
                                                     getattr(modules[home], attr)))


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced run (times in seconds)."""
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def dur(group):
        return sum(s.end - s.start for s in group)

    def self_time(group):
        total = 0.0
        for s in group:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
            total += (s.end - s.start) - _union_length([iv for iv in kids if iv[1] > iv[0]])
        return total

    def count(group, key):
        return sum(s.counts.get(key, 0) for s in group)

    def outermost(prefix):
        return [s for s in spans if s.name.startswith(prefix)
                and not (s.parent in by_id and by_id[s.parent].name.startswith(prefix))]

    def ratio(num, den):
        return num / den if den else 0.0

    packing = named("geometry.generate_saturated_packing")
    packing_ids = {s.id for s in packing}
    samples = [s for s in named("geometry.sample_in_ball") if s.parent in packing_ids]
    candidates = count(samples, "size")
    accepted = count(packing, "accepted")
    mindist = named("geometry.min_pairwise_distance")
    density = named("geometry.estimate_packing_density")
    saves = named("codec.save_codebook")
    loads = named("codec.load_codebook")
    gains = named("channel.FadingSpec.sample")
    streams = named("seeding.substream")
    noise_streams = count(streams, "noise")
    estimates = named("estimation.estimate_type1") + named("estimation.estimate_type2")
    decisions = count(estimates, "decisions")
    oracle_spans = outermost("oracles.")
    analysis_spans = outermost("analysis.")
    return {
        "geometry.reject_test_s": self_time(packing),
        "geometry.sample_s": dur(samples),
        "geometry.candidates": candidates,
        "geometry.accepted": accepted,
        "geometry.accept_ratio": ratio(accepted, candidates),
        "geometry.min_distance_calls": len(mindist),
        "geometry.min_distance_s": dur(mindist),
        "geometry.density_s": dur(density),
        "geometry.density_samples": count(density, "samples"),
        "codec.save_s": dur(saves),
        "codec.save_bytes": count(saves, "bytes"),
        "codec.save_mb_per_s": ratio(count(saves, "bytes") / 1e6, dur(saves)),
        "codec.to_text_self_s": self_time(named("codec.codebook_to_text")),
        "codec.load_s": dur(loads),
        "codec.load_mb_per_s": ratio(count(loads, "bytes") / 1e6, dur(loads)),
        "channel.sample_calls": len(gains),
        "channel.gains_drawn": count(gains, "size"),
        "channel.sample_s": dur(gains),
        "seeding.substream_calls": len(streams),
        "seeding.noise_streams": noise_streams,
        "seeding.substream_s": dur(streams),
        "estimation.noise_streams_per_kdecision": ratio(1000.0 * noise_streams, decisions),
        "estimation.decisions": decisions,
        "estimation.estimate_s": dur(outermost("estimation.")),
        "estimation.kernel_self_s": self_time(estimates),
        "estimation.near_codeword_s": dur(named("estimation.near_codeword_experiment")),
        "oracles.calls": len(oracle_spans),
        "oracles.busy_s": dur(oracle_spans),
        "analysis.calls": len(analysis_spans),
        "analysis.busy_s": dur(analysis_spans),
        "cli.self_s": self_time(named("cli.main")),
    }
