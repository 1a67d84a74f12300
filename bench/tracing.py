"""Spans around the benchmark's calls into chasebench, kept in memory.

A span records its site name, start and end (perf_counter_ns), the index of
its parent span and the instance id.  The benchmark opens one `instance`
span per instance and one child span per call into a chasebench function,
so the instance span's self time is the benchmark's own work (checks and
orchestration) and each call span's self time is the layer's.

`NullTracer` has the same interface and records nothing; untraced runs use
it so the end-to-end metrics carry no tracing cost.
"""
from __future__ import annotations

import statistics
from time import perf_counter_ns

INSTANCE = "instance"


class NullTracer:
    enabled = False

    def begin_instance(self, instance: int) -> None:
        pass

    def end_instance(self) -> None:
        pass

    def call(self, site: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # each span is [name, start_ns, end_ns, parent_index, instance]
        self.spans: list[list] = []
        self._open = -1
        self._instance = -1

    def begin_instance(self, instance: int) -> None:
        self._instance = instance
        self._open = len(self.spans)
        self.spans.append([INSTANCE, perf_counter_ns(), 0, -1, instance])

    def end_instance(self) -> None:
        self.spans[self._open][2] = perf_counter_ns()
        self._open = -1

    def call(self, site: str, fn, *args, **kwargs):
        span = [site, 0, 0, self._open, self._instance]
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()


def self_times_ns(spans: list[list]) -> list[int]:
    """Duration of each span minus the time its child spans cover.

    Children run sequentially inside their parent (one thread), so the
    covered time is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def site_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per site: call count, total self time (s) and median self time (us)."""
    by_site: dict[str, list[int]] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        by_site.setdefault(span[0], []).append(own)
    return {
        site: {
            "calls": len(times),
            "self_s": sum(times) / 1e9,
            "p50_us": statistics.median(times) / 1e3,
        }
        for site, times in by_site.items()
    }


def write_spans(path, spans: list[list]) -> None:
    """One CSV row per span: name,start_ns,end_ns,parent,instance."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("name,start_ns,end_ns,parent,instance\n")
        fh.writelines(f"{n},{s},{e},{p},{i}\n" for n, s, e, p, i in spans)
