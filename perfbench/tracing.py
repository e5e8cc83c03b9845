"""Spans recorded from outside the program, around calls into its layers.

A traced run replaces the module-level names the piv layers call each other
through with wrappers that time each call.  Spans stay in memory as lists
``[name, start, end, parent, op, leaf_calls, leaf_s, cells]`` and are written
out when the run ends.  Calls to the point evaluator ``piv()`` are far too
many to keep one span each; a "leaf" wrapper adds their count and time to the
span that made them instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, LEAF_CALLS, LEAF_S, CELLS = range(8)

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.op, 0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, *, leaf: bool = False) -> None:
        """Replace owner.attr by a timing wrapper until restore() is called.

        Leaf calls are folded into the enclosing span.  A call made while a
        span of the same name is open (recursion, or two names for one
        function) runs unwrapped, so it is timed once.
        """
        original = getattr(owner, attr)
        tracer = self

        if leaf:
            def wrapper(*args, **kwargs):
                if not tracer.enabled or not tracer._stack:
                    return original(*args, **kwargs)
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    record = tracer.spans[tracer._stack[-1]]
                    record[LEAF_CALLS] += 1
                    record[LEAF_S] += perf_counter() - start
        else:
            def wrapper(*args, **kwargs):
                stack = tracer._stack
                if not tracer.enabled or (stack and tracer.spans[stack[-1]][NAME] == name):
                    return original(*args, **kwargs)
                with tracer.span(name) as record:
                    result = original(*args, **kwargs)
                    grid = getattr(result, "piv", None)
                    if isinstance(grid, tuple):  # a ContourGrid: record its cell count
                        record[CELLS] = len(grid) * (len(grid[0]) if grid else 0)
                    return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap the names through which the layers call each other."""
    import piv.bounds as bounds
    import piv.cli as cli
    import piv.core as core
    import piv.oracle as oracle

    tracer.wrap(core, "piv", "core.piv", leaf=True)
    for owner in (cli, bounds):
        tracer.wrap(owner, "bound_piv", "bounds.bound_piv")
        tracer.wrap(owner, "evaluate_grid", "bounds.evaluate_grid")
        tracer.wrap(owner, "robustness_verdict", "bounds.robustness_verdict")
        tracer.wrap(owner, "piv", "core.piv", leaf=True)
    tracer.wrap(bounds.ContourGrid, "to_csv_text", "bounds.to_csv_text")
    tracer.wrap(bounds.ContourGrid, "to_json_object", "bounds.to_json_object")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "render_json", "cli.render_json")
    for name in oracle.__all__:
        value = getattr(oracle, name)
        if callable(value) and not isinstance(value, type):
            tracer.wrap(oracle, name, f"oracle.{name}")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus what its child spans and leaf calls cover."""
    own = [s[END] - s[START] - s[LEAF_S] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own
