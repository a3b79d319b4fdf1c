"""Wall-clock seconds per stage of one command, readable in process.

``modlab.cli.main`` calls ``reset`` when it starts; the code it runs books
its time to these stages:

  parse      argument and config parsing in ``main``
  model      ``SidebandModel`` construction
  singles    ``correlator.singles_rate``
  trace      ``SidebandModel.evaluate``, the closed-form trace
  full_tier  ``correlator.coincidence_full``
  fit        ``scenario.fit_scale``
  emit       ``cli.emit_trace``: formatting and writing the CSV and .meta

A stage is booked its self time: the time of a stage entered inside it goes
to that inner stage, so ``model`` excludes the two singles rates it
integrates and ``emit`` the trace chunks it evaluates, and the times add up
to the timed part of the command. ``seconds()`` returns the record after
``main`` returns; a stage that did not run is absent. The record is the
process's: library calls outside ``main`` add to it too, and stages run by
concurrent threads are not told apart. ``emit_trace`` forks a helper for
a trace of two or more chunks on a host with two or more CPUs: the chunks
the helper evaluates are booked in the helper, which exits without
reporting them, so ``trace`` holds only the chunks of the calling process,
and ``emit`` is the calling process's wall time in the call, its waits for
the helper included. Nothing here reaches the CSV or ``.meta`` files.

Only ``time`` is imported, so importing this module costs no start-up time.
"""

import time

STAGES = ("parse", "model", "singles", "trace", "full_tier", "fit", "emit")

_nanoseconds = {}
_open = []     # the stages entered and not yet left, innermost last


class stage:
    """Context manager booking the time of its block to stage ``name``."""

    __slots__ = ("name", "_start", "_inner")

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self._inner = 0
        _open.append(self)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        elapsed = time.perf_counter_ns() - self._start
        _open.pop()
        if _open:
            _open[-1]._inner += elapsed
        # integer nanoseconds, so self time is exact and never negative
        _nanoseconds[self.name] = _nanoseconds.get(self.name, 0) + elapsed - self._inner
        return False


def timed(name):
    """Decorator: book every call of the function to stage ``name``.

    The wrapper keeps the function's name and docstring, and its
    ``__wrapped__`` lets ``inspect.signature`` report the function's own
    parameters.
    """
    def decorate(fn):
        def timed_fn(*args, **kwargs):
            with stage(name):
                return fn(*args, **kwargs)
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(timed_fn, attr, getattr(fn, attr))
        timed_fn.__wrapped__ = fn
        return timed_fn
    return decorate


def reset():
    """Start a new record."""
    _nanoseconds.clear()


def seconds():
    """The record: stage name to seconds, for the stages that ran."""
    return {name: ns * 1e-9 for name, ns in _nanoseconds.items()}
