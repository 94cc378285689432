"""Layer timing from outside the program.

A :class:`LayerTracer` replaces public functions of ``repro`` with
timing wrappers and puts every original back when it exits. Nothing in
``src/`` knows it is being measured. A wrapper that is switched off
costs one attribute test (``tracer.on``) before it calls the original,
so the tracer can stay installed while untraced phases run.
"""

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Probe:
    """Time, calls and named counts accumulated by one wrapper."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()

    def add(self, seconds: float, counts: Optional[Dict[str, float]]) -> None:
        """Record one call; safe to call from several threads."""
        with self._lock:
            self.seconds += seconds
            self.calls += 1
            if counts:
                for key, value in counts.items():
                    self.counts[key] = self.counts.get(key, 0.0) + value

    def ms(self) -> float:
        """Accumulated time in milliseconds."""
        return self.seconds * 1e3

    def count(self, key: str) -> float:
        """An accumulated named count (0.0 when never recorded)."""
        return self.counts.get(key, 0.0)


class LayerTracer:
    """Patch public functions with timing wrappers; restore them on exit.

    Use as a context manager::

        with LayerTracer() as tracer:
            tracer.wrap(ImagePyramid, "levels", "pyramid")
            tracer.on = True
            ...
        # every patched attribute is the original object again

    Only attributes defined directly on ``owner`` (a class or a module)
    can be wrapped, so restoring is always a plain ``setattr``. Where a
    caller uses a name it imported, wrap the name in the caller's
    module, not the defining one.
    """

    def __init__(self) -> None:
        self.on = False
        self.probes: Dict[str, Probe] = {}
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        counts: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> Probe:
        """Replace ``owner.attr`` with a wrapper feeding probe ``name``.

        Args:
            owner: class or module that defines ``attr`` itself.
            attr: attribute holding a plain function.
            name: probe name; must be new to this tracer.
            counts: optional ``(*args, **kwargs) -> {key: n}`` called
                with the wrapped call's arguments while tracing is on.

        Returns:
            The probe the wrapper feeds.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        if name in self.probes:
            raise ValueError(f"probe {name!r} already exists")
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        probe = Probe(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return original(*args, **kwargs)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                probe.add(
                    time.perf_counter() - started,
                    counts(*args, **kwargs) if counts is not None else None,
                )

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self.probes[name] = probe
        return probe

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        self.on = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    def __getitem__(self, name: str) -> Probe:
        return self.probes[name]
