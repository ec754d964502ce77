"""Pausing the cyclic garbage collector around bulk acyclic allocation."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic collector for the block.

    For code that allocates hundreds of thousands of acyclic objects
    (tuples, hashable states, dicts and lists of them): the collector
    has nothing to find there, and its passes over them would cost as
    much as the work.  Blocks nest, and the collector's prior state is
    restored on exit, exceptions included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
