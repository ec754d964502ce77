"""Per-system memoization of decision-pair factories.

``DecisionPair`` evaluation caches key on ``pair.token`` — a process-wide
counter, not content (two pairs with identical sets get *distinct* tokens
on purpose, see ``tests/test_decision_sets.py``).  Rebuilding a pair
therefore never shares evaluation caches with the first build.  That
matters whenever one process asks for the same pair twice: experiments
that share a construction over one system (E5, E7, E8, E18 and E21
all derive the ``F^Λ`` sequence), the ``explain`` catalog entries that
rebuild an experiment's formulas over the same resident system, and the
query daemon re-answering those entries — each must hit the
``C□_{N∧Z}`` component labellings and ``B_i^N`` verdicts already cached
under the first build's tokens.  The canonical factories therefore
memoize per system — the same ``(factory, system)`` always returns the
*same* pair objects, tokens included.

Memoization is by system identity in a :class:`weakref.WeakKeyDictionary`;
systems already anchor every evaluation cache, and dropping the last
reference to one drops its pairs with it.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Tuple
from weakref import WeakKeyDictionary

_MEMO: "WeakKeyDictionary[Any, Dict[Tuple, Any]]" = WeakKeyDictionary()


def per_system(factory: Callable) -> Callable:
    """Memoize ``factory(system, *args, **kwargs)`` by system identity.

    The wrapped factory must be deterministic for fixed arguments (every
    pair construction here is — they evaluate formulas over an immutable
    enumerated system).  Extra positional/keyword arguments participate
    in the memo key and must be hashable.
    """

    @functools.wraps(factory)
    def wrapped(system, *args, **kwargs):
        try:
            cells = _MEMO.setdefault(system, {})
        except TypeError:  # unhashable/weakref-less stand-in (tests)
            return factory(system, *args, **kwargs)
        key = (
            factory.__module__,
            factory.__qualname__,
            args,
            tuple(sorted(kwargs.items())),
        )
        try:
            return cells[key]
        except KeyError:
            cells[key] = factory(system, *args, **kwargs)
            return cells[key]

    return wrapped
