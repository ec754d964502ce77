"""The daemon's query engine: resident systems, budgets, inline-vs-fork.

:class:`QueryEngine` is the layer between the wire protocol and the
knowledge machinery.  The server calls it on each connection's thread,
tests call it directly, and ``repro-eba query`` falls back to it when
no daemon is up, so served and in-process answers are *the same code
path*, which is what makes the verdict-parity suite meaningful.

A request is resolved once (its cell, and its formula built).  Its
cell's point count — ``2**n`` times
:func:`~repro.model.fastbuild.pattern_count` times ``horizon + 1`` — is
checked against the budget before the cell is placed, forked or built:

* **inline** — the cell is resident (provider memory LRU, or a
  current-version disk file that loads in milliseconds); the query runs
  on the calling thread against the hot
  :class:`~repro.model.provider.SystemProvider`.
* **fork** — the cell would need a fresh (doubly-exponential)
  enumeration, so the query runs in the supervised fork-pool of
  :mod:`repro.exec` (one ``serve.query`` shard, zero retries), whose
  per-shard timeout *is* the wall-time budget: a build that exceeds it
  is SIGKILLed and the client gets ``budget_exceeded``.  The child
  resolves the request again and writes the finished cell to the shared
  disk cache, so the *next* query for that cell is inline.
"""

from __future__ import annotations

import functools
import hashlib
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .. import obs
from ..errors import ReproError, ShardExecutionError
from ..model.adversary import exhaustive_adversary
from ..model.failures import FailureMode
from ..model.fastbuild import pattern_count
from ..model.provider import SystemProvider, get_provider
from .protocol import ProtocolError, build_formula, validate_params
from .queue import BudgetExceeded, QueryBudget

__all__ = ["QueryEngine", "verdict_digest"]

#: Ops the engine executes (stats/healthz are assembled by the server).
ENGINE_OPS = ("eval", "explain", "extend", "monitor", "debug_sleep")


@functools.lru_cache(maxsize=1)
def _chunk_tables():
    """``(texts, offsets)``: the JSON bytes of every chunk of a row.

    A chunk is up to 8 consecutive points of a row, coded as the integer
    whose bit ``j`` is its ``j``-th point; ``texts[offsets[part, size] +
    code]`` renders it.  A row's first chunk opens the row and its last
    closes it with the comma before the next row; every other chunk
    ends with the comma before its next point.
    """
    texts: List[bytes] = []
    offsets: Dict[tuple, int] = {}
    for part, opening, closing in (
        ("only", "[", "],"),
        ("first", "[", ","),
        ("middle", "", ","),
        ("last", "", "],"),
    ):
        for size in range(1, 9):
            offsets[part, size] = len(texts)
            for code in range(1 << size):
                points = ",".join(
                    ("false", "true")[code >> j & 1] for j in range(size)
                )
                texts.append(f"{opening}{points}{closing}".encode())
    return np.array(texts, dtype=object), offsets


def verdict_digest(truth) -> str:
    """Canonical SHA-256 of a truth assignment's full point-by-point rows.

    The hashed bytes are the compact JSON of the rows, ``[[true,false,
    ...],...]``: runs in run order, times ``0..horizon``, no spaces.  The
    parity suite compares this digest between served and in-process
    evaluation — byte-identical rows, not just matching validity bits.

    The bytes are rendered from the packed bits: each row is cut into
    chunks of 8 points, and each chunk's text is looked up in
    :func:`_chunk_tables` by its part of the row, its size and its bits.
    """
    bits = truth.bits()
    runs, width = bits.shape
    chunks = -(-width // 8)
    padded = np.zeros((runs, 8 * chunks), dtype=bool)
    padded[:, :width] = bits
    codes = np.packbits(padded.reshape(-1), bitorder="little")
    texts, offsets = _chunk_tables()
    last = width - 8 * (chunks - 1)
    parts = [("first", 8)] + [("middle", 8)] * (chunks - 2) + [("last", last)]
    if chunks == 1:
        parts = [("only", last)]
    lookup = codes.reshape(runs, chunks) + [offsets[part] for part in parts]
    blob = b"".join(texts[lookup].ravel().tolist())
    digest = hashlib.sha256(b"[")
    digest.update(memoryview(blob)[:-1])  # the last row's trailing comma
    digest.update(b"]")
    return digest.hexdigest()


def _failure_mode(name: Any) -> FailureMode:
    try:
        return FailureMode(name)
    except ValueError:
        known = ", ".join(mode.value for mode in FailureMode)
        raise ProtocolError(
            f"unknown failure mode {name!r}; known modes: {known}"
        ) from None


def _check_cell(n: int, t: int, horizon: int) -> None:
    """Reject cells no adversary can enumerate, before any build."""
    if n < 2 or not 0 <= t < n or horizon < 1:
        raise ProtocolError(
            f"need n >= 2, 0 <= t < n and horizon >= 1; "
            f"got n={n}, t={t}, horizon={horizon}"
        )


def _check_point(system, point: tuple) -> None:
    """A point outside *system* is ``not_found``, like a missing run."""
    run_index, when = point
    if not (0 <= run_index < len(system.runs) and 0 <= when <= system.horizon):
        raise KeyError(
            f"point {point} outside system "
            f"({len(system.runs)} runs, horizon {system.horizon})"
        )


def _point(params: Dict[str, Any]) -> Optional[tuple]:
    raw = params.get("point")
    if raw is None:
        return None
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in raw)
    ):
        raise ProtocolError(
            f"'point' must be [run, time], got {raw!r}"
        )
    return (raw[0], raw[1])


def _catalog_entry(spec: Dict[str, Any]):
    from ..knowledge.explain import EXPLAIN_CATALOG

    experiment = spec.get("experiment")
    key = spec.get("formula")
    entries = EXPLAIN_CATALOG.get(experiment)
    if entries is None:
        raise KeyError(
            f"no explainable formulas for experiment {experiment!r}; "
            f"available: {', '.join(EXPLAIN_CATALOG)}"
        )
    entry = entries.get(key)
    if entry is None:
        raise KeyError(
            f"unknown formula {key!r} for {experiment}; "
            f"available: {', '.join(entries)}"
        )
    return entry


class _Request(NamedTuple):
    """A request's cell, and for ``eval``/``explain`` its formula as a
    ``system -> formula`` builder."""

    mode: FailureMode
    n: int
    t: int
    horizon: int
    build: Optional[Callable[[Any], Any]] = None
    description: str = ""


def _resolve_request(op: str, params: Dict[str, Any]) -> _Request:
    """The cell and formula an ``eval``, ``explain`` or ``extend`` names.

    An ``eval`` names either a ``catalog`` entry (mode/n/t default from
    the entry; an ``explain`` always does) or an explicit cell with a
    ``formula`` AST.  Raises :class:`ProtocolError` or :class:`KeyError`
    for what the request gets wrong, before anything is built.
    """
    if op == "extend":
        mode = _failure_mode(params["mode"])
        n, t, horizon = params["n"], params["t"], params["horizon"]
        _check_cell(n, t, horizon)
        return _Request(mode, n, t, horizon)
    catalog = params.get("catalog")
    entry = None if catalog is None else _catalog_entry(catalog)
    if entry is None and params.get("formula") is None:
        raise ProtocolError("eval needs either 'formula' or 'catalog'")
    mode = _failure_mode(params.get("mode", entry.mode if entry else "crash"))
    n, t = params.get("n", 3), params.get("t", 1)
    horizon = params.get("horizon", t + 2)
    _check_cell(n, t, horizon)
    if entry is not None:
        return _Request(
            mode, n, t, horizon, entry.build,
            f"{catalog.get('experiment')}/{catalog.get('formula')}",
        )
    formula = build_formula(params["formula"], n)
    return _Request(
        mode, n, t, horizon, lambda _system: formula, repr(formula)
    )


def _check_points(
    budget: QueryBudget, mode, n: int, t: int, horizon: int, descriptor=None
) -> None:
    """Reject a cell over the point budget before anything builds it:
    ``2**n`` configurations times the exhaustive adversary's patterns,
    ``horizon + 1`` points per run.

    The exact count's big-int arithmetic grows with the numbers a client
    sends, so a power of two below it is checked first: every cell has
    ``2**n * (horizon + 1)`` points or more, and with ``t >= 1`` an
    omission-family cell ``2**((n - 1) * horizon)`` patterns or more.
    """
    exhaustive_adversary(mode, n, t, horizon)  # fails as a build would
    cell = f"{mode.value} n={n} t={t} h={horizon}"
    floor = n + (horizon + 1).bit_length() - 1
    if t and mode is not FailureMode.CRASH:
        floor += (n - 1) * horizon
    if floor >= budget.max_points.bit_length():
        raise BudgetExceeded(
            "max_points",
            f"{descriptor or cell} has at least 2**{floor} points, over "
            f"the {budget.max_points}-point budget",
        )
    runs = (1 << n) * pattern_count(mode, n, t, horizon)
    budget.check_points(
        runs * (horizon + 1), descriptor or f"{cell} runs={runs}"
    )


def _execute_eval(
    provider: SystemProvider, params: Dict[str, Any], request: _Request
) -> Dict[str, Any]:
    """The eval body shared verbatim by the inline and forked paths."""
    started = time.perf_counter()
    system = provider.get(*request[:4])
    truth = request.build(system).evaluate(system)
    point = _point(params)
    result: Dict[str, Any] = {
        "system": _summary(system, request),
        "formula": request.description,
        "count_true": truth.count_true(),
        "valid": bool(truth.is_valid()),
        "digest": verdict_digest(truth),
        "seconds": round(time.perf_counter() - started, 6),
    }
    if point is not None:
        _check_point(system, point)
        run_index, when = point
        result["point"] = list(point)
        result["holds"] = bool(truth.at(run_index, when))
    return result


def _execute_explain(
    provider: SystemProvider, params: Dict[str, Any], request: _Request
) -> Dict[str, Any]:
    from ..knowledge.explain import default_point, explain, render_explanation

    started = time.perf_counter()
    system = provider.get(*request[:4])
    formula = request.build(system)
    point = _point(params)
    if point is None:
        point = default_point(system, formula)
    else:
        _check_point(system, point)
    explanation = explain(system, formula, point)
    problems = explanation.check(system)
    return {
        "explanation": explanation.to_dict(),
        "rendered": render_explanation(explanation),
        "check_ok": not problems,
        "problems": problems,
        "seconds": round(time.perf_counter() - started, 6),
    }


def _execute_extend(
    provider: SystemProvider, params: Dict[str, Any], request: _Request
) -> Dict[str, Any]:
    started = time.perf_counter()
    system = provider.get(*request[:4])
    return {
        "system": _summary(system, request),
        "seconds": round(time.perf_counter() - started, 6),
    }


def _summary(system, request: _Request) -> Dict[str, Any]:
    return {
        "mode": request.mode.value,
        "n": request.n,
        "t": request.t,
        "horizon": request.horizon,
        "runs": len(system.runs),
        "points": system.num_points(),
    }


#: The bodies shared verbatim by the inline and forked paths.
_EXECUTORS = {
    "eval": _execute_eval,
    "explain": _execute_explain,
    "extend": _execute_extend,
}


# -- the forked heavy path -----------------------------------------------------

from ..exec.shard import Shard, register_task  # noqa: E402


@register_task("serve.query")
def _task_serve_query(params: Dict[str, Any]) -> Dict[str, Any]:
    """One served query executed inside a supervised fork.

    The child inherited the parent provider's LRU copy-on-write and
    shares its disk cache, so a cold build done here is persisted for
    the parent's next (then inline) query on the same cell.
    """
    op = params["op"]
    body = params["params"]
    try:
        request = _resolve_request(op, body)
        result = _EXECUTORS[op](get_provider(), body, request)
        return {"ok": True, "result": result}
    except ProtocolError as error:
        return {"ok": False, "code": "bad_request", "message": str(error)}
    except KeyError as error:
        return {"ok": False, "code": "not_found", "message": str(error)}


class QueryEngine:
    """Executes validated requests against resident state.

    Args:
        provider: The system provider to keep hot (defaults to the
            process-wide one, which the fork-pool children inherit).
        budget: Per-query limits; defaults resolve from the environment.
        fork_policy: ``"auto"`` forks exactly the queries whose cell is
            not resident; ``"never"`` / ``"always"`` pin the placement
            (tests and benchmarks use the pins).
    """

    def __init__(
        self,
        *,
        provider: Optional[SystemProvider] = None,
        budget: Optional[QueryBudget] = None,
        fork_policy: str = "auto",
    ) -> None:
        if fork_policy not in ("auto", "never", "always"):
            raise ProtocolError(
                f"fork_policy must be auto/never/always, got {fork_policy!r}"
            )
        self.provider = provider if provider is not None else get_provider()
        self.budget = budget if budget is not None else QueryBudget.resolve()
        self.fork_policy = fork_policy
        self._pool = None
        self._fork_serial = 0

    # -- placement ---------------------------------------------------------

    def cell_resident(self, mode: FailureMode, n: int, t: int, horizon: int) -> bool:
        """Whether a query on this cell can run without a fresh build."""
        return self.provider.has_memory_cell(
            mode, n, t, horizon
        ) or self.provider.has_current_cell(mode, n, t, horizon)

    def _placement(self, request: Optional[_Request]) -> str:
        if request is None:  # monitor, debug_sleep
            return "inline"
        if self.fork_policy != "auto":
            return "inline" if self.fork_policy == "never" else "fork"
        resident = self.cell_resident(*request[:4])
        return "inline" if resident else "fork"

    def _fork_pool(self):
        from ..exec.pool import ShardPool

        if self._pool is None:
            self._pool = ShardPool(
                workers=1,
                timeout=self.budget.timeout,
                retries=0,
                backoff=0.01,
            )
        return self._pool

    def _run_forked(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        self._fork_serial += 1
        shard = Shard(
            shard_id=f"serve-{op}-{self._fork_serial}",
            task="serve.query",
            params={"op": op, "params": params},
        )
        try:
            payloads = self._fork_pool().run([shard])
        except ShardExecutionError as error:
            obs.count("serve_fork_failures")
            if "timeout" in str(error):
                raise BudgetExceeded(
                    "timeout",
                    f"query exceeded the {self.budget.timeout:g}s wall "
                    f"budget and was killed",
                ) from None
            raise
        payload = payloads[shard.shard_id]
        if payload.get("ok"):
            return payload["result"]
        if payload.get("code") == "bad_request":
            raise ProtocolError(payload["message"])
        raise KeyError(payload.get("message", "query failed in worker"))

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        op: str,
        params: Dict[str, Any],
        *,
        emit: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Run one request; returns the JSON-ready result.

        Raises :class:`BudgetExceeded`, :class:`KeyError` (unknown
        catalog entries / scenarios / points → ``not_found``),
        :class:`~repro.serve.protocol.ProtocolError` (→ ``bad_request``;
        params the daemon rejects are rejected here too)
        or :class:`~repro.errors.ReproError` (→ ``internal``) — the
        server maps each onto its wire error code.  *emit* receives one
        event dict per streamed ``monitor`` round.
        """
        if op not in ENGINE_OPS:
            raise ProtocolError(f"engine cannot execute op {op!r}")
        # The daemon's own check, so an in-process caller gets the
        # answer a wire client gets.
        problems = validate_params(op, params)
        if problems:
            raise ProtocolError("; ".join(problems))
        obs.count(f"serve_requests_{op}")
        with obs.stage("serve_execute"):
            request = None
            if op in _EXECUTORS:
                # Resolved once here; the budget is checked before the
                # cell is placed, forked or built.
                request = _resolve_request(op, params)
                _check_points(self.budget, *request[:4])
            placement = self._placement(request)
            obs.count(f"serve_placement_{placement}")
            if op == "debug_sleep":
                time.sleep(float(params["seconds"]))
                return {"slept": float(params["seconds"])}
            if op == "monitor":
                return self._run_monitor(params, emit)
            if placement == "fork":
                result = self._run_forked(op, params)
            else:
                result = _EXECUTORS[op](self.provider, params, request)
        result["placement"] = placement
        return result

    def _run_monitor(
        self,
        params: Dict[str, Any],
        emit: Optional[Callable[[Dict[str, Any]], None]],
    ) -> Dict[str, Any]:
        """Stream one scenario's online K/E/C□ verdicts round by round.

        This is the ROADMAP item-5 leftover closed: the streaming monitor
        wired in as the service's streaming API.  Each round's record
        goes out through *emit* as soon as it is computed; the terminal
        result summarizes the session.
        """
        from ..model.config import InitialConfiguration
        from ..sim.monitor import StreamingMonitor

        rounds = params["rounds"]
        if not isinstance(rounds, int) or rounds < 1:
            raise ProtocolError(f"monitor needs rounds >= 1, got {rounds!r}")
        _check_cell(params["n"], params["t"], rounds)
        mode = _failure_mode(params["mode"])
        config = InitialConfiguration(
            [int(bit) for bit in params["config"]]
        )
        pattern = _parse_pattern_specs(params)
        monitor = StreamingMonitor(
            mode,
            params["n"],
            params["t"],
            config,
            pattern,
            value=params.get("value", 1),
            provider=self.provider,
            on_round=emit,
        )
        started = time.perf_counter()
        for horizon in range(1, rounds + 1):
            # The ambient cell grows each round; a session that would
            # outgrow the point budget stops before building the next
            # cell, with the rounds served so far already streamed.
            _check_points(
                self.budget, mode, params["n"], params["t"], horizon,
                f"monitor horizon {horizon}",
            )
            monitor.advance()
        return {
            "rounds": monitor.round,
            "horizon": monitor.round,
            "verdicts": monitor.history[-1]["verdicts"],
            "seconds": round(time.perf_counter() - started, 6),
        }

    def close(self) -> None:
        """Tear down the fork-pool (no orphaned workers after shutdown)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None


def _parse_pattern_specs(params: Dict[str, Any]):
    """Build a failure pattern from the CLI mini-language spec lists."""
    from ..cli import _build_pattern

    return _build_pattern(
        [str(spec) for spec in params.get("crash", [])],
        [str(spec) for spec in params.get("omit", [])],
        [str(spec) for spec in params.get("recv_omit", [])],
    )
