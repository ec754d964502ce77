"""The daemon's query engine: resident systems, budgets, inline-vs-fork.

:class:`QueryEngine` is the layer between the wire protocol and the
knowledge machinery.  It is deliberately asyncio-free — the server calls
it from worker threads, tests call it directly, and ``repro-eba query``
falls back to it in-process when no daemon is up — so served and
in-process answers are *the same code path*, which is what makes the
verdict-parity suite meaningful.

Execution placement:

* **inline** — the cell is already resident (provider memory LRU, or a
  current-version disk file that loads in milliseconds).  The query runs
  on the calling worker thread against the hot
  :class:`~repro.model.provider.SystemProvider`; this is the path that
  must beat a cold CLI invocation by ≥10x.
* **fork** — the cell would need a fresh (doubly-exponential)
  enumeration.  The query is executed through the supervised fork-pool
  of :mod:`repro.exec` (one ``serve.query`` shard, zero retries), whose
  per-shard timeout *is* the wall-time budget: a build that exceeds it
  is SIGKILLed and the client gets ``budget_exceeded`` instead of the
  daemon stalling.  The forked child inherits the provider's LRU
  copy-on-write and writes the finished cell to the shared disk cache,
  so the *next* query for that cell is inline.

The point-count budget is checked as soon as the system is resolved —
before any formula work — against ``System.num_points()``; formula
evaluation then runs exactly as it does in-process.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .. import obs
from ..errors import ReproError, ShardExecutionError
from ..model.failures import FailureMode
from ..model.partition import row_keys
from ..model.provider import SystemProvider, get_provider
from .protocol import ProtocolError, build_formula, validate_params
from .queue import BudgetExceeded, QueryBudget

__all__ = ["QueryEngine", "verdict_digest"]

#: Ops the engine executes (stats/healthz are assembled by the server).
ENGINE_OPS = ("eval", "explain", "extend", "monitor", "debug_sleep")


def verdict_digest(truth) -> str:
    """Canonical SHA-256 of a truth assignment's full point-by-point rows.

    The hashed bytes are the compact JSON of the rows, ``[[true,false,
    ...],...]``: runs in run order, times ``0..horizon``, no spaces.  The
    parity suite compares this digest between served and in-process
    evaluation — byte-identical rows, not just matching validity bits.

    The bytes are rendered from the packed bits: each row pattern that
    occurs (at most one per run) is rendered once, and each run's row is
    its pattern's rendering, so no per-point list is built.
    """
    bits = truth.bits()
    _, first, inverse = np.unique(
        row_keys(bits), return_index=True, return_inverse=True
    )
    patterns = bits[first].tolist()
    table = np.array(
        [json.dumps(row, separators=(",", ":")) for row in patterns],
        dtype=object,
    )
    blob = "[" + ",".join(table[inverse].tolist()) + "]"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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


def _resolve_eval_request(params: Dict[str, Any]):
    """``(mode, n, t, horizon, formula_builder, description)`` for eval.

    Either a ``catalog`` reference (mode/n/t default from the entry) or an
    explicit ``mode/n/t/horizon`` cell with a ``formula`` AST.
    """
    catalog = params.get("catalog")
    if catalog is not None:
        entry = _catalog_entry(catalog)
        n = params.get("n", 3)
        t = params.get("t", 1)
        mode = _failure_mode(params.get("mode", entry.mode))
        horizon = params.get("horizon", t + 2)
        _check_cell(n, t, horizon)
        return (
            mode, n, t, horizon, entry.build,
            f"{catalog.get('experiment')}/{catalog.get('formula')}",
        )
    spec = params.get("formula")
    if spec is None:
        raise ProtocolError("eval needs either 'formula' or 'catalog'")
    mode = _failure_mode(params.get("mode", "crash"))
    n = params.get("n", 3)
    t = params.get("t", 1)
    horizon = params.get("horizon", t + 2)
    _check_cell(n, t, horizon)
    formula = build_formula(spec, n)
    return (mode, n, t, horizon, lambda _system: formula, repr(formula))


def _execute_eval(
    provider: SystemProvider,
    budget: QueryBudget,
    params: Dict[str, Any],
) -> Dict[str, Any]:
    """The eval body shared verbatim by the inline and forked paths."""
    mode, n, t, horizon, build, description = _resolve_eval_request(params)
    started = time.perf_counter()
    system = provider.get(mode, n, t, horizon)
    budget.check_points(system.num_points(), system.describe())
    truth = build(system).evaluate(system)
    point = _point(params)
    result: Dict[str, Any] = {
        "system": {
            "mode": mode.value,
            "n": n,
            "t": t,
            "horizon": horizon,
            "runs": len(system.runs),
            "points": system.num_points(),
        },
        "formula": description,
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
    provider: SystemProvider,
    budget: QueryBudget,
    params: Dict[str, Any],
) -> Dict[str, Any]:
    from ..knowledge.explain import (
        catalog_system,
        default_point,
        explain,
        render_explanation,
    )

    entry = _catalog_entry(params["catalog"])
    n, t = params.get("n", 3), params.get("t", 1)
    _check_cell(n, t, t + 2)
    started = time.perf_counter()
    system = catalog_system(entry, n, t)
    budget.check_points(system.num_points(), system.describe())
    formula = entry.build(system)
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
    provider: SystemProvider,
    budget: QueryBudget,
    params: Dict[str, Any],
) -> Dict[str, Any]:
    mode = _failure_mode(params["mode"])
    _check_cell(params["n"], params["t"], params["horizon"])
    started = time.perf_counter()
    system = provider.get(mode, params["n"], params["t"], params["horizon"])
    budget.check_points(system.num_points(), system.describe())
    return {
        "system": {
            "mode": mode.value,
            "n": params["n"],
            "t": params["t"],
            "horizon": system.horizon,
            "runs": len(system.runs),
            "points": system.num_points(),
        },
        "seconds": round(time.perf_counter() - started, 6),
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
    budget = QueryBudget(
        max_points=int(params["budget"]["max_points"]),
        timeout=float(params["budget"]["timeout"]),
    )
    provider = get_provider()
    op = params["op"]
    body = params["params"]
    try:
        if op == "eval":
            result = _execute_eval(provider, budget, body)
        elif op == "extend":
            result = _execute_extend(provider, budget, body)
        else:
            result = _execute_explain(provider, budget, body)
        return {"ok": True, "result": result}
    except BudgetExceeded as error:
        return {
            "ok": False,
            "code": "budget_exceeded",
            "limit": error.limit,
            "message": str(error),
        }
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

    def _placement(self, op: str, params: Dict[str, Any]) -> str:
        if op in ("monitor", "debug_sleep"):
            return "inline"
        if self.fork_policy != "auto":
            return "inline" if self.fork_policy == "never" else "fork"
        try:
            if op == "eval":
                mode, n, t, horizon, _, _ = _resolve_eval_request(params)
            elif op == "extend":
                mode = _failure_mode(params["mode"])
                n, t, horizon = params["n"], params["t"], params["horizon"]
            else:  # explain
                entry = _catalog_entry(params["catalog"])
                mode = _failure_mode(entry.mode)
                n, t = params.get("n", 3), params.get("t", 1)
                horizon = t + 2
        except (ProtocolError, KeyError):
            # Let the inline path raise the precise error.
            return "inline"
        return "inline" if self.cell_resident(mode, n, t, horizon) else "fork"

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
            params={
                "op": op,
                "params": params,
                "budget": {
                    "max_points": self.budget.max_points,
                    "timeout": self.budget.timeout,
                },
            },
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
        if payload.get("code") == "budget_exceeded":
            raise BudgetExceeded(payload.get("limit", "?"), payload["message"])
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
        placement = self._placement(op, params)
        obs.count(f"serve_requests_{op}")
        obs.count(f"serve_placement_{placement}")
        with obs.stage("serve_execute"):
            if op == "debug_sleep":
                time.sleep(float(params["seconds"]))
                return {"slept": float(params["seconds"])}
            if op == "monitor":
                return self._run_monitor(params, emit)
            if placement == "fork":
                result = self._run_forked(op, params)
            elif op == "eval":
                result = _execute_eval(self.provider, self.budget, params)
            elif op == "extend":
                result = _execute_extend(self.provider, self.budget, params)
            else:
                result = _execute_explain(self.provider, self.budget, params)
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
        for _ in range(rounds):
            record = monitor.advance()
            # The ambient cell grows each round; a session that outgrows
            # the point budget stops with the rounds served so far
            # reported in the error, rather than extending unboundedly.
            grown = self.provider.get(
                mode, params["n"], params["t"], record["round"]
            )
            self.budget.check_points(
                grown.num_points(),
                f"monitor horizon {record['round']}",
            )
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
