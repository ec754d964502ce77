"""Wire protocol for the knowledge-query daemon.

Frames are **newline-delimited JSON**: one UTF-8 encoded JSON object per
line, in both directions.  A request carries::

    {"id": 7, "op": "eval", "params": {...}}

and is answered by exactly one terminal response —

* ``{"id": 7, "ok": true, "result": {...}}`` on success, or
* ``{"id": 7, "ok": false, "error": {"code": ..., "message": ...}}``;

streaming ops (``monitor``) interleave ``{"id": 7, "ok": true,
"stream": true, "event": {...}}`` frames before the terminal response,
which carries ``"done": true``.  Clients match frames to requests by
``id`` (any JSON scalar; the server echoes it verbatim), so one
connection may pipeline requests, which are answered in order.

Validation mirrors :mod:`repro.obs.journal`: each op has a fixed table of
required and optional parameter types (:data:`REQUEST_OPS`), extra fields
are rejected loudly rather than silently dropped, and
:func:`validate_request` returns the full problem list so a client sees
every mistake at once.  Its per-op half, :func:`validate_params`, also
guards the in-process engine, so ``query --local`` rejects what the
daemon rejects.  Error codes are enumerated in :data:`ERROR_CODES`
— ``queue_full`` is the 429 analog (the response carries the queue bound
that was hit), ``budget_exceeded`` names the exhausted limit.

Formulas travel as a small JSON AST (:func:`build_formula`), e.g.::

    {"kind": "knows", "processor": 0, "of": {"kind": "exists", "value": 1}}

with group operators (``everyone`` / ``common`` / ``continual_common`` /
``eventual_common``) fixed to the nonfaulty set — or by naming an entry
of the CLI explain catalog (``"catalog": {"experiment": "E4", "formula":
"common-exists1"}``), which is how the parity suite pins served verdicts
against in-process evaluation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "ERROR_CODES",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "validate_params",
    "validate_request",
    "build_formula",
    "ok_response",
    "error_response",
    "stream_event",
]

#: Bump when frame shape or required parameters change meaning.
PROTOCOL_VERSION = 1

_NUMBER = (int, float)
_STR = (str,)
_INT = (int,)
_DICT = (dict,)
_LIST = (list,)
_BOOL = (bool,)

#: ``op -> (required params, optional params)`` with journal-style type
#: tuples (``None`` means "any JSON value").  Unknown params are errors.
REQUEST_OPS: Dict[str, tuple] = {
    "eval": (
        {},
        {
            "mode": _STR,
            "n": _INT,
            "t": _INT,
            "horizon": _INT,
            "formula": _DICT,
            "catalog": _DICT,
            "point": _LIST,
        },
    ),
    "explain": (
        {"catalog": _DICT},
        {"n": _INT, "t": _INT, "point": _LIST},
    ),
    "extend": (
        {"mode": _STR, "n": _INT, "t": _INT, "horizon": _INT},
        {},
    ),
    "monitor": (
        {"mode": _STR, "n": _INT, "t": _INT, "config": _STR, "rounds": _INT},
        {"crash": _LIST, "omit": _LIST, "recv_omit": _LIST, "value": _INT},
    ),
    "stats": ({}, {}),
    "healthz": ({}, {}),
    # Test/bench-only op, admitted when the server runs with debug=True:
    # holds a slot for `seconds`, which makes queue backpressure and
    # drain behaviour deterministic to exercise.
    "debug_sleep": ({"seconds": _NUMBER}, {}),
}

#: Every error code a response may carry.
ERROR_CODES = (
    "bad_frame",        # not valid JSON, or not an object
    "bad_request",      # schema-invalid request (details in message)
    "unknown_op",
    "queue_full",       # 429 analog: bounded queue rejected admission
    "budget_exceeded",  # point-count or wall-time budget hit
    "shutting_down",    # daemon is draining; no new work admitted
    "not_found",        # unknown catalog entry / scenario / point
    "internal",         # evaluation raised; message carries the cause
)


class ProtocolError(ReproError):
    """A frame violated the wire protocol."""


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """One frame: canonical JSON plus the line terminator."""
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line; anything but a JSON object raises."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def validate_params(op: str, params: Any) -> List[str]:
    """Problems with one known *op*'s params (empty list = valid).

    The per-op half of :func:`validate_request`, which the in-process
    :class:`~repro.serve.session.QueryEngine` runs too."""
    if not isinstance(params, dict):
        return ["'params' must be an object"]
    problems: List[str] = []
    required, optional = REQUEST_OPS[op]
    for field, types in required.items():
        if field not in params:
            problems.append(f"{op}: missing required param {field!r}")
        elif types is not None and not isinstance(params[field], types):
            problems.append(
                f"{op}: param {field!r} has type "
                f"{type(params[field]).__name__}"
            )
    for field, value in params.items():
        if field in required:
            continue
        if field not in optional:
            problems.append(f"{op}: unknown param {field!r}")
        else:
            types = optional[field]
            if types is not None and not isinstance(value, types):
                problems.append(
                    f"{op}: param {field!r} has type {type(value).__name__}"
                )
    return problems


def validate_request(obj: Dict[str, Any]) -> List[str]:
    """Problems with one request frame (empty list = valid)."""
    problems: List[str] = []
    if "id" not in obj:
        problems.append("missing required field 'id'")
    elif isinstance(obj.get("id"), (dict, list)):
        problems.append("'id' must be a JSON scalar")
    op = obj.get("op")
    if not isinstance(op, str):
        problems.append("missing or non-string 'op'")
        return problems
    if op not in REQUEST_OPS:
        problems.append(
            f"unknown op {op!r}; known ops: {', '.join(sorted(REQUEST_OPS))}"
        )
        return problems
    params = obj.get("params", {})
    problems.extend(validate_params(op, params))
    if not isinstance(params, dict):
        return problems
    extra = set(obj) - {"id", "op", "params", "v"}
    for field in sorted(extra):
        problems.append(f"unknown frame field {field!r}")
    return problems


# -- responses ----------------------------------------------------------------


def ok_response(
    request_id: Any, result: Dict[str, Any], *, done: Optional[bool] = None
) -> Dict[str, Any]:
    frame: Dict[str, Any] = {"id": request_id, "ok": True, "result": result}
    if done is not None:
        frame["done"] = done
    return frame


def error_response(
    request_id: Any, code: str, message: str, **extra: Any
) -> Dict[str, Any]:
    assert code in ERROR_CODES, code
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    return {"id": request_id, "ok": False, "error": error}


def stream_event(request_id: Any, event: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "stream": True, "event": event}


# -- the formula AST ----------------------------------------------------------

#: ``kind -> (required keys, has "of" operand, has "operands" list)``
_FORMULA_KINDS = {
    "true": (),
    "false": (),
    "exists": ("value",),
    "all_started": ("value",),
    "is_nonfaulty": ("processor",),
    "initial_value_is": ("processor", "value"),
    "not": ("of",),
    "and": ("operands",),
    "or": ("operands",),
    "implies": ("antecedent", "consequent"),
    "knows": ("processor", "of"),
    "everyone": ("of",),
    "common": ("of",),
    "continual_common": ("of",),
    "eventual_common": ("of",),
    "always": ("of",),
    "eventually": ("of",),
}

#: Deepest formula AST accepted.  Building and evaluating recurse once
#: per level, so far deeper nesting would exhaust the interpreter's
#: recursion limit instead of failing as a ``bad_request``.
MAX_FORMULA_DEPTH = 64


def build_formula(spec: Any, n: Optional[int] = None):
    """Build a :class:`~repro.knowledge.formulas.Formula` from its JSON AST.

    Group operators use the nonfaulty set; richer nonrigid sets (decision
    pairs, protocol-derived sets) are reachable through the explain
    catalog instead, which ties them to an experiment's construction.

    Initial values must be 0 or 1 and processors non-negative; given the
    cell's processor count *n*, processors must also lie in ``range(n)``,
    and nesting may not exceed :data:`MAX_FORMULA_DEPTH`.  Anything else
    raises :class:`ProtocolError` rather than wrapping around (Python's
    negative indexing) or failing inside evaluation.
    """
    return _build(spec, n, 0)


def _build(spec: Any, n: Optional[int], depth: int):
    from ..knowledge import formulas as F
    from ..knowledge.nonrigid import NONFAULTY

    if depth > MAX_FORMULA_DEPTH:
        raise ProtocolError(
            f"formula nests deeper than {MAX_FORMULA_DEPTH} levels"
        )
    if not isinstance(spec, dict):
        raise ProtocolError(
            f"formula spec must be an object, got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _FORMULA_KINDS:
        raise ProtocolError(
            f"unknown formula kind {kind!r}; known kinds: "
            f"{', '.join(sorted(_FORMULA_KINDS))}"
        )
    required = _FORMULA_KINDS[kind]
    for key in required:
        if key not in spec:
            raise ProtocolError(f"formula kind {kind!r} needs {key!r}")
    extra = set(spec) - {"kind"} - set(required)
    if extra:
        raise ProtocolError(
            f"formula kind {kind!r} has unknown keys: {sorted(extra)}"
        )

    def integer(key: str) -> int:
        value = spec[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(
                f"formula kind {kind!r}: {key!r} must be an integer"
            )
        return value

    def processor() -> int:
        value = integer("processor")
        if value < 0 or (n is not None and value >= n):
            raise ProtocolError(
                f"formula kind {kind!r}: processor {value} is not a "
                f"processor of the cell (n={n})"
            )
        return value

    def bit() -> int:
        value = integer("value")
        if value not in (0, 1):
            raise ProtocolError(
                f"formula kind {kind!r}: 'value' must be 0 or 1, got {value}"
            )
        return value

    def sub(key: str):
        return _build(spec[key], n, depth + 1)

    if kind == "true":
        return F.TrueFormula()
    if kind == "false":
        return F.FalseFormula()
    if kind == "exists":
        return F.Exists(bit())
    if kind == "all_started":
        return F.AllStarted(bit())
    if kind == "is_nonfaulty":
        return F.IsNonfaulty(processor())
    if kind == "initial_value_is":
        return F.InitialValueIs(processor(), bit())
    if kind == "not":
        return F.Not(sub("of"))
    if kind in ("and", "or"):
        operands = spec["operands"]
        if not isinstance(operands, list) or not operands:
            raise ProtocolError(
                f"formula kind {kind!r}: 'operands' must be a non-empty list"
            )
        built = [_build(operand, n, depth + 1) for operand in operands]
        return F.And(built) if kind == "and" else F.Or(built)
    if kind == "implies":
        return F.Implies(sub("antecedent"), sub("consequent"))
    if kind == "knows":
        return F.Knows(processor(), sub("of"))
    operand = sub("of")
    if kind == "everyone":
        return F.Everyone(NONFAULTY, operand)
    if kind == "common":
        return F.Common(NONFAULTY, operand)
    if kind == "continual_common":
        return F.ContinualCommon(NONFAULTY, operand)
    if kind == "eventual_common":
        return F.EventualCommon(NONFAULTY, operand)
    if kind == "always":
        return F.Always(operand)
    return F.Eventually(operand)
