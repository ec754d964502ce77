"""Tests for repro.serve: protocol, queue, budgets, engine, live daemon.

The live-daemon tests spawn ``repro-eba serve`` as a subprocess on a unix
socket under ``tmp_path`` and speak the real wire protocol through
:class:`repro.serve.client.ServeClient` — including the served-vs-in-process
verdict-parity suite (E4/E5/E21), queue-full
backpressure, budget rejection, a client killed mid-query, and the
SIGTERM graceful drain.
"""

from __future__ import annotations

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.model.failures import FailureMode
from repro.serve.client import ServeClient, ServeError, daemon_available
from repro.serve.protocol import (
    _FORMULA_KINDS,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    ProtocolError,
    build_formula,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    validate_request,
)
from repro.serve.queue import AdmissionGate, BudgetExceeded, QueryBudget
from repro.serve.session import QueryEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: The parity suite: every explain-catalog formula for these experiments,
#: served and in-process.
PARITY_EXPERIMENTS = ("E4", "E5", "E21")

_COMMON_EXISTS1 = {"experiment": "E4", "formula": "common-exists1"}

#: ``extend`` cells whose exact point count costs seconds to minutes of
#: big-int arithmetic (``2**(10**9) - 1`` omission behaviours take
#: seconds to form; the crash cell raises 100,000-bit numbers to powers
#: near 100,000): a power of two below the count refuses them first.
_HOSTILE_CELLS = [
    {"mode": "omission", "n": 2, "t": 1, "horizon": 10**9},
    {"mode": "receive-omission", "n": 3, "t": 2, "horizon": 10**8},
    {"mode": "omission", "n": 2, "t": 0, "horizon": 10**9},
    {"mode": "crash", "n": 100_000, "t": 99_999, "horizon": 1},
]


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_frame_round_trip(self):
        frame = ok_response(7, {"x": 1}, done=True)
        assert decode_frame(encode_frame(frame)) == frame

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json at all\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2, 3]\n")

    def test_deeply_nested_frame_is_bad_frame(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b"[" * 100_000)

    def test_valid_request_has_no_problems(self):
        assert (
            validate_request(
                {
                    "id": 1,
                    "op": "eval",
                    "params": {"formula": {"kind": "true"}},
                }
            )
            == []
        )

    def test_missing_id_and_unknown_op(self):
        problems = validate_request({"op": "frobnicate"})
        assert any("'id'" in p for p in problems)
        assert any("unknown op" in p for p in problems)

    def test_missing_required_param(self):
        problems = validate_request(
            {"id": 1, "op": "extend", "params": {"mode": "crash"}}
        )
        assert any("missing required param 'n'" in p for p in problems)

    def test_unknown_param_rejected(self):
        problems = validate_request(
            {"id": 1, "op": "stats", "params": {"bogus": 1}}
        )
        assert problems == ["stats: unknown param 'bogus'"]

    def test_wrong_param_type_rejected(self):
        problems = validate_request(
            {
                "id": 1,
                "op": "monitor",
                "params": {
                    "mode": "crash",
                    "n": 3,
                    "t": 1,
                    "config": 11,  # must be a string
                    "rounds": 2,
                },
            }
        )
        assert any("'config' has type int" in p for p in problems)

    def test_unknown_frame_field_rejected(self):
        problems = validate_request(
            {"id": 1, "op": "stats", "params": {}, "surprise": True}
        )
        assert problems == ["unknown frame field 'surprise'"]

    def test_error_response_shape(self):
        frame = error_response(3, "queue_full", "full", max_depth=4)
        assert frame["ok"] is False
        assert frame["error"]["code"] == "queue_full"
        assert frame["error"]["max_depth"] == 4


class TestFormulaAst:
    def test_builds_nested_knowledge_formula(self, crash3):
        formula = build_formula(
            {
                "kind": "knows",
                "processor": 0,
                "of": {"kind": "exists", "value": 1},
            }
        )
        from repro.knowledge.formulas import Knows, exists

        reference = Knows(0, exists(1))
        assert (
            formula.evaluate(crash3).to_rows()
            == reference.evaluate(crash3).to_rows()
        )

    def test_group_operators_use_nonfaulty(self, crash3):
        formula = build_formula(
            {"kind": "everyone", "of": {"kind": "exists", "value": 1}}
        )
        from repro.knowledge.formulas import Everyone, exists
        from repro.knowledge.nonrigid import NONFAULTY

        reference = Everyone(NONFAULTY, exists(1))
        assert (
            formula.evaluate(crash3).to_rows()
            == reference.evaluate(crash3).to_rows()
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown formula kind"):
            build_formula({"kind": "telepathy"})

    def test_missing_key_rejected(self):
        with pytest.raises(ProtocolError, match="needs 'value'"):
            build_formula({"kind": "exists"})

    def test_extra_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown keys"):
            build_formula({"kind": "true", "huh": 1})

    def test_empty_operand_list_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty list"):
            build_formula({"kind": "and", "operands": []})

    def test_deep_nesting_rejected(self):
        spec = {"kind": "true"}
        for _ in range(600):
            spec = {"kind": "not", "of": spec}
        with pytest.raises(ProtocolError, match="deeper than"):
            build_formula(decode_frame(json.dumps(spec).encode("utf-8")))

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown formula kind"):
            build_formula({"kind": ["knows"]})

    def test_processor_checked_against_cell(self):
        spec = {"kind": "is_nonfaulty", "processor": 2}
        assert (
            build_formula(spec, 3).cache_key()
            == build_formula(spec).cache_key()
        )
        with pytest.raises(ProtocolError, match="processor 2"):
            build_formula(spec, 2)


# ---------------------------------------------------------------------------
# fuzzing the wire protocol and the formula AST

_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)
_KINDS = st.sampled_from(sorted(_FORMULA_KINDS))
_AST_KEYS = st.sampled_from(
    ["of", "operands", "antecedent", "consequent", "processor", "value"]
)


def _node(kinds, fields):
    return st.builds(
        lambda kind, extra: dict(extra, kind=kind),
        kinds,
        st.dictionaries(_AST_KEYS, fields, max_size=3),
    )


#: Formula-shaped JSON: mostly real kinds with arbitrary (often wrong)
#: fields, so the fuzz gets past the kind lookup into build_formula.
_FORMULA_LIKE = st.recursive(
    _node(_KINDS | _JSON, _JSON_SCALARS),
    lambda children: _node(
        _KINDS, children | st.lists(children, max_size=3) | _JSON_SCALARS
    ),
    max_leaves=10,
)
_FRAMES = st.fixed_dictionaries(
    {"id": _JSON, "op": st.sampled_from(sorted(REQUEST_OPS)) | _JSON},
    optional={
        "params": st.fixed_dictionaries(
            {}, optional={"formula": _FORMULA_LIKE | _JSON, "n": _JSON}
        )
        | _JSON,
        "v": _JSON,
    },
)
_LINES = st.binary(max_size=48) | (_FRAMES | _JSON).map(
    lambda obj: json.dumps(obj).encode("utf-8")
)


@settings(max_examples=300, deadline=None)
@given(line=_LINES, n=st.integers(min_value=-1, max_value=5))
def test_fuzzed_frames_raise_only_protocol_errors(line, n):
    """decode_frame → validate_request → build_formula: any input either
    passes or raises ProtocolError (``bad_frame`` / ``bad_request``)."""
    try:
        obj = decode_frame(line)
        problems = validate_request(obj)
        assert all(isinstance(problem, str) for problem in problems)
        params = obj.get("params")
        spec = params.get("formula", obj) if isinstance(params, dict) else obj
        build_formula(spec, n)
    except ProtocolError:
        pass


def _mostly(valid, anything):
    """Draw from *valid* three times in four, else from *anything*."""
    return st.one_of(valid, valid, valid, anything)


#: Processors and initial values of an n=3 binary cell, or arbitrary
#: integers (so most formulas get evaluated, and some get rejected).
_PROCESSORS = _mostly(st.integers(min_value=0, max_value=2), st.integers())
_VALUES = _mostly(st.integers(min_value=0, max_value=1), st.integers())
_WELL_TYPED = st.recursive(
    st.sampled_from([{"kind": "true"}, {"kind": "false"}])
    | st.builds(
        lambda kind, value: {"kind": kind, "value": value},
        st.sampled_from(["exists", "all_started"]),
        _VALUES,
    )
    | st.builds(
        lambda p: {"kind": "is_nonfaulty", "processor": p}, _PROCESSORS
    )
    | st.builds(
        lambda p, v: {"kind": "initial_value_is", "processor": p, "value": v},
        _PROCESSORS,
        _VALUES,
    ),
    lambda children: st.builds(lambda f: {"kind": "not", "of": f}, children)
    | st.builds(
        lambda kind, fs: {"kind": kind, "operands": fs},
        st.sampled_from(["and", "or"]),
        st.lists(children, min_size=1, max_size=3),
    )
    | st.builds(
        lambda a, c: {"kind": "implies", "antecedent": a, "consequent": c},
        children,
        children,
    )
    | st.builds(
        lambda p, f: {"kind": "knows", "processor": p, "of": f},
        _PROCESSORS,
        children,
    )
    | st.builds(
        lambda kind, f: {"kind": kind, "of": f},
        st.sampled_from(
            [
                "everyone",
                "common",
                "continual_common",
                "eventual_common",
                "always",
                "eventually",
            ]
        ),
        children,
    ),
    max_leaves=6,
)


def _in_range(spec, n):
    """Whether every processor of *spec* is in ``range(n)`` and every
    initial value is 0 or 1."""
    if "processor" in spec and not 0 <= spec["processor"] < n:
        return False
    if "value" in spec and spec["value"] not in (0, 1):
        return False
    children = list(spec.get("operands", []))
    children += [spec[key] for key in ("of", "antecedent", "consequent")
                 if key in spec]
    return all(_in_range(child, n) for child in children)


def _direct_formula(spec):
    """The formula a well-typed spec denotes, built without the protocol."""
    from repro.knowledge import formulas as F
    from repro.knowledge.nonrigid import NONFAULTY

    kind = spec["kind"]
    if kind in ("true", "false"):
        return F.TrueFormula() if kind == "true" else F.FalseFormula()
    if kind in ("exists", "all_started"):
        atom = F.Exists if kind == "exists" else F.AllStarted
        return atom(spec["value"])
    if kind == "is_nonfaulty":
        return F.IsNonfaulty(spec["processor"])
    if kind == "initial_value_is":
        return F.InitialValueIs(spec["processor"], spec["value"])
    if kind in ("and", "or"):
        operands = [_direct_formula(operand) for operand in spec["operands"]]
        return F.And(operands) if kind == "and" else F.Or(operands)
    if kind == "implies":
        return F.Implies(
            _direct_formula(spec["antecedent"]),
            _direct_formula(spec["consequent"]),
        )
    operand = _direct_formula(spec["of"])
    if kind == "not":
        return F.Not(operand)
    if kind == "knows":
        return F.Knows(spec["processor"], operand)
    group = {
        "everyone": F.Everyone,
        "common": F.Common,
        "continual_common": F.ContinualCommon,
        "eventual_common": F.EventualCommon,
    }
    if kind in group:
        return group[kind](NONFAULTY, operand)
    return F.Always(operand) if kind == "always" else F.Eventually(operand)


@settings(max_examples=60, deadline=None)
@given(spec=_WELL_TYPED)
def test_fuzzed_formulas_match_in_process_or_are_rejected(spec):
    """On a resident n=3 cell a served eval either answers with the
    digest of the reference evaluator's rows or is rejected as
    ``bad_request`` / ``not_found`` — exactly when a field is out of
    range, and never with another exception type."""
    from repro.model.builder import crash_system

    from . import oracles

    system = crash_system(3, 1, 3)
    engine = QueryEngine()
    params = {"formula": spec, "mode": "crash", "n": 3, "t": 1, "horizon": 3}
    try:
        result = engine.execute("eval", params)
    except (ProtocolError, KeyError):
        assert not _in_range(spec, system.n)
        return
    assert _in_range(spec, system.n)
    rows = oracles.evaluate(_direct_formula(spec), system)
    assert result["digest"] == oracles.rows_digest(rows)


# ---------------------------------------------------------------------------
# queue and budgets


class TestAdmissionGate:
    @staticmethod
    def _wait_for_depth(gate, depth):
        deadline = time.monotonic() + 10
        while len(gate) != depth:
            assert time.monotonic() < deadline, "waiter never queued"
            time.sleep(0.005)

    def test_slots_run_at_once(self):
        gate = AdmissionGate(2, max_depth=4)
        assert gate.enter() == 0.0
        assert gate.enter() == 0.0
        assert len(gate) == 0
        assert gate.snapshot()["admitted"] == 2

    def test_rejects_past_the_bound(self):
        gate = AdmissionGate(1, max_depth=1)
        assert gate.enter() == 0.0
        waiter = threading.Thread(target=gate.enter)
        waiter.start()
        self._wait_for_depth(gate, 1)
        assert gate.enter() is None
        snapshot = gate.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["depth"] == 1 and snapshot["max_depth"] == 1
        gate.leave()
        waiter.join(timeout=10)
        assert not waiter.is_alive()

    def test_waiters_run_in_arrival_order(self):
        gate = AdmissionGate(1, max_depth=8)
        gate.enter()
        order = []

        def request(index):
            gate.enter()
            order.append(index)
            gate.leave()

        threads = []
        for index in range(5):
            thread = threading.Thread(target=request, args=(index,))
            thread.start()
            threads.append(thread)
            self._wait_for_depth(gate, index + 1)
        gate.leave()
        for thread in threads:
            thread.join(timeout=10)
        assert order == [0, 1, 2, 3, 4]
        assert len(gate) == 0

    def test_close_rejects_new_but_admitted_finish(self):
        gate = AdmissionGate(1, max_depth=4)
        gate.enter()
        waited = []
        waiter = threading.Thread(target=lambda: waited.append(gate.enter()))
        waiter.start()
        self._wait_for_depth(gate, 1)
        gate.close()
        assert gate.enter() is None
        assert gate.closed and gate.snapshot()["closed"] is True
        # The waiting request keeps its turn after the close.
        time.sleep(0.05)
        gate.leave()
        waiter.join(timeout=10)
        assert len(waited) == 1 and waited[0] >= 0.05
        gate.leave()

    def test_depth_gauge_counts_waiting_requests(self):
        from repro import obs

        def depth():
            return obs.snapshot()["gauges"]["serve_queue_depth"]

        gate = AdmissionGate(1, max_depth=4)
        assert depth() == 0
        gate.enter()
        assert depth() == 0
        waiter = threading.Thread(target=gate.enter)
        waiter.start()
        self._wait_for_depth(gate, 1)
        assert depth() == 1
        gate.leave()
        waiter.join(timeout=10)
        assert depth() == 0
        gate.leave()


class TestQueryBudget:
    def test_check_points_over_budget(self):
        budget = QueryBudget(max_points=100)
        with pytest.raises(BudgetExceeded) as info:
            budget.check_points(101, "test system")
        assert info.value.limit == "max_points"

    def test_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_POINTS", "1234")
        assert QueryBudget.resolve().max_points == 1234

    def test_bad_environment_rejected(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("REPRO_SERVE_MAX_POINTS", "zero")
        with pytest.raises(ConfigurationError):
            QueryBudget.resolve()


# ---------------------------------------------------------------------------
# the engine, in-process


class TestQueryEngineInProcess:
    def test_eval_formula_ast(self, crash3):
        engine = QueryEngine()
        result = engine.execute(
            "eval",
            {
                "formula": {"kind": "exists", "value": 1},
                "horizon": 3,
                "point": [0, 0],
            },
        )
        assert result["system"]["runs"] == len(crash3.runs)
        assert result["placement"] == "inline"
        assert isinstance(result["holds"], bool)
        assert len(result["digest"]) == 64

    def test_eval_catalog_reference(self):
        engine = QueryEngine()
        result = engine.execute(
            "eval",
            {"catalog": {"experiment": "E4", "formula": "everyone-exists1"}},
        )
        assert result["formula"] == "E4/everyone-exists1"
        assert "kernel" not in result

    def test_ast_formula_named_by_its_spec(self):
        from repro.model.provider import SystemProvider

        spec = {"of": {"value": 1, "kind": "exists"}, "kind": "continual_common"}
        params = {"formula": spec, "horizon": 2}
        names = [
            QueryEngine(provider=SystemProvider()).execute(
                "eval", dict(params)
            )["formula"]
            for _ in range(2)
        ]
        assert names[0] == names[1]
        assert " at 0x" not in names[0]
        assert names[0] == (
            '{"kind":"continual_common","of":{"kind":"exists","value":1}}'
        )

    def test_first_eval_builds_its_cell_inline_and_keeps_it(self):
        from repro.model.provider import SystemProvider

        provider = SystemProvider()
        engine = QueryEngine(provider=provider)
        result = engine.execute(
            "eval", {"formula": {"kind": "true"}, "n": 3, "horizon": 2}
        )
        assert result["placement"] == "inline"
        assert provider.cache_info()["keys"] == [("crash", 3, 1, 2)]

    @pytest.mark.parametrize("param", ["bogus", "kernel"])
    def test_params_the_wire_rejects_raise(self, param):
        engine = QueryEngine()
        params = {
            "catalog": {"experiment": "E4", "formula": "common-exists1"},
            param: 1,
        }
        with pytest.raises(ProtocolError, match=f"unknown param '{param}'"):
            engine.execute("eval", params)

    def test_unknown_catalog_entry_raises_key_error(self):
        engine = QueryEngine()
        with pytest.raises(KeyError):
            engine.execute(
                "eval",
                {"catalog": {"experiment": "E4", "formula": "nope"}},
            )

    def test_point_outside_system_raises_key_error(self):
        engine = QueryEngine()
        with pytest.raises(KeyError):
            engine.execute(
                "eval",
                {
                    "formula": {"kind": "true"},
                    "horizon": 2,
                    "point": [999999, 0],
                },
            )

    def test_point_budget_enforced(self):
        engine = QueryEngine(budget=QueryBudget(max_points=10))
        with pytest.raises(BudgetExceeded):
            engine.execute("eval", {"formula": {"kind": "true"}, "horizon": 2})

    def test_explain_round_trip(self):
        engine = QueryEngine()
        result = engine.execute(
            "explain",
            {"catalog": {"experiment": "E4", "formula": "common-exists1"}},
        )
        assert result["check_ok"] is True
        assert result["problems"] == []
        assert "rendered" in result

    def test_extend_grows_resident_cell(self):
        engine = QueryEngine()
        result = engine.execute(
            "extend", {"mode": "crash", "n": 3, "t": 1, "horizon": 3}
        )
        assert result["system"]["horizon"] == 3

    def test_monitor_streams_per_round(self):
        engine = QueryEngine()
        events = []
        result = engine.execute(
            "monitor",
            {
                "mode": "crash",
                "n": 3,
                "t": 1,
                "config": "011",
                "rounds": 2,
                "crash": ["0:1"],
            },
            emit=events.append,
        )
        assert [event["round"] for event in events] == [1, 2]
        assert result["rounds"] == 2
        assert set(result["verdicts"]) == {
            "knows",
            "everyone",
            "continual_common",
        }


class TestResolveAndBudget:
    """An ``eval`` is resolved once; a cell over the point budget is
    rejected before it is built."""

    def test_inline_eval_builds_its_formula_once(self, crash3, monkeypatch):
        from repro.serve import session

        calls = []

        def counting(spec, n=None):
            calls.append(spec)
            return build_formula(spec, n)

        monkeypatch.setattr(session, "build_formula", counting)
        engine = QueryEngine()
        result = engine.execute(
            "eval", {"formula": {"kind": "exists", "value": 1}, "horizon": 3}
        )
        assert result["placement"] == "inline"
        assert len(calls) == 1

    #: Whether the provider holds the request's cell when the request
    #: comes: ``"auto"`` -- an earlier request built it and the provider
    #: kept it, as it keeps every cell it builds; ``"never"`` -- nothing
    #: has built it.
    EARLIER_BUILDS = ["auto", "never"]

    @pytest.mark.parametrize("earlier_build", EARLIER_BUILDS)
    def test_bad_requests_raise_as_before(self, earlier_build):
        from repro.model.provider import SystemProvider

        engine = QueryEngine(provider=SystemProvider())
        if earlier_build == "auto":
            engine.execute(
                "eval",
                {
                    "formula": {"kind": "exists", "value": 1},
                    "n": 3,
                    "t": 1,
                    "horizon": 2,
                },
            )
            assert engine.provider.cache_info()["size"] == 1
        with pytest.raises(ProtocolError, match="unknown formula kind"):
            engine.execute("eval", {"formula": {"kind": "telepathy"}})
        with pytest.raises(KeyError):
            engine.execute(
                "eval", {"catalog": {"experiment": "E4", "formula": "nope"}}
            )
        with pytest.raises(ProtocolError, match="need n >= 2"):
            engine.execute(
                "extend", {"mode": "crash", "n": 3, "t": 3, "horizon": 2}
            )

    @pytest.mark.parametrize(
        "op,params",
        [
            (
                "eval",
                {"formula": {"kind": "true"}, "n": 5, "t": 1, "horizon": 3},
            ),
            ("extend", {"mode": "crash", "n": 5, "t": 1, "horizon": 3}),
            ("explain", {"catalog": _COMMON_EXISTS1, "n": 5}),
            (
                "monitor",
                {
                    "mode": "crash",
                    "n": 5,
                    "t": 1,
                    "config": "01101",
                    "rounds": 2,
                },
            ),
        ],
    )
    @pytest.mark.parametrize("earlier_build", EARLIER_BUILDS)
    def test_over_budget_cell_is_never_built(self, op, params, earlier_build):
        """The budget is checked before the provider is asked, so a
        cell already in memory is refused as a missing one is."""
        from repro import obs
        from repro.model.provider import SystemProvider

        provider = SystemProvider()
        if earlier_build == "auto":
            # Under the default budget the same request builds its cell.
            QueryEngine(provider=provider, budget=QueryBudget()).execute(
                op, params
            )
            assert provider.cache_info()["size"] >= 1
        misses = provider.cache_info()["misses"]
        engine = QueryEngine(
            provider=provider, budget=QueryBudget(max_points=400)
        )
        def builds():
            return obs.snapshot()["counters"].get("system_fast_builds", 0)

        before = builds()
        with pytest.raises(BudgetExceeded, match="400-point") as info:
            engine.execute(op, params)
        assert info.value.limit == "max_points"
        assert builds() == before
        assert provider.cache_info()["misses"] == misses

    def test_eight_million_point_cell_refused_at_once(self):
        """Crash n=2 t=1 h=1000 (8,012,004 points) is refused under the
        default budget without a build, which would take seconds and
        hundreds of megabytes."""
        from repro.model.provider import SystemProvider

        provider = SystemProvider()
        engine = QueryEngine(provider=provider, budget=QueryBudget())
        began = time.monotonic()
        with pytest.raises(BudgetExceeded, match="has 8012004 points"):
            engine.execute(
                "eval",
                {"formula": {"kind": "true"}, "n": 2, "t": 1, "horizon": 1000},
            )
        assert time.monotonic() - began < 1.0
        assert provider.cache_info()["misses"] == 0

    @pytest.mark.parametrize("cell", _HOSTILE_CELLS)
    def test_hostile_cell_refused_before_the_exact_count(self, cell):
        from repro import obs
        from repro.model.provider import SystemProvider

        provider = SystemProvider()
        engine = QueryEngine(provider=provider, budget=QueryBudget())
        builds = obs.snapshot()["counters"].get("system_fast_builds", 0)
        began = time.monotonic()
        with pytest.raises(BudgetExceeded, match=r"has at least 2\*\*") as info:
            engine.execute("extend", dict(cell))
        assert time.monotonic() - began < 1.0
        assert info.value.limit == "max_points"
        assert obs.snapshot()["counters"].get("system_fast_builds", 0) == builds
        assert provider.cache_info()["misses"] == 0

    def test_budget_message_names_the_cell(self):
        engine = QueryEngine(budget=QueryBudget(max_points=400))
        with pytest.raises(BudgetExceeded) as info:
            engine.execute(
                "eval",
                {"formula": {"kind": "true"}, "n": 5, "t": 1, "horizon": 3},
            )
        assert str(info.value) == (
            "crash n=5 t=1 h=3 runs=7232 has 28928 points, "
            "over the 400-point budget"
        )


class TestOutOfRangeFields:
    """Fields outside the cell are ``bad_request`` (a ProtocolError) or,
    for points, ``not_found`` — never a wrapped-around verdict from
    Python's negative indexing, and never an ``internal`` error."""

    @staticmethod
    def _eval(formula, **params):
        engine = QueryEngine()
        return engine.execute(
            "eval", dict({"formula": formula, "horizon": 3}, **params)
        )

    def test_negative_knows_processor_rejected(self, crash3):
        with pytest.raises(ProtocolError, match="processor -1"):
            self._eval(
                {
                    "kind": "knows",
                    "processor": -1,
                    "of": {"kind": "exists", "value": 1},
                }
            )

    def test_negative_atom_processor_rejected(self, crash3):
        with pytest.raises(ProtocolError, match="processor -1"):
            self._eval(
                {"kind": "initial_value_is", "processor": -1, "value": 1}
            )

    def test_atom_processor_beyond_n_rejected(self, crash3):
        with pytest.raises(ProtocolError, match="processor 7"):
            self._eval({"kind": "is_nonfaulty", "processor": 7})

    def test_knows_processor_beyond_n_rejected(self, crash3):
        with pytest.raises(ProtocolError, match="processor 9"):
            self._eval(
                {
                    "kind": "knows",
                    "processor": 9,
                    "of": {"kind": "exists", "value": 1},
                }
            )

    def test_value_outside_binary_rejected(self, crash3):
        with pytest.raises(ProtocolError, match="must be 0 or 1"):
            self._eval({"kind": "exists", "value": 5})

    @pytest.mark.parametrize(
        "cell",
        [{"n": 0}, {"n": 3, "t": 3}, {"n": 3, "t": 1, "horizon": 0}],
        ids=["n0", "t-ge-n", "horizon0"],
    )
    def test_bad_cell_rejected(self, cell):
        with pytest.raises(ProtocolError, match="need n >= 2"):
            self._eval({"kind": "true"}, **cell)

    def test_unknown_kernel_rejected(self):
        """``kernel`` is no eval param: a request naming one is rejected
        like any unknown param."""
        problems = validate_request(
            {
                "id": 1,
                "op": "eval",
                "params": {"formula": {"kind": "true"}, "kernel": "chunked"},
            }
        )
        assert problems == ["eval: unknown param 'kernel'"]

    def test_explain_point_outside_system_is_not_found(self):
        engine = QueryEngine()
        with pytest.raises(KeyError, match="outside system"):
            engine.execute(
                "explain",
                {
                    "catalog": {"experiment": "E4", "formula": "common-exists1"},
                    "point": [999999, 0],
                },
            )


# ---------------------------------------------------------------------------
# satellite: provider thread-safety regression


class TestProviderConcurrency:
    def test_concurrent_get_extend_and_arrays(self, crash3):
        from repro.model.provider import SystemProvider

        provider = SystemProvider(max_memory_entries=4)
        errors = []
        barrier = threading.Barrier(8)

        def hammer(index):
            try:
                barrier.wait(timeout=30)
                for _ in range(5):
                    system = provider.get(FailureMode.CRASH, 3, 1, 2)
                    assert system.horizon == 2
                    grown = provider.get(FailureMode.CRASH, 3, 1, 3)
                    assert grown.horizon == 3
                    assert system.arrays() is not None
                    provider.cache_info()
            except Exception as error:  # noqa: BLE001 — collected below
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        info = provider.cache_info()
        assert info["size"] <= 4
        # Each cell was built once, whichever thread missed it first.
        assert info["misses"] == 2


# ---------------------------------------------------------------------------
# the live daemon


def _spawn_daemon(socket_path, *extra, journal=None, port=None):
    """A ``repro-eba serve`` subprocess on *socket_path*, or on TCP
    *port* when one is given, once it answers ``healthz``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    endpoint = ["--socket", socket_path]
    if port is not None:
        endpoint = ["--port", str(port)]
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        *endpoint,
        *extra,
    ]
    if journal:
        argv += ["--journal", journal]
    process = subprocess.Popen(
        argv,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if process.poll() is not None:
            with process:
                raise RuntimeError(
                    f"daemon died at startup:\n{process.stdout.read()}"
                )
        if daemon_available(socket_path, port=port, timeout=0.5):
            return process
        time.sleep(0.2)
    with process:
        process.kill()
    raise RuntimeError("daemon did not come up within 60s")


def _stop_daemon(process, socket_path):
    """SIGTERM the daemon, check it drained cleanly, close its pipe."""
    with process:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30)
        assert returncode == 0, process.stdout.read()
    assert not os.path.exists(socket_path)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A generously budgeted daemon plus its journal path."""
    tmp = tmp_path_factory.mktemp("serve")
    socket_path = str(tmp / "serve.sock")
    journal_path = str(tmp / "serve_journal.jsonl")
    process = _spawn_daemon(socket_path, journal=journal_path)
    try:
        yield {"socket": socket_path, "journal": journal_path}
    finally:
        _stop_daemon(process, socket_path)


@pytest.fixture(scope="module")
def strict_daemon(tmp_path_factory):
    """Failure-path daemon: one worker, queue bound 1, debug ops on."""
    tmp = tmp_path_factory.mktemp("serve_strict")
    socket_path = str(tmp / "strict.sock")
    journal_path = str(tmp / "strict_journal.jsonl")
    process = _spawn_daemon(
        socket_path,
        "--debug",
        "--workers",
        "1",
        "--max-queue",
        "1",
        "--max-points",
        "400",
        journal=journal_path,
    )
    try:
        yield {"socket": socket_path, "journal": journal_path}
    finally:
        _stop_daemon(process, socket_path)


@pytest.fixture(scope="module")
def debug_daemon(tmp_path_factory):
    """Two queries at once, debug ops on."""
    tmp = tmp_path_factory.mktemp("serve_debug")
    socket_path = str(tmp / "debug.sock")
    process = _spawn_daemon(socket_path, "--debug", "--workers", "2")
    try:
        yield {"socket": socket_path}
    finally:
        _stop_daemon(process, socket_path)


def _parity_cases():
    from repro.knowledge.explain import EXPLAIN_CATALOG

    for experiment in PARITY_EXPERIMENTS:
        for formula_key in EXPLAIN_CATALOG[experiment]:
            yield experiment, formula_key


class TestDaemonRoundTrips:
    def test_healthz_and_stats(self, daemon):
        with ServeClient(daemon["socket"]) as client:
            health = client.healthz()
            assert health["ok"] is True
            assert "repro_serve_connections_total" in health["prometheus"]
            stats = client.stats()
            assert stats["protocol"] == PROTOCOL_VERSION
            assert stats["queue"]["max_depth"] >= 1
            assert "cache" in stats

    def test_eval_explain_extend(self, daemon):
        with ServeClient(daemon["socket"]) as client:
            result = client.request(
                "eval",
                catalog={"experiment": "E4", "formula": "everyone-exists1"},
                point=[0, 1],
            )
            assert result["system"] == {
                "mode": "crash",
                "n": 3,
                "t": 1,
                "horizon": 3,
                "runs": 224,
                "points": 896,
            }
            assert result["holds"] is False
            explained = client.request(
                "explain",
                catalog={"experiment": "E4", "formula": "common-exists1"},
            )
            assert explained["check_ok"] is True
            extended = client.request(
                "extend", mode="crash", n=3, t=1, horizon=3
            )
            assert extended["system"]["horizon"] == 3

    def test_first_eval_on_a_cold_cell_is_inline_and_stays(self, daemon):
        cell = {"mode": "receive-omission", "n": 3, "t": 1, "horizon": 1}
        key = [cell["mode"], cell["n"], cell["t"], cell["horizon"]]
        with ServeClient(daemon["socket"]) as client:
            assert key not in client.stats()["cache"]["keys"]
            result = client.request("eval", formula={"kind": "true"}, **cell)
            assert result["placement"] == "inline"
            assert key in client.stats()["cache"]["keys"]

    def test_monitor_streams_rounds(self, daemon):
        with ServeClient(daemon["socket"]) as client:
            frames = list(
                client.stream(
                    "monitor",
                    mode="crash",
                    n=3,
                    t=1,
                    config="011",
                    rounds=3,
                    crash=["0:1"],
                )
            )
        events, terminal = frames[:-1], frames[-1]
        assert [event["round"] for event in events] == [1, 2, 3]
        for event in events:
            assert set(event["verdicts"]) == {
                "knows",
                "everyone",
                "continual_common",
            }
        assert terminal["rounds"] == 3

    def test_malformed_frames_rejected_connection_survives(self, daemon):
        raw = socket_module.socket(socket_module.AF_UNIX)
        raw.settimeout(10)
        raw.connect(daemon["socket"])
        reader = raw.makefile("rb")
        try:
            raw.sendall(b"this is not json\n")
            frame = json.loads(reader.readline())
            assert frame["ok"] is False
            assert frame["error"]["code"] == "bad_frame"
            raw.sendall(b'{"id": 1, "op": "frobnicate"}\n')
            frame = json.loads(reader.readline())
            assert frame["error"]["code"] == "bad_request"
            assert "unknown op" in frame["error"]["message"]
            # The connection is still serviceable after both rejections.
            raw.sendall(b'{"id": 2, "op": "healthz", "params": {}}\n')
            frame = json.loads(reader.readline())
            assert frame["ok"] is True
        finally:
            reader.close()
            raw.close()

    def test_out_of_range_processor_is_bad_request(self, daemon):
        with ServeClient(daemon["socket"]) as client:
            with pytest.raises(ServeError) as info:
                client.request(
                    "eval",
                    formula={
                        "kind": "knows",
                        "processor": -1,
                        "of": {"kind": "exists", "value": 1},
                    },
                )
            assert info.value.code == "bad_request"

    def test_unknown_catalog_is_not_found(self, daemon):
        with ServeClient(daemon["socket"]) as client:
            with pytest.raises(ServeError) as info:
                client.request(
                    "eval",
                    catalog={"experiment": "E4", "formula": "no-such"},
                )
            assert info.value.code == "not_found"

    def test_journal_is_schema_valid(self, daemon):
        from repro.obs.journal import validate_journal

        with ServeClient(daemon["socket"]) as client:
            client.healthz()
        assert validate_journal(daemon["journal"]) == []
        with open(daemon["journal"], encoding="utf-8") as journal:
            events = [json.loads(line) for line in journal]
        assert any(e["event"] == "serve_request" for e in events)

    def test_served_verdicts_match_in_process(self, daemon):
        """Acceptance: byte-identical digests, E4/E5/E21."""
        engine = QueryEngine()
        with ServeClient(daemon["socket"]) as client:
            for experiment, formula_key in _parity_cases():
                params = {
                    "catalog": {
                        "experiment": experiment,
                        "formula": formula_key,
                    }
                }
                served = client.request("eval", **params)
                local = engine.execute("eval", dict(params))
                assert served["digest"] == local["digest"], (
                    experiment,
                    formula_key,
                )
                assert served["count_true"] == local["count_true"]
                assert served["valid"] == local["valid"]

    def test_kernel_param_is_bad_request(self, daemon):
        with ServeClient(daemon["socket"]) as client:
            with pytest.raises(ServeError) as info:
                client.request(
                    "eval",
                    catalog={"experiment": "E4", "formula": "common-exists1"},
                    kernel="chunked",
                )
            assert info.value.code == "bad_request"
            assert "unknown param 'kernel'" in str(info.value)

    def test_32_concurrent_queries(self, daemon):
        """Acceptance: the daemon sustains 32 concurrent queries."""
        digests = []
        errors = []
        lock = threading.Lock()

        def one_query():
            try:
                with ServeClient(daemon["socket"]) as client:
                    result = client.request(
                        "eval",
                        catalog={
                            "experiment": "E4",
                            "formula": "everyone-exists1",
                        },
                    )
                with lock:
                    digests.append(result["digest"])
            except Exception as error:  # noqa: BLE001 — collected below
                with lock:
                    errors.append(error)

        threads = [threading.Thread(target=one_query) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        assert len(digests) == 32
        assert len(set(digests)) == 1


class TestDaemonFailureModes:
    def test_queue_full_backpressure(self, strict_daemon):
        """workers=1 + max-queue=1: the third in-flight request bounces."""
        clients = [
            ServeClient(strict_daemon["socket"], timeout=30)
            for _ in range(3)
        ]
        try:
            first = clients[0]._send("debug_sleep", {"seconds": 2.0})
            time.sleep(0.8)  # worker picks it up; queue is empty again
            second = clients[1]._send("debug_sleep", {"seconds": 0.1})
            time.sleep(0.2)  # admitted; queue now at its bound of 1
            third = clients[2]._send("debug_sleep", {"seconds": 0.1})
            rejected = clients[2]._read_frame(third)
            assert rejected["ok"] is False
            assert rejected["error"]["code"] == "queue_full"
            assert rejected["error"]["max_depth"] == 1
            # The two admitted requests still complete.
            assert clients[0]._read_frame(first)["ok"] is True
            assert clients[1]._read_frame(second)["ok"] is True
        finally:
            for client in clients:
                client.close()

    def test_budget_exceeded_over_the_wire(self, strict_daemon):
        with ServeClient(strict_daemon["socket"]) as client:
            with pytest.raises(ServeError) as info:
                # 896 points > the daemon's 400-point budget.
                client.request(
                    "eval",
                    catalog={
                        "experiment": "E4",
                        "formula": "everyone-exists1",
                    },
                )
            assert info.value.code == "budget_exceeded"
            assert info.value.error.get("limit") == "max_points"

    def test_debug_sleep_needs_debug_flag(self, daemon):
        with ServeClient(daemon["socket"]) as client:
            with pytest.raises(ServeError) as info:
                client.request("debug_sleep", seconds=0.01)
            assert info.value.code == "bad_request"

    def test_client_killed_mid_query_daemon_survives(self, strict_daemon):
        raw = socket_module.socket(socket_module.AF_UNIX)
        raw.connect(strict_daemon["socket"])
        raw.sendall(
            encode_frame(
                {
                    "id": 1,
                    "op": "debug_sleep",
                    "params": {"seconds": 1.0},
                }
            )
        )
        raw.close()  # gone before the response can be written
        time.sleep(1.5)
        assert daemon_available(strict_daemon["socket"])
        with ServeClient(strict_daemon["socket"]) as client:
            assert client.healthz()["ok"] is True


class TestConnectionThreads:
    """Each connection's thread answers its requests, in the order sent."""

    def test_pipelined_requests_answered_in_order_sent(self, debug_daemon):
        with ServeClient(debug_daemon["socket"], timeout=30) as client:
            slow = client._send("debug_sleep", {"seconds": 0.5})
            fast = client._send("debug_sleep", {"seconds": 0.01})
            frames = [decode_frame(client._reader.readline()) for _ in "ab"]
        assert [frame["id"] for frame in frames] == [slow, fast]
        assert all(frame["ok"] for frame in frames)

    def test_stats_answered_while_every_slot_is_busy(self, strict_daemon):
        with ServeClient(strict_daemon["socket"], timeout=30) as busy:
            sleeping = busy._send("debug_sleep", {"seconds": 2.0})
            time.sleep(0.2)
            with ServeClient(strict_daemon["socket"], timeout=30) as other:
                began = time.monotonic()
                stats = other.stats()
                assert time.monotonic() - began < 1.0
            assert stats["protocol"] == PROTOCOL_VERSION
            assert busy._read_frame(sleeping)["ok"] is True

    def test_request_seconds_include_the_wait_for_a_slot(self, tmp_path):
        """``serve_request_seconds`` runs from the frame's read: a request
        that waited behind a 0.5 s sleep records at least 0.5 s.

        The daemon is this test's own and is drained before its journal
        is read, so the journal holds both requests' events (each is
        written after its reply) and no other request's."""
        socket_path = str(tmp_path / "wait.sock")
        journal_path = str(tmp_path / "wait_journal.jsonl")
        process = _spawn_daemon(
            socket_path, "--debug", "--workers", "1", journal=journal_path
        )
        try:
            with ServeClient(socket_path, timeout=30) as first:
                with ServeClient(socket_path, timeout=30) as second:
                    ahead = first._send("debug_sleep", {"seconds": 0.5})
                    time.sleep(0.1)
                    behind = second._send("debug_sleep", {"seconds": 0.3})
                    assert first._read_frame(ahead)["ok"] is True
                    assert second._read_frame(behind)["ok"] is True
        finally:
            _stop_daemon(process, socket_path)
        with open(journal_path, encoding="utf-8") as journal:
            events = [json.loads(line) for line in journal]
        sleeps = [
            event["seconds"]
            for event in events
            if event["event"] == "serve_request"
            and event["op"] == "debug_sleep"
        ]
        # One slept 0.5 s; the other slept 0.3 s after waiting for the
        # slot, so it records 0.5 s or more only with the wait included.
        assert len(sleeps) == 2
        assert min(sleeps) >= 0.5

    def test_hostile_cells_refused_while_stats_answers(self, daemon):
        with ServeClient(daemon["socket"], timeout=10) as hostile:
            with ServeClient(daemon["socket"], timeout=10) as other:
                began = time.monotonic()
                sent = [hostile._send("extend", cell) for cell in _HOSTILE_CELLS]
                stats = other.stats()
                replies = [hostile._read_frame(request) for request in sent]
                elapsed = time.monotonic() - began
        assert stats["protocol"] == PROTOCOL_VERSION
        assert [reply["error"]["code"] for reply in replies] == [
            "budget_exceeded"
        ] * len(_HOSTILE_CELLS)
        assert elapsed < 1.0

    def test_connection_dropped_when_its_thread_cannot_start(
        self, tmp_path, monkeypatch
    ):
        """Out of threads, the acceptor closes the new connection and keeps
        serving; the drain still ends and removes the socket."""
        from repro.serve.server import KnowledgeServer, ServeConfig

        start = threading.Thread.start
        refused = []

        def start_or_refuse(thread):
            if thread.name == "serve-connection" and not refused:
                refused.append(thread)
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_or_refuse)
        socket_path = str(tmp_path / "threads.sock")
        server = KnowledgeServer(ServeConfig(socket_path=socket_path))
        # Started off the main thread, so no signal handler is installed
        # in the test process.
        binder = threading.Thread(target=server.start)
        binder.start()
        binder.join()
        acceptor = threading.Thread(target=server.serve_forever)
        acceptor.start()
        try:
            with socket_module.socket(socket_module.AF_UNIX) as raw:
                raw.settimeout(10)
                raw.connect(socket_path)
                assert raw.recv(1) == b""
            with ServeClient(socket_path, timeout=30) as client:
                assert client.healthz()["ok"] is True
        finally:
            server.request_shutdown("test")
            acceptor.join(timeout=30)
        assert refused and not acceptor.is_alive()
        assert not server._connections
        assert not os.path.exists(socket_path)

    def test_ended_connection_releases_freed_memory(
        self, tmp_path, monkeypatch
    ):
        """A connection's thread trims the malloc arenas as it ends, so
        what its requests freed is not held beside the next thread's."""
        from repro.serve import server as server_module

        ended = threading.Event()
        monkeypatch.setattr(server_module, "_release_freed_memory", ended.set)
        socket_path = str(tmp_path / "trim.sock")
        server = server_module.KnowledgeServer(
            server_module.ServeConfig(socket_path=socket_path)
        )
        binder = threading.Thread(target=server.start)
        binder.start()
        binder.join()
        acceptor = threading.Thread(target=server.serve_forever)
        acceptor.start()
        try:
            with ServeClient(socket_path, timeout=30) as client:
                assert client.healthz()["ok"] is True
            assert ended.wait(timeout=30)
        finally:
            server.request_shutdown("test")
            acceptor.join(timeout=30)
        assert not acceptor.is_alive()
        monkeypatch.undo()
        server_module._release_freed_memory()  # the real one never raises

    def test_eval_answered_with_64_idle_connections_open(self, daemon):
        idle = []
        try:
            for _ in range(64):
                raw = socket_module.socket(socket_module.AF_UNIX)
                idle.append(raw)
                raw.connect(daemon["socket"])
            with ServeClient(daemon["socket"], timeout=30) as client:
                result = client.request("eval", catalog=_COMMON_EXISTS1)
            assert result["count_true"] == 386
        finally:
            for raw in idle:
                raw.close()

    def test_over_long_frame_drops_the_connection(self, daemon):
        from repro.serve.server import MAX_FRAME_BYTES

        raw = socket_module.socket(socket_module.AF_UNIX)
        raw.settimeout(10)
        raw.connect(daemon["socket"])
        try:
            try:
                raw.sendall(b"x" * (MAX_FRAME_BYTES + 2))
                closed = raw.recv(1) == b""
            except OSError:
                closed = True  # reset while the frame was still going out
            assert closed
        finally:
            raw.close()
        assert daemon_available(daemon["socket"])

    def test_tcp_round_trip(self, tmp_path):
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        process = _spawn_daemon(None, port=port)
        try:
            with ServeClient(port=port, timeout=30) as client:
                result = client.request("eval", catalog=_COMMON_EXISTS1)
            assert result["digest"] == (
                "6c59c920e14fd5d368d9d10667547cb1"
                "61416a267aef70cf5d05f6d95b73e77b"
            )
        finally:
            with process:
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=30) == 0, process.stdout.read()


class TestGracefulShutdown:
    def test_sigterm_drains_in_flight_work(self, tmp_path):
        socket_path = str(tmp_path / "drain.sock")
        process = _spawn_daemon(
            socket_path, "--debug", "--workers", "1"
        )
        client = ServeClient(socket_path, timeout=30)
        try:
            request_id = client._send("debug_sleep", {"seconds": 2.0})
            time.sleep(0.5)  # running on the connection's thread
            process.send_signal(signal.SIGTERM)
            time.sleep(0.3)
            # New work on the existing connection, sent while the
            # in-flight request drains...
            late = client._send("debug_sleep", {"seconds": 0.1})
            # ...is answered in the order sent: the admitted request
            # completes before exit...
            frame = client._read_frame(request_id)
            assert frame["ok"] is True
            assert frame["result"]["slept"] == 2.0
            # ...and the late one is refused.
            frame = client._read_frame(late)
            assert frame["error"]["code"] == "shutting_down"
        finally:
            client.close()
        with process:
            assert process.wait(timeout=30) == 0
        assert not os.path.exists(socket_path)

    def test_drain_ends_with_a_client_that_never_reads(self, tmp_path):
        """A client that pipelines requests but reads no reply stalls its
        connection's writes; the drain still finishes and exits 0."""
        socket_path = str(tmp_path / "unread.sock")
        process = _spawn_daemon(socket_path)
        raw = socket_module.socket(socket_module.AF_UNIX)
        raw.connect(socket_path)
        frame = encode_frame({"id": 1, "op": "healthz", "params": {}})

        def pump():
            try:
                for _ in range(20_000):
                    raw.sendall(frame)
            except OSError:
                pass  # the daemon ended the connection

        pumping = threading.Thread(target=pump)
        pumping.start()
        try:
            time.sleep(1.0)
            process.send_signal(signal.SIGTERM)
            with process:
                try:
                    returncode = process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    process.kill()
                    raise
            assert returncode == 0
            assert not os.path.exists(socket_path)
        finally:
            try:
                raw.shutdown(socket_module.SHUT_RDWR)
            except OSError:
                pass
            pumping.join(timeout=30)
            raw.close()

    def test_live_daemon_socket_is_refused(self, daemon):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        second = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", daemon["socket"]],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert second.returncode != 0
        assert "already has a live daemon" in second.stdout + second.stderr
        assert daemon_available(daemon["socket"])

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        socket_path = str(tmp_path / "stale.sock")
        dead = socket_module.socket(socket_module.AF_UNIX)
        dead.bind(socket_path)
        dead.close()  # leaves the file behind, nobody listening
        assert os.path.exists(socket_path)
        process = _spawn_daemon(socket_path)
        try:
            assert daemon_available(socket_path)
        finally:
            _stop_daemon(process, socket_path)


class TestCliSettingsErrors:
    """``serve`` and the ``query`` fallback report bad settings as one
    ``repro-eba: ...`` line and exit 2, like every other command."""

    @staticmethod
    def _refused(capsys, argv, needle):
        from repro.cli import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-eba: ") and needle in line
        assert captured.out == ""

    def test_serve_with_no_workers(self, capsys, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        self._refused(
            capsys,
            ["serve", "--socket", socket_path, "--workers", "0"],
            "workers >= 1",
        )
        assert not os.path.exists(socket_path)

    def test_serve_with_a_bad_point_budget_env(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVE_MAX_POINTS", "abc")
        socket_path = str(tmp_path / "serve.sock")
        self._refused(
            capsys, ["serve", "--socket", socket_path], "REPRO_SERVE_MAX_POINTS"
        )
        assert not os.path.exists(socket_path)

    def test_serve_on_a_live_socket(self, capsys, tmp_path):
        socket_path = str(tmp_path / "live.sock")
        with socket_module.socket(socket_module.AF_UNIX) as live:
            live.bind(socket_path)
            live.listen(1)
            self._refused(
                capsys,
                ["serve", "--socket", socket_path],
                "already has a live daemon",
            )

    def test_query_fallback_with_a_zero_point_budget(self, capsys):
        self._refused(
            capsys,
            ["query", "eval", "--local", "--catalog", "E4/common-exists1",
             "--max-points", "0"],
            "max_points >= 1",
        )


class TestQueryCliFallback:
    def test_query_local_eval_matches_daemonless(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "query",
                "eval",
                "--local",
                "--catalog",
                "E4/everyone-exists1",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["formula"] == "E4/everyone-exists1"
        assert payload["placement"] == "inline"
