"""Synchronous round-based execution of concrete protocols, plus the
streaming knowledge monitor."""

from .engine import (
    ScenarioViews,
    execute,
    run_over_scenarios,
    traces_over_scenarios,
)
from .monitor import StreamingMonitor, monitor_scenario
from .trace import Trace

__all__ = [
    "ScenarioViews",
    "StreamingMonitor",
    "Trace",
    "execute",
    "monitor_scenario",
    "run_over_scenarios",
    "traces_over_scenarios",
]
