"""Protocol registry: names to protocols, for the CLI and experiments.

Two namespaces, reflecting the library's two layers:

* **concrete** protocols run on the simulator over any scenario iterable;
* **knowledge-level** protocols are decision-pair factories that need an
  enumerated system.

``outcome_for`` resolves either kind uniformly, which is what lets the CLI
say ``repro-eba compare P0opt F_LAMBDA2 --mode crash`` without caring which
layer each name lives in.  ``compare`` and ``diagram`` get concrete
protocols from ``concrete_protocol``, which runs the protocol's scenario
guard first.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from ..core.outcomes import ProtocolOutcome
from ..errors import ConfigurationError
from ..model.system import ScenarioKey, System
from .base import ConcreteProtocol
from .chain_eba import chain_eba
from .chain_fip import chain_pair
from .dm90 import dm90_waste
from .f_lambda import f_lambda_2_pair, zcr_ocr_pair
from .f_star import f_star_pair
from .f_zero import f_zero_pair
from .fip import fip
from .flood_sba import assert_crash_pattern, flood_sba
from .p0 import p0, p1
from .p0opt import p0opt
from .sba_ck import sba_common_knowledge_pair

#: Concrete protocols: name -> zero-argument factory.
CONCRETE_PROTOCOLS: Dict[str, Callable[[], ConcreteProtocol]] = {
    "P0": p0,
    "P1": p1,
    "P0opt": p0opt,
    "FloodSBA": flood_sba,
    "ChainEBA": chain_eba,
    "DM90Waste": dm90_waste,
}

#: Knowledge-level protocols: name -> (system -> DecisionPair).
KNOWLEDGE_PROTOCOLS: Dict[str, Callable[[System], object]] = {
    "F_LAMBDA2": f_lambda_2_pair,
    "F_STAR": f_star_pair,
    "F_ZERO": f_zero_pair,
    "CHAIN_FIP": chain_pair,
    "SBA_CK": sba_common_knowledge_pair,
    "ZCR_OCR": zcr_ocr_pair,
}


def protocol_names() -> List[str]:
    """Every registered protocol name (concrete first)."""
    return list(CONCRETE_PROTOCOLS) + list(KNOWLEDGE_PROTOCOLS)


def is_knowledge_level(name: str) -> bool:
    """Whether *name* resolves to a knowledge-level protocol."""
    if name in KNOWLEDGE_PROTOCOLS:
        return True
    if name in CONCRETE_PROTOCOLS:
        return False
    raise ConfigurationError(
        f"unknown protocol {name!r}; known: {', '.join(protocol_names())}"
    )


def concrete_protocol(
    name: str, scenarios: Iterable[ScenarioKey]
) -> ConcreteProtocol:
    """A fresh instance of the named concrete protocol, once its scenario
    guard has accepted every ``(config, pattern)`` in *scenarios*.

    Raises:
        UnsupportedModeError: for ``FloodSBA`` with a pattern that is not
            a crash pattern.
    """
    if name == "FloodSBA":
        for _config, pattern in scenarios:
            assert_crash_pattern(pattern)
    return CONCRETE_PROTOCOLS[name]()


def outcome_for(name: str, system: System, t: int = None) -> ProtocolOutcome:
    """Run the named protocol over *system*'s scenario space.

    Concrete protocols execute on the simulator over ``system.scenarios()``;
    knowledge-level ones evaluate their decision pair over the system.
    Either way the result covers corresponding runs, so any two registry
    outcomes over the same system are directly comparable.

    Raises:
        UnsupportedModeError: for ``FloodSBA`` over a system with a
            pattern that is not a crash pattern.
    """
    t = system.t if t is None else t
    if is_knowledge_level(name):
        pair = KNOWLEDGE_PROTOCOLS[name](system)
        protocol = fip(pair)
        protocol.assert_no_nonfaulty_conflicts(system)
        outcome = protocol.outcome(system)
        outcome.name = name
        return outcome
    from ..sim.engine import run_over_scenarios

    scenarios = system.scenarios()
    outcome = run_over_scenarios(
        concrete_protocol(name, scenarios), scenarios, system.horizon, t
    )
    outcome.name = name
    return outcome
