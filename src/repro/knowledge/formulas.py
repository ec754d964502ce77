"""Formula AST for the knowledge logic of Section 3.

Formulas are immutable trees; every node knows how to evaluate itself over a
:class:`~repro.model.system.System` (producing a
:class:`~repro.model.system.TruthAssignment`) and exposes a structural
``cache_key`` so repeated evaluation of the same formula over the same
system is free.

Nodes mirror the paper's language:

========================  =====================================
paper                     here
========================  =====================================
``∃0`` / ``∃1``           :class:`Exists`
``¬ φ``                   :class:`Not`
``φ ∧ ψ``                 :class:`And`
``φ ⇒ ψ``                 :class:`Implies`
``K_i φ``                 :class:`Knows`
``B_i^S φ``               :class:`Believes`
``E_S φ``                 :class:`Everyone`
``C_S φ``                 :class:`Common`
``□ φ`` / ``◇ φ``         :class:`Always` / :class:`Eventually`
``⊡ φ``                   :class:`AtAllTimes`
``E□_S φ``                :class:`EveryoneBox`
``C□_S φ``                :class:`ContinualCommon`
``i ∈ N``                 :class:`IsNonfaulty`
``S = ∅``                 :class:`SetEmpty`
``decide_i(v)``           :class:`Decided`
========================  =====================================

Run-level facts (those whose truth is time-independent, like ``∃0``) report
``is_run_level() == True``; :class:`ContinualCommon` exploits this to use the
fast reachability-component evaluator of Corollary 3.3.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Sequence, Tuple

from ..core.decision_sets import DecisionPair
from ..core.values import Value, check_value
from ..model.system import System, TruthAssignment
from . import semantics
from .nonrigid import NONFAULTY, NonrigidSet


class Formula(ABC):
    """Base class for knowledge-logic formulas."""

    @abstractmethod
    def cache_key(self) -> object:
        """Structural key identifying the formula for caching."""

    @abstractmethod
    def _evaluate(self, system: System) -> TruthAssignment:
        """Compute the truth assignment (no caching)."""

    def evaluate(self, system: System) -> TruthAssignment:
        """Truth assignment over *system*, memoized on the system."""
        return system.cached_evaluation(
            self.cache_key(), lambda: self._evaluate(system)
        )

    def holds_at(self, system: System, run_index: int, time: int) -> bool:
        """``(R, r, m) |= φ`` for the point ``(run_index, time)``."""
        return self.evaluate(system).at(run_index, time)

    def is_valid(self, system: System) -> bool:
        """``R |= φ``: truth at every point of *system*."""
        return self.evaluate(system).is_valid()

    def is_run_level(self) -> bool:
        """Whether truth is time-independent within each run."""
        return False

    # -- combinators (ergonomic sugar) --------------------------------------

    def negate(self) -> "Formula":
        return Not(self)

    def and_(self, other: "Formula") -> "Formula":
        return And((self, other))

    def implies(self, other: "Formula") -> "Formula":
        return Implies(self, other)


class TrueFormula(Formula):
    """The constant ``true``."""

    def cache_key(self) -> object:
        return ("true",)

    def _evaluate(self, system: System) -> TruthAssignment:
        return TruthAssignment.constant(system, True)

    def is_run_level(self) -> bool:
        return True


class FalseFormula(Formula):
    """The constant ``false``."""

    def cache_key(self) -> object:
        return ("false",)

    def _evaluate(self, system: System) -> TruthAssignment:
        return TruthAssignment.constant(system, False)

    def is_run_level(self) -> bool:
        return True


TRUE = TrueFormula()
FALSE = FalseFormula()


class Exists(Formula):
    """The run-level fact ``∃v``: some processor started with value ``v``."""

    def __init__(self, value: Value) -> None:
        self.value = check_value(value)

    def cache_key(self) -> object:
        return ("exists", self.value)

    def _evaluate(self, system: System) -> TruthAssignment:
        init = system.arrays().init
        return TruthAssignment.from_run_levels(
            system, (init == self.value).any(axis=1)
        )

    def is_run_level(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"∃{self.value}"


class AllStarted(Formula):
    """Run-level fact: *every* processor started with value ``v``."""

    def __init__(self, value: Value) -> None:
        self.value = check_value(value)

    def cache_key(self) -> object:
        return ("all-started", self.value)

    def _evaluate(self, system: System) -> TruthAssignment:
        init = system.arrays().init
        return TruthAssignment.from_run_levels(
            system, (init == self.value).all(axis=1)
        )

    def is_run_level(self) -> bool:
        return True


class IsNonfaulty(Formula):
    """The atom ``i ∈ N`` (time-independent under the EBA convention)."""

    def __init__(self, processor: int) -> None:
        self.processor = processor

    def cache_key(self) -> object:
        return ("is-nonfaulty", self.processor)

    def _evaluate(self, system: System) -> TruthAssignment:
        return TruthAssignment.from_run_levels(
            system, system.arrays().nonfaulty[:, self.processor]
        )

    def is_run_level(self) -> bool:
        return True


class InitialValueIs(Formula):
    """Run-level fact: processor ``i`` started with value ``v``."""

    def __init__(self, processor: int, value: Value) -> None:
        self.processor = processor
        self.value = check_value(value)

    def cache_key(self) -> object:
        return ("initial-value", self.processor, self.value)

    def _evaluate(self, system: System) -> TruthAssignment:
        init = system.arrays().init
        return TruthAssignment.from_run_levels(
            system, init[:, self.processor] == self.value
        )

    def is_run_level(self) -> bool:
        return True


class Decided(Formula):
    """``decide_i(v)``: processor ``i`` is deciding or has decided ``v``
    under the decision pair's full-information protocol.

    Truth at a point is simply membership of the processor's state in the
    (recall-closed) decision set — the paper's reading of ``decide_i(v)`` as
    "decides *or has decided*" (Section 4).
    """

    def __init__(self, pair: DecisionPair, processor: int, value: Value) -> None:
        self.pair = pair
        self.processor = processor
        self.value = check_value(value)

    def cache_key(self) -> object:
        return ("decided", self.pair.token, self.processor, self.value)

    def _evaluate(self, system: System) -> TruthAssignment:
        states = self.pair.zeros if self.value == 0 else self.pair.ones
        return TruthAssignment.from_states(system, self.processor, states)


class SetEmpty(Formula):
    """The atom ``S(r, m) = ∅`` for a nonrigid set ``S``."""

    def __init__(self, nonrigid: NonrigidSet) -> None:
        self.nonrigid = nonrigid

    def cache_key(self) -> object:
        return ("set-empty", self.nonrigid.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        empty = ~self.nonrigid.membership(system).any(axis=2)
        return TruthAssignment.from_rows(system, empty.tolist())


class Predicate(Formula):
    """Escape hatch: an arbitrary point predicate with an explicit key.

    Useful for facts computed outside the AST (e.g. the 0-chain fact ``∃0*``
    in :mod:`repro.knowledge.chains`).  The caller owns key uniqueness.
    """

    def __init__(
        self,
        key: object,
        compute: Callable[[System], TruthAssignment],
        run_level: bool = False,
    ) -> None:
        self._key = key
        self._compute = compute
        self._run_level = run_level

    def cache_key(self) -> object:
        return ("predicate", self._key)

    def _evaluate(self, system: System) -> TruthAssignment:
        return self._compute(system)

    def is_run_level(self) -> bool:
        return self._run_level


class Not(Formula):
    """Negation ``¬ φ``."""

    def __init__(self, operand: Formula) -> None:
        self.operand = operand

    def cache_key(self) -> object:
        return ("not", self.operand.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        return self.operand.evaluate(system).negate()

    def is_run_level(self) -> bool:
        return self.operand.is_run_level()


class And(Formula):
    """Conjunction over any number of operands."""

    def __init__(self, operands: Sequence[Formula]) -> None:
        self.operands: Tuple[Formula, ...] = tuple(operands)

    def cache_key(self) -> object:
        return ("and",) + tuple(op.cache_key() for op in self.operands)

    def _evaluate(self, system: System) -> TruthAssignment:
        result = TruthAssignment.constant(system, True)
        for operand in self.operands:
            result = result.conjoin(operand.evaluate(system))
        return result

    def is_run_level(self) -> bool:
        return all(op.is_run_level() for op in self.operands)


class Or(Formula):
    """Disjunction over any number of operands."""

    def __init__(self, operands: Sequence[Formula]) -> None:
        self.operands: Tuple[Formula, ...] = tuple(operands)

    def cache_key(self) -> object:
        return ("or",) + tuple(op.cache_key() for op in self.operands)

    def _evaluate(self, system: System) -> TruthAssignment:
        result = TruthAssignment.constant(system, False)
        for operand in self.operands:
            result = result.disjoin(operand.evaluate(system))
        return result

    def is_run_level(self) -> bool:
        return all(op.is_run_level() for op in self.operands)


class Implies(Formula):
    """Material implication ``φ ⇒ ψ``."""

    def __init__(self, antecedent: Formula, consequent: Formula) -> None:
        self.antecedent = antecedent
        self.consequent = consequent

    def cache_key(self) -> object:
        return (
            "implies",
            self.antecedent.cache_key(),
            self.consequent.cache_key(),
        )

    def _evaluate(self, system: System) -> TruthAssignment:
        return self.antecedent.evaluate(system).implies(
            self.consequent.evaluate(system)
        )

    def is_run_level(self) -> bool:
        return self.antecedent.is_run_level() and self.consequent.is_run_level()


class Iff(Formula):
    """Biconditional ``φ ⇔ ψ``."""

    def __init__(self, left: Formula, right: Formula) -> None:
        self.left = left
        self.right = right

    def cache_key(self) -> object:
        return ("iff", self.left.cache_key(), self.right.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        left = self.left.evaluate(system)
        right = self.right.evaluate(system)
        return left.implies(right).conjoin(right.implies(left))

    def is_run_level(self) -> bool:
        return self.left.is_run_level() and self.right.is_run_level()


class Knows(Formula):
    """``K_i φ``."""

    def __init__(self, processor: int, operand: Formula) -> None:
        self.processor = processor
        self.operand = operand

    def cache_key(self) -> object:
        return ("K", self.processor, self.operand.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_knows(
            system, self.processor, self.operand.evaluate(system)
        )


class Believes(Formula):
    """``B_i^S φ = K_i(i ∈ S ⇒ φ)``; defaults to ``S = N``."""

    def __init__(
        self,
        processor: int,
        operand: Formula,
        nonrigid: NonrigidSet = NONFAULTY,
    ) -> None:
        self.processor = processor
        self.operand = operand
        self.nonrigid = nonrigid

    def cache_key(self) -> object:
        return (
            "B",
            self.processor,
            self.nonrigid.cache_key(),
            self.operand.cache_key(),
        )

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_believes(
            system, self.nonrigid, self.processor, self.operand.evaluate(system)
        )


class Everyone(Formula):
    """``E_S φ``."""

    def __init__(self, nonrigid: NonrigidSet, operand: Formula) -> None:
        self.nonrigid = nonrigid
        self.operand = operand

    def cache_key(self) -> object:
        return ("E", self.nonrigid.cache_key(), self.operand.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_everyone(
            system, self.nonrigid, self.operand.evaluate(system)
        )


class Common(Formula):
    """Common knowledge ``C_S φ``."""

    def __init__(self, nonrigid: NonrigidSet, operand: Formula) -> None:
        self.nonrigid = nonrigid
        self.operand = operand

    def cache_key(self) -> object:
        return ("C", self.nonrigid.cache_key(), self.operand.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_common(
            system, self.nonrigid, self.operand.evaluate(system)
        )


class EventualCommon(Formula):
    """Eventual common knowledge ``C◇_S φ`` ([HM90]; paper, Section 3.2).

    Greatest fixed point of ``X ↔ ◇ E_S(φ ∧ X)`` — "eventually everyone
    will know that eventually everyone will know that … φ".  Strictly
    weaker than both ``C_S`` and ``C□_S``; the paper introduces it to show
    why a weakening of common knowledge cannot drive EBA decisions and a
    *strengthening* (continual common knowledge) is needed.
    """

    def __init__(self, nonrigid: NonrigidSet, operand: Formula) -> None:
        self.nonrigid = nonrigid
        self.operand = operand

    def cache_key(self) -> object:
        return (
            "C-diamond",
            self.nonrigid.cache_key(),
            self.operand.cache_key(),
        )

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_eventual_common(
            system, self.nonrigid, self.operand.evaluate(system)
        )


class Always(Formula):
    """Temporal ``□ φ`` (now and at all later times)."""

    def __init__(self, operand: Formula) -> None:
        self.operand = operand

    def cache_key(self) -> object:
        return ("always", self.operand.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_always(system, self.operand.evaluate(system))


class Eventually(Formula):
    """Temporal ``◇ φ`` (now or at some later time)."""

    def __init__(self, operand: Formula) -> None:
        self.operand = operand

    def cache_key(self) -> object:
        return ("eventually", self.operand.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_eventually(system, self.operand.evaluate(system))


class AtAllTimes(Formula):
    """The paper's ``⊡ φ``: φ at every time of the run."""

    def __init__(self, operand: Formula) -> None:
        self.operand = operand

    def cache_key(self) -> object:
        return ("at-all-times", self.operand.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_at_all_times(system, self.operand.evaluate(system))

    def is_run_level(self) -> bool:
        return True


class EveryoneBox(Formula):
    """``E□_S φ = ⊡ E_S φ``."""

    def __init__(self, nonrigid: NonrigidSet, operand: Formula) -> None:
        self.nonrigid = nonrigid
        self.operand = operand

    def cache_key(self) -> object:
        return ("E-box", self.nonrigid.cache_key(), self.operand.cache_key())

    def _evaluate(self, system: System) -> TruthAssignment:
        return semantics.eval_everyone_box(
            system, self.nonrigid, self.operand.evaluate(system)
        )

    def is_run_level(self) -> bool:
        return True


class ContinualCommon(Formula):
    """Continual common knowledge ``C□_S φ`` (paper, Section 3.3).

    Uses the Corollary 3.3 reachability-component algorithm when φ is
    run-level, falling back to the greatest-fixed-point definition
    otherwise.  Set ``force_fixpoint=True`` to bypass the fast path (tests
    use this to cross-check the two implementations).
    """

    def __init__(
        self,
        nonrigid: NonrigidSet,
        operand: Formula,
        *,
        force_fixpoint: bool = False,
    ) -> None:
        self.nonrigid = nonrigid
        self.operand = operand
        self.force_fixpoint = force_fixpoint

    def cache_key(self) -> object:
        return (
            "C-box",
            self.nonrigid.cache_key(),
            self.operand.cache_key(),
            self.force_fixpoint,
        )

    def _evaluate(self, system: System) -> TruthAssignment:
        phi = self.operand.evaluate(system)
        if self.operand.is_run_level() and not self.force_fixpoint:
            return semantics.eval_continual_common_components(
                system, self.nonrigid, phi.run_levels()
            )
        return semantics.eval_continual_common(system, self.nonrigid, phi)

    def is_run_level(self) -> bool:
        # Lemma 3.4(g): C□_S φ ⇒ ⊡ C□_S φ — truth is per-run.
        return True


# -- readable constructors ---------------------------------------------------

def exists(value: Value) -> Formula:
    """``∃value``."""
    return Exists(value)


def believes_nonfaulty(processor: int, operand: Formula) -> Formula:
    """``B_i^N φ`` — the workhorse belief of the paper."""
    return Believes(processor, operand, NONFAULTY)


def continual_common(nonrigid: NonrigidSet, operand: Formula) -> Formula:
    """``C□_S φ``."""
    return ContinualCommon(nonrigid, operand)
