"""The transformation-rule framework (Section 4).

A transformation rule rewrites the subtree rooted at a matching location of a
query plan into an equivalent subtree and is tagged with the *strongest*
equivalence type (Section 3) that the rewrite preserves.  An algebraic
equivalence in the paper denotes both a left-to-right and a right-to-left
rule; here every directed rewrite is its own :class:`TransformationRule`
object, because the enumeration algorithm needs a terminating rule set and
therefore typically includes only one direction (Section 6 heuristics).

Besides the replacement subtree, an application reports which operations of
the matched region are *involved* — the operations explicitly mentioned on
the rule's left-hand side plus the root operations of the subtrees bound to
its variables.  The enumeration algorithm (Figure 5) consults the Table 2
properties of exactly these operations when deciding whether a rule of a
given equivalence type may fire at the location.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple as PyTuple, Union

from ..equivalence import EquivalenceType
from ..operations import Operation
from ..operations.base import PlanPath


@dataclass(frozen=True)
class RuleApplication:
    """The outcome of matching a rule at one location.

    ``replacement`` is the new subtree for that location; ``involved`` lists
    the paths, *relative to the location*, of the operations whose Table 2
    properties govern applicability (Figure 5).  ``equivalence`` optionally
    overrides the rule's declared equivalence type for this particular
    application (used by the transfer rules, which are ≡L when the moved
    operation is a sort and ≡M otherwise).
    """

    replacement: Operation
    involved: PyTuple[PlanPath, ...] = ((),)
    equivalence: Optional[EquivalenceType] = None


class TransformationRule:
    """A single directed rewrite with a declared equivalence type.

    Subclasses implement :meth:`apply`, returning ``None`` when the rule's
    syntactic pattern or its local (pre-)conditions do not hold at the given
    subtree root, and a :class:`RuleApplication` otherwise.  ``apply`` must
    be pure: it may inspect the subtree but never mutate it.  A rule whose
    pattern is rooted at one operator kind declares it as :attr:`root` and
    starts ``apply`` with the ``isinstance(node, self.root)`` guard, so the
    memo search can dispatch on it without calling ``apply`` at all.
    """

    #: Short identifier, e.g. ``"D2"`` or ``"push-selection-below-product"``.
    name: str = "rule"
    #: The strongest equivalence type the rewrite preserves.
    equivalence: EquivalenceType = EquivalenceType.LIST
    #: Operator type (or tuple of types) the pattern's root must be an
    #: instance of; ``apply`` returns ``None`` at any other node.
    root: Union[type, PyTuple[type, ...]] = Operation
    #: One-line human-readable statement of the rule.
    description: str = ""
    #: Ordering hint for cost-guided search (higher fires first): rules that
    #: remove work outrank structural rearrangements, so the memo search
    #: reaches cheap plans (tight upper bounds) early.  Exhaustive
    #: enumeration ignores it — the reachable plan set is order independent.
    promise: float = 1.0

    def apply(self, node: Operation) -> Optional[RuleApplication]:
        """Try to rewrite the subtree rooted at ``node``."""
        raise NotImplementedError

    def matches(self, node: Operation) -> bool:
        """True if the rule applies at ``node`` (ignoring plan-level properties)."""
        return self.apply(node) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.name} ({self.equivalence})>"

    def __str__(self) -> str:
        return f"{self.name} [{self.equivalence}]: {self.description}"


class LambdaRule(TransformationRule):
    """A rule defined by a plain rewrite function.

    Convenient for the many rules whose pattern match is a couple of
    ``isinstance`` checks; larger rules get their own classes.
    """

    def __init__(
        self,
        name: str,
        equivalence: EquivalenceType,
        description: str,
        rewrite: Callable[[Operation], Optional[RuleApplication]],
    ) -> None:
        self.name = name
        self.equivalence = equivalence
        self.description = description
        self._rewrite = rewrite

    def apply(self, node: Operation) -> Optional[RuleApplication]:
        return self._rewrite(node)


def application(
    replacement: Operation,
    *involved: PlanPath,
    equivalence: Optional[EquivalenceType] = None,
) -> RuleApplication:
    """Build a :class:`RuleApplication`; the location itself is always involved."""
    paths: List[PlanPath] = [()]
    for path in involved:
        if path not in paths:
            paths.append(path)
    return RuleApplication(
        replacement=replacement, involved=tuple(paths), equivalence=equivalence
    )


def involved_unary(depth: int = 1) -> PyTuple[PlanPath, ...]:
    """Relative paths for a chain pattern ``op(op(...(r)))`` of ``depth`` operators."""
    paths: List[PlanPath] = [()]
    current: PlanPath = ()
    for _ in range(depth):
        current = current + (0,)
        paths.append(current)
    return tuple(paths)
