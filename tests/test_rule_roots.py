"""Every rule's declared pattern root agrees with what its ``apply`` accepts.

The memo search schedules a rule only on expressions whose operator is an
instance of the rule's :attr:`~repro.core.rules.base.TransformationRule.root`
(see :mod:`repro.search.tasks`).  That is sound only if ``apply`` returns
``None`` at every other node, so this suite runs every rule of the stratum
catalogue and of the DBMS's own optimizers on every node of every plan the
exhaustive enumerator reaches from the registry queries.
"""

from typing import Dict, List

import pytest

from repro.core.enumeration import enumerate_plans
from repro.core.operations import Operation
from repro.core.rules import DEFAULT_RULES
from repro.core.rules.base import TransformationRule
from repro.dbms.optimizer import ConventionalOptimizer, CostGuidedConventionalOptimizer
from repro.search.memo import Memo
from repro.search.tasks import ExplorationOptions, ExplorationState, ExplorationStatistics
from repro.workloads import fully_enumerable_queries


def _catalogue() -> List[TransformationRule]:
    rules: Dict[int, TransformationRule] = {}
    for source in (
        DEFAULT_RULES,
        ConventionalOptimizer().rules,
        CostGuidedConventionalOptimizer().rules,
    ):
        for rule in source:
            rules.setdefault(id(rule), rule)
    return list(rules.values())


RULES = _catalogue()


@pytest.fixture(scope="module")
def reachable_nodes() -> List[Operation]:
    """Every distinct subtree of every plan reachable from the registry queries."""
    nodes: Dict[tuple, Operation] = {}
    for named in fully_enumerable_queries():
        plan, spec = named.build()
        for reached in enumerate_plans(plan, spec):
            for _, node in reached.locations():
                nodes.setdefault(node.signature(), node)
    return list(nodes.values())


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_apply_rejects_nodes_outside_the_root(rule, reachable_nodes):
    outside = [node for node in reachable_nodes if not isinstance(node, rule.root)]
    assert outside, "the registry reaches no node outside this rule's root"
    matched = [node for node in outside if rule.apply(node) is not None]
    assert not matched, f"{rule.name} (root {rule.root}) matched {matched[:3]}"


def test_every_rule_declares_a_specific_root():
    """Catalogue rules all name their pattern root, so dispatch prunes them."""
    assert all(rule.root is not Operation for rule in RULES)


def test_dispatch_schedules_exactly_the_root_matching_rules(reachable_nodes):
    state = ExplorationState(Memo(), RULES, ExplorationOptions(), ExplorationStatistics())
    for node in reachable_nodes:
        scheduled = {state.rules[index].name for index in state.rules_for(type(node))}
        assert scheduled == {
            rule.name for rule in RULES if isinstance(node, rule.root)
        }
