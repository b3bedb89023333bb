"""Unit tests for the memo table and the task-driven exploration."""

from repro.core.operations import (
    BaseRelation,
    Coalescing,
    Projection,
    Sort,
    TemporalDifference,
    TemporalDuplicateElimination,
    TransferToStratum,
)
from repro.core.order_spec import OrderSpec
from repro.core.properties import root_properties
from repro.core.query import QueryResultSpec
from repro.core.rules import DEFAULT_RULES, rules_by_name
from repro.search import Memo, search_best_plan
from repro.search.memo import binding_feature
from repro.search.tasks import explore
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, paper_query

LIST_QUERY = QueryResultSpec.list(OrderSpec.ascending("EmpName"), distinct=True)


def employee_names():
    return Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))


def project_names():
    return Projection(["EmpName", "T1", "T2"], BaseRelation("PROJECT", PROJECT_SCHEMA))


class TestMemoInterning:
    def test_identical_subtrees_share_one_group(self):
        memo = Memo()
        context = root_properties(QueryResultSpec.multiset())
        first = memo.copy_in(employee_names(), context)
        second = memo.copy_in(employee_names(), context)
        assert first == second

    def test_interning_is_recursive(self):
        memo = Memo()
        context = root_properties(QueryResultSpec.multiset())
        memo.copy_in(TemporalDifference(employee_names(), project_names()), context)
        # Groups: difference, two projections, two base relations — the two
        # projection shapes differ (EMPLOYEE vs PROJECT), so nothing merges.
        assert len(memo.groups) == 5

    def test_contexts_separate_groups(self):
        memo = Memo()
        plan = TemporalDuplicateElimination(employee_names())
        context = root_properties(LIST_QUERY)
        memo.copy_in(plan, context)
        # The projection below the rdupT lives in a duplicates-irrelevant
        # context; interning the same subtree at root context adds groups.
        before = len(memo.groups)
        memo.copy_in(employee_names(), context)
        assert len(memo.groups) > before

    def test_witnesses_recorded(self):
        memo = Memo()
        context = root_properties(LIST_QUERY)
        root_id = memo.copy_in(TemporalDuplicateElimination(employee_names()), context)
        root_group = memo.group(root_id)
        assert root_group.no_snapshot_duplicates_witness is not None
        assert root_group.no_duplicates_witness is not None  # rdupT eliminates
        child_group = memo.group(root_group.expressions[0].children[0])
        assert child_group.no_duplicates_witness is None  # π over a base relation
        assert child_group.no_snapshot_duplicates_witness is None

    def test_rewrite_lands_in_the_same_group(self):
        memo = Memo()
        plan = TemporalDuplicateElimination(TemporalDuplicateElimination(employee_names()))
        context = root_properties(LIST_QUERY)
        root = memo.copy_in(plan, context)
        rules = [rules_by_name()["DT-idem"]]
        explore(memo, root, rules)
        group = memo.group(root)
        assert len(group.expressions) == 2
        shells = {type(expression.shell).__name__ for expression in group.expressions}
        assert shells == {"TemporalDuplicateElimination"}

    def test_binding_feature_distinguishes_guarantees(self):
        plain = employee_names()
        deduplicated = TemporalDuplicateElimination(plain)
        assert binding_feature(plain) != binding_feature(deduplicated)


class TestExplorationSharing:
    def test_shared_subplan_rewritten_once(self):
        plan, spec = paper_query()
        result = search_best_plan(plan, spec, statistics={"EMPLOYEE": 5, "PROJECT": 8})
        statistics = result.statistics
        # The memo considers far fewer fragments than the exhaustive space
        # holds plans (126 for this query), yet finds its minimum cost.
        assert statistics.plans_considered < 126
        assert statistics.groups > 5
        assert statistics.applications_succeeded > 0
        assert not statistics.truncated

    def test_statistics_mirror_enumeration_statistics(self):
        plan, spec = paper_query()
        result = search_best_plan(plan, spec, statistics={"EMPLOYEE": 5, "PROJECT": 8})
        statistics = result.statistics
        assert statistics.applications_attempted >= statistics.applications_succeeded
        assert statistics.rejected_by_properties > 0
        assert statistics.rule_usage
        assert statistics.sweeps >= 1

    def test_rule_order_does_not_change_the_best_cost(self):
        plan, spec = paper_query()
        stats = {"EMPLOYEE": 5, "PROJECT": 8}
        forward = search_best_plan(plan, spec, rules=list(DEFAULT_RULES), statistics=stats)
        backward = search_best_plan(
            plan, spec, rules=list(reversed(DEFAULT_RULES)), statistics=stats
        )
        assert forward.best_cost.total == backward.best_cost.total

    def test_truncation_budget_respected(self):
        from repro.search import SearchOptions

        plan, spec = paper_query()
        result = search_best_plan(
            plan,
            spec,
            statistics={"EMPLOYEE": 5, "PROJECT": 8},
            options=SearchOptions(max_expressions=12),
        )
        assert result.statistics.truncated
        # A truncated search still returns a valid plan, no worse than the seed.
        seed_result = search_best_plan(plan, spec, rules=[], statistics={"EMPLOYEE": 5, "PROJECT": 8})
        assert result.best_cost.total <= seed_result.best_cost.total


class TestSearchDeterminism:
    def test_same_inputs_same_plan(self):
        plan, spec = paper_query()
        stats = {"EMPLOYEE": 5, "PROJECT": 8}
        first = search_best_plan(plan, spec, statistics=stats)
        second = search_best_plan(plan, spec, statistics=stats)
        assert first.best_plan == second.best_plan
        assert first.best_cost.total == second.best_cost.total


class TestTreeIds:
    def test_equal_signatures_share_an_id(self):
        memo = Memo()
        first = memo.tree_id(TemporalDifference(employee_names(), project_names()))
        second = memo.tree_id(TemporalDifference(employee_names(), project_names()))
        assert first == second
        assert memo.tree_id(employee_names()) != memo.tree_id(project_names())
        swapped = memo.tree_id(TemporalDifference(project_names(), employee_names()))
        assert swapped != first


def _plain_exploration(monkeypatch):
    """Make exploration schedule every rule and rerun every task in full."""
    from repro.search.tasks import ExplorationState

    class Forgetful(dict):
        def get(self, key, default=None):
            return None

    original_init = ExplorationState.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.watermarks = Forgetful()

    monkeypatch.setattr(ExplorationState, "__init__", init)
    monkeypatch.setattr(
        ExplorationState, "rules_for", lambda self, operator_type: list(range(len(self.rules)))
    )


def _outcome(result):
    statistics = result.statistics
    return {
        "plan": result.best_plan.signature(),
        "cost": result.best_cost.total,
        "rules_applied": result.rules_applied,
        "groups": [
            (group.id, group.context, list(group.trees), len(group.expressions))
            for group in result.memo.groups.values()
        ],
        "counters": (
            statistics.expressions,
            statistics.merges,
            statistics.sweeps,
            statistics.applications_succeeded,
            statistics.rejected_by_properties,
            statistics.context_upgrades,
        ),
        "rule_usage": statistics.rule_usage,
    }


class TestIncrementalExploration:
    STATISTICS = {"EMPLOYEE": 40, "PROJECT": 64}

    def test_counters_account_for_every_binding(self):
        plan, spec = paper_query()
        statistics = search_best_plan(plan, spec, statistics=self.STATISTICS).statistics
        assert sum(statistics.rule_attempts.values()) == statistics.applications_attempted
        assert set(statistics.rule_usage) <= set(statistics.rule_attempts)
        assert statistics.tasks_skipped > statistics.applications_attempted
        assert statistics.as_span_attributes()["memo.tasks_skipped"] == statistics.tasks_skipped

    def test_attempts_only_root_matching_rules(self):
        plan, spec = paper_query()
        result = search_best_plan(plan, spec, statistics=self.STATISTICS)
        shell_types = {
            type(expression.shell)
            for group in result.memo.groups.values()
            for expression in group.expressions
        }
        reachable = {
            rule.name
            for rule in DEFAULT_RULES
            if any(issubclass(shell_type, rule.root) for shell_type in shell_types)
        }
        attempted = set(result.statistics.rule_attempts)
        assert attempted <= reachable
        # The paper query never derives an rdup, so D1's pattern is never bound.
        assert "D1" not in reachable

    def test_same_memo_as_the_plain_task_loop(self, monkeypatch):
        from repro.workloads import WORKLOAD_QUERIES

        incremental = {}
        for named in WORKLOAD_QUERIES:
            plan, spec = named.build()
            incremental[named.name] = search_best_plan(plan, spec, statistics=self.STATISTICS)
        _plain_exploration(monkeypatch)
        for named in WORKLOAD_QUERIES:
            plan, spec = named.build()
            plain = search_best_plan(plan, spec, statistics=self.STATISTICS)
            fast = incremental[named.name]
            assert _outcome(fast) == _outcome(plain), named.name
            assert fast.statistics.applications_attempted < plain.statistics.applications_attempted
