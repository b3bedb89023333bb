"""Answer checking for the benchmark, all of it outside the timed regions.

Every served answer is checked in two steps.  While the load runs, each
answer is compared for list equality with the first answer served for the
same key, which costs one list comparison.  After the load, each key's
first answer is checked against the reference semantics: the statement is
translated, its parameters bound, the initial plan evaluated by
``TemporalDatabase.evaluate_reference``, and the two results compared with
``results_acceptable`` (Definition 5.1: list equivalence on the ORDER BY
attributes for PAPER and CHAINED, multiset equivalence for the point
read).  Equal lists and an acceptable first answer make every answer for
the key acceptable.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

import repro
from repro.core.applicability import results_acceptable
from repro.core.relation import Relation
from repro.session import bind_parameters

#: ``(reference relation, result specification)`` for one key.
Reference = Tuple[Relation, object]


def reference_answer(database, statement: str, params: Sequence[object]) -> Reference:
    """The reference result of ``statement`` over ``database``'s current contents."""
    plan, spec = database.parse(statement)
    if params:
        plan = bind_parameters(plan, params)
    return database.evaluate_reference(plan), spec


def load_database(employee: Relation, project: Relation, appends: Sequence[Sequence] = ()):
    """A fresh database holding EMPLOYEE and PROJECT plus ``appends`` to EMPLOYEE, in order."""
    database = repro.connect()
    database.register("EMPLOYEE", employee)
    database.register("PROJECT", project)
    for rows in appends:
        database.append("EMPLOYEE", rows)
    return database


class AnswerChecker:
    """Collects served answers per key and checks them."""

    def __init__(self) -> None:
        self.errors: List[str] = []
        self._first: Dict[Hashable, tuple] = {}
        self._lock = threading.Lock()

    def observe(self, key: Hashable, columns: Sequence[str], rows: List[tuple]) -> None:
        """Record one answer: rows in served order, as value tuples."""
        with self._lock:
            first = self._first.get(key)
            if first is None:
                self._first[key] = (tuple(columns), rows)
            elif first[1] != rows or first[0] != tuple(columns):
                self.errors.append(f"{key!r}: answer differs from the first answer for the key")

    def observe_relation(self, key: Hashable, relation: Relation) -> None:
        self.observe(key, relation.schema.attributes, [t.values() for t in relation.tuples])

    def verify(self, reference_for: Callable[[Hashable], Reference]) -> None:
        """Check each key's first answer against ``reference_for(key)``."""
        for key, (columns, rows) in self._first.items():
            reference, spec = reference_for(key)
            if tuple(reference.schema.attributes) != columns:
                self.errors.append(f"{key!r}: columns {columns} != {reference.schema.attributes}")
                continue
            served = Relation.from_rows(reference.schema, rows)
            if not results_acceptable(reference, served, spec):
                self.errors.append(f"{key!r}: answer is not acceptable under Definition 5.1")


def check_appends(
    initial_rows: int, final_rows: int, appended_rows: int, epoch_before: int, epochs: List[int]
) -> List[str]:
    """No lost update: every appended row landed, each append at its own epoch."""
    errors = []
    if final_rows != initial_rows + appended_rows:
        errors.append(
            f"EMPLOYEE has {final_rows} rows, expected {initial_rows} + {appended_rows}"
        )
    if sorted(epochs) != list(range(epoch_before + 1, epoch_before + 1 + len(epochs))):
        errors.append(f"append epochs {sorted(epochs)} are not consecutive after {epoch_before}")
    return errors
