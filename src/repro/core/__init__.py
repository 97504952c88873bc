"""The complex event processor: query plans over pipelined operators.

This package is the paper's primary contribution: a query-plan-based
implementation of the SASE language.  A plan is "a dataflow paradigm with
native sequence operators at the bottom, pipelining query-defined sequences
to subsequent relational style operators" (Section 2.1.2):

* :class:`~repro.core.sequence.SequenceScanConstruct` — the NFA-driven
  sequence scan (SS) and sequence construction (SC) operators, built on
  active instance stacks with RIP pointers, optionally window-pruned and
  value-partitioned (PAIS);
* :class:`~repro.core.operators.Selection` — parameterized predicates;
* :class:`~repro.core.operators.WindowFilter` — the WITHIN clause;
* :class:`~repro.core.operators.Negation` — non-occurrence checks,
  including leading/trailing negation with delayed emission;
* :class:`~repro.core.operators.Transformation` — the RETURN clause.

:class:`~repro.core.engine.Engine` is the public facade.
"""

from repro.core.engine import CompiledQuery, Engine, run_query
from repro.core.match import Match
from repro.core.plan import KleeneMode, PlanConfig, QueryPlan, build_plan
from repro.core.runtime import QueryRuntime
from repro.core.shared import GroupMember, PlanGroup, SharedPlanConfig, \
    plan_signature
from repro.core.stats import OperatorStats, PlanStats

__all__ = [
    "CompiledQuery",
    "Engine",
    "GroupMember",
    "KleeneMode",
    "Match",
    "OperatorStats",
    "PlanConfig",
    "PlanGroup",
    "PlanStats",
    "QueryPlan",
    "QueryRuntime",
    "SharedPlanConfig",
    "build_plan",
    "plan_signature",
    "run_query",
]
