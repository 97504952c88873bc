"""Plan groups: one match pipeline, many RETURN clauses.

In a multi-tenant deployment most registered queries are instances of a
few templates — the same EVENT/WHERE/WITHIN pattern, differing (at most)
in their RETURN clauses.  Kolchinsky & Schuster's CEP join-optimization
survey identifies multi-query sharing as the central scaling lever: the
expensive part of a query (the NFA sequence scan, the pushed predicates,
negation bookkeeping) is identical across such instances, so evaluating
it once and fanning the matches out to per-query continuations turns an
O(tenants) per-event cost into O(templates).

Every query the processor registers is a member of a :class:`PlanGroup`:

* the group owns one raw-match :class:`~repro.core.runtime.QueryRuntime`
  (the Transformation operator replaced by a pass-through) — the *match
  phase* of the processor's dataflow, free of side effects outside the
  pipeline itself;
* each :class:`GroupMember` holds one query's RETURN clause — the
  *RETURN phase*, applied per event in registration order, the only
  place the database is written.  (A WHERE clause that calls a function
  may read it: :func:`calls_functions` tells the processor to match
  such a group inside the RETURN phase instead of ahead of it.)

A group of one is the ordinary case.  With :class:`SharedPlanConfig` on,
:func:`plan_signature` canonicalizes a compiled query's *match plan* —
every component, pushed predicate, selection/negation/Kleene predicate,
the window, the partition scheme, and the plan switches — with pattern
variables renamed positionally so ``SEQ(A x, B y)`` and ``SEQ(A p, B q)``
share, and queries with equal signatures join one group.  The RETURN
clause is deliberately excluded: it is the per-query continuation.

Sharing is safe exactly because the continuation is applied per member in
the member's registration order — the delivered result stream is
bit-identical to independent evaluation (the differential tests assert
this).  Queries whose predicates call external functions are excluded by
default: a function may read mutable system state (the event database),
and collapsing N evaluations into one could observe it at a different
point in the delivery order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.match import Match
from repro.core.operators import Transformation
from repro.core.runtime import QueryRuntime
from repro.events.event import CompositeEvent
from repro.lang.ast import (
    AggregateCall,
    AttributeRef,
    BinaryOp,
    Expr,
    FunctionCall,
    Literal,
    UnaryOp,
    VariableRef,
)
from repro.lang.semantics import AnalyzedQuery, PredicateInfo


@dataclass(frozen=True)
class SharedPlanConfig:
    """Switches for multi-query shared-plan evaluation.

    ``share_function_queries`` opts queries with external function calls
    in their WHERE clause into sharing; leave it off unless every such
    function is pure (see module docstring).
    """

    enabled: bool = True
    share_function_queries: bool = False


# -- canonical signatures ----------------------------------------------------

def _render(expr: Expr, rename: dict[str, str]) -> str:
    """Canonical text for *expr* with pattern variables renamed."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, AttributeRef):
        return f"{rename.get(expr.variable, expr.variable)}" \
               f".{expr.attribute}"
    if isinstance(expr, VariableRef):
        return rename.get(expr.name, expr.name)
    if isinstance(expr, BinaryOp):
        return f"({_render(expr.left, rename)} {expr.op.value} " \
               f"{_render(expr.right, rename)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op.value} {_render(expr.operand, rename)})"
    if isinstance(expr, FunctionCall):
        args = ", ".join(_render(arg, rename) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, AggregateCall):
        inner = "*" if expr.arg is None else _render(expr.arg, rename)
        return f"{expr.kind.value}({inner})"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _calls_functions(expr: Expr) -> bool:
    if isinstance(expr, FunctionCall):
        return True
    if isinstance(expr, BinaryOp):
        return _calls_functions(expr.left) or _calls_functions(expr.right)
    if isinstance(expr, UnaryOp):
        return _calls_functions(expr.operand)
    if isinstance(expr, AggregateCall):
        return expr.arg is not None and _calls_functions(expr.arg)
    return False


def calls_functions(analyzed: AnalyzedQuery) -> bool:
    """True when any WHERE predicate of *analyzed* calls an external
    function — its match phase may then read mutable system state."""
    blocks = [analyzed.selection_predicates,
              *analyzed.component_filters.values(),
              *analyzed.negation_predicates.values(),
              *analyzed.kleene_predicates.values()]
    return any(_calls_functions(info.expr)
               for infos in blocks for info in infos)


def _predicate_block(infos: list[PredicateInfo],
                     rename: dict[str, str]) -> tuple[str, ...]:
    return tuple(_render(info.expr, rename) for info in infos)


def plan_signature(analyzed: AnalyzedQuery, config: Any,
                   shared: SharedPlanConfig) -> tuple | None:
    """The canonical match-plan identity of a query, or None when the
    query must not be shared.  Two queries with equal signatures produce
    identical pre-RETURN match streams over any input."""
    if not shared.share_function_queries and calls_functions(analyzed):
        return None

    rename = {component.variable: f"v{index}"
              for index, component in enumerate(analyzed.components)}
    components = tuple(
        (component.event_type, tuple(component.alt_types),
         component.negated, component.kleene, rename[component.variable])
        for component in analyzed.components)
    filters = tuple(
        (rename[variable], _predicate_block(infos, rename))
        for variable, infos in sorted(
            analyzed.component_filters.items(),
            key=lambda item: rename[item[0]]))
    negations = tuple(
        (rename[variable], _predicate_block(infos, rename))
        for variable, infos in sorted(
            analyzed.negation_predicates.items(),
            key=lambda item: rename[item[0]]))
    kleenes = tuple(
        (rename[variable], _predicate_block(infos, rename))
        for variable, infos in sorted(
            analyzed.kleene_predicates.items(),
            key=lambda item: rename[item[0]]))
    partition = None
    if analyzed.partition is not None:
        partition = tuple(sorted(
            (rename[variable], attribute) for variable, attribute
            in analyzed.partition.attr_by_var.items()))
    plan_knobs = (config.window_pushdown, config.partition_pushdown,
                  config.filter_pushdown, config.construction_pushdown,
                  config.kleene_mode.value, config.max_kleene_events,
                  config.prune_interval, config.use_codegen)
    return (analyzed.query.from_stream, components, analyzed.window,
            filters, _predicate_block(analyzed.selection_predicates,
                                      rename),
            negations, kleenes, partition, plan_knobs)


# -- groups and members -------------------------------------------------------

class PlanGroup:
    """One raw-match pipeline and the queries whose RETURN clauses
    consume its matches.  *signature* is the canonical plan identity
    other queries may join under, or None for a private group."""

    def __init__(self, pipeline: QueryRuntime,
                 signature: tuple | None = None):
        self.pipeline = pipeline
        self.signature = signature
        self.members: dict[str, GroupMember] = {}

    @property
    def joinable(self) -> bool:
        """A query may only join before the pipeline has state: a member
        added later would see matches rooted in events that predate its
        own registration, which independent evaluation never produces."""
        return self.signature is not None \
            and self.pipeline.stats.events_consumed == 0 \
            and not self.pipeline.flushed

    def add_member(self, name: str, analyzed: AnalyzedQuery,
                   functions: Any = None,
                   system: Any = None) -> "GroupMember":
        member = GroupMember(self, analyzed, functions=functions,
                             system=system)
        self.members[name] = member
        return member

    def remove_member(self, name: str) -> None:
        self.members.pop(name, None)


class GroupMember:
    """One query's RETURN continuation over its group's raw matches."""

    def __init__(self, group: PlanGroup, analyzed: AnalyzedQuery,
                 functions: Any = None, system: Any = None):
        self._transformation = Transformation(
            analyzed, stats=group.pipeline.stats, functions=functions,
            system=system)
        # The pipeline binds the *representative's* variable names; this
        # member's RETURN clause (and its results' provenance bindings)
        # use its own.  Signatures align components positionally, so the
        # rename is positional too; identity maps skip the copy.
        representative = group.pipeline.plan.analyzed
        rename = {rep.variable: own.variable
                  for rep, own in zip(representative.components,
                                      analyzed.components)}
        self._rename = None if all(key == value for key, value
                                   in rename.items()) else rename

    def returns(self, match: Match) -> CompositeEvent:
        """Evaluate this query's RETURN clause over one group match."""
        rename = self._rename
        if rename is not None:
            match = Match({rename[variable]: binding
                           for variable, binding in match.bindings.items()},
                          match.start, match.end)
        return self._transformation.process(match)
