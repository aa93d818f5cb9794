"""The execution engine: plan IR, operator metrics, SQL lowering.

One backend-neutral operator algebra (:mod:`repro.engine.ir`) shared
by the planner, the cost model, EXPLAIN and every executor (the
materialized interpreter of :mod:`repro.storage.executor` and the
columnar engine of :mod:`repro.columnar.engine`); the per-operator
metrics the columnar engine records (:mod:`repro.engine.metrics`);
and an IR→SQL lowering (:mod:`repro.engine.lowering`) for real
RDBMSs.
"""

from .ir import (
    ColumnLabel,
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    PositionSpec,
    ProjectNode,
    ProjectionSpec,
    RelationNode,
    ScanNode,
    UnionNode,
)
from .lowering import LoweringError, lower
from .metrics import OperatorMetrics, PipelineMetrics

__all__ = [
    "ColumnLabel",
    "DistinctNode",
    "EmptyNode",
    "JoinNode",
    "LoweringError",
    "NonLiteralFilterNode",
    "OperatorMetrics",
    "PipelineMetrics",
    "PlanNode",
    "PositionSpec",
    "ProjectNode",
    "ProjectionSpec",
    "RelationNode",
    "ScanNode",
    "UnionNode",
    "lower",
]
