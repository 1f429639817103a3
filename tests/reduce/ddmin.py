"""Drive one ddmin pipeline the way the tests compare it.

``run_ddmin(items, workers=K, **fields)`` is ``PassPipeline(["ddmin"])``
over ``PipelineContext(**fields)``.  For ``K > 1`` the candidates are
probed on a caller-owned :class:`~repro.perf.reduce_pool.ReductionPool` of
one :class:`~repro.perf.reduce_pool.CallableProbeSpec` over the context's
test (decision records when it is a verdict test), closed afterwards.
"""

from __future__ import annotations

from repro.perf.reduce_pool import CallableProbeSpec, ReductionPool
from repro.reduce import PassPipeline, PipelineContext


def run_ddmin(items, *, workers: int = 1, **fields):
    ctx = PipelineContext(**fields)
    pool = None
    if workers > 1:
        spec = CallableProbeSpec(
            test=ctx.verdict_test or ctx.is_interesting,
            items=tuple(items),
            decide=ctx.verdict_test is not None,
            policy=ctx.policy,
        )
        pool = ctx.pool = ReductionPool({ctx.pool_key: spec}, workers)
    try:
        return PassPipeline(["ddmin"]).run(list(items), ctx)
    finally:
        if pool is not None:
            pool.close()


def without_passes(result) -> dict:
    """``result.to_json()`` minus the pipeline's ``passes`` block, to compare
    with a bare :func:`~repro.core.reducer.reduce_transformations` result."""
    data = result.to_json()
    data.pop("passes")
    return data
