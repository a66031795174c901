"""``repro.obs`` — causal tracing & observability over the simulated stack.

The subsystem the aggregate :class:`~repro.simkit.trace.Metrics` cannot be:
nested, causally-linked spans across RPC, VFS, BlobSeer and deployment
layers, with Chrome/Perfetto export and critical-path analysis. Tracing is
strictly an *observer* of simulated time — installing a tracer leaves every
figure bit-identical — and the default :data:`~repro.obs.span.NULL_TRACER`
makes a disabled run pay only one branch per instrumentation site.

Typical use::

    from repro.cloud import build_cloud, deploy
    from repro import obs

    cloud = build_cloud(24, seed=1)
    tracer = obs.install_tracer(cloud.fabric)
    result = deploy(cloud, image, 8, "mirror")
    obs.write_trace_json("deploy.trace.json", tracer)   # -> ui.perfetto.dev
    boot = obs.boot_spans(tracer.spans)[0]
    print(obs.render_critical_path(boot, tracer.spans))
"""

from .analyze import (
    Segment,
    attribute,
    boot_spans,
    category_breakdown,
    coverage,
    render_breakdown_table,
    render_critical_path,
    snapshot_spans,
)
from .export import to_trace_events, write_trace_json
from .span import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "install_tracer",
    "Segment",
    "attribute",
    "category_breakdown",
    "coverage",
    "boot_spans",
    "snapshot_spans",
    "render_breakdown_table",
    "render_critical_path",
    "to_trace_events",
    "write_trace_json",
]


def install_tracer(fabric, trace_id=None) -> Tracer:
    """Enable tracing on ``fabric``; returns the live :class:`Tracer`.

    Wires the tracer into the three places instrumentation looks for it:
    ``fabric.tracer`` (RPC, VFS, BlobSeer, deployment sites),
    ``fabric.network.tracer`` (flow begin/end), and ``env._tracer`` (the
    engine's process-spawn context-propagation hook).
    """
    tracer = Tracer(fabric.env, trace_id=trace_id)
    fabric.tracer = tracer
    fabric.network.tracer = tracer
    fabric.env._tracer = tracer
    return tracer
