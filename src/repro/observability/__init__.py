"""Zero-dependency tracing/metrics for the LZW pipeline.

See :mod:`repro.observability.recorder` for the sink implementations,
:mod:`repro.observability.events` for the event-name vocabulary and
:mod:`repro.observability.schema` for the versioned metrics-JSON shape.
Names load on first use (PEP 562): the recorders do not pull in the
JSON writer and its atomic-write helpers.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "NULL_RECORDER": ".recorder",
    "CompositeRecorder": ".recorder",
    "CounterRecorder": ".recorder",
    "NullRecorder": ".recorder",
    "Recorder": ".recorder",
    "SpanRecorder": ".recorder",
    "SCHEMA_VERSION": ".schema",
    "metrics_snapshot": ".schema",
    "strip_timing": ".schema",
    "write_metrics_json": ".schema",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
