"""Unified telemetry for the whole stack: tracing spans + metrics.

One :class:`Telemetry` object bundles a :class:`~.tracing.Tracer` and
a metric :class:`~.metrics.Registry` and travels *by reference* from
the outermost layer down: the service's ``JobManager`` hands it to
each :class:`~repro.core.study.Study`, which hands it to the flat
engine and the observer; the CLI builds one for ``repro study
--telemetry``. The service's HTTP middleware
records into the same registry, so ``/metrics`` is one render. It is
**not** part of ``StudyConfig`` — observability must never change
``config_hash``, cache identity, or any RNG draw (pinned by the
determinism tests).

The default everywhere is the shared no-op :data:`NULL_TELEMETRY`
(null tracer + null registry), so un-instrumented runs pay ~zero cost
— the overhead gate in ``benchmarks/test_telemetry_overhead.py``
bounds even the *enabled* round loop at ≤5%.

``annotate_results`` controls whether :meth:`Study.result` embeds a
``metadata["telemetry"]`` summary (wall-clock per round). The service
turns it off: result bytes must stay identical across runs of the
same config (the replay/caching contract), which wall-clock
annotations would break.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRIC,
    NULL_REGISTRY,
    OVERFLOW_LABEL,
    Counter,
    Histogram,
    NullRegistry,
    Registry,
)
from repro.telemetry.tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "Tracer",
    "NullTracer",
    "Span",
    "Counter",
    "Histogram",
    "Registry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "OVERFLOW_LABEL",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "NULL_TRACER",
]


class Telemetry:
    """A tracer + registry pair with one ``enabled`` switch.

    ``Telemetry()`` is live; ``Telemetry.disabled()`` (or the module
    constant :data:`NULL_TELEMETRY`) is the shared no-op instance every
    instrumented component defaults to.
    """

    def __init__(
        self,
        enabled: bool = True,
        *,
        annotate_results: bool = True,
        max_spans: int = 10_000,
    ) -> None:
        self.enabled = bool(enabled)
        if self.enabled:
            self.tracer: Tracer | NullTracer = Tracer(max_spans=max_spans)
            self.registry: Registry | NullRegistry = Registry()
        else:
            self.tracer = NULL_TRACER
            self.registry = NULL_REGISTRY
        self.annotate_results = bool(annotate_results) and self.enabled

    @classmethod
    def disabled(cls) -> "Telemetry":
        return NULL_TELEMETRY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Telemetry(enabled={self.enabled})"


NULL_TELEMETRY = Telemetry(enabled=False)
