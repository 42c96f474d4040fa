"""Process-local metrics: counters and histograms with fixed label sets.

Design constraints (see docs/observability.md):

* **stdlib only** — the service and the engine must not grow a
  dependency for observability.
* **Fixed label sets** — a metric declares its label *names* once;
  recording with a different set is a programming error and raises.
  Label *values* are bounded per metric (``max_series``); once the
  budget is spent, new label combinations collapse into a single
  ``other`` series instead of growing without bound.
* **Cheap when hot** — the engine records per *round*, not per tick:
  phase timings accumulate in flat floats inside the simulator and are
  flushed here once per round (mmb-style "counters are flat arrays
  flushed at batch boundaries"). For the remaining hot calls,
  :meth:`Counter.child` / :meth:`Histogram.child` pre-resolve the
  label key so the per-call work is one dict update under a lock.
* **One registry per process** — the service's HTTP middleware, the
  engine and the executors record into the same :class:`Registry`.
  Shard workers keep none: each train reply carries the batch's
  wall-clock, and the parent records the shard series itself.

The no-op twins (:data:`NULL_REGISTRY`, shared :data:`NULL_METRIC`)
are what disabled telemetry hands out: recording into them is a single
no-op method call, so un-instrumented paths pay ~nothing.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Histogram",
    "Registry",
    "NullRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "OVERFLOW_LABEL",
]

# Millisecond-oriented defaults: the instrumented paths span ~0.1 ms
# (one executor batch) to multi-second rounds.
DEFAULT_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

# Label value every over-budget series collapses into.
OVERFLOW_LABEL = "other"


def _fmt(value: float) -> str:
    """Prometheus-style number: integral values render without a dot."""
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(names: tuple[str, ...], key: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{v}"' for n, v in zip(names, key))
    return "{" + inner + "}"


class _Metric:
    """Shared label plumbing for :class:`Counter` and :class:`Histogram`."""

    kind = ""

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        max_series: int = 64,
    ) -> None:
        if max_series <= 0:
            raise ValueError("max_series must be positive")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.max_series = max_series
        self._lock = threading.Lock()
        self._overflow_key = tuple(OVERFLOW_LABEL for _ in self.label_names)

    def _key(self, labels: dict) -> tuple[str, ...]:
        """Resolve ``**labels`` to a series key; the set is fixed."""
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        try:
            return tuple(str(labels[n]) for n in self.label_names)
        except KeyError as exc:
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            ) from exc

    def _bound_key_locked(self, key: tuple, series: dict) -> tuple:
        """Collapse over-budget *new* label combinations to ``other``."""
        if key in series or len(series) < self.max_series:
            return key
        return self._overflow_key

    def child(self, **labels) -> "_BoundSeries":
        """Pre-resolve a label set for hot paths (one dict op per record)."""
        return _BoundSeries(self, self._key(labels))


class _BoundSeries:
    """A metric with its label key already resolved and bounded."""

    __slots__ = ("_metric", "_series_key")

    def __init__(self, metric: _Metric, series_key: tuple):
        self._metric = metric
        self._series_key = series_key

    def inc(self, amount: float = 1.0) -> None:
        self._metric._record(self._series_key, amount)

    def observe(self, value: float) -> None:
        self._metric._record(self._series_key, value)


class Counter(_Metric):
    """Monotonic counter over a fixed label set."""

    kind = "counter"

    def __init__(self, name, help="", label_names=(), max_series=64):
        super().__init__(name, help, label_names, max_series)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        self._record(self._key(labels), amount)

    def _record(self, key: tuple, amount: float) -> None:
        with self._lock:
            key = self._bound_key_locked(key, self._values)
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def series(self) -> dict[tuple, float]:
        with self._lock:
            return dict(self._values)

    # -- render ---------------------------------------------------------

    def _render_lines(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        for key, value in items:
            lines.append(
                f"{self.name}{_render_labels(self.label_names, key)} {_fmt(value)}"
            )
        return lines

    def _snapshot_series(self) -> list[dict]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in items
        ]


class Histogram(_Metric):
    """Fixed-bucket histogram (sum, count, cumulative buckets)."""

    kind = "histogram"

    def __init__(
        self, name, help="", label_names=(), buckets=DEFAULT_BUCKETS, max_series=64
    ):
        super().__init__(name, help, label_names, max_series)
        buckets = tuple(float(b) for b in buckets)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.buckets = buckets
        # series key -> [bucket counts (+Inf last), sum, count]
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        self._record(self._key(labels), value)

    def _record(self, key: tuple, value: float) -> None:
        value = float(value)
        with self._lock:
            key = self._bound_key_locked(key, self._series)
            data = self._series.get(key)
            if data is None:
                data = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._series[key] = data
            data[0][bisect_left(self.buckets, value)] += 1
            data[1] += value
            data[2] += 1

    def count(self, **labels) -> int:
        with self._lock:
            data = self._series.get(self._key(labels))
            return 0 if data is None else data[2]

    def sum(self, **labels) -> float:
        with self._lock:
            data = self._series.get(self._key(labels))
            return 0.0 if data is None else data[1]

    # -- render ---------------------------------------------------------

    def _render_lines(self) -> list[str]:
        with self._lock:
            items = sorted(
                (key, (list(data[0]), data[1], data[2]))
                for key, data in self._series.items()
            )
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        bucket_names = self.label_names + ("le",)
        for key, (counts, total, count) in items:
            cumulative = 0
            for bound, c in zip(self.buckets + (float("inf"),), counts):
                cumulative += c
                le = "+Inf" if bound == float("inf") else _fmt(bound)
                labels = _render_labels(bucket_names, key + (le,))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _render_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{labels} {_fmt(total)}")
            lines.append(f"{self.name}_count{labels} {count}")
        return lines

    def _snapshot_series(self) -> list[dict]:
        with self._lock:
            items = sorted(
                (key, (data[1], data[2])) for key, data in self._series.items()
            )
        return [
            {"labels": dict(zip(self.label_names, key)), "sum": total, "count": count}
            for key, (total, count) in items
        ]


class Registry:
    """Process-local metric registry: get-or-create, render, snapshot.

    ``counter()``/``histogram()`` are idempotent — asking twice for the
    same name returns the same object, so instrumented components can
    each resolve their handles independently; re-declaring a name with
    a different kind or label set raises. One registry serves a whole
    process: the service's HTTP series and the engine's round, executor
    and shard series share it, and ``/metrics`` is its :meth:`render`.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def counter(self, name, help="", labels=(), max_series=64) -> Counter:
        return self._get_or_create(Counter, name, help, tuple(labels), max_series)

    def histogram(
        self, name, help="", labels=(), buckets=DEFAULT_BUCKETS, max_series=64
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, tuple(labels), max_series, buckets=buckets
        )

    def _get_or_create(self, cls, name, help, labels, max_series, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(
                    name, help, labels, max_series=max_series, **kwargs
                )
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls) or metric.label_names != labels:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind} "
                f"with labels {metric.label_names}"
            )
        return metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """Prometheus-style exposition ('' when nothing was recorded)."""
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric._render_lines())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """JSON-ready view: ``{name: {"kind", "series": [...]}}``."""
        with self._lock:
            metrics = [(n, self._metrics[n]) for n in sorted(self._metrics)]
        return {
            name: {"kind": metric.kind, "series": metric._snapshot_series()}
            for name, metric in metrics
        }


class _NullMetric:
    """Accepts every record call and drops it; ``child`` returns itself."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def child(self, **labels) -> "_NullMetric":
        return self

    def value(self, **labels) -> float:
        return 0.0

    def count(self, **labels) -> int:
        return 0

    def sum(self, **labels) -> float:
        return 0.0


NULL_METRIC = _NullMetric()


class NullRegistry:
    """The disabled default: every lookup yields the shared null metric."""

    enabled = False

    def counter(self, name, help="", labels=(), max_series=64):
        return NULL_METRIC

    def histogram(self, name, help="", labels=(), buckets=DEFAULT_BUCKETS,
                  max_series=64):
        return NULL_METRIC

    def get(self, name):
        return None

    def names(self):
        return []

    def render(self) -> str:
        return ""

    def snapshot(self) -> dict:
        return {}


NULL_REGISTRY = NullRegistry()
