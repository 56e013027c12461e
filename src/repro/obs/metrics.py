"""Named metrics: counters, gauges and histogram summaries.

One :class:`MetricsRegistry` holds every metric of a run (or of one
:class:`repro.engine.EngineStats`).  All three metric kinds merge
pairwise with an associative operation, so per-worker registries
serialized back from a fork pool, per-K report registries and the
enclosing run's registry combine through a single code path —
:meth:`MetricsRegistry.merge` — regardless of grouping.

Everything here is picklable and depends only on the standard library:
registries travel across the fork-pool pipe and into cached analysis
reports.
"""

from __future__ import annotations

from typing import Any, Iterator


class Counter:
    """A monotonically accumulated number (int or float)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def export(self) -> float:
        return self.value

    def copy(self) -> "Counter":
        return Counter(self.name, self.value)

    def __getstate__(self):
        return (self.name, self.value)

    def __setstate__(self, state):
        self.name, self.value = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value!r})"


class Gauge:
    """A last-write-wins sample (e.g. a configuration value)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Any = None) -> None:
        self.name = name
        self.value = value

    def set(self, value: Any) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        if other.value is not None:
            self.value = other.value

    def export(self) -> Any:
        return self.value

    def copy(self) -> "Gauge":
        return Gauge(self.name, self.value)

    def __getstate__(self):
        return (self.name, self.value)

    def __setstate__(self, state):
        self.name, self.value = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value!r})"


class Histogram:
    """A summary of observed samples: count / total / min / max (and
    their mean), all of which merge exactly."""

    kind = "histogram"
    __slots__ = ("name", "count", "total", "minimum", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (self.minimum is None
                                          or other.minimum < self.minimum):
            self.minimum = other.minimum
        if other.maximum is not None and (self.maximum is None
                                          or other.maximum > self.maximum):
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def export(self) -> dict[str, Any]:
        return {"count": self.count, "total": self.total,
                "min": self.minimum, "max": self.maximum,
                "mean": self.mean}

    def copy(self) -> "Histogram":
        fresh = Histogram(self.name)
        fresh.merge(self)
        return fresh

    def __getstate__(self):
        return (self.name, self.count, self.total, self.minimum,
                self.maximum)

    def __setstate__(self, state):
        # Cache entries written before the bucket grid was dropped
        # carry a sixth field, the bucket map; it is ignored.
        (self.name, self.count, self.total, self.minimum,
         self.maximum) = state[:5]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, {self.export()!r})"


class MetricsRegistry:
    """A name-indexed collection of counters, gauges and histograms.

    Metrics are created on first access (``registry.counter("x")``);
    asking for an existing name with a different kind raises.  Names
    use dotted paths (``kernel.compile_seconds``, ``stage.sweep``);
    iteration preserves creation order, which keeps e.g. stage listings
    in execution order.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- access --------------------------------------------------------
    def _get(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{factory.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def value(self, name: str, default: Any = 0) -> Any:
        """The exported value of *name*, or *default* when unset."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.export()

    def discard(self, name: str) -> None:
        self._metrics.pop(name, None)

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry (the one merge path).

        Counters and histograms accumulate; gauges take the other
        side's value.  Merging is associative for every kind, so any
        tree of worker / per-item / run registries folds to the same
        totals.
        """
        for name, metric in other._metrics.items():
            self._get(name, type(metric)).merge(metric)

    def merge_named(self, other: "MetricsRegistry", names) -> None:
        """Merge only the metrics selected by *names* — an iterable of
        exact names and/or ``prefix.`` strings (trailing dot = subtree)."""
        exact = {n for n in names if not n.endswith(".")}
        prefixes = tuple(n for n in names if n.endswith("."))
        for name, metric in other._metrics.items():
            if name in exact or name.startswith(prefixes):
                self._get(name, type(metric)).merge(metric)

    def copy(self) -> "MetricsRegistry":
        duplicate = MetricsRegistry()
        for name, metric in self._metrics.items():
            duplicate._metrics[name] = metric.copy()
        return duplicate

    # -- export --------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready ``{name: exported value}`` mapping."""
        return {name: metric.export()
                for name, metric in self._metrics.items()}

    def items(self):
        return self._metrics.items()

    def names(self) -> Iterator[str]:
        return iter(self._metrics)

    def __iter__(self) -> Iterator[str]:
        return iter(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getstate__(self):
        return self._metrics

    def __setstate__(self, state):
        self._metrics = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({self.as_dict()!r})"
