"""Module-level handles on the process registry.

A hot call site declares its sample once, at import, and writes
through it on every call — no lookup by name, no label sort::

    _PUBLISHED = handles.counter(
        "repro_broker_published_total", "messages accepted for routing")
    _DELIVERED = handles.counter(
        "repro_broker_delivered_total", "deliveries handed to a consumer")

    _PUBLISHED.inc()                            # per message
    delivered = _DELIVERED.labels(queue=name)   # once per queue ...
    delivered.inc()                             # ... per delivery

Declaring registers nothing: a family joins the registry (and the
exposition) at its handle's first use — where the by-name lookup the
handle replaces would have registered it — and again at the first use
after every :func:`repro.obs.reset`.  ``registry=`` binds to another
registry than the process one (a :class:`~repro.obs.tracing.Tracer`'s
own).  See :class:`~repro.obs.registry.Handle`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.registry import (
    CounterHandle, GaugeHandle, HistogramHandle, MetricRegistry,
)

__all__ = ["counter", "gauge", "histogram"]


def _or_process(registry: Optional[MetricRegistry]) -> MetricRegistry:
    if registry is not None:
        return registry
    from repro import obs

    return obs.get_registry()


def counter(
    name: str, help: str = "", registry: Optional[MetricRegistry] = None
) -> CounterHandle:
    return CounterHandle(_or_process(registry), name, help)


def gauge(
    name: str, help: str = "", registry: Optional[MetricRegistry] = None
) -> GaugeHandle:
    return GaugeHandle(_or_process(registry), name, help)


def histogram(
    name: str,
    help: str = "",
    buckets: Optional[Iterable[float]] = None,
    registry: Optional[MetricRegistry] = None,
) -> HistogramHandle:
    options = {} if buckets is None else {"buckets": tuple(buckets)}
    return HistogramHandle(_or_process(registry), name, help, options=options)
