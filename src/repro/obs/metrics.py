"""A session-level metrics registry with Prometheus-style exposition.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (queries served,
  cache lookups by outcome, dispatched strategies, operation kinds);
* :class:`Gauge` — point-in-time values (cache entry counts, warm
  indexes);
* :class:`Histogram` — distributions over fixed buckets (execution
  seconds, any-k time-to-first-row and inter-row delay).

Instruments are labelled: a metric declares its label *names* once and
each distinct label-value combination gets its own child series, exactly
like ``prometheus_client`` — without the dependency.  The registry
renders either a plain-dict snapshot (:meth:`MetricsRegistry.as_dict`)
or the text exposition format (:meth:`MetricsRegistry.exposition`) that
a future ``/metrics`` endpoint can serve verbatim;
:func:`parse_exposition` is the simple round-trip parser the test suite
checks the format against.

The any-k histograms are the measurable face of the delay guarantees in
*Optimal Join Algorithms Meet Top-k* (Tziavelis et al., PAPERS.md):
``repro_anyk_delay_seconds`` records the gap between consecutive ranked
rows, which an any-k plan bounds and a drain plan does not.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Iterator

#: Exponential bucket boundaries for time-valued histograms (seconds).
#: 10 µs .. ~5 s covers a pure-Python engine's per-query and per-row
#: scales; +Inf is implicit.
DEFAULT_TIME_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _labels_key(label_names: tuple[str, ...],
                labels: dict[str, str]) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _render_labels(label_names: tuple[str, ...],
                   values: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(name, value) for name, value in zip(label_names, values)]
    pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + body + "}"


class _Instrument:
    """Shared bookkeeping: name, help text, label names, child series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: tuple[str, ...] = ()):
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], Any] = {}

    def _child(self, key: tuple[str, ...]) -> Any:
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def labels(self, **labels: str) -> "LabelledSeries":
        """One label combination, checked and keyed once, for a hot path
        that records into it repeatedly."""
        return LabelledSeries(self, _labels_key(self.label_names, labels))

    def _make_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def series(self) -> Iterator[tuple[tuple[str, ...], Any]]:
        """(label values, child) pairs in insertion order."""
        return iter(self._children.items())

    def header(self) -> list[str]:
        return [f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} {self.kind}"]


class LabelledSeries:
    """One labelled series of an instrument (see
    :meth:`_Instrument.labels`).

    The child series is created on the first recording, exactly as a
    labelled call creates it, so a binding that is never used adds
    nothing to the snapshot or the exposition.
    """

    __slots__ = ("_instrument", "_key")

    def __init__(self, instrument: _Instrument, key: tuple[str, ...]):
        self._instrument = instrument
        self._key = key

    def inc(self, amount: float = 1) -> None:
        self._instrument._inc(self._key, amount)

    def observe(self, value: float) -> None:
        self._instrument._observe(self._key, value)


class Counter(_Instrument):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def _make_child(self) -> list[float]:
        return [0.0]

    def inc(self, amount: float = 1, **labels: str) -> None:
        self._inc(_labels_key(self.label_names, labels), amount)

    def _inc(self, key: tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self._child(key)[0] += amount

    def value(self, **labels: str) -> float:
        key = _labels_key(self.label_names, labels)
        child = self._children.get(key)
        return child[0] if child is not None else 0.0

    def as_dict(self) -> dict[str, float]:
        if not self.label_names:
            return {self.name: self.value()}
        return {
            self.name + _render_labels(self.label_names, values): child[0]
            for values, child in self.series()
        }

    def exposition(self) -> list[str]:
        lines = self.header()
        if not self.label_names and not self._children:
            lines.append(f"{self.name} 0")
            return lines
        for values, child in self.series():
            labels = _render_labels(self.label_names, values)
            lines.append(f"{self.name}{labels} {_format(child[0])}")
        return lines


class Gauge(_Instrument):
    """A point-in-time value that can go up or down."""

    kind = "gauge"

    def _make_child(self) -> list[float]:
        return [0.0]

    def set(self, value: float, **labels: str) -> None:
        self._child(_labels_key(self.label_names, labels))[0] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        self._child(_labels_key(self.label_names, labels))[0] += amount

    def value(self, **labels: str) -> float:
        key = _labels_key(self.label_names, labels)
        child = self._children.get(key)
        return child[0] if child is not None else 0.0

    as_dict = Counter.as_dict
    exposition = Counter.exposition


class _HistogramChild:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """A distribution over fixed buckets, Prometheus-style.

    Buckets are upper bounds; export is cumulative with a trailing
    ``+Inf`` bucket equal to the observation count.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS):
        super().__init__(name, help_text, label_names)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one finite bucket")

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(len(self.buckets) + 1)

    def observe(self, value: float, **labels: str) -> None:
        self._observe(_labels_key(self.label_names, labels), value)

    def _observe(self, key: tuple[str, ...], value: float) -> None:
        child = self._child(key)
        child.counts[bisect_left(self.buckets, value)] += 1
        child.sum += value
        child.count += 1

    def snapshot(self, **labels: str) -> dict[str, Any]:
        """Cumulative bucket counts plus sum/count for one series."""
        key = _labels_key(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, child.counts):
            running += count
            cumulative[_format(bound)] = running
        cumulative["+Inf"] = child.count
        return {"buckets": cumulative, "sum": child.sum,
                "count": child.count}

    def as_dict(self) -> dict[str, Any]:
        return {
            self.name + _render_labels(self.label_names, values):
                self.snapshot(**dict(zip(self.label_names, values)))
            for values, _ in self.series()
        }

    def exposition(self) -> list[str]:
        lines = self.header()
        for values, child in self.series():
            running = 0
            for bound, count in zip(self.buckets, child.counts):
                running += count
                labels = _render_labels(self.label_names, values,
                                        extra=(("le", _format(bound)),))
                lines.append(f"{self.name}_bucket{labels} {running}")
            labels = _render_labels(self.label_names, values,
                                    extra=(("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {child.count}")
            plain = _render_labels(self.label_names, values)
            lines.append(f"{self.name}_sum{plain} {_format(child.sum)}")
            lines.append(f"{self.name}_count{plain} {child.count}")
        return lines


def _format(value: float) -> str:
    """Numbers without a trailing ``.0`` on integers (``5`` not ``5.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """All of one session's instruments, by name.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same instrument (and raises if
    the second declaration disagrees on kind or labels).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _declare(self, cls: type, name: str, help_text: str,
                 label_names: tuple[str, ...], **kwargs: Any) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls or \
                    existing.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} re-declared with a different "
                    f"kind or labels"
                )
            return existing
        instrument = cls(name, help_text, tuple(label_names), **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "",
                label_names: tuple[str, ...] = ()) -> Counter:
        return self._declare(Counter, name, help_text, label_names)

    def gauge(self, name: str, help_text: str = "",
              label_names: tuple[str, ...] = ()) -> Gauge:
        return self._declare(Gauge, name, help_text, label_names)

    def histogram(self, name: str, help_text: str = "",
                  label_names: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS
                  ) -> Histogram:
        return self._declare(Histogram, name, help_text, label_names,
                             buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[_Instrument]:
        return iter(self._instruments.values())

    def as_dict(self) -> dict[str, Any]:
        """A JSON-serializable snapshot of every instrument."""
        snapshot: dict[str, Any] = {}
        for instrument in self._instruments.values():
            snapshot.update(instrument.as_dict())
        return snapshot

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def exposition(self) -> str:
        """The Prometheus text exposition format, ready for ``/metrics``."""
        lines: list[str] = []
        for instrument in self._instruments.values():
            lines.extend(instrument.exposition())
        return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(text: str) -> dict[str, dict[str, float]]:
    """Parse the text exposition format back into nested dicts.

    Returns ``{metric_name: {rendered_labels: value}}`` where
    ``rendered_labels`` is the ``{a="b",...}`` suffix (empty string for
    unlabelled series).  Histogram ``_bucket``/``_sum``/``_count``
    series parse as ordinary metrics under their suffixed names.  This
    is the round-trip check for :meth:`MetricsRegistry.exposition`, not
    a general Prometheus parser.
    """
    parsed: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_and_labels, _, value = line.rpartition(" ")
        if "{" in name_and_labels:
            name, _, rest = name_and_labels.partition("{")
            labels = "{" + rest
        else:
            name, labels = name_and_labels, ""
        parsed.setdefault(name, {})[labels] = float(value)
    return parsed
