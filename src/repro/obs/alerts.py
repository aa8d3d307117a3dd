"""SLO / alert rules engine over the live trace stream.

Declarative rules, evaluated incrementally against the records a
:class:`~repro.obs.tracer.TraceSink` receives (live) or against a
finished trace replayed through the same code path (post-hoc, see
:func:`evaluate`).  Five rule kinds:

===================  =====================================================
``stage_duration``    a ``stage`` span's *virtual* TTC exceeded the SLO
                      (``target`` fnmatch-es the stage name)
``budget_burn``       dollars billed on ``vm.lifetime`` spans exceeded
                      ``threshold`` × the planner's predicted cost (from
                      the ``planner.prediction`` event) — the serverless
                      STAR motivation: fire *while* the meter runs
``heartbeat_timeout`` a ``unit.heartbeat`` reported real elapsed beyond
                      ``threshold`` seconds (a hung shard)
``cache_hit_rate``    a cache's hit rate finished below ``threshold``
                      (``target`` is the counter prefix, e.g.
                      ``assembly_cache``); end-of-stream rule
``straggler``         a ``unit.straggler`` verdict arrived (the
                      detection itself lives in :mod:`repro.obs.live`)
===================  =====================================================

Rules are spelled compactly (CLI flags, ``Tracer(alert_rules=...)``) as
``kind[:target][:threshold][:severity]`` — e.g.
``stage_duration:transcript-assembly:5000:critical``,
``budget_burn:1.25``, ``heartbeat_timeout:30:critical``,
``cache_hit_rate:kmer_table:0.5``, ``straggler``.

Every firing appends an :class:`Alert`, emits a severity-tagged
``alert`` event (category ``"alert"``) into the tracer — so alerts land
in the archival trace, the report and the run ledger — and bumps the
``alerts.<severity>`` counter.  The engine is itself a sink on the same
tracer it emits into; it ignores ``alert``-category records to stay off
its own input.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Iterable

from repro.obs.tracer import Tracer, TraceSink

SEVERITIES = ("info", "warning", "critical")

_KINDS = (
    "stage_duration",
    "budget_burn",
    "heartbeat_timeout",
    "cache_hit_rate",
    "straggler",
)

#: Rule kinds whose compact form carries a target before the threshold.
_TARGETED = ("stage_duration", "cache_hit_rate")


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule (see module docstring for the kinds)."""

    kind: str
    threshold: float = 0.0
    target: str = "*"
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown alert rule kind {self.kind!r} (choose from {_KINDS})"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r} (choose from {SEVERITIES})"
            )
        if self.kind != "straggler" and self.threshold <= 0:
            raise ValueError(f"{self.kind} rule needs a threshold > 0")

    @property
    def spec(self) -> str:
        """The compact string form (round-trips through :func:`parse_rule`)."""
        parts = [self.kind]
        if self.kind in _TARGETED:
            parts.append(self.target)
        if self.kind != "straggler":
            parts.append(f"{self.threshold:g}")
        parts.append(self.severity)
        return ":".join(parts)


def parse_rule(spec: "str | AlertRule") -> AlertRule:
    """``kind[:target][:threshold][:severity]`` → :class:`AlertRule`."""
    if isinstance(spec, AlertRule):
        return spec
    parts = [p for p in str(spec).split(":")]
    if not parts or not parts[0]:
        raise ValueError(f"empty alert rule spec {spec!r}")
    kind, rest = parts[0], parts[1:]
    target = "*"
    if kind in _TARGETED:
        if not rest:
            raise ValueError(f"{kind} rule needs a target: {spec!r}")
        target, rest = rest[0], rest[1:]
    threshold = 0.0
    if kind != "straggler":
        if not rest:
            raise ValueError(f"{kind} rule needs a threshold: {spec!r}")
        threshold, rest = float(rest[0]), rest[1:]
    severity = rest[0] if rest else "warning"
    if len(rest) > 1:
        raise ValueError(f"trailing fields in alert rule spec {spec!r}")
    return AlertRule(
        kind=kind, threshold=threshold, target=target, severity=severity
    )


def default_rules() -> tuple[AlertRule, ...]:
    """The stock rule set the smoke CLI's ``--default-alerts`` enables:
    any straggler verdict, a unit silent/hung past 30 real seconds, and
    billing running 25 % past the planner's predicted cost."""
    return (
        AlertRule(kind="straggler", severity="warning"),
        AlertRule(kind="heartbeat_timeout", threshold=30.0, severity="critical"),
        AlertRule(kind="budget_burn", threshold=1.25, severity="critical"),
    )


@dataclass(frozen=True)
class Alert:
    """One rule firing."""

    rule: str  # the rule kind
    severity: str
    message: str
    r_time: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "r": self.r_time,
            "attrs": self.attrs,
        }


class AlertEngine(TraceSink):
    """Evaluates a rule set against the record stream (live or replayed).

    Attach to the tracer with ``tracer.add_sink(engine)`` for live
    evaluation; firings then also become ``alert`` events in that
    tracer.  Call :meth:`finalize` (or let ``close_sinks`` do it) to run
    the end-of-stream rules (cache-hit-rate floors, a budget check with
    late-arriving predictions).
    """

    def __init__(
        self,
        rules: Iterable["AlertRule | str"],
        tracer: Tracer | None = None,
    ) -> None:
        self.rules = tuple(parse_rule(r) for r in rules)
        self.tracer = tracer
        self.alerts: list[Alert] = []
        self._lock = threading.Lock()
        self._fired: set[tuple] = set()
        self._planned_cost: float | None = None
        self._billed_usd = 0.0
        self._counters: dict[str, float] = {}
        self._finalized = False

    # -- stream consumption --------------------------------------------------

    def emit(self, record: dict) -> None:
        kind = record.get("type")
        if kind == "span":
            if record.get("cat") == "stage":
                self._on_stage(record)
            elif record.get("name") == "vm.lifetime":
                self._on_billing(record)
        elif kind == "event":
            cat = record.get("cat")
            if cat == "alert":
                return  # our own output looping back through the bus
            name = record.get("name")
            if name == "planner.prediction":
                self._planned_cost = record["attrs"].get("cost_usd")
                self._check_budget(record.get("r"))
            elif name == "unit.heartbeat":
                self._on_heartbeat(record)
            elif name == "unit.straggler":
                self._on_straggler(record)
        elif kind == "metric":
            if record.get("kind") == "counter":
                with self._lock:
                    name = record["name"]
                    self._counters[name] = (
                        self._counters.get(name, 0.0) + record["value"]
                    )
        elif kind == "metrics":
            # The archival snapshot supersedes whatever deltas we saw.
            with self._lock:
                self._counters = dict(record["data"].get("counters", {}))

    def close(self) -> None:
        self.finalize()

    # -- rule evaluation -----------------------------------------------------

    def _rules_of(self, kind: str):
        return (r for r in self.rules if r.kind == kind)

    def _on_stage(self, record: dict) -> None:
        if record.get("v0") is None or record.get("v1") is None:
            return
        stage = record["attrs"].get("stage", record["name"])
        ttc = record["v1"] - record["v0"]
        for rule in self._rules_of("stage_duration"):
            if fnmatch(stage, rule.target) and ttc > rule.threshold:
                self._fire(
                    rule,
                    key=("stage_duration", rule.target, stage),
                    message=(
                        f"stage {stage} took {ttc:.1f} virtual s "
                        f"(SLO {rule.threshold:g} s)"
                    ),
                    r_time=record.get("r1"),
                    stage=stage,
                    ttc_s=ttc,
                    slo_s=rule.threshold,
                )

    def _on_billing(self, record: dict) -> None:
        cost = record["attrs"].get("cost_usd")
        if cost is None:
            return
        with self._lock:
            self._billed_usd += cost
        self._check_budget(record.get("r1"))

    def _check_budget(self, r_time: float | None) -> None:
        if self._planned_cost is None or self._planned_cost <= 0:
            return
        burn = self._billed_usd / self._planned_cost
        for rule in self._rules_of("budget_burn"):
            if burn > rule.threshold:
                self._fire(
                    rule,
                    key=("budget_burn", rule.threshold),
                    message=(
                        f"billed ${self._billed_usd:.2f} is "
                        f"{burn:.0%} of the planned ${self._planned_cost:.2f} "
                        f"(limit {rule.threshold:.0%})"
                    ),
                    r_time=r_time,
                    billed_usd=self._billed_usd,
                    planned_usd=self._planned_cost,
                    burn=burn,
                )

    def _on_heartbeat(self, record: dict) -> None:
        attrs = record["attrs"]
        elapsed = attrs.get("elapsed_r", 0.0)
        unit = attrs.get("unit", record.get("thread", "?"))
        for rule in self._rules_of("heartbeat_timeout"):
            if elapsed > rule.threshold:
                self._fire(
                    rule,
                    key=("heartbeat_timeout", rule.threshold, unit),
                    message=(
                        f"unit {unit} in flight for {elapsed:.1f} s "
                        f"(timeout {rule.threshold:g} s)"
                    ),
                    r_time=record.get("r"),
                    unit=unit,
                    elapsed_r=elapsed,
                    timeout_s=rule.threshold,
                )

    def _on_straggler(self, record: dict) -> None:
        # The detector's own severity tag would collide with the rule's.
        attrs = {
            k: v for k, v in record["attrs"].items() if k != "severity"
        }
        unit = attrs.get("unit", record.get("thread", "?"))
        for rule in self._rules_of("straggler"):
            self._fire(
                rule,
                key=("straggler", unit),
                message=(
                    f"unit {unit} is straggling: "
                    f"{attrs.get('elapsed_r', 0.0):.1f} s vs peer median "
                    f"{attrs.get('peer_median_r', 0.0):.1f} s"
                ),
                r_time=record.get("r"),
                **attrs,
            )

    def finalize(self) -> None:
        """End-of-stream rules; idempotent."""
        with self._lock:
            if self._finalized:
                return
            self._finalized = True
            counters = dict(self._counters)
        self._check_budget(None)
        for rule in self._rules_of("cache_hit_rate"):
            hits = counters.get(f"{rule.target}.hit", 0.0)
            misses = counters.get(f"{rule.target}.miss", 0.0)
            if hits + misses <= 0:
                continue
            rate = hits / (hits + misses)
            if rate < rule.threshold:
                self._fire(
                    rule,
                    key=("cache_hit_rate", rule.target),
                    message=(
                        f"{rule.target} hit rate {rate:.0%} below the "
                        f"{rule.threshold:.0%} floor "
                        f"({hits:g} hits / {misses:g} misses)"
                    ),
                    r_time=None,
                    cache=rule.target,
                    hit_rate=rate,
                    floor=rule.threshold,
                )

    # -- firing --------------------------------------------------------------

    def _fire(
        self,
        rule: AlertRule,
        key: tuple,
        message: str,
        r_time: float | None,
        **attrs: Any,
    ) -> None:
        with self._lock:
            if key in self._fired:
                return
            self._fired.add(key)
            alert = Alert(
                rule=rule.kind,
                severity=rule.severity,
                message=message,
                r_time=r_time,
                attrs=attrs,
            )
            self.alerts.append(alert)
        if self.tracer is not None:
            self.tracer.event(
                "alert",
                category="alert",
                rule=rule.kind,
                severity=rule.severity,
                message=message,
                **attrs,
            )
            self.tracer.count(f"alerts.{rule.severity}")

    # -- views ---------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Firings by severity (zero-count severities omitted)."""
        with self._lock:
            out: dict[str, int] = {}
            for alert in self.alerts:
                out[alert.severity] = out.get(alert.severity, 0) + 1
        return out


def evaluate(
    records: Iterable[dict], rules: Iterable["AlertRule | str"]
) -> list[Alert]:
    """Post-hoc evaluation: replay a finished trace through the engine."""
    engine = AlertEngine(rules)
    for record in records:
        engine.emit(record)
    engine.finalize()
    return engine.alerts


#: Package-root alias — ``evaluate`` alone is too generic a name there.
evaluate_alerts = evaluate
