"""Fluent builder for custom facilities.

:func:`repro.sim.scenario.testbed_scenario` encodes the paper's Table I;
:class:`ScenarioBuilder` is for everything else — downstream users
composing their own facility: arbitrary PDUs, any mix of sprinting /
opportunistic / tiered / non-participating tenants, custom subscriptions
and price anchors, replayed traces.

Example::

    scenario = (
        ScenarioBuilder(seed=7)
        .add_pdu("row-a", oversubscription=1.05)
        .add_search_tenant("search", 200.0, "row-a")
        .add_wordcount_tenant("batch", 150.0, "row-a")
        .add_other_group("colo", 400.0, "row-a")
        .build()
    )
    result = run_simulation(scenario, slots=2000)
"""

from __future__ import annotations

import dataclasses

from repro.config import (
    DEFAULT_SEED,
    DEFAULT_SLOT_SECONDS,
    RACK_HEADROOM_FRACTION,
    make_rng,
    spawn_rngs,
)
from repro.economics.pricing import PriceSheet
from repro.errors import ConfigurationError
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups
from repro.power.elementwise import ordered_sum
from repro.power.latency import LatencyModel
from repro.power.server import ServerPowerModel
from repro.sim.scenario import (
    PRICE_ANCHORS,
    Scenario,
    TenantSpec,
    _build_other_tenant,
    _build_participating_tenant,
    _default_strategy_factory,
)
from repro.tenants.bundled import BundledSprintingTenant, TierWorkload
from repro.tenants.calibration import calibrate_sprinting_cost
from repro.tenants.portfolio import TenantRack
from repro.tenants.tenant import Tenant
from repro.workloads.traces import GoogleStyleArrivalTrace

__all__ = ["ScenarioBuilder"]


@dataclasses.dataclass
class _PduPlan:
    pdu_id: str
    oversubscription: float
    leased_w: float = 0.0


class ScenarioBuilder:
    """Compose a custom facility tenant by tenant.

    Args:
        seed: Master seed for every stochastic component.
        slot_seconds: Market slot length.
        ups_oversubscription: Facility-level oversubscription ratio.
        rack_headroom_fraction: Rack PDU over-provisioning above each
            subscription.
        infrastructure_cost_per_watt: Shared-infrastructure capex for
            the operator's profit accounting.
        strategy_factory: ``kind -> BiddingStrategy``; defaults to the
            SpotDC linear-elastic strategy.
    """

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        slot_seconds: float = DEFAULT_SLOT_SECONDS,
        ups_oversubscription: float = 1.05,
        rack_headroom_fraction: float = RACK_HEADROOM_FRACTION,
        infrastructure_cost_per_watt: float = 25.0,
        strategy_factory=None,
    ) -> None:
        if ups_oversubscription < 1:
            raise ConfigurationError("ups_oversubscription must be >= 1")
        self.seed = seed
        self.slot_seconds = slot_seconds
        self.ups_oversubscription = ups_oversubscription
        self.rack_headroom_fraction = rack_headroom_fraction
        self.infrastructure_cost_per_watt = infrastructure_cost_per_watt
        self.strategy_factory = strategy_factory or _default_strategy_factory
        self._pdus: dict[str, _PduPlan] = {}
        self._pending: list = []  # (kind, payload) build instructions
        self._names: set[str] = set()
        self._rng = make_rng(seed)
        self._fault_profile = None
        self._telemetry = None
        self._prediction = None
        self._events = None
        self._clearing_deadline = None

    def with_fault_profile(self, profile) -> "ScenarioBuilder":
        """Attach a :class:`repro.resilience.FaultProfile` to the run.

        The engine builds the fault injector from it automatically; the
        profile's own seed (or else the builder's seed) keys the fault
        streams, so identical seeds reproduce identical fault traces.
        """
        self._fault_profile = profile
        return self

    def with_telemetry(self, config) -> "ScenarioBuilder":
        """Attach a :class:`repro.telemetry.TelemetryConfig` to the run.

        Every engine built from the resulting scenario records the
        per-slot span trace and metrics, and (when the config names an
        ``out_dir``) exports the JSONL / Prometheus / summary artifacts.
        """
        self._telemetry = config
        return self

    def with_prediction(self, profile) -> "ScenarioBuilder":
        """Attach a :class:`repro.forecast.PredictionProfile` to the run.

        Every engine built from the resulting scenario forecasts spot
        capacity with the profile's signal and releases it at the
        profile's risk quantile.  ``None`` (the default) keeps the
        paper's rule — byte-identical traces to the pre-forecast engine.
        """
        self._prediction = profile
        return self

    def with_events(self, profile) -> "ScenarioBuilder":
        """Attach a :class:`repro.events.EventProfile` to the run.

        Every engine built from the resulting scenario resolves the
        profile's grid events — EDR capacity shocks, wholesale price
        coupling, derating cascades — through the shock-absorption
        ladder.  ``None`` (the default) keeps capacity and reserve price
        static — byte-identical traces to the pre-events engine.
        """
        self._events = profile
        return self

    def with_clearing_deadline(
        self, budget_s: "float | bool" = True
    ) -> "ScenarioBuilder":
        """Arm the wall-clock deadline guard on the clear phase.

        ``True`` derives the budget from the slot length
        (:func:`repro.recovery.deadline.default_budget_s`); a float sets
        it in seconds.  An over-deadline clear falls back down the
        always-safe ladder (reuse last price, else no spot) instead of
        stalling the slot loop.  Leave off for runs that pin
        byte-identical traces: wall time is nondeterministic.
        """
        if budget_s is not True and float(budget_s) <= 0:
            raise ConfigurationError(
                "clearing deadline budget must be positive"
            )
        self._clearing_deadline = budget_s
        return self

    # ------------------------------------------------------------------
    # Facility structure
    # ------------------------------------------------------------------

    def add_pdu(
        self, pdu_id: str, oversubscription: float = 1.05
    ) -> "ScenarioBuilder":
        """Declare a cluster PDU; capacity is derived from the tenants
        attached to it (leased / oversubscription)."""
        if pdu_id in self._pdus:
            raise ConfigurationError(f"duplicate PDU {pdu_id!r}")
        if oversubscription < 1:
            raise ConfigurationError("oversubscription must be >= 1")
        self._pdus[pdu_id] = _PduPlan(pdu_id, oversubscription)
        return self

    def _check_attachment(self, name: str, pdu_id: str, subscription_w: float):
        if name in self._names:
            raise ConfigurationError(f"duplicate tenant name {name!r}")
        if pdu_id not in self._pdus:
            raise ConfigurationError(
                f"tenant {name!r} references undeclared PDU {pdu_id!r}"
            )
        if subscription_w <= 0:
            raise ConfigurationError("subscription_w must be positive")
        self._names.add(name)
        self._pdus[pdu_id].leased_w += subscription_w

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------

    def _add_classed_tenant(
        self, name: str, workload: str, subscription_w: float, pdu_id: str
    ) -> "ScenarioBuilder":
        self._check_attachment(name, pdu_id, subscription_w)
        self._pending.append(
            ("classed", (name, workload, subscription_w, pdu_id))
        )
        return self

    def add_search_tenant(self, name, subscription_w, pdu_id):
        """A sprinting tenant running the web-search workload."""
        return self._add_classed_tenant(name, "search", subscription_w, pdu_id)

    def add_web_tenant(self, name, subscription_w, pdu_id):
        """A sprinting tenant running the web-serving workload."""
        return self._add_classed_tenant(name, "web", subscription_w, pdu_id)

    def add_wordcount_tenant(self, name, subscription_w, pdu_id):
        """An opportunistic tenant running Hadoop WordCount."""
        return self._add_classed_tenant(
            name, "wordcount", subscription_w, pdu_id
        )

    def add_terasort_tenant(self, name, subscription_w, pdu_id):
        """An opportunistic tenant running Hadoop TeraSort."""
        return self._add_classed_tenant(
            name, "terasort", subscription_w, pdu_id
        )

    def add_graph_tenant(self, name, subscription_w, pdu_id):
        """An opportunistic tenant running graph analytics."""
        return self._add_classed_tenant(name, "graph", subscription_w, pdu_id)

    def add_other_group(
        self, name, subscription_w, pdu_id, volatile: bool = False
    ) -> "ScenarioBuilder":
        """A non-participating tenant group replaying a colo power trace."""
        self._check_attachment(name, pdu_id, subscription_w)
        self._pending.append(("other", (name, subscription_w, pdu_id, volatile)))
        return self

    def add_tiered_tenant(
        self,
        name: str,
        tiers: list[tuple[float, str]],
        q_low: float | None = None,
        q_high: float | None = None,
        slo_ms: float = 100.0,
    ) -> "ScenarioBuilder":
        """A sprinting tenant whose racks form one tiered service.

        Implements the paper's bundled multi-rack bidding (§III-B3,
        Fig. 4): all tiers see the same request stream, end-to-end
        latency is the sum of tier latencies, and the bid is a joint
        demand vector between two shared price anchors.

        Args:
            name: Tenant name.
            tiers: ``(subscription_w, pdu_id)`` per tier, front to back.
            q_low: Shared low price anchor (default: search class).
            q_high: Shared maximum acceptable price.
            slo_ms: End-to-end latency SLO.
        """
        if len(tiers) < 2:
            raise ConfigurationError("a tiered tenant needs >= 2 tiers")
        if name in self._names:
            raise ConfigurationError(f"duplicate tenant name {name!r}")
        for subscription_w, pdu_id in tiers:
            if pdu_id not in self._pdus:
                raise ConfigurationError(
                    f"tenant {name!r} references undeclared PDU {pdu_id!r}"
                )
            if subscription_w <= 0:
                raise ConfigurationError("subscription_w must be positive")
        self._names.add(name)
        for subscription_w, pdu_id in tiers:
            self._pdus[pdu_id].leased_w += subscription_w
        self._pending.append(("tiered", (name, list(tiers), q_low, q_high, slo_ms)))
        return self

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _build_tiered(
        self, name, tiers, q_low, q_high, slo_ms, slots_per_day, rng
    ) -> Tenant:
        anchors = PRICE_ANCHORS["search"]
        q_low = anchors[0] if q_low is None else q_low
        q_high = anchors[1] if q_high is None else q_high
        tenant_racks = []
        front_model = None
        target_share = slo_ms * 0.9 / len(tiers)
        for i, (subscription_w, pdu_id) in enumerate(tiers):
            power = ServerPowerModel(
                0.45 * subscription_w, 1.25 * subscription_w
            )
            # Each tier is one stage of the pipeline, not a whole search
            # stack: lighter latency floor and tail so the summed
            # end-to-end latency lands in the SLO regime.
            latency_model = LatencyModel(
                power_model=power,
                mu_max_rps=1.4 * power.dynamic_range_w,
                d_min_ms=10.0,
                alpha=2.0,
                tail_const_ms_rps=2200.0,
            )
            if front_model is None:
                front_model = latency_model
            workload = TierWorkload(
                f"{name}/tier{i}", latency_model, target_ms=target_share
            )
            tenant_racks.append(
                TenantRack(
                    rack_id=f"rack:{name}/tier{i}",
                    pdu_id=pdu_id,
                    guaranteed_w=subscription_w,
                    max_spot_w=self.rack_headroom_fraction * subscription_w,
                    power_model=power,
                    workload=workload,
                )
            )
        trace = GoogleStyleArrivalTrace(
            max_rate_rps=front_model.mu_max_rps,
            base_fraction=0.36,
            diurnal_amplitude=0.11,
            slots_per_day=slots_per_day,
            phase=float(rng.uniform(0, 1)),
        )
        first_sub = tiers[0][0]
        cost_model = calibrate_sprinting_cost(
            front_model,
            guaranteed_w=first_sub,
            reference_rps=0.6 * front_model.mu_max_rps,
            max_spot_w=tenant_racks[0].useful_spot_w,
            target_marginal_per_kw_hour=anchors[2],
            slo_ms=slo_ms,
        )
        return BundledSprintingTenant(
            name,
            tenant_racks,
            arrival_trace=trace,
            cost_model=cost_model,
            q_low=q_low,
            q_high=q_high,
            slo_ms=slo_ms,
        )

    def to_spec(self) -> dict:
        """Emit this facility as a declarative scenario spec.

        The spec captures everything data can express: topology, time,
        demand (with ``"custom"`` standing in for a non-default
        ``strategy_factory``), supply, recovery, and — when
        representable — the fault profile and telemetry config.
        :meth:`build` routes through
        :func:`repro.scenarios.loader.build_scenario` with the live
        objects as overrides, so behaviour is exact even when the spec
        form is lossy (e.g. an explicit derating schedule).
        """
        from repro.scenarios.spec import normalize_spec
        from repro.sim.scenario import _default_strategy_factory

        tenants = []
        for kind, payload in self._pending:
            if kind == "classed":
                name, workload, subscription_w, pdu_id = payload
                tenants.append(
                    {
                        "name": name,
                        "workload": workload,
                        "subscription_w": subscription_w,
                        "pdu": pdu_id,
                    }
                )
            elif kind == "other":
                name, subscription_w, pdu_id, volatile = payload
                tenants.append(
                    {
                        "name": name,
                        "workload": "other",
                        "subscription_w": subscription_w,
                        "pdu": pdu_id,
                        "volatile": volatile,
                    }
                )
            else:
                name, tiers, q_low, q_high, slo_ms = payload
                tenants.append(
                    {
                        "name": name,
                        "workload": "tiered",
                        "tiers": [
                            {"subscription_w": w, "pdu": p} for w, p in tiers
                        ],
                        "q_low": q_low,
                        "q_high": q_high,
                        "slo_ms": slo_ms,
                    }
                )
        strategy = (
            "linear_elastic"
            if self.strategy_factory is _default_strategy_factory
            else "custom"
        )
        return normalize_spec(
            {
                "spec_version": 1,
                "name": "builder",
                "seed": self.seed,
                "topology": {
                    "pdus": [
                        {
                            "id": plan.pdu_id,
                            "oversubscription": plan.oversubscription,
                        }
                        for plan in self._pdus.values()
                    ],
                    "rack_headroom_fraction": self.rack_headroom_fraction,
                },
                "time": {"slot_seconds": self.slot_seconds},
                "demand": {"strategy": strategy, "tenants": tenants},
                "supply": {
                    "ups_oversubscription": self.ups_oversubscription,
                    "infrastructure_cost_per_watt": (
                        self.infrastructure_cost_per_watt
                    ),
                },
                "prediction": self._prediction_spec(),
                "events": self._events_spec(),
                "faults": self._faults_spec(),
                "telemetry": self._telemetry_spec(),
                "recovery": {"clearing_deadline_s": self._clearing_deadline},
            }
        )

    def _faults_spec(self) -> "dict | None":
        """Spec form of the attached fault profile, when data can carry it."""
        profile = self._fault_profile
        if profile is None or profile.derating_events:
            return None
        fields = dataclasses.asdict(profile)
        fields.pop("derating_events")
        return {"profile": fields}

    def _prediction_spec(self) -> "dict | None":
        """Spec form of the attached prediction profile (fully data)."""
        profile = self._prediction
        if profile is None:
            return None
        return dataclasses.asdict(profile)

    def _events_spec(self) -> "dict | None":
        """Spec form of the attached event profile (fully data)."""
        profile = self._events
        if profile is None:
            return None
        return profile.to_spec()

    def _telemetry_spec(self) -> "dict | None":
        """Spec form of the attached telemetry config (scalar fields)."""
        config = self._telemetry
        if config is None:
            return None
        return {
            "enabled": config.enabled,
            "out_dir": None if config.out_dir is None else str(config.out_dir),
            "label": config.label,
            "export_trace": config.export_trace,
            "export_metrics": config.export_metrics,
            "export_summary": config.export_summary,
            "include_timings": config.include_timings,
        }

    def build(self) -> Scenario:
        """Assemble the scenario (validates the full facility).

        Thin wrapper: emits :meth:`to_spec` and feeds it to the spec
        loader, passing the live strategy/fault/telemetry objects as
        overrides so nothing is lost to the data form.  Spec validation
        (schema ``minItems`` on PDUs and tenants) supplies the
        empty-facility errors.
        """
        from repro.scenarios.loader import build_scenario

        return build_scenario(
            self.to_spec(),
            strategy_factory=self.strategy_factory,
            fault_profile=self._fault_profile,
            telemetry=self._telemetry,
        )

    def _assemble_scenario(self) -> Scenario:
        """The single assembly engine behind the builder and the loader.

        One RNG stream per tenant, spawned in declaration order from the
        builder seed — the invariant every byte-identical-trace test
        rests on.
        """
        if not self._pdus:
            raise ConfigurationError("declare at least one PDU")
        if not self._pending:
            raise ConfigurationError("add at least one tenant")
        slots_per_day = 24 * 3600 / self.slot_seconds
        rngs = spawn_rngs(self._rng, len(self._pending))

        tenants: list[Tenant] = []
        for (kind, payload), rng in zip(self._pending, rngs):
            if kind == "classed":
                name, workload, subscription_w, pdu_id = payload
                spec = TenantSpec(name, workload, subscription_w, 0)
                tenants.append(
                    _build_participating_tenant(
                        spec,
                        pdu_id,
                        self.rack_headroom_fraction,
                        self.strategy_factory,
                        jitter=0.0,
                        rng=rng,
                        slots_per_day=slots_per_day,
                    )
                )
            elif kind == "other":
                name, subscription_w, pdu_id, volatile = payload
                spec = TenantSpec(name, "other", subscription_w, 0)
                tenants.append(
                    _build_other_tenant(
                        spec, pdu_id, volatile, rng, slots_per_day
                    )
                )
            else:
                name, tiers, q_low, q_high, slo_ms = payload
                tenants.append(
                    self._build_tiered(
                        name, tiers, q_low, q_high, slo_ms, slots_per_day, rng
                    )
                )

        pdus = [
            Pdu(plan.pdu_id, plan.leased_w / plan.oversubscription)
            for plan in self._pdus.values()
            if plan.leased_w > 0
        ]
        if not pdus:
            raise ConfigurationError("every declared PDU is empty")
        ups_capacity = (
            ordered_sum([p.capacity_w for p in pdus]) / self.ups_oversubscription
        )
        racks = [
            Rack(
                rack_id=track.rack_id,
                tenant_id=tenant.tenant_id,
                pdu_id=track.pdu_id,
                guaranteed_w=track.guaranteed_w,
                physical_w=track.guaranteed_w + track.max_spot_w,
            )
            for tenant in tenants
            for track in tenant.racks
        ]
        topology = PowerTopology.build(Ups("ups:0", ups_capacity), pdus, racks)
        infra_per_hour = (
            ups_capacity * self.infrastructure_cost_per_watt / (15.0 * 8760.0)
        )
        return Scenario(
            topology=topology,
            tenants=tenants,
            price_sheet=PriceSheet(),
            slot_seconds=self.slot_seconds,
            seed=self.seed,
            infrastructure_cost_per_hour=infra_per_hour,
            fault_profile=self._fault_profile,
            telemetry=self._telemetry,
            clearing_deadline_s=self._clearing_deadline,
            prediction=self._prediction,
            events=self._events,
        )
