"""SERVING — throughput under multi-tenant contention (ROADMAP item 1).

Claims reproduced:
(1) the serving layer multiplexes ≥ 1000 concurrent sessions across
    ≥ 4 tenants and QoS tiers over one appliance, with per-tenant
    fair-share admission control on the request hot path;
(2) under ~2x-capacity overload from open-loop batch/discovery traffic,
    QoS-aware admission sheds batch first: the interactive tenants' p99
    latency stays within 3x their uncontended p99 while lower tiers
    absorb the shed;
(3) goodput and tail latency (p50/p99/p999, virtual ms) are measured per
    tenant, deterministically (seeded virtual-time replay — identical
    numbers run-to-run).

Results land in ``BENCH_serving.json`` at the repo root.  Runs
standalone: ``python benchmarks/bench_serving.py --quick`` is the
serving smoke target ``make verify`` uses.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List

import pytest

from repro.core import ApplianceConfig, Impliance
from repro.serving import (
    ArrivalSpec,
    QOS_BATCH,
    QOS_DISCOVERY,
    QOS_INTERACTIVE,
    ServingConfig,
    TenantSpec,
    WorkloadDriver,
)

from conftest import print_table

SEED = 29
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_serving.json")

#: Mean virtual service demand of the default mix (search .6×1ms +
#: sql .3×3ms + faceted .1×2ms) — the capacity model the overload
#: scenario is scaled against.
MEAN_COST_MS = 1.7
CONCURRENCY = 4
CAPACITY_RPS = CONCURRENCY * 1000.0 / MEAN_COST_MS
OVERLOAD_FACTOR = 2.0

#: Closed-loop interactive think time: 500 ms keeps the two interactive
#: tenants' combined offered load at roughly 40% of capacity, so the
#: overload comes from the open-loop batch/discovery tenants.
THINK_MS = 500.0


def serving_config() -> ServingConfig:
    return ServingConfig(
        max_concurrency=CONCURRENCY,
        global_queue_cap=256,
        tenant_queue_cap=128,
    )


def interactive_specs(requests_per_session: int) -> List[TenantSpec]:
    return [
        TenantSpec(
            "callcenter-crm",
            corpus="callcenter",
            qos=QOS_INTERACTIVE,
            sessions=320,
            requests_per_session=requests_per_session,
            arrival=ArrivalSpec(process="closed", think_ms=THINK_MS),
        ),
        TenantSpec(
            "insurance-claims",
            corpus="insurance",
            qos=QOS_INTERACTIVE,
            sessions=220,
            requests_per_session=requests_per_session,
            arrival=ArrivalSpec(process="closed", think_ms=THINK_MS),
        ),
    ]


def overload_specs(requests_per_session: int) -> List[TenantSpec]:
    """Interactive tenants plus open-loop batch/discovery pushing the
    total offered load to ~2x capacity."""
    interactive_rps = (320 + 220) * 1000.0 / THINK_MS  # ≈ closed-loop demand
    surplus = OVERLOAD_FACTOR * CAPACITY_RPS - interactive_rps
    return interactive_specs(requests_per_session) + [
        TenantSpec(
            "legal-ediscovery",
            corpus="legal",
            qos=QOS_BATCH,
            sessions=300,
            arrival=ArrivalSpec(process="open", rate_rps=surplus * 2.0 / 3.0),
        ),
        TenantSpec(
            "sensor-fleet",
            corpus="sensors",
            qos=QOS_DISCOVERY,
            sessions=200,
            arrival=ArrivalSpec(process="open", rate_rps=surplus / 3.0),
        ),
    ]


def run_scenario(specs: List[TenantSpec], duration_ms: float) -> Dict:
    app = Impliance(ApplianceConfig(serving=serving_config()))
    driver = WorkloadDriver(app, specs, seed=SEED)
    report = driver.run(duration_ms=duration_ms)
    payload = report.to_dict()
    payload["scheduler"] = {
        k: v
        for k, v in app.serving.stats().items()
        if k not in ("tenants", "lanes")
    }
    return payload


def run_comparison(duration_ms: float, requests_per_session: int) -> Dict:
    uncontended = run_scenario(
        interactive_specs(requests_per_session), duration_ms
    )
    overload = run_scenario(overload_specs(requests_per_session), duration_ms)

    inter_names = ["callcenter-crm", "insurance-claims"]
    base_p99 = max(
        uncontended["tenants"][t]["latency_ms"]["p99"] for t in inter_names
    )
    over_p99 = max(
        overload["tenants"][t]["latency_ms"]["p99"] for t in inter_names
    )
    inter_shed = sum(overload["tenants"][t]["shed"] for t in inter_names)
    inter_offered = sum(overload["tenants"][t]["offered"] for t in inter_names)
    lower_shed = (
        overload["tenants"]["legal-ediscovery"]["shed"]
        + overload["tenants"]["sensor-fleet"]["shed"]
    )
    return {
        "seed": SEED,
        "capacity_rps": CAPACITY_RPS,
        "overload_factor": OVERLOAD_FACTOR,
        "uncontended": uncontended,
        "overload": overload,
        "interactive_p99_uncontended_ms": base_p99,
        "interactive_p99_overload_ms": over_p99,
        "interactive_p99_ratio": over_p99 / base_p99 if base_p99 else 0.0,
        "interactive_shed": inter_shed,
        "interactive_shed_frac": inter_shed / inter_offered if inter_offered else 0.0,
        "lower_tier_shed": lower_shed,
    }


def check_claims(results: Dict) -> None:
    # A request that raised is a failure, not a faster request.
    for phase in ("uncontended", "overload"):
        payload = results[phase]
        assert payload["errors"] == 0, (
            f"{phase}: {payload['errors']} requests failed {payload['errors_by_type']}"
        )
    overload = results["overload"]
    assert overload["sessions"] >= 1000, "must drive >= 1000 concurrent sessions"
    assert len(overload["tenants"]) >= 4, "must span >= 4 tenants"
    # Overload is real: offered load well above what completed.
    assert overload["offered"] > overload["completed"]
    # Shed order respects QoS: batch/discovery absorb the overload …
    assert results["lower_tier_shed"] > 0, "overload must shed lower tiers"
    # … and interactive traffic is (essentially) never shed.
    assert results["interactive_shed_frac"] <= 0.01, (
        f"interactive shed {results['interactive_shed']} requests"
    )
    # Interactive tail latency is protected by fair share + eviction.
    ratio = results["interactive_p99_ratio"]
    assert ratio <= 3.0, (
        f"interactive p99 degraded {ratio:.2f}x under overload (limit 3x)"
    )


def report_tables(results: Dict) -> None:
    for phase in ("uncontended", "overload"):
        payload = results[phase]
        rows = []
        for name, t in payload["tenants"].items():
            lat = t["latency_ms"]
            rows.append(
                [
                    name,
                    t["qos"],
                    t["offered"],
                    t["completed"],
                    t["shed"],
                    f"{t['goodput_rps']:.0f}",
                    f"{lat['p50']:.2f}",
                    f"{lat['p99']:.2f}",
                    f"{lat['p999']:.2f}",
                ]
            )
        print_table(
            f"SERVING {phase} — {payload['sessions']} sessions, "
            f"goodput {payload['goodput_rps']:.0f} req/s",
            ["tenant", "qos", "offered", "done", "shed", "rps", "p50", "p99", "p999"],
            rows,
        )
    print(
        f"\ninteractive p99: {results['interactive_p99_uncontended_ms']:.2f} ms "
        f"uncontended -> {results['interactive_p99_overload_ms']:.2f} ms "
        f"under {results['overload_factor']:.0f}x overload "
        f"({results['interactive_p99_ratio']:.2f}x, limit 3x); "
        f"lower tiers shed {results['lower_tier_shed']} requests, "
        f"interactive shed {results['interactive_shed']}"
    )


def write_results(results: Dict) -> None:
    with open(RESULT_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    print(f"\nresults written to {os.path.normpath(RESULT_PATH)}")


# ----------------------------------------------------------------------
# pytest entry point (`make bench` / -m serving)
# ----------------------------------------------------------------------
@pytest.mark.serving
@pytest.mark.smoke
def test_serving_overload_protects_interactive():
    results = run_comparison(duration_ms=800.0, requests_per_session=2)
    check_claims(results)


# ----------------------------------------------------------------------
# standalone entry point (`make serving-smoke`)
# ----------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: shorter virtual run, same session/tenant scale",
    )
    args = parser.parse_args()
    duration = 800.0 if args.quick else 2_000.0
    per_session = 2 if args.quick else 4
    results = run_comparison(duration_ms=duration, requests_per_session=per_session)
    report_tables(results)
    check_claims(results)
    write_results(results)


if __name__ == "__main__":
    main()
