#!/usr/bin/env python3
"""Closed-loop load test: 200 Figure-9B instances over one cloud.

The fleet fabric keeps 16 instances in flight at all times — every
completion immediately submits a replacement, the classic closed-loop
load-generation regime — until 200 instances have run end to end
through the shared portals, TFC notary, document pool and notification
fan-out.  Every hop performs the real cryptography (signature cascade
verification, CER signing); the queueing between hops is simulated
deterministically, so the printed report is byte-for-byte reproducible
for a given seed.

Along the way an auditor cold-verifies every 40th completed document's
full signature cascade, straight from the pool.

Run:  python examples/load_test.py
"""

from repro.fleet import ClosedLoop, FleetConfig, build_fleet, workload_from_spec

INSTANCES = 200
CONCURRENCY = 16
SEED = 42


def main() -> None:
    workload = workload_from_spec("fig9")
    config = FleetConfig(
        arrivals=ClosedLoop(instances=INSTANCES, concurrency=CONCURRENCY),
        seed=SEED,
        think_seconds=0.5,      # participants hesitate a little
        audit_every=40,
    )
    fleet = build_fleet(workload, config, portals=3)

    print(f"closed loop: {INSTANCES} Fig. 9B instances, "
          f"{CONCURRENCY} in flight, seed {SEED}\n")
    report = fleet.run()
    print(report.render())

    util = {name: station.utilization
            for name, station in sorted(report.stations.items())}
    bottleneck = max(util, key=util.get)
    print(f"\nbottleneck station: {bottleneck} "
          f"at {util[bottleneck]:.0%} utilization")
    depths = fleet.queue_depths()[bottleneck]
    peak = max(depths, key=lambda point: point[1], default=(0.0, 0))
    print(f"its queue peaked at {peak[1]} waiting jobs "
          f"(t={peak[0]:.1f} sim-s)")

    assert report.instances_completed == INSTANCES
    assert report.audit_failures == 0
    print(f"\nall {INSTANCES} instances completed; "
          f"{report.instances_audited} audited cold with 0 failures")


if __name__ == "__main__":
    main()
