"""FaultInjector: plans become timed incidents against a live cloud."""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud
from repro.common.errors import ProviderUnavailableError, SimulationError
from repro.common.payload import Payload
from repro.common.units import KiB, MiB
from repro.faults import FaultEvent, FaultPlan

SMALL = Calibration(
    image=ImageSpec(size=8 * MiB, chunk_size=64 * KiB, boot_touched_bytes=1 * MiB)
)


def small_cloud(seed=7):
    return build_cloud(4, seed=seed, calib=SMALL)


class TestArming:
    def test_arm_twice_rejected(self):
        cloud = small_cloud()
        inj = cloud.inject_faults(FaultPlan())
        with pytest.raises(SimulationError, match="armed twice"):
            inj.arm()

    def test_unknown_target_rejected(self):
        cloud = small_cloud()
        plan = FaultPlan((FaultEvent(at=1.0, kind="provider-crash", target="ghost"),))
        with pytest.raises(SimulationError, match="unknown host"):
            cloud.inject_faults(plan)

    def test_overlapping_crash_windows_rejected(self):
        cloud = small_cloud()
        name = cloud.compute[0].name
        plan = FaultPlan(
            (
                FaultEvent(at=1.0, kind="provider-crash", target=name, duration=5.0),
                FaultEvent(at=3.0, kind="provider-crash", target=name, duration=1.0),
            )
        )
        with pytest.raises(SimulationError, match="overlapping crash windows"):
            cloud.inject_faults(plan)

    def test_empty_plan_schedules_nothing(self):
        cloud = small_cloud()
        inj = cloud.inject_faults(FaultPlan())
        assert inj.armed
        assert cloud.env.run() is None  # queue drains immediately
        assert inj.applied == []


class TestCrashEvents:
    def test_transient_crash_downs_then_revives(self):
        cloud = small_cloud()
        victim = cloud.compute[1]
        plan = FaultPlan(
            (
                FaultEvent(
                    at=1.0, kind="provider-crash", target=victim.name, duration=2.0
                ),
            )
        )
        inj = cloud.inject_faults(plan)
        cloud.env.run(until=1.5)
        assert victim.down
        cloud.env.run(until=3.5)
        assert not victim.down
        assert [t for t, _ in inj.applied] == [1.0]
        assert cloud.metrics.counters["fault-provider-crash"] == 1
        assert cloud.metrics.counters["host-crash"] == 1
        assert cloud.metrics.counters["host-restart"] == 1

    def test_permanent_crash_never_revives(self):
        cloud = small_cloud()
        victim = cloud.compute[2]
        plan = FaultPlan(
            (FaultEvent(at=0.5, kind="provider-crash", target=victim.name),)
        )
        cloud.inject_faults(plan)
        cloud.env.run()
        assert victim.down

    def test_crash_aborts_in_flight_transfer(self):
        """A crash mid-RPC surfaces as ProviderUnavailableError at the caller."""
        cloud = small_cloud()
        dep = cloud.blobseer
        rec = dep.seed_blob(Payload.zeros(2 * MiB), 64 * KiB)
        # 32 chunks round-robin over 4 providers: every data host holds some
        plan = FaultPlan(
            (
                FaultEvent(
                    at=0.001, kind="provider-crash", target=cloud.compute[1].name
                ),
            )
        )
        cloud.inject_faults(plan)
        client = dep.client(cloud.manager)

        def read():
            yield from client.read(rec.blob_id, rec.version, 0, 2 * MiB)

        with pytest.raises(ProviderUnavailableError):
            cloud.run(cloud.env.process(read()))


class TestDegradationEvents:
    def test_disk_stall_window(self):
        cloud = small_cloud()
        victim = cloud.compute[0]
        plan = FaultPlan(
            (
                FaultEvent(
                    at=1.0, kind="disk-stall", target=victim.name,
                    duration=2.0, factor=4.0,
                ),
            )
        )
        cloud.inject_faults(plan)
        cloud.env.run(until=1.5)
        assert victim.disk.stalled
        cloud.env.run(until=3.5)
        assert not victim.disk.stalled

    def test_nic_degrade_divides_and_restores_capacity(self):
        cloud = small_cloud()
        victim = cloud.compute[0]
        up0, down0 = victim.nic.up_capacity, victim.nic.down_capacity
        plan = FaultPlan.degradations(
            [victim.name], "nic-degrade", at=1.0, duration=2.0, factor=10.0
        )
        cloud.inject_faults(plan)
        cloud.env.run(until=1.5)
        assert victim.nic.up_capacity == pytest.approx(up0 / 10.0)
        assert victim.nic.down_capacity == pytest.approx(down0 / 10.0)
        cloud.env.run(until=3.5)
        assert victim.nic.up_capacity == pytest.approx(up0)
        assert victim.nic.down_capacity == pytest.approx(down0)
