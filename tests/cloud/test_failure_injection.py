"""Failure-injection tests: dead providers, interrupted boots, lost chunks."""

import pytest

from repro.blobseer import BlobSeerDeployment
from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, instance, seed_image
from repro.common.errors import (
    ChunkNotFoundError,
    InterruptedError_,
    ProviderUnavailableError,
)
from repro.common.payload import Payload
from repro.common.units import KiB, MiB
from repro.core import mount
from repro.simkit.host import Fabric
from repro.vmsim import make_image

CHUNK = 4 * KiB


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


class TestProviderFailureDuringDeployment:
    def _setup(self, replication):
        fab = Fabric(seed=51)
        hosts = [fab.add_host(f"node{i}") for i in range(6)]
        manager = fab.add_host("manager")
        dep = BlobSeerDeployment(
            fab, data_hosts=hosts[:4], meta_hosts=[manager], vmanager_host=manager
        )
        data = pattern(16 * CHUNK)
        rec = dep.seed_blob(Payload.from_bytes(data), CHUNK, replication=replication)
        return fab, dep, hosts, rec, data

    def test_boot_survives_provider_loss_with_replication(self):
        fab, dep, hosts, rec, data = self._setup(replication=2)
        hosts[1].down = True

        def scenario():
            h = yield from mount(hosts[5], dep, rec.blob_id, rec.version)
            p = yield from h.read(0, 16 * CHUNK)
            return p

        got = fab.run(fab.env.process(scenario()))
        assert got.to_bytes() == data

    def test_boot_fails_without_replication(self):
        fab, dep, hosts, rec, data = self._setup(replication=1)
        hosts[1].down = True

        def scenario():
            h = yield from mount(hosts[5], dep, rec.blob_id, rec.version)
            yield from h.read(0, 16 * CHUNK)

        with pytest.raises(ProviderUnavailableError):
            fab.run(fab.env.process(scenario()))

    def test_recovered_provider_serves_again(self):
        fab, dep, hosts, rec, data = self._setup(replication=1)
        hosts[1].down = True
        hosts[1].down = False

        def scenario():
            h = yield from mount(hosts[5], dep, rec.blob_id, rec.version)
            p = yield from h.read(0, 16 * CHUNK)
            return p

        assert fab.run(fab.env.process(scenario())).to_bytes() == data


def unbooted_vm(cloud, image):
    """One mirror instance of a freshly seeded image, not booted yet."""
    rec = seed_image(cloud, image)["blobseer"]
    at = (rec.blob_id, rec.version)
    backend = instance.open_mirror(
        cloud.compute[0], cloud.blobseer, at, cloud.calib.fuse, "/mirror/vm000"
    )
    return instance.new_vm("vm000", backend, ("vm", 0), cloud.calib.boot), at


class TestInterruptedBoot:
    def test_premature_termination_leaves_consistent_state(self):
        """§2.3: the shutdown phase 'is completely missing if the VM was
        terminated prematurely' — the mirror must survive an interrupt."""
        calib = Calibration(
            image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=8 * MiB)
        )
        cloud = build_cloud(4, seed=61, calib=calib)
        image = make_image(64 * MiB, 8 * MiB, n_regions=12)
        vm, at = unbooted_vm(cloud, image)
        proc = cloud.env.process(instance.boot(vm, image, ("t", 0)), name="doomed-boot")

        def killer():
            yield cloud.env.timeout(2.0)  # mid-boot (hardware failure)
            proc.interrupt("hardware failure")

        cloud.env.process(killer())
        with pytest.raises(InterruptedError_):
            cloud.run(proc)
        assert vm.boot_time is None  # never finished
        # the mirror's bookkeeping is still sound: a fresh read works
        handle = vm.backend.handle

        def post_mortem():
            p = yield from handle.read(0, 4096)
            return p

        got = cloud.run(cloud.env.process(post_mortem()))
        assert got.size == 4096

    def test_interrupt_does_not_corrupt_repository(self):
        calib = Calibration(
            image=ImageSpec(size=16 * MiB, chunk_size=256 * KiB, boot_touched_bytes=2 * MiB)
        )
        cloud = build_cloud(4, seed=62, calib=calib)
        image = make_image(16 * MiB, 2 * MiB, n_regions=6)
        vm, at = unbooted_vm(cloud, image)
        proc = cloud.env.process(instance.boot(vm, image, ("t", 0)))

        def killer():
            yield cloud.env.timeout(1.0)
            proc.interrupt("power loss")

        cloud.env.process(killer())
        with pytest.raises(InterruptedError_):
            cloud.run(proc)
        # repository unchanged: another node deploys the same image fine
        backend = instance.open_mirror(cloud.compute[2], cloud.blobseer, at, cloud.calib.fuse)

        def redeploy():
            yield from backend.open()
            p = yield from backend.read(0, 1024)
            return p

        assert cloud.run(cloud.env.process(redeploy())).size == 1024


class TestLostChunk:
    def test_missing_chunk_detected(self):
        """A provider losing a chunk (disk corruption) raises, not zero-fills."""
        fab = Fabric(seed=71)
        hosts = [fab.add_host(f"n{i}") for i in range(3)]
        manager = fab.add_host("m")
        dep = BlobSeerDeployment(fab, hosts, [manager], manager)
        rec = dep.seed_blob(Payload.from_bytes(pattern(6 * CHUNK)), CHUNK)
        # corrupt: drop a chunk from its provider's store
        victim = dep.data_services[hosts[0].name]
        lost_key = next(iter(victim.store.keys()))
        victim.store.discard(lost_key)
        client = dep.client(hosts[2])

        def scenario():
            yield from client.read(rec.blob_id, rec.version, 0, 6 * CHUNK)

        with pytest.raises(ChunkNotFoundError):
            fab.run(fab.env.process(scenario()))
