"""Tests for the VM instance / hypervisor model."""

import numpy as np
import pytest

from repro.blobseer import BlobSeerDeployment
from repro.calibration import BootModel
from repro.common.errors import SimulationError
from repro.common.payload import Payload
from repro.common.units import KiB, MiB
from repro.simkit.host import Fabric
from repro.vmsim import VMInstance, boot_trace, make_image
from repro.vmsim.backends import MirrorBackend
from repro.vmsim.boottrace import BootOp

CHUNK = 64 * KiB
IMG = 8 * MiB


def setup(seed=41):
    fab = Fabric(seed=seed)
    hosts = [fab.add_host(f"n{i}") for i in range(4)]
    manager = fab.add_host("m")
    dep = BlobSeerDeployment(fab, hosts, hosts, manager)
    rec = dep.seed_blob(Payload.opaque("img", IMG), CHUNK)
    backend = MirrorBackend(hosts[0], dep, rec.blob_id, rec.version)
    vm = VMInstance("vm0", hosts[0], backend, BootModel(), np.random.default_rng(seed))
    return fab, vm


class TestBoot:
    def test_boot_records_time_and_sample(self):
        fab, vm = setup()
        image = make_image(IMG, 1 * MiB, n_regions=6)
        trace = boot_trace(image, BootModel(), np.random.default_rng(2))
        t = fab.run(fab.env.process(vm.boot(trace)))
        assert t == vm.boot_time > 0
        assert vm.booted_at == fab.env.now
        assert fab.metrics.samples["boot-time"].count == 1

    def test_boot_includes_hypervisor_init(self):
        fab, vm = setup()
        # empty trace: boot time ~= init overhead alone
        t = fab.run(fab.env.process(vm.boot([])))
        model = BootModel()
        assert model.hypervisor_init_min <= t
        assert t <= model.hypervisor_init_max + 0.1

    def test_two_instances_skewed(self):
        """§3.1.3: randomized init creates inter-instance access skew."""
        fab, vm1 = setup()
        # second VM on another host, same deployment
        dep = vm1.backend.deployment
        host2 = fab.hosts["n1"]
        backend2 = MirrorBackend(host2, dep, vm1.backend.blob_id, vm1.backend.version)
        vm2 = VMInstance("vm1", host2, backend2, BootModel(), np.random.default_rng(99))
        image = make_image(IMG, 1 * MiB, n_regions=6)
        t1 = boot_trace(image, BootModel(), np.random.default_rng(1))
        t2 = boot_trace(image, BootModel(), np.random.default_rng(2))
        p1 = fab.env.process(vm1.boot(t1))
        p2 = fab.env.process(vm2.boot(t2))
        fab.run(fab.env.all_of([p1, p2]))
        assert vm1.boot_time != vm2.boot_time

    def test_unknown_op_kind_rejected(self):
        fab, vm = setup()

        def scenario():
            yield from vm.backend.open()
            yield from vm.run_ops([BootOp("format-disk", 0, 10)])

        with pytest.raises(SimulationError):
            fab.run(fab.env.process(scenario()))

    def test_shutdown_closes_backend(self):
        fab, vm = setup()
        image = make_image(IMG, 1 * MiB, n_regions=6)
        trace = boot_trace(image, BootModel(), np.random.default_rng(3))
        fab.run(fab.env.process(vm.boot(trace)))
        fab.run(fab.env.process(vm.shutdown()))
        assert vm.backend.handle.closed

    def test_run_ops_zero_duration_cpu_skipped(self):
        fab, vm = setup()

        def scenario():
            yield from vm.backend.open()
            t0 = fab.env.now
            yield from vm.run_ops([BootOp("cpu", duration=0.0)])
            return fab.env.now - t0

        assert fab.run(fab.env.process(scenario())) == 0.0


class RecordingBackend:
    """Keeps the payload objects ``run_ops`` hands to ``write``."""

    def __init__(self):
        self.writes = []

    def write(self, offset, payload):
        self.writes.append((offset, payload))
        return
        yield


class TestGuestWritePayloads:
    @pytest.mark.parametrize("traced", [False, True])
    def test_one_payload_object_per_write_size(self, traced):
        from repro import obs

        fab, vm = setup()
        if traced:
            obs.install_tracer(fab)
        vm.backend = RecordingBackend()
        writes = [(0, 8192), (8192, 8192), (16384, 512), (0, 8192)]
        ops = [BootOp("write", off, n) for off, n in writes]
        fab.run(fab.env.process(vm.run_ops(ops)))
        (_, a), (_, b), (_, small), (_, again) = vm.backend.writes
        assert a is b is again  # same (tag, offset 0, n): the same immutable content
        assert small is not a and small.size == 512  # never shared across sizes
        assert a == Payload.opaque("vmwrite-vm0", 8192)
        assert small == Payload.opaque("vmwrite-vm0", 512)

    def test_payloads_are_not_shared_between_vms(self):
        fab, vm = setup()
        other = VMInstance("vm1", vm.host, RecordingBackend())
        vm.backend = RecordingBackend()
        for instance in (vm, other):
            fab.run(fab.env.process(instance.run_ops([BootOp("write", 0, 4096)])))
        assert vm.backend.writes[0][1] != other.backend.writes[0][1]
