"""Tests for application workloads, the Monte Carlo worker and Bonnie."""

import numpy as np

from repro.blobseer import BlobSeerDeployment
from repro.common.payload import Payload
from repro.common.units import KiB, MiB
from repro.simkit.host import Fabric
from repro.vmsim import (
    BonnieBenchmark,
    MonteCarloConfig,
    MonteCarloWorker,
    log_append_workload,
    read_your_writes_workload,
)
from repro.vmsim.backends import MirrorBackend
from repro.vmsim.boottrace import WRITE

CHUNK = 64 * KiB
IMG = 8 * MiB


def make_backend(seed=17):
    fab = Fabric(seed=seed)
    hosts = [fab.add_host(f"n{i}") for i in range(4)]
    manager = fab.add_host("m")
    dep = BlobSeerDeployment(fab, hosts, hosts, manager)
    rec = dep.seed_blob(Payload.opaque("img", IMG), CHUNK)
    backend = MirrorBackend(hosts[0], dep, rec.blob_id, rec.version)
    return fab, backend


def run(fab, gen):
    return fab.run(fab.env.process(gen))


class TestWorkloads:
    def test_read_your_writes_reads_only_written(self):
        rng = np.random.default_rng(3)
        ops = read_your_writes_workload(1000, 64 * 1024, rng)
        written = set()
        for op in ops:
            if op.kind == "write":
                written.add((op.offset, op.nbytes))
            elif op.kind == "read":
                assert (op.offset, op.nbytes) in written

    def test_read_your_writes_volume(self):
        rng = np.random.default_rng(4)
        ops = read_your_writes_workload(0, 100 * 1024, rng)
        assert sum(n for k, n in zip(ops.kinds, ops.sizes) if k == WRITE) == 100 * 1024

    def test_log_append_sequential(self):
        ops = log_append_workload(500, 5, 100)
        offsets = [o.offset for o in ops if o.kind == "write"]
        assert offsets == [500, 600, 700, 800, 900]


class TestMonteCarlo:
    def _worker(self, fab, backend, total=10.0, interval=2.0):
        cfg = MonteCarloConfig(
            total_compute=total, checkpoint_interval=interval,
            state_bytes=256 * KiB, state_offset=IMG // 2,
        )
        return MonteCarloWorker("w0", backend, cfg)

    def test_runs_to_completion(self):
        fab, backend = make_backend()
        worker = self._worker(fab, backend)

        def scenario():
            yield from backend.open()
            progress = yield from worker.run()
            return progress

        assert run(fab, scenario()) == 10.0
        assert worker.finished

    def test_partial_then_resume_same_backend(self):
        fab, backend = make_backend()
        worker = self._worker(fab, backend)

        def scenario():
            yield from backend.open()
            yield from worker.run(until_progress=6.0)
            t_half = fab.env.now
            # a new worker object (fresh process) resumes from saved state
            w2 = self._worker(fab, backend)
            yield from w2.run()
            return t_half, w2

        t_half, w2 = run(fab, scenario())
        assert w2.finished
        # the resumed run only computed the remaining 4 seconds (+ I/O)
        assert fab.env.now - t_half < 6.0

    def test_fresh_image_starts_from_zero(self):
        fab, backend = make_backend()
        worker = self._worker(fab, backend)

        def scenario():
            yield from backend.open()
            progress = yield from worker._load_progress()
            return progress

        assert run(fab, scenario()) == 0.0

    def test_progress_survives_snapshot_chain(self):
        fab, backend = make_backend()
        worker = self._worker(fab, backend)

        def scenario():
            yield from backend.open()
            yield from worker.run(until_progress=4.0)
            snap = yield from backend.snapshot()
            # open the snapshot on another node
            blob, version = snap.ident[4:].split("@v")
            other = MirrorBackend(
                fab.hosts["n2"], backend.deployment, int(blob), int(version)
            )
            yield from other.open()
            w2 = self._worker(fab, other)
            progress = yield from w2._load_progress()
            return progress

        assert run(fab, scenario()) == 4.0


class TestBonnie:
    def test_results_positive_and_consistent(self):
        fab, backend = make_backend()
        bench = BonnieBenchmark(
            backend, 2e-6, 20e-6,
            working_set=2 * MiB, base_offset=IMG // 2, n_seeks=100, n_files=100,
        )

        def scenario():
            yield from backend.open()
            results = yield from bench.run()
            return results

        r = run(fab, scenario())
        assert r.block_write_kbps > 0
        assert r.block_read_kbps > 0
        assert r.block_overwrite_kbps > 0
        # overwrite does read+write: slower than either alone
        assert r.block_overwrite_kbps < r.block_write_kbps
        assert r.block_overwrite_kbps < r.block_read_kbps
        assert r.rnd_seek_ops > 0 and r.create_ops > 0 and r.delete_ops > 0
        # deletes cost more ops than creates in the model
        assert r.delete_ops < r.create_ops

    def test_no_remote_reads_for_written_data(self):
        """§5.4: write-then-read workload never goes to the repository."""
        fab, backend = make_backend()
        bench = BonnieBenchmark(
            backend, 2e-6, 20e-6,
            working_set=1 * MiB, base_offset=IMG // 2, n_seeks=10, n_files=10,
        )

        def scenario():
            yield from backend.open()
            yield from bench.run()

        run(fab, scenario())
        assert fab.metrics.counters.get("mirror-remote-read", 0) == 0
