"""Tests for the three image backends behind one interface."""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, seed_image
from repro.common.errors import StorageError
from repro.common.payload import Payload
from repro.common.units import KiB, MiB
from repro.vmsim.backends import LocalRawBackend, MirrorBackend, Qcow2PvfsBackend
from repro.vmsim.image import make_image

CHUNK = 64 * KiB
IMG = 4 * MiB


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


@pytest.fixture
def cloud_and_image():
    calib = Calibration(
        image=ImageSpec(size=IMG, chunk_size=CHUNK, boot_touched_bytes=MiB)
    )
    cloud = build_cloud(4, seed=5, calib=calib)
    data = pattern(IMG)
    image = make_image(IMG, MiB, n_regions=8, payload=Payload.from_bytes(data))
    idents = seed_image(cloud, image)
    return cloud, image, idents, data


def run(cloud, gen):
    return cloud.run(cloud.env.process(gen))


def make_backend(cloud, idents, kind, node_idx=0):
    node = cloud.compute[node_idx]
    if kind == "local":
        f = node.create_file("/local/image.raw", IMG)
        f.write(0, cloud.nfs._files[idents["nfs"]].read(0, IMG))
        return LocalRawBackend(node, "/local/image.raw", cloud.calib.fuse)
    if kind == "qcow2":
        return Qcow2PvfsBackend(node, cloud.pvfs, idents["pvfs"], cloud.calib.fuse, cluster_size=CHUNK)
    rec = idents["blobseer"]
    return MirrorBackend(node, cloud.blobseer, rec.blob_id, rec.version, cloud.calib.fuse)


@pytest.mark.parametrize("kind", ["local", "qcow2", "mirror"])
class TestCommonBehaviour:
    def test_read_matches_image(self, cloud_and_image, kind):
        cloud, image, idents, data = cloud_and_image
        backend = make_backend(cloud, idents, kind)

        def scenario():
            yield from backend.open()
            p = yield from backend.read(1000, 5000)
            return p

        assert run(cloud, scenario()).to_bytes() == data[1000:6000]

    def test_read_your_writes(self, cloud_and_image, kind):
        cloud, image, idents, data = cloud_and_image
        backend = make_backend(cloud, idents, kind)

        def scenario():
            yield from backend.open()
            yield from backend.write(CHUNK + 3, Payload.from_bytes(b"WRITTEN"))
            p = yield from backend.read(CHUNK, 16)
            yield from backend.close()
            return p

        got = run(cloud, scenario())
        expected = bytearray(data[CHUNK : CHUNK + 16])
        expected[3:10] = b"WRITTEN"
        assert got.to_bytes() == bytes(expected)


class TestApproachSpecific:
    def test_local_backend_no_network(self, cloud_and_image):
        cloud, image, idents, data = cloud_and_image
        backend = make_backend(cloud, idents, "local")
        before = cloud.metrics.total_traffic()

        def scenario():
            yield from backend.open()
            yield from backend.read(0, IMG)
            yield from backend.write(0, Payload.from_bytes(b"x" * 1000))

        run(cloud, scenario())
        assert cloud.metrics.total_traffic() == before

    def test_local_backend_cannot_snapshot(self, cloud_and_image):
        cloud, image, idents, data = cloud_and_image
        backend = make_backend(cloud, idents, "local")
        with pytest.raises(StorageError):
            next(backend.snapshot())

    def test_qcow2_rereads_backing_mirror_does_not(self, cloud_and_image):
        cloud, image, idents, data = cloud_and_image
        q = make_backend(cloud, idents, "qcow2", node_idx=0)
        m = make_backend(cloud, idents, "mirror", node_idx=1)

        def reads(backend):
            yield from backend.open()
            t0 = cloud.env.now
            yield from backend.read(0, CHUNK)
            yield from backend.read(0, CHUNK)  # identical re-read
            return cloud.env.now - t0

        run(cloud, reads(q))
        q_pvfs_reads = cloud.metrics.counters.get("pvfs-read", 0)
        run(cloud, reads(m))
        # qcow2 went remote twice; the mirror fetched once then served locally
        assert q_pvfs_reads >= 2
        assert cloud.metrics.counters["mirror-remote-read"] == 1

    def test_qcow2_snapshot_copies_file_to_pvfs(self, cloud_and_image):
        cloud, image, idents, data = cloud_and_image
        backend = make_backend(cloud, idents, "qcow2")

        def scenario():
            yield from backend.open()
            yield from backend.write(0, Payload.from_bytes(pattern(2 * CHUNK, 9)))
            snap = yield from backend.snapshot()
            return snap

        snap = run(cloud, scenario())
        assert snap.bytes_moved == backend.image.serialize()[0].size
        assert snap.ident.endswith(".qcow2")
        # the snapshot file exists in PVFS with the right size
        got = cloud.pvfs.peek(snap.ident, 0, snap.bytes_moved)
        assert got.size == snap.bytes_moved

    def test_mirror_snapshot_clone_then_commit(self, cloud_and_image):
        cloud, image, idents, data = cloud_and_image
        backend = make_backend(cloud, idents, "mirror")

        def scenario():
            yield from backend.open()
            yield from backend.write(0, Payload.from_bytes(b"dirty"))
            s1 = yield from backend.snapshot()
            yield from backend.write(CHUNK, Payload.from_bytes(b"more"))
            s2 = yield from backend.snapshot()
            return s1, s2

        s1, s2 = run(cloud, scenario())
        assert cloud.metrics.counters["ioctl-clone"] == 1  # cloned once only
        assert cloud.metrics.counters["ioctl-commit"] == 2
        assert s1.at[0] == s2.at[0]  # same clone lineage, ordered versions
        assert s1.at[1] < s2.at[1]

    def test_mirror_snapshot_readable_as_standalone_image(self, cloud_and_image):
        cloud, image, idents, data = cloud_and_image
        backend = make_backend(cloud, idents, "mirror")

        def scenario():
            yield from backend.open()
            yield from backend.write(100, Payload.from_bytes(b"SNAPPED"))
            snap = yield from backend.snapshot()
            reader = cloud.blobseer.client(cloud.compute[3])
            img = yield from reader.read(*snap.at, 0, IMG)
            return img

        got = run(cloud, scenario())
        expected = bytearray(data)
        expected[100:107] = b"SNAPPED"
        assert got.to_bytes() == bytes(expected)

    def test_qcow2_serialize_roundtrip_on_other_node(self, cloud_and_image):
        """A copied qcow2 file reopens correctly against the same backing."""
        from repro.baselines.qcow2 import Qcow2Image

        cloud, image, idents, data = cloud_and_image
        backend = make_backend(cloud, idents, "qcow2")

        def scenario():
            yield from backend.open()
            yield from backend.write(10, Payload.from_bytes(b"DELTA"))

        run(cloud, scenario())
        file_payload, index = backend.image.serialize()
        reopened = Qcow2Image.deserialize(
            file_payload, index, IMG,
            backing_read=lambda off, n: cloud.pvfs.peek(idents["pvfs"], off, n),
            cluster_size=CHUNK,
        )
        expected = bytearray(data)
        expected[10:15] = b"DELTA"
        assert reopened.read(0, IMG)[0].to_bytes() == bytes(expected)
