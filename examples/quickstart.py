#!/usr/bin/env python3
"""Quickstart: mount a repository image, write to it, CLONE + COMMIT.

Builds a small simulated cluster with a BlobSeer repository, uploads a VM
image, lazily mounts it on one compute node through the mirroring VFS,
modifies it, snapshots it with the CLONE/COMMIT primitives, and finally
reads the published snapshot back from a *different* node to show that every
snapshot is a standalone raw image.

Run: ``python examples/quickstart.py``
"""

from repro.blobseer import BlobSeerDeployment
from repro.common.payload import Payload
from repro.common.units import KiB, MiB, fmt_size, fmt_time
from repro.core import mount
from repro.simkit.host import Fabric


def main() -> None:
    # --- build a 8-node cluster and deploy the versioning repository -------
    fabric = Fabric(seed=42)
    nodes = [fabric.add_host(f"node{i}") for i in range(8)]
    manager = fabric.add_host("manager")
    repo = BlobSeerDeployment(fabric, data_hosts=nodes, meta_hosts=nodes,
                              vmanager_host=manager)

    # --- store a 32 MiB image, striped in 256 KiB chunks --------------------
    image_bytes = bytes((i * 37 + 11) % 256 for i in range(256)) * (32 * MiB // 256)
    snap = repo.seed_blob(Payload.from_bytes(image_bytes), chunk_size=256 * KiB)
    print(f"seeded image: blob {snap.blob_id} v{snap.version}, "
          f"{fmt_size(snap.size)} in {fmt_size(snap.chunk_size)} chunks")

    def scenario():
        # --- lazily mount the image on node0 (no data copied up front) -----
        handle = yield from mount(nodes[0], repo, snap.blob_id, snap.version)
        t0 = fabric.env.now
        first = yield from handle.read(0, 4 * KiB)  # boot sector
        print(f"read boot sector in {fmt_time(fabric.env.now - t0)} "
              f"(mirrored {fmt_size(handle.modmgr.mirrored_bytes())} so far)")
        assert first.to_bytes() == image_bytes[: 4 * KiB]

        # --- writes always stay local ---------------------------------------
        yield from handle.write(1 * MiB, Payload.from_bytes(b"hello from node0"))
        back = yield from handle.read(1 * MiB, 16)
        print(f"read-your-writes: {back.to_bytes().decode()!r}")

        # --- snapshot: CLONE once, then COMMIT the local modifications ------
        clone = yield from handle.ioctl_clone()
        commit = yield from handle.ioctl_commit()
        print(f"snapshot published: blob {commit.blob_id} v{commit.version} "
              f"(clone of blob {snap.blob_id})")
        return commit

    commit = fabric.run(fabric.env.process(scenario()))

    # --- the snapshot is a standalone image readable anywhere ---------------
    def read_elsewhere():
        reader = repo.client(nodes[5])
        data = yield from reader.read(commit.blob_id, commit.version, 1 * MiB, 16)
        return data

    data = fabric.run(fabric.env.process(read_elsewhere()))
    print(f"node5 reads the snapshot: {data.to_bytes().decode()!r}")

    stored = repo.stored_bytes()
    print(f"repository stores {fmt_size(stored)} for 2 images "
          f"(diff-only snapshotting: {fmt_size(stored - 32 * MiB)} beyond the base)")


if __name__ == "__main__":
    main()
