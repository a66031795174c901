#!/usr/bin/env python3
"""Iterative distributed debugging with CLONE/COMMIT (paper §3.2).

The paper's motivating control-API scenario: a distributed application hits
a bug that only appears at scale, and re-running it from scratch to the
failure point is prohibitively expensive. Instead, the deployment's state is
captured with CLONE+COMMIT *right before* the bug triggers; every snapshot
is an independent image, so candidate fixes can be applied to clones and
tested repeatedly from the captured point — without re-running the long
prefix and without ever disturbing the captured state.

Run: ``python examples/debug_cloning.py``
"""

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud
from repro.cloud.middleware import CloudMiddleware
from repro.common.payload import Payload
from repro.common.units import KiB, MiB, fmt_time
from repro.core import mount
from repro.vmsim import make_image

CONFIG_OFFSET = 48 * MiB  # where the app's config file lives in the image
BUGGY = b"threads=64 \x00"  # the misconfiguration that crashes at scale
FIXED = b"threads=8  \x00"


def main() -> None:
    calib = Calibration(
        image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=6 * MiB)
    )
    cloud = build_cloud(8, seed=13, calib=calib)
    image = make_image(calib.image.size, calib.image.boot_touched_bytes, n_regions=12)
    mw = CloudMiddleware(cloud)

    # --- deploy 4 workers and run the expensive prefix ----------------------
    res = mw.deploy_set(image, 4, "mirror")
    print(f"deployed {len(res.vms)} workers in {fmt_time(res.completion_time)}")

    def long_prefix(vm):
        # hours of simulated work that produce in-image state, incl. the
        # buggy config the app wrote during contextualization
        yield cloud.env.timeout(3600.0)
        yield from vm.backend.write(CONFIG_OFFSET, Payload.from_bytes(BUGGY))

    cloud.run(cloud.env.all_of([cloud.env.process(long_prefix(vm)) for vm in res.vms]))
    print(f"prefix executed up to the failure point (t={fmt_time(cloud.env.now)})")

    # --- capture the state right before the bug -----------------------------
    campaign = mw.snapshot_set(res.vms, "mirror")
    captured = list(campaign.per_instance)
    print(f"captured {len(captured)} independent snapshots in "
          f"{fmt_time(campaign.completion_time)}: "
          + ", ".join(s.ident for s in captured))

    # --- iterate: analyze + patch clones of the captured state --------------
    def attempt_fix(snapshot, patch: bytes, attempt: int):
        blob, version = snapshot.at
        node = cloud.compute[4 + attempt % 4]  # scratch nodes
        handle = yield from mount(
            node, cloud.blobseer, blob, version,
            path=f"/debug/attempt{attempt}-{snapshot.ident}",
        )
        config = yield from handle.read(CONFIG_OFFSET, len(patch))
        print(f"  attempt {attempt}: found config {config.to_bytes()!r}")
        yield from handle.write(CONFIG_OFFSET, Payload.from_bytes(patch))
        # resume the app from the patched state: does it still crash?
        patched = yield from handle.read(CONFIG_OFFSET, len(patch))
        crashed = patched.to_bytes() == BUGGY
        # keep the patched state as its own lineage for the next iteration
        yield from handle.ioctl_clone()
        rec = yield from handle.ioctl_commit()
        return crashed, rec

    for attempt, patch in enumerate([BUGGY, FIXED]):  # first try fails
        crashed, rec = cloud.run(
            cloud.env.process(attempt_fix(captured[0], patch, attempt))
        )
        outcome = "still crashes" if crashed else "runs clean"
        print(f"  attempt {attempt}: patched lineage blob {rec.blob_id} "
              f"v{rec.version} -> {outcome}")
        if not crashed:
            break

    # --- the captured snapshot itself was never disturbed -------------------
    def verify_untouched():
        blob, version = captured[0].at
        reader = cloud.blobseer.client(cloud.manager)
        config = yield from reader.read(blob, version, CONFIG_OFFSET, len(BUGGY))
        return config.to_bytes()

    still = cloud.run(cloud.env.process(verify_untouched()))
    assert still == BUGGY
    print(f"captured snapshot still holds the original state ({still!r}): "
          "debugging never mutated it")


if __name__ == "__main__":
    main()
