"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — sanity probes behind the paper's §3 design arguments:

* **chunk size** (§3.1.3): too small -> per-request overhead dominates;
  too large -> false sharing. 256 KiB should sit in the sweet spot.
* **strategy 1** (§3.3): disabling full-chunk prefetch turns correlated
  small reads into many small remote reads — boots get slower even though
  strictly fewer bytes move.
* **broadcast pipelining**: taktuk-style store-and-forward vs block
  pipelining (what a better broadcast would buy prepropagation — and that
  even then it cannot catch lazy mirroring on time-to-ready).
* **network fairness model**: the equal-share flow engine against exact
  max-min on a mid-size deployment (validates the approximation). Max-min
  is a test yardstick, ``MaxMinNetwork`` in ``tests/reference_network.py``,
  not a cloud param, so its point runs in-process under ``maxmin_fabric()``.
"""

from reference_network import maxmin_fabric

from repro.analysis import Series, check_shape, render_figure, Figure
from repro.baselines.broadcast import broadcast
from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy
from repro.common.payload import Payload
from repro.common.units import GiB, KiB, MiB
from repro.runner import execute_point, register_profile
from repro.simkit.host import Fabric
from repro.vmsim import make_image

from common import (
    BenchProfile,
    PointSpec,
    active_profile,
    emit,
    run_sweep,
)

PROFILE = active_profile()
N = 24 if PROFILE.name == "paper" else 8
POOL = 32 if PROFILE.name == "paper" else 12
IMAGE = 1 * GiB if PROFILE.name == "paper" else 256 * MiB
TOUCHED = 64 * MiB if PROFILE.name == "paper" else 24 * MiB

#: the ablations deploy a mid-size cluster distinct from both paper profiles;
#: registering it lets the sweep runner's workers resolve it by name
ABLATION = register_profile(
    BenchProfile(
        name=f"ablation-{PROFILE.name}",
        pool_nodes=POOL,
        instance_counts=(N,),
        image_size=IMAGE,
        chunk_size=256 * KiB,
        touched_bytes=TOUCHED,
        n_regions=48,
        diff_bytes=PROFILE.diff_bytes,
        mc_workers=PROFILE.mc_workers,
        mc_total_compute=PROFILE.mc_total_compute,
        bonnie_working_set=PROFILE.bonnie_working_set,
    )
)


def _deploy_spec(chunk_size=None, mirror_prefetch=True, seed=5):
    overrides = () if chunk_size is None else (("image.chunk_size", chunk_size),)
    params = () if mirror_prefetch else (("mirror_prefetch", False),)
    return PointSpec(
        kind="deploy", profile=ABLATION.name, approach="mirror", n=N, seed=seed,
        overrides=overrides, params=params,
    )


def _deploy_point(**kw):
    """One ablation deployment as a sweep point."""
    return run_sweep([_deploy_spec(**kw)])[0]


def test_ablation_chunk_size(benchmark, sweep_cache):
    sizes = [64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB]

    def sweep():
        return {cs: _deploy_point(chunk_size=cs) for cs in sizes}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    boot = Series("avg boot (s)")
    traffic = Series("traffic (GB)")
    for cs in sizes:
        boot.add(cs / KiB, results[cs].avg_boot_time)
        traffic.add(cs / KiB, results[cs].total_traffic / 1e9)
    fig = Figure("ablation-chunk", "Chunk-size trade-off (mirror)", "chunk KiB", "mixed")
    fig.add_series(boot)
    fig.add_series(traffic)
    checks = [
        check_shape(
            "traffic grows with chunk size (prefetch amplification)",
            traffic.is_monotonic_nondecreasing(tolerance=0.02),
        ),
        check_shape(
            "256 KiB boots no slower than the extremes",
            boot.at(256) <= boot.at(64) * 1.05 and boot.at(256) <= boot.at(4096) * 1.05,
        ),
    ]
    emit("ablation_chunk_size", render_figure(fig) + "\n" + "\n".join(checks),
         {"series": {s.name: {"x": s.x, "y": s.y} for s in (boot, traffic)},
          "checks": checks})
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_ablation_strategy1_prefetch(benchmark, sweep_cache):
    """Strategy 1's trade-off: a little more traffic, fewer remote reads.

    At the boot-trace granularity both variants finish in similar time (the
    per-chunk re-access win is demonstrated at micro level in
    ``tests/core/test_prefetch_ablation.py``); what the deployment-scale
    ablation shows robustly is the traffic-for-round-trips trade the paper
    describes: prefetch moves chunk-rounded bytes but never issues *more*
    remote reads, and the fetched surplus is the Fig. 4(d) gap between our
    approach (~13 GB) and qcow2 (~12 GB).
    """

    def compare():
        with_prefetch = _deploy_point(mirror_prefetch=True)
        without = _deploy_point(mirror_prefetch=False)
        return (
            with_prefetch,
            without,
            with_prefetch.counters["mirror-remote-read"],
            without.counters["mirror-remote-read"],
        )

    with_prefetch, without, trips_pf, trips_exact = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    lines = [
        "# ablation: mirroring strategy 1 (full-chunk prefetch)",
        "",
        f"{'variant':<22}{'avg boot (s)':>14}{'traffic (GB)':>14}{'remote trips':>14}",
        f"{'prefetch (paper)':<22}{with_prefetch.avg_boot_time:>14.2f}"
        f"{with_prefetch.total_traffic / 1e9:>14.2f}{trips_pf:>14}",
        f"{'exact ranges':<22}{without.avg_boot_time:>14.2f}"
        f"{without.total_traffic / 1e9:>14.2f}{trips_exact:>14}",
    ]
    checks = [
        check_shape(
            "prefetch moves more bytes (chunk rounding)",
            with_prefetch.total_traffic > without.total_traffic,
        ),
        check_shape(
            "prefetch never issues more remote reads",
            trips_pf <= trips_exact,
        ),
        check_shape(
            "boot time not hurt by the surplus traffic (within 3%)",
            with_prefetch.avg_boot_time < without.avg_boot_time * 1.03,
        ),
    ]
    emit("ablation_strategy1", "\n".join(lines) + "\n" + "\n".join(checks),
         {"prefetch": {"avg_boot_time": with_prefetch.avg_boot_time,
                       "total_traffic": with_prefetch.total_traffic,
                       "remote_trips": trips_pf},
          "exact": {"avg_boot_time": without.avg_boot_time,
                    "total_traffic": without.total_traffic,
                    "remote_trips": trips_exact},
          "checks": checks})
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_ablation_broadcast_pipelining(benchmark, sweep_cache):
    def compare():
        out = {}
        for label, block in (("store-and-forward", None), ("pipelined-4MiB", 4 * MiB)):
            fab = Fabric(seed=11)
            source = fab.add_host("source")
            targets = [fab.add_host(f"n{i}") for i in range(N)]

            def run(block=block, fab=fab, source=source, targets=targets):
                report = yield from broadcast(
                    fab, source, targets, Payload.opaque("img", IMAGE), "/img",
                    block_size=block,
                )
                return report

            out[label] = fab.run(fab.env.process(run())).makespan
        return out

    makespans = benchmark.pedantic(compare, rounds=1, iterations=1)
    mirror_time = _deploy_point().completion_time
    lines = [
        "# ablation: broadcast pipelining (prepropagation transport)",
        "",
        *(f"{k:<22}{v:>12.1f} s" for k, v in makespans.items()),
        f"{'mirror (lazy, total)':<22}{mirror_time:>12.1f} s",
    ]
    checks = [
        check_shape(
            "block pipelining much faster than store-and-forward",
            makespans["pipelined-4MiB"] < makespans["store-and-forward"] / 2,
        ),
        check_shape(
            "even pipelined broadcast slower to readiness than lazy mirroring",
            mirror_time < makespans["pipelined-4MiB"],
        ),
    ]
    emit("ablation_broadcast", "\n".join(lines) + "\n" + "\n".join(checks),
         {"makespans": makespans, "mirror_completion_time": mirror_time,
          "checks": checks})
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_ablation_profile_prefetch(benchmark, sweep_cache):
    """§7 extension: profile-guided background prefetch during boot.

    A pilot instance records the image's chunk-access order; subsequent
    instances run a bounded-look-ahead prefetcher alongside the boot, so
    chunk fetch overlaps guest CPU bursts instead of serializing with them.
    """
    from repro.cloud import instance
    from repro.core.prefetch import AccessProfile, Prefetcher, ProfileRecorder
    from repro.vmsim import boot_trace

    def run_variant(use_prefetch):
        calib = Calibration(
            image=ImageSpec(size=IMAGE, chunk_size=256 * KiB, boot_touched_bytes=TOUCHED)
        )
        cloud = build_cloud(POOL, seed=5, calib=calib)
        image = make_image(IMAGE, TOUCHED, n_regions=48)
        from repro.cloud.deployment import seed_image

        idents = seed_image(cloud, image)
        rec = idents["blobseer"]
        at = (rec.blob_id, rec.version)

        def mirror_vm(name, node, path, rng):
            backend = instance.open_mirror(node, cloud.blobseer, at, cloud.calib.fuse, path)
            return instance.new_vm(name, backend, rng, calib.boot)

        # pilot run records the profile
        profile = AccessProfile(256 * KiB)
        pilot_backend = mirror_vm(
            "pilot", cloud.compute[POOL - 1], "/mirror/pilot", ("pilot",)
        ).backend
        trace = boot_trace(image, calib.boot, cloud.fabric.rng.get("pilot-trace"))

        def pilot_boot():
            yield from pilot_backend.open()
            recorder = ProfileRecorder(pilot_backend.handle)
            yield cloud.env.timeout(0.5)
            for op in trace:
                if op.kind == "cpu":
                    yield cloud.env.timeout(op.duration)
                elif op.kind == "read":
                    yield from recorder.read(op.offset, op.nbytes)
                else:
                    yield from recorder.write(op.offset, Payload.opaque("w", op.nbytes))
            recorder.finish_into(profile)

        cloud.run(cloud.env.process(pilot_boot()))

        # fleet boots, optionally with prefetchers
        boots = []
        vms = []
        for i in range(N):
            vm = mirror_vm(f"vm{i}", cloud.compute[i], f"/mirror/vm{i}", ("vm", i))
            backend = vm.backend
            vms.append(vm)
            vm_trace = boot_trace(image, calib.boot, cloud.fabric.rng.get("trace", i))

            def boot_one(vm=vm, backend=backend, vm_trace=vm_trace):
                env = cloud.env
                t0 = env.now
                init = vm.rng.uniform(calib.boot.hypervisor_init_min, calib.boot.hypervisor_init_max)
                yield env.timeout(float(init))
                yield from backend.open()
                prefetcher = None
                if use_prefetch:
                    prefetcher = Prefetcher(backend.handle, profile, window=24)
                    prefetcher.start()
                yield from vm.run_ops(vm_trace)
                if prefetcher is not None:
                    prefetcher.stop()
                vm.boot_time = env.now - t0

            boots.append(cloud.env.process(boot_one()))
        cloud.run(cloud.env.all_of(boots))
        return sum(vm.boot_time for vm in vms) / len(vms)

    def compare():
        return run_variant(False), run_variant(True)

    without, with_pf = benchmark.pedantic(compare, rounds=1, iterations=1)
    lines = [
        "# ablation: profile-guided prefetching (paper §7 future work)",
        "",
        f"{'no prefetch':<22}{without:>12.2f} s avg boot",
        f"{'profile prefetch':<22}{with_pf:>12.2f} s avg boot",
        f"improvement: {1 - with_pf / without:.1%}",
    ]
    checks = [
        check_shape(
            f"profile-guided prefetch speeds up boots (got {1 - with_pf / without:.1%})",
            with_pf < without,
        ),
    ]
    emit("ablation_prefetch", "\n".join(lines) + "\n" + "\n".join(checks),
         {"avg_boot_time": {"no_prefetch": without, "profile_prefetch": with_pf},
          "checks": checks})
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_ablation_dedup_multisnapshot(benchmark, sweep_cache):
    """§7 extension: deduplication for multisnapshotting.

    All instances of one deployment write largely *identical* local
    modifications (the common case: contextualization writes the same config
    templates everywhere). With content-addressed dedup the repository
    stores the shared diff once.
    """
    from repro.cloud import snapshot_all

    def run_variant(dedup):
        calib = Calibration(
            image=ImageSpec(size=IMAGE, chunk_size=256 * KiB, boot_touched_bytes=TOUCHED)
        )
        cloud = build_cloud(POOL, seed=5, calib=calib, dedup=dedup)
        image = make_image(IMAGE, TOUCHED, n_regions=48)
        res = deploy(cloud, image, N, "mirror")
        # identical 4 MiB of contextualization writes on every instance:
        # real shared bytes so the content index can recognize them. Placed
        # away from the boot's per-instance log writes so chunk contents are
        # bit-identical across VMs.
        shared = bytes((i * 31 + 7) % 256 for i in range(4 * MiB))
        base_off = IMAGE - 8 * MiB

        def write_shared(vm):
            from repro.common.payload import Payload as P

            yield from vm.backend.write(base_off, P.from_bytes(shared))

        procs = [cloud.env.process(write_shared(vm)) for vm in res.vms]
        cloud.run(cloud.env.all_of(procs))
        before = cloud.blobseer.stored_bytes()
        campaign = snapshot_all(cloud, res.vms, "mirror")
        added = cloud.blobseer.stored_bytes() - before
        return added, campaign.avg_time

    def compare():
        return run_variant(False), run_variant(True)

    (plain_added, plain_avg), (dedup_added, dedup_avg) = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    lines = [
        "# ablation: deduplicated multisnapshotting (paper §7 future work)",
        "",
        f"{'variant':<14}{'stored (MiB)':>14}{'avg snap (s)':>14}",
        f"{'plain':<14}{plain_added / 2**20:>14.1f}{plain_avg:>14.3f}",
        f"{'dedup':<14}{dedup_added / 2**20:>14.1f}{dedup_avg:>14.3f}",
        f"storage saved: {1 - dedup_added / plain_added:.0%}",
        "note: concurrent identical commits can race the content index",
        "      (query happens before the winner registers); a fully",
        "      synchronized campaign dedups all but a handful of copies.",
    ]
    checks = [
        check_shape(
            f"most of the {N} identical 4 MiB diffs deduplicated "
            f"(saved {(plain_added - dedup_added) / 2**20:.0f} MiB of the "
            f"(N-1) x 4 MiB = {(N - 1) * 4} MiB ideal)",
            plain_added - dedup_added >= (N - 1) * 4 * MiB * 0.6,
        ),
        check_shape(
            "snapshot latency not inflated by fingerprinting (within 2x)",
            dedup_avg < plain_avg * 2.0,
        ),
    ]
    emit("ablation_dedup", "\n".join(lines) + "\n" + "\n".join(checks),
         {"stored_bytes": {"plain": plain_added, "dedup": dedup_added},
          "avg_snapshot_time": {"plain": plain_avg, "dedup": dedup_avg},
          "checks": checks})
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_ablation_fairness_model(benchmark, sweep_cache):
    def compare():
        # the max-min point bypasses the sweep runner: its spec is
        # the equal-share one, only the network class differs
        with maxmin_fabric():
            maxmin = execute_point(_deploy_spec())
        return {
            "equal-share": _deploy_point().completion_time,
            "maxmin": maxmin.completion_time,
        }

    times = benchmark.pedantic(compare, rounds=1, iterations=1)
    rel_err = abs(times["equal-share"] - times["maxmin"]) / times["maxmin"]
    lines = [
        "# ablation: network fairness model",
        "",
        *(f"{k:<22}{v:>12.2f} s" for k, v in times.items()),
        f"relative difference: {rel_err:.1%}",
    ]
    checks = [
        check_shape(
            f"equal-share approximation within 15% of exact max-min (got {rel_err:.1%})",
            rel_err < 0.15,
        ),
        check_shape(
            "equal-share is conservative (never faster than max-min)",
            times["equal-share"] >= times["maxmin"] * 0.999,
        ),
    ]
    emit("ablation_fairness", "\n".join(lines) + "\n" + "\n".join(checks),
         {"completion_times": times, "relative_error": rel_err, "checks": checks})
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)
