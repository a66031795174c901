"""Additional broadcast tests (fanout effects)."""

from repro.baselines.broadcast import broadcast
from repro.common.payload import Payload
from repro.common.units import MB
from repro.simkit.host import Fabric


def make_cluster(n, seed=19):
    fab = Fabric(seed=seed)
    source = fab.add_host("source")
    targets = [fab.add_host(f"n{i}") for i in range(n)]
    return fab, source, targets


def run_broadcast(n=6, **kwargs):
    fab, source, targets = make_cluster(n)

    def scenario():
        report = yield from broadcast(
            fab, source, targets, Payload.opaque("img", 50 * MB), "/img", **kwargs
        )
        return report

    return fab.run(fab.env.process(scenario()))


class TestStagingVariants:
    def test_higher_fanout_shallower_but_contended(self):
        f2 = run_broadcast(n=12, fanout=2)
        f4 = run_broadcast(n=12, fanout=4)
        assert f4.depth < f2.depth
        # both deliver to everyone
        assert len(f4.finish_times) == len(f2.finish_times) == 12

    def test_finish_times_respect_tree_depth(self):
        report = run_broadcast(n=14, fanout=2)
        # the roots' children finish before the deepest leaves
        first_level = {"n0", "n1"}
        deepest = max(report.finish_times.values())
        for name in first_level:
            assert report.finish_times[name] < deepest
