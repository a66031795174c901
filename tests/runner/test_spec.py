"""PointSpec/PointResult: canonicalization, JSON round trips, accessors."""

import pytest

from repro.runner import PointResult, PointSpec


class TestPointSpec:
    def test_params_and_overrides_canonicalized(self):
        a = PointSpec(kind="deploy", profile="quick",
                      params={"b": 1, "a": 2}, overrides=[("z.y", 3), ("a.b", 4)])
        b = PointSpec(kind="deploy", profile="quick",
                      params=[("a", 2), ("b", 1)], overrides=(("a.b", 4), ("z.y", 3)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == (("a", 2), ("b", 1))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            PointSpec(kind="deploy", profile="quick",
                      params=[("replication", 2), ("replication", 3)])
        with pytest.raises(ValueError, match="image.chunk_size"):
            PointSpec(kind="deploy", profile="quick",
                      overrides=[("image.chunk_size", 1), ("image.chunk_size", 2)])

    def test_param_lookup(self):
        spec = PointSpec(kind="deploy", profile="quick", params={"mode": "x"})
        assert spec.param("mode") == "x"
        assert spec.param("missing", 42) == 42

    def test_json_round_trip(self):
        spec = PointSpec(kind="snapshot", profile="paper", approach="mirror",
                         n=20, seed=7, overrides={"image.chunk_size": 4096},
                         params={"diff_bytes": 123})
        again = PointSpec.from_json(spec.to_json())
        assert again == spec

    def test_label_names_the_point(self):
        spec = PointSpec(kind="deploy", profile="quick", approach="mirror", n=8)
        label = spec.label()
        for token in ("deploy", "quick", "mirror", "n=8", "seed=1"):
            assert token in label

    def test_picklable(self):
        import pickle

        spec = PointSpec(kind="deploy", profile="quick", approach="mirror", n=8)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestPointResult:
    def _result(self):
        spec = PointSpec(kind="deploy", profile="quick", approach="mirror", n=2)
        return PointResult(
            spec=spec,
            metrics={"avg_boot_time": 1.25, "completion_time": 2.5,
                     "total_traffic": 100, "init_time": 0.5},
            series={"boot_times": (1.0, 1.5)},
            counters={"mirror-remote-read": 7},
            event_count=123,
            wall_s=0.01,
        )

    def test_accessors_mirror_deployment_result(self):
        r = self._result()
        assert r.n_instances == 2
        assert r.boot_times == (1.0, 1.5)
        assert r.avg_boot_time == 1.25
        assert r.completion_time == 2.5
        assert r.total_traffic == 100
        assert r.init_time == 0.5

    def test_json_round_trip_is_exact(self):
        r = self._result()
        again = PointResult.from_json(r.to_json())
        assert again.spec == r.spec
        assert again.metrics == r.metrics
        assert again.series == r.series
        assert again.counters == r.counters
        assert again.event_count == r.event_count

    def test_metric_miss_names_available(self):
        r = self._result()
        with pytest.raises(KeyError, match="avg_boot_time"):
            r.metric("nope")

    def test_cached_flag_from_json(self):
        r = PointResult.from_json(self._result().to_json(), cached=True)
        assert r.cached
