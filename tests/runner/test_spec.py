"""PointSpec/PointResult: canonicalization, labels, accessors."""

import pytest

from repro.runner import QUICK, PointResult, PointSpec


class TestPointSpec:
    def test_params_canonicalized(self):
        a = PointSpec(kind="deploy", profile=QUICK, params={"b": 1, "a": 2})
        b = PointSpec(kind="deploy", profile=QUICK, params=[("a", 2), ("b", 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == (("a", 2), ("b", 1))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            PointSpec(kind="deploy", profile=QUICK,
                      params=[("replication", 2), ("replication", 3)])

    def test_param_lookup(self):
        spec = PointSpec(kind="deploy", profile=QUICK, params={"mode": "x"})
        assert spec.param("mode") == "x"
        assert spec.param("missing") is None

    def test_label_names_the_point(self):
        spec = PointSpec(kind="deploy", profile=QUICK, approach="mirror", n=8)
        label = spec.label()
        for token in ("deploy", "quick", "mirror", "n=8", "seed=1"):
            assert token in label

    def test_picklable(self):
        import pickle

        spec = PointSpec(kind="deploy", profile=QUICK, approach="mirror", n=8)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestPointResult:
    def _result(self):
        spec = PointSpec(kind="deploy", profile=QUICK, approach="mirror", n=2)
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
        assert r.spec.n == 2
        assert r.boot_times == (1.0, 1.5)
        assert r.avg_boot_time == 1.25
        assert r.completion_time == 2.5
        assert r.total_traffic == 100
        assert r.metrics["init_time"] == 0.5
