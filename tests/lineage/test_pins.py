"""Version pins: refcounted leases and deferred deletes at the registry."""

import pytest

from repro.common.errors import LineageError, UnknownVersionError

from helpers import make, build_chain


def chainreg():
    fab, dep, hosts, rec = make()
    records = build_chain(fab, dep, hosts[0], rec, depth=3)
    return dep.registry, records


class TestPins:
    def test_pin_refcounts(self):
        reg, records = chainreg()
        mid = records[1]
        reg.pin_version(mid.blob_id, mid.version)
        reg.pin_version(mid.blob_id, mid.version)
        assert reg.pin_count(mid.blob_id, mid.version) == 2
        reg.unpin_version(mid.blob_id, mid.version)
        assert reg.pin_count(mid.blob_id, mid.version) == 1
        reg.unpin_version(mid.blob_id, mid.version)
        assert reg.pin_count(mid.blob_id, mid.version) == 0

    def test_unpin_without_pin_raises(self):
        reg, records = chainreg()
        with pytest.raises(LineageError):
            reg.unpin_version(records[0].blob_id, records[0].version)

    def test_pin_never_published_raises(self):
        reg, records = chainreg()
        with pytest.raises(UnknownVersionError):
            reg.pin_version(999, 1)

    def test_pin_survives_retirement(self):
        """A retired version can still be pinned (restore from retired)."""
        reg, records = chainreg()
        mid = records[1]
        reg.delete_version(mid.blob_id, mid.version)
        reg.pin_version(mid.blob_id, mid.version)  # does not raise
        reg.unpin_version(mid.blob_id, mid.version)


class TestDeferredDeletes:
    def test_delete_version_defers_until_unpin(self):
        """Satellite: churn retention cannot retire a pinned version."""
        reg, records = chainreg()
        mid = records[1]
        reg.pin_version(mid.blob_id, mid.version)
        reg.delete_version(mid.blob_id, mid.version)
        # still published (GC-rooted) while the restore lease is held
        assert reg.is_published(mid.blob_id, mid.version)
        reg.unpin_version(mid.blob_id, mid.version)
        assert not reg.is_published(mid.blob_id, mid.version)
        assert reg.lineage_entry(mid.blob_id, mid.version).retired

    def test_deferred_delete_waits_for_last_pin(self):
        reg, records = chainreg()
        mid = records[1]
        reg.pin_version(mid.blob_id, mid.version)
        reg.pin_version(mid.blob_id, mid.version)
        reg.delete_version(mid.blob_id, mid.version)
        reg.unpin_version(mid.blob_id, mid.version)
        assert reg.is_published(mid.blob_id, mid.version)
        reg.unpin_version(mid.blob_id, mid.version)
        assert not reg.is_published(mid.blob_id, mid.version)

    def test_delete_blob_defers_until_unpin(self):
        """Teardown of a blob with an in-flight restore waits it out."""
        reg, records = chainreg()
        mid = records[1]
        reg.pin_version(mid.blob_id, mid.version)
        reg.delete_blob(mid.blob_id)
        assert reg.is_published(mid.blob_id, mid.version)
        reg.unpin_version(mid.blob_id, mid.version)
        live = {rec.blob_id for rec in reg.live_records()}
        assert live == {records[0].blob_id - 1}  # only the seed

    def test_unpinned_delete_is_immediate(self):
        reg, records = chainreg()
        mid = records[1]
        reg.delete_version(mid.blob_id, mid.version)
        assert not reg.is_published(mid.blob_id, mid.version)


class TestSkipPointers:
    def test_set_and_clear_skip(self):
        reg, records = chainreg()
        head = records[-1]
        genesis = (head.blob_id, 0)
        reg.set_skip(head.blob_id, head.version, genesis)
        assert reg.lineage_entry(head.blob_id, head.version).next_hop() == genesis
        reg.set_skip(head.blob_id, head.version, None)
        entry = reg.lineage_entry(head.blob_id, head.version)
        assert entry.next_hop() == entry.parent

    def test_skip_self_loop_rejected(self):
        reg, records = chainreg()
        head = records[-1]
        with pytest.raises(LineageError):
            reg.set_skip(head.blob_id, head.version, (head.blob_id, head.version))

    def test_skip_to_unpublished_target_rejected(self):
        reg, records = chainreg()
        head = records[-1]
        with pytest.raises(UnknownVersionError):
            reg.set_skip(head.blob_id, head.version, (999, 1))
