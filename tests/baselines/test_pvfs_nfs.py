"""Tests for the PVFS-like striped FS and the NFS server."""

import pytest

from repro.baselines.nfs import NfsServer
from repro.baselines.pvfs import PvfsDeployment
from repro.common.errors import StorageError
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.simkit.host import Fabric

STRIPE = 4 * KiB


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


def make_pvfs(n=4, seed=2):
    fab = Fabric(seed=seed)
    hosts = [fab.add_host(f"node{i}") for i in range(n)]
    dep = PvfsDeployment(fab, hosts, stripe_size=STRIPE)
    return fab, dep, hosts


def run(fab, gen):
    return fab.run(fab.env.process(gen))


class TestPvfs:
    def test_create_write_read_roundtrip(self):
        fab, dep, hosts = make_pvfs()
        data = pattern(3 * STRIPE + 100)
        client = dep.client(hosts[0])

        def scenario():
            yield from client.create("/f", len(data))
            yield from client.write("/f", 0, Payload.from_bytes(data))
            got = yield from client.read("/f", 0, len(data))
            return got

        assert run(fab, scenario()).to_bytes() == data

    def test_unaligned_window(self):
        fab, dep, hosts = make_pvfs()
        data = pattern(4 * STRIPE)
        dep.seed_file("/f", Payload.from_bytes(data))
        client = dep.client(hosts[1])

        def scenario():
            got = yield from client.read("/f", STRIPE - 7, 2 * STRIPE)
            return got

        assert run(fab, scenario()).to_bytes() == data[STRIPE - 7 : 3 * STRIPE - 7]

    def test_stripes_distributed_round_robin(self):
        fab, dep, hosts = make_pvfs(n=4)
        dep.seed_file("/f", Payload.from_bytes(pattern(8 * STRIPE)))
        per_server = [sorted(idx for _, idx in dep.io_servers[h.name]._stripes) for h in hosts]
        assert per_server == [[k, k + 4] for k in range(4)]

    def test_write_overwrites_in_place_no_versioning(self):
        fab, dep, hosts = make_pvfs()
        data = pattern(2 * STRIPE)
        dep.seed_file("/f", Payload.from_bytes(data))
        client = dep.client(hosts[0])

        def scenario():
            yield from client.write("/f", 10, Payload.from_bytes(b"NEW"))
            got = yield from client.read("/f", 0, 20)
            return got

        got = run(fab, scenario())
        expected = bytearray(data[:20])
        expected[10:13] = b"NEW"
        assert got.to_bytes() == bytes(expected)
        stripes = [key for srv in dep.io_servers.values() for key in srv._stripes]
        assert sorted(stripes) == [("/f", 0), ("/f", 1)]  # no extra version stored

    def test_missing_file(self):
        fab, dep, hosts = make_pvfs()
        client = dep.client(hosts[0])

        def scenario():
            yield from client.read("/missing", 0, 1)

        with pytest.raises(StorageError):
            run(fab, scenario())

    def test_eof_checks(self):
        fab, dep, hosts = make_pvfs()
        dep.seed_file("/f", Payload.from_bytes(pattern(STRIPE)))
        client = dep.client(hosts[0])

        def scenario():
            yield from client.read("/f", 0, STRIPE + 1)

        with pytest.raises(StorageError):
            run(fab, scenario())

    def test_duplicate_create(self):
        fab, dep, hosts = make_pvfs()
        client = dep.client(hosts[0])

        def scenario():
            yield from client.create("/f", 10)
            yield from client.create("/f", 10)

        with pytest.raises(StorageError):
            run(fab, scenario())

    def test_parallel_stripe_reads_faster_than_serial(self):
        """Reading N stripes from N servers beats N stripes from one server."""
        fab4, dep4, hosts4 = make_pvfs(n=4)
        big = Payload.opaque("img", 64 * STRIPE)
        dep4.seed_file("/f", big)
        c4 = dep4.client(hosts4[0])

        def scenario(client):
            t0 = client.host.env.now
            yield from client.read("/f", 0, 64 * STRIPE)
            return client.host.env.now - t0

        t4 = run(fab4, scenario(c4))

        fab1, dep1, hosts1 = make_pvfs(n=1)
        # give the single-server variant a second host to read from
        reader = fab1.add_host("reader")
        dep1.seed_file("/f", big)
        c1 = dep1.client(reader)
        t1 = run(fab1, scenario(c1))
        assert t4 < t1


class TestNfs:
    def test_stat_and_missing(self):
        fab = Fabric(seed=1)
        server = NfsServer(fab.add_host("nfs"))
        server.put_file("/img", Payload.zeros(123))
        assert server.stat("/img") == 123
        with pytest.raises(StorageError):
            server.stat("/none")
