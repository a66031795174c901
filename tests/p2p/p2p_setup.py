"""Shared scaffolding for the cooperative peer-exchange tests."""

from itertools import count

from repro.blobseer import BlobSeerDeployment
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.core import MirrorVFS
from repro.p2p import P2PConfig, PeerNetwork
from repro.simkit.host import Fabric

CHUNK = 4 * KiB
IMG = 16 * CHUNK


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


def build(seed=33, n_nodes=4, retry=None, **config_kw):
    """A small BlobSeer cloud with the exchange wired onto every node.

    Providers live on dedicated hosts so a crashed *peer* never takes a
    chunk's only replica with it — peer failures must always be repairable
    through the provider path.
    """
    fab = Fabric(seed=seed)
    hosts = [fab.add_host(f"node{i}") for i in range(n_nodes)]
    providers = [fab.add_host(f"prov{i}") for i in range(2)]
    manager = fab.add_host("manager")
    # the announce directory gets its own host so tests can crash it
    # without also taking down BlobSeer's version manager
    dir_host = fab.add_host("dirhost")
    dep = BlobSeerDeployment(fab, providers, providers, manager, retry=retry)
    data = pattern(IMG)
    rec = dep.seed_blob(Payload.from_bytes(data), CHUNK)
    net = PeerNetwork(
        fab, hosts, dep.model, config=P2PConfig(**config_kw), directory_host=dir_host
    )
    dep.peer_network = net
    return fab, dep, hosts, rec, data, net


#: every read_all mirror is a fresh one: a held mirror path cannot be reopened
_MIRRORS = count()


def read_all(dep, host, rec, settle=0.05):
    """A scenario generator: mirror-read the whole blob on ``host``."""
    fab = dep.fabric
    path = f"/mirror/read-all-{next(_MIRRORS)}"

    def scenario():
        vfs = MirrorVFS(host, dep.client(host))
        handle = yield from vfs.open(rec.blob_id, rec.version, path)
        p = yield from handle.read(0, IMG)
        if settle:
            # drain the off-critical-path announce processes
            yield fab.env.timeout(settle)
        return p.to_bytes()

    return scenario()


def run(fab, gen):
    return fab.run(fab.env.process(gen))
