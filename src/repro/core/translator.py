"""The R/W translator (paper §4.2, Fig. 2).

Translates every original hypervisor read/write into local reads/writes plus
the remote reads mandated by the two mirroring strategies of §3.3, operating
on three collaborators:

* the :class:`~repro.core.modmanager.ModificationManager` (what is local),
* the :class:`~repro.core.localmirror.LocalMirrorFile` (the local bytes),
* a :class:`~repro.blobseer.client.BlobClient` (the remote repository),

plus a fixed *source snapshot* ``(blob_id, version)`` that missing content is
fetched from. Writes never go remote; COMMIT support completes dirty chunks
(gap-fills them to full chunks) and hands back whole-chunk payloads.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence, Tuple

from ..blobseer.client import BlobClient
from ..common.errors import MirrorStateError
from ..common.payload import Payload
from .localmirror import LocalMirrorFile
from .modmanager import ModificationManager


class RWTranslator:
    """Routes reads/writes between the local mirror and the repository."""

    def __init__(
        self,
        modmgr: ModificationManager,
        local: LocalMirrorFile,
        client: BlobClient,
        source_blob: int,
        source_version: int,
        full_chunk_prefetch: bool = True,
    ):
        self.modmgr = modmgr
        self.local = local
        self.client = client
        self.source_blob = source_blob
        self.source_version = source_version
        #: strategy 1 switch: False = fetch only the exact missing byte
        #: ranges of each read (the ablation the paper argues against)
        self.full_chunk_prefetch = full_chunk_prefetch
        self._metrics = client.host.fabric.metrics

    # ------------------------------------------------------------------ #
    def _fetch_chunk_set(self, indices: Sequence[int]) -> Generator:
        """Fetch full chunks by index from the source snapshot.

        Sparse index sets (random-access gap fills) are split into contiguous
        runs so the metadata traversal never walks — or transfers — tree
        nodes covering chunks the caller does not touch.
        """
        if not indices:
            return {}
        snap = yield from self.client._lookup_snapshot(self.source_blob, self.source_version)
        ordered = sorted(set(indices))
        refs: Dict[int, "ChunkRef"] = {}
        run_lo = prev = ordered[0]
        for idx in ordered[1:] + [None]:
            if idx is not None and idx == prev + 1:
                prev = idx
                continue
            got = yield from self.client._refs_for_range(snap.root, run_lo, prev + 1)
            refs.update(got)
            if idx is not None:
                run_lo = prev = idx
        wanted = {idx: refs[idx] for idx in indices if idx in refs}
        chunks = yield from self.client.fetch_refs(wanted)
        # Holes in the source snapshot read as zeros.
        for idx in indices:
            if idx not in chunks:
                lo, hi = self.modmgr.chunk_bounds(idx)
                chunks[idx] = Payload.zeros(hi - lo)
        return chunks

    def _apply_gaps(
        self, chunks: Dict[int, Payload], gaps: Dict[int, List[Tuple[int, int]]]
    ) -> Generator:
        """Write fetched content into the local mirror, skipping mirrored parts."""
        for idx, intervals in gaps.items():
            c_lo, _ = self.modmgr.chunk_bounds(idx)
            for g_lo, g_hi in intervals:
                yield from self._mirror_fetched(
                    idx, g_lo, chunks[idx].slice(g_lo - c_lo, g_hi - c_lo)
                )

    def _mirror_fetched(self, idx: int, lo: int, piece: Payload) -> Generator:
        """Mirror ``piece``, fetched for ``[lo, lo + size)`` of chunk ``idx``.

        The interval was planned before the fetch and simulated time has
        passed since: a guest write may have landed inside it and must stay
        on top, so only what is unmirrored *now* is stored. The fetch still
        costs the page-cache time of every byte it brought.
        """
        missing = self.modmgr.unmirrored(idx, lo, lo + piece.size)
        yield from self.local.apply_remote(lo, piece, missing)
        for g_lo, g_hi in missing:
            self.modmgr.record_fill(idx, g_lo, g_hi)

    # ------------------------------------------------------------------ #
    def _fetch_ranges(self, gaps: Dict[int, List[Tuple[int, int]]]) -> Generator:
        """Fetch exact byte ranges (no-prefetch ablation) and mirror them."""
        snap = yield from self.client._lookup_snapshot(self.source_blob, self.source_version)
        indices = sorted(gaps)
        refs = yield from self.client._refs_for_range(snap.root, indices[0], indices[-1] + 1)
        by_provider: Dict[str, List[Tuple[int, Tuple[int, int]]]] = {}
        for idx in indices:
            for gap in gaps[idx]:
                if idx in refs:
                    by_provider.setdefault(refs[idx].providers[0], []).append((idx, gap))

        from ..simkit import rpc

        retry = self.client.deployment.retry

        def fetch_group(provider_name, items):
            provider = self.client.deployment.fabric.hosts[provider_name]
            requests = []
            for idx, (g_lo, g_hi) in items:
                c_lo, _ = self.modmgr.chunk_bounds(idx)
                requests.append((refs[idx].key, g_lo - c_lo, g_hi - c_lo))
            if retry is not None:
                combined = yield from self.client._call_with_timeout(
                    provider, "blob-data", "get_chunks", requests
                )
            else:
                combined = yield from rpc.call(
                    self.client.host, provider, "blob-data", "get_chunks", requests
                )
            cursor = 0
            out = []
            for idx, (g_lo, g_hi) in items:
                out.append((g_lo, combined.slice(cursor, cursor + g_hi - g_lo), idx))
                cursor += g_hi - g_lo
            return out

        if retry is None:
            groups = yield from self.client._parallel(
                [fetch_group(p, items) for p, items in sorted(by_provider.items())]
            )
        else:
            # Replica failover for exact-range fetches: attempt ``a`` asks
            # each still-missing range's replica of rank ``a mod k``.
            from ..common.errors import ChunkNotFoundError, ProviderUnavailableError

            env = self.client.host.env
            pending = [(idx, gap) for p, items in sorted(by_provider.items()) for idx, gap in items]
            groups = []
            for attempt in range(retry.attempts):
                by_replica: Dict[str, List[Tuple[int, Tuple[int, int]]]] = {}
                for idx, gap in pending:
                    provs = refs[idx].providers
                    by_replica.setdefault(provs[attempt % len(provs)], []).append((idx, gap))

                def guarded(provider_name, items):
                    try:
                        out = yield from fetch_group(provider_name, items)
                    except (ProviderUnavailableError, ChunkNotFoundError):
                        return None
                    return out

                work = sorted(by_replica.items())
                fetched = yield from self.client._parallel(
                    [guarded(p, items) for p, items in work]
                )
                pending = []
                for group, (_p, items) in zip(fetched, work):
                    if group is None:
                        pending.extend(items)
                    else:
                        groups.append(group)
                if not pending:
                    break
                self._metrics.count("fetch-retry")
                yield env.timeout(retry.delay_for(attempt))
            else:
                raise ProviderUnavailableError(
                    f"ranges of chunks {sorted({i for i, _ in pending})[:5]} "
                    f"unreachable after {retry.attempts} attempts"
                )
        for group in groups:
            for g_lo, piece, idx in group:
                yield from self._mirror_fetched(idx, g_lo, piece)
        # ranges inside source holes mirror as zeros
        for idx in indices:
            if idx not in refs:
                for g_lo, g_hi in gaps[idx]:
                    yield from self._mirror_fetched(idx, g_lo, Payload.zeros(g_hi - g_lo))

    def read(self, offset: int, nbytes: int) -> Generator:
        """Serve a hypervisor read; fetches missing content first (strategy 1)."""
        lo, hi = offset, offset + nbytes
        if self.full_chunk_prefetch:
            plan = self.modmgr.plan_read(lo, hi)
            counters = self._metrics.counters
            if not plan.is_local:
                counters["mirror-remote-read"] += 1
                counters["mirror-chunks-fetched"] += len(plan.fetch_chunks)
                with self.client.host.fabric.tracer.start(
                    "mirror-fetch", "vfs", chunks=len(plan.fetch_chunks)
                ):
                    chunks = yield from self._fetch_chunk_set(plan.fetch_chunks)
                    yield from self._apply_gaps(chunks, plan.fill_gaps)
                for idx in plan.fetch_chunks:
                    self.modmgr.record_fetch(idx)
            else:
                counters["mirror-local-read"] += 1
        else:
            gaps = self.modmgr.plan_read_exact(lo, hi)
            if gaps:
                self._metrics.count("mirror-remote-read")
                n_ranges = sum(len(g) for g in gaps.values())
                self._metrics.count("mirror-ranges-fetched", n_ranges)
                with self.client.host.fabric.tracer.start(
                    "mirror-fetch-exact", "vfs", ranges=n_ranges
                ):
                    yield from self._fetch_ranges(gaps)
            else:
                self._metrics.count("mirror-local-read")
        data = yield from self.local.pread(lo, hi)
        return data

    def write(self, offset: int, payload: Payload) -> Generator:
        """Serve a hypervisor write; gap-fills first (strategy 2), then local."""
        lo, hi = offset, offset + payload.size
        plan = self.modmgr.plan_write(lo, hi)
        if plan.gap_fills:
            self._metrics.count("mirror-gap-fill", len(plan.gap_fills))
            indices = [idx for idx, _ in plan.gap_fills]
            gaps = {idx: [gap] for idx, gap in plan.gap_fills}
            with self.client.host.fabric.tracer.start("gap-fill", "vfs", chunks=len(indices)):
                chunks = yield from self._fetch_chunk_set(indices)
                yield from self._apply_gaps(chunks, gaps)
        yield from self.local.pwrite(lo, payload)
        self.modmgr.record_write(lo, hi)
        return None

    # ------------------------------------------------------------------ #
    def collect_dirty_chunks(self, dirty: Sequence[int]) -> Generator:
        """COMMIT prep: complete the ``dirty`` chunks and return whole payloads.

        A dirty chunk whose mirror is partial is gap-filled from the source
        snapshot first (the published chunk must be complete); the returned
        payloads are read back from the local mirror.
        """
        incomplete: Dict[int, List[Tuple[int, int]]] = {}
        for idx in dirty:
            gaps = self.modmgr.plan_complete_chunk(idx)
            if gaps:
                incomplete[idx] = gaps
        if incomplete:
            self._metrics.count("commit-gap-fill", len(incomplete))
            with self.client.host.fabric.tracer.start(
                "commit-gap-fill", "vfs", chunks=len(incomplete)
            ):
                chunks = yield from self._fetch_chunk_set(sorted(incomplete))
                yield from self._apply_gaps(chunks, incomplete)
            for idx in incomplete:
                self.modmgr.record_fetch(idx)
        updates: Dict[int, Payload] = {}
        for idx in dirty:
            c_lo, c_hi = self.modmgr.chunk_bounds(idx)
            if not self.modmgr.is_mirrored(c_lo, c_hi):
                raise MirrorStateError(f"chunk {idx} still incomplete after fill")
            updates[idx] = yield from self.local.pread(c_lo, c_hi)
        return updates
