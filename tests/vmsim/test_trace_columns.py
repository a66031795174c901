"""Trace columns against the list-of-``BootOp`` generators they replaced.

Every trace generator must yield the ops of ``tests/reference_traces.py`` —
kind, offset, size and duration, equal and of the same Python type — and
leave its RNG stream where the reference leaves it, over seeds, boot models,
image layouts and workload sizes. A memory guard keeps the columns compact:
ops turned back into objects fail it.
"""

import tracemalloc

import numpy as np
import reference_traces as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import BootModel
from repro.common.units import KiB, MiB
from repro.vmsim import workloads
from repro.vmsim.boottrace import Trace, boot_trace
from repro.vmsim.image import make_image

#: (image size, hot-set bytes, hot regions): the benchmark suite's image, a
#: smaller and a larger one
LAYOUTS = [(32 * MiB, 8 * MiB, 32), (8 * MiB, 2 * MiB, 16), (256 * MiB, 24 * MiB, 48)]


def fields(ops):
    return [(op.kind, op.offset, op.nbytes, op.duration) for op in ops]


def assert_same_ops(got, want):
    assert isinstance(got, Trace) and len(got) == len(want)
    got, want = fields(got), fields(want)
    assert got == want
    assert [tuple(map(type, f)) for f in got] == [tuple(map(type, f)) for f in want]


def twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(LAYOUTS),
    image_seed=st.integers(0, 3),
    write_ops=st.integers(0, 40),
    write_bytes=st.integers(0, 4 * MiB),
    cpu_seconds=st.floats(0.5, 20.0),
)
def test_boot_trace_equals_the_list_generator(
    seed, layout, image_seed, write_ops, write_bytes, cpu_seconds
):
    size, touched, n_regions = layout
    image = make_image(size, touched, n_regions=n_regions, seed=image_seed)
    model = BootModel(write_ops=write_ops, write_bytes=write_bytes, cpu_seconds=cpu_seconds)
    new, old = twin_rngs(seed)
    assert_same_ops(boot_trace(image, model, new), ref.boot_trace(image, model, old))
    assert new.random() == old.random()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.integers(0, 2**30),
    total=st.integers(0, 200 * KiB),
    block=st.sampled_from([512, 4 * KiB, 8 * KiB, 10_000]),
    reread=st.floats(0.0, 1.0),
    cpu=st.floats(0.0, 0.01),
)
def test_read_your_writes_equals_the_list_generator(seed, base, total, block, reread, cpu):
    new, old = twin_rngs(seed)
    assert_same_ops(
        workloads.read_your_writes_workload(base, total, new, block, reread, cpu),
        ref.read_your_writes_workload(base, total, old, block, reread, cpu),
    )
    assert new.random() == old.random()


@given(
    base=st.integers(0, 2**40),
    n_appends=st.integers(0, 64),
    nbytes=st.integers(1, MiB),
    cpu=st.floats(0.0, 1.0),
)
def test_log_append_equals_the_list_generator(base, n_appends, nbytes, cpu):
    assert_same_ops(
        workloads.log_append_workload(base, n_appends, nbytes, cpu),
        ref.log_append_workload(base, n_appends, nbytes, cpu),
    )


@given(seconds=st.floats(0.0, 100.0), slices=st.integers(1, 50))
def test_cpu_workload_equals_the_list_generator(seconds, slices):
    assert_same_ops(workloads.cpu_workload(seconds, slices), ref.cpu_workload(seconds, slices))


def test_packing_the_ops_of_a_trace_gives_it_back():
    image = make_image(32 * MiB, 8 * MiB, n_regions=32)
    trace = boot_trace(image, BootModel(), np.random.default_rng(5))
    assert Trace.from_ops(trace) == trace
    assert Trace.from_ops(list(trace)) == trace


def test_boot_traces_hold_under_40_bytes_per_op():
    """64 boot traces of the suite's image: columns, not an object per op."""
    image = make_image(32 * MiB, 8 * MiB, n_regions=32)
    rngs = [np.random.default_rng(i) for i in range(64)]
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = [boot_trace(image, BootModel(), rng) for rng in rngs]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not already:
            tracemalloc.stop()
    per_op = held / sum(len(t) for t in traces)
    assert per_op < 40, f"{per_op:.1f} B per op"
