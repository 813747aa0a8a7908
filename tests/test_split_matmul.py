"""nn.matmul splits large float32 products across the active helper and
keeps the bits of np.matmul; nn.Helper.fork queues a job that whichever
thread gets to it first runs, and Job.wait runs queued jobs until its own is
done."""
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fgcnn import featuregen as fg
from fgcnn import nn

KINDS = ("2d", "a_transposed", "b_transposed", "batched", "broadcast", "gram", "conv")
# 1, odd, below 32, at and just over multiples of 16, and ref's 1440
COLUMNS = st.one_of(st.sampled_from([1, 7, 31, 32, 33, 47, 48, 49, 63, 65, 97, 161, 1441]),
                    st.integers(1, 400))
MAX_ELEMENTS = 1 << 22        # per operand, so a drawn product stays small in memory


def _depth(macs: float, outputs: int, per_depth: int) -> int:
    """Reduction length that brings a product with this many output
    elements to about macs, while the operands (per_depth elements per unit
    of depth) stay within MAX_ELEMENTS."""
    return int(max(1, min(math.ceil(macs / outputs), MAX_ELEMENTS // per_depth)))


def _operands(kind, rng, dtype, lead, m, n, macs):
    """(a, b) for one product shape: about n output columns, m rows, lead items."""
    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)
    if kind == "gram":                            # the FM layer's e @ eᵀ: numpy's syrk
        lead, t = 1 + lead % 64, 1 + n % 200
        e = draw(lead, t, _depth(macs, lead * t * t, lead * t))
        return e, e.transpose(0, 2, 1)
    if kind == "conv":                            # conv_affine's strided window view
        h, maps, rows = 1 + m % 7, 1 + lead % 5, 1 + lead % 24
        out_maps, k = 1 + m % 20, 1 + n % 40
        b = _depth(macs, rows * out_maps * k * h * maps, rows * maps * k)
        x, w = draw(rows, maps, b, k), draw(h, 1, maps, out_maps)
        return w.reshape(h * maps, out_maps).T, fg._row_windows(x, h, (h - 1) // 2)
    if kind in ("batched", "broadcast"):
        lead = 1 + lead % 6
        k = _depth(macs, lead * m * n, lead * (m + n))
        a = draw(m, k) if kind == "broadcast" else draw(lead, m, k)
        return a, draw(lead, k, n)
    k = _depth(macs, m * n, m + n)
    a = draw(k, m).T if kind == "a_transposed" else draw(m, k)
    b = draw(n, k).T if kind == "b_transposed" else draw(k, n)
    return a, b


def _splits(a, b) -> bool:
    """The split rule, restated: float32 operands, at least SPLIT_MIN
    multiply-adds, and two 16-column halves of a 2-D product with rows >= 2,
    or two halves of a batched product's leading axis."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    if a.dtype != np.float32 or b.dtype != np.float32 \
            or math.prod(shape) * a.shape[-1] < nn.SPLIT_MIN:
        return False
    if len(shape) == 2:
        return shape[0] >= 2 and shape[1] >= 32
    return shape[0] >= 2


def _counting_forks(helper):
    forks = []
    fork = helper.fork

    def counting(job, first=True):
        forks.append(threading.current_thread())
        return fork(job, first)
    helper.fork = counting
    return forks


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.integers(1, 300), m=st.integers(1, 400), n=COLUMNS,
       reach=st.floats(0.5, 4.0), use_out=st.booleans(), seed=st.integers(0, 2**16))
def test_matmul_keeps_the_bits_of_np_matmul(kind, dtype, lead, m, n, reach, use_out, seed):
    rng = np.random.default_rng(seed)
    a, b = _operands(kind, rng, dtype, lead, m, n, reach * nn.SPLIT_MIN)
    want = np.matmul(a, b)
    with nn.active_helper() as helper:
        forks = _counting_forks(helper)
        if use_out:
            out = np.full(want.shape, np.nan, dtype=want.dtype)
            got = nn.matmul(a, b, out=out)
            assert got is out
        else:
            got = nn.matmul(a, b)
    split = _splits(a, b)
    event(f"{kind} {'split' if split else 'whole'}")
    assert len(forks) == int(split)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_products_at_the_cut_split_once_and_keep_their_bits(kind):
    rng = np.random.default_rng(3)
    a, b = _operands(kind, rng, np.float32, 13, 18 if kind == "conv" else 64,
                     1440 if kind != "gram" else 93, 1.5 * nn.SPLIT_MIN)
    assert _splits(a, b)
    with nn.active_helper() as helper:
        forks = _counting_forks(helper)
        got = nn.matmul(a, b)
    assert forks == [threading.main_thread()]
    assert got.tobytes() == np.matmul(a, b).tobytes()


def test_products_do_not_split_without_an_active_helper_or_below_the_cut(monkeypatch):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((128, 2048)).astype(np.float32)
    b = rng.standard_normal((2048, 512)).astype(np.float32)      # 2^27 multiply-adds
    forked = []
    fork = nn.Helper.fork

    def spy(self, job):
        forked.append(job)
        return fork(self, job)

    monkeypatch.setattr(nn.Helper, "fork", spy)
    assert nn.matmul(a, b).tobytes() == (a @ b).tobytes()           # no helper
    with nn.active_helper():
        nn.matmul(a[:, :1024], b[:1024, :256])                       # below the cut
        nn.matmul(a.astype(np.float64), b.astype(np.float64))        # float64
        nn.matmul(a, b.astype(np.float64))                           # mixed
        nn.matmul(a[:1], b)                                          # one row: gemv
    assert forked == []
    with nn.active_helper():
        nn.matmul(a, b)
    assert len(forked) == 1


# ---------------------------------------------------------------------------
# job semantics


class InjectedError(RuntimeError):
    pass


def _busy(helper):
    """Occupy the helper thread with a job until the returned event is set;
    also returns the job."""
    started, release = threading.Event(), threading.Event()

    def block():
        started.set()
        assert release.wait(10.0)
    job = helper.fork(block, first=False)
    assert started.wait(10.0)
    return release, job


def _drain(helper):
    """Block until the helper thread has taken every job queued before this
    call (a job it finds taken is skipped)."""
    drained = threading.Event()
    helper.fork(drained.set, first=False)
    assert drained.wait(10.0)


def test_an_unstarted_fork_runs_on_the_waiter():
    with nn.Helper() as helper:
        release, busy = _busy(helper)
        ran_on = []
        handle = helper.fork(lambda: ran_on.append(threading.current_thread()))
        handle.wait()
        assert ran_on == [threading.current_thread()]
        release.set()
        busy.wait()
        _drain(helper)                        # the helper has found the fork taken
        assert ran_on == [threading.current_thread()]     # never run twice


def test_a_started_fork_is_waited_for():
    with nn.Helper() as helper:
        started, release, ran_on = threading.Event(), threading.Event(), []

        def job():
            started.set()
            assert release.wait(10.0)
            ran_on.append(threading.current_thread())
        handle = helper.fork(job)
        assert started.wait(10.0)
        threading.Timer(0.05, release.set).start()
        handle.wait()
        assert len(ran_on) == 1 and ran_on[0] is not threading.current_thread()


def test_a_waiter_runs_queued_jobs_while_its_job_runs_on_the_helper():
    """The helper's job can finish only after the next queued one has run,
    and the helper is busy: the waiter must take it."""
    with nn.Helper() as helper:
        started, unblocked, ran_on = threading.Event(), threading.Event(), []

        def first():
            started.set()
            assert unblocked.wait(10.0)

        def second():
            ran_on.append(threading.current_thread())
            unblocked.set()
        handle = helper.fork(first, first=False)
        assert started.wait(10.0)
        queued = helper.fork(second, first=False)
        _within(10.0, handle.wait)
        assert len(ran_on) == 1 and ran_on[0].name != "fgcnn-helper"
        queued.wait()


@pytest.mark.parametrize("on_helper", [True, False])
def test_a_forked_exception_reaches_the_waiter_with_its_type_and_message(on_helper):
    with nn.Helper() as helper:
        release, busy = (None, None) if on_helper else _busy(helper)
        started = threading.Event()

        def fail():
            started.set()
            raise InjectedError("half of a product failed")
        handle = helper.fork(fail)
        if on_helper:
            assert started.wait(10.0)
        with pytest.raises(InjectedError, match="^half of a product failed$"):
            handle.wait()
        if release is not None:
            release.set()
            busy.wait()                       # another job's wait does not see the error
        done = []
        helper.fork(lambda: done.append(1), first=False).wait()
        assert done == [1]                    # a later job still runs


def _within(seconds, fn):
    """Run fn on a thread and fail if it has not returned after seconds;
    re-raise what fn raised."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive()
    if raised:
        raise raised[0]


def test_a_fork_made_on_the_helper_thread_cannot_deadlock():
    """The helper forks from inside one of its jobs and waits: with nobody
    else to take the half it runs it itself, and with a thread waiting,
    either thread may."""
    with nn.Helper() as helper:
        outer_jobs = []
        for waiting in (False, True):
            done, halves = threading.Event(), []

            def job():
                handle = helper.fork(lambda: halves.append(threading.current_thread()))
                handle.wait()
                done.set()
            outer_jobs.append(helper.fork(job, first=False))
            if waiting:
                _within(10.0, outer_jobs[-1].wait)
            assert done.wait(10.0)
            assert len(halves) == 1
            if not waiting:
                assert halves[0].name == "fgcnn-helper"
        _within(10.0, lambda: nn.wait_all(outer_jobs))


def test_matmul_on_the_helper_thread_forks_back_to_the_joining_caller():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((128, 2048)).astype(np.float32)
    g = rng.standard_normal((128, 1024)).astype(np.float32)
    dw = np.empty((2048, 1024), dtype=np.float32)
    with nn.active_helper() as helper:
        forks = _counting_forks(helper)
        on_helper = threading.Event()

        def job():
            on_helper.set()
            nn.matmul(x.T, g, out=dw)
        handle = helper.fork(job, first=False)
        assert on_helper.wait(10.0)           # the helper, not this wait, took the job
        _within(10.0, handle.wait)
    assert len(forks) == 2 and forks[1] is not threading.main_thread()
    assert dw.tobytes() == np.matmul(x.T, g).tobytes()


def test_active_helper_is_reused_and_closed_by_its_owner():
    before = set(threading.enumerate())
    with nn.active_helper() as outer:
        with nn.active_helper() as inner:
            assert inner is outer
        _busy(outer)[0].set()                 # starts the thread
        assert nn._active is outer
    assert nn._active is None
    assert set(threading.enumerate()) == before


def test_a_fork_after_close_runs_on_its_waiter_and_starts_no_thread():
    before = set(threading.enumerate())
    helper = nn.Helper()
    helper.close()
    ran_on = []
    helper.fork(lambda: ran_on.append(threading.current_thread())).wait()
    assert ran_on == [threading.current_thread()]
    assert set(threading.enumerate()) == before


# A job tree: (sleep seconds, fails, first, wait each child rather than
# wait_all, children). Three levels at most.
def _nodes(depth):
    children = st.just(()) if depth == 1 else st.lists(_nodes(depth - 1), max_size=3)
    return st.tuples(st.sampled_from([0.0, 0.0, 1e-4, 1e-3]), st.booleans(),
                     st.booleans(), st.booleans(), children.map(tuple))


@settings(max_examples=60, deadline=None)
@given(roots=st.lists(_nodes(3), min_size=1, max_size=4), each=st.booleans())
def test_random_job_trees_run_each_job_once_and_raise_where_they_are_waited(roots, each):
    """Jobs fork children from whichever thread runs them, at either end of
    the queue, and wait for them one by one or with wait_all; some fail.
    Every job runs once, a wait returns only after its job is done and
    re-raises its exception, and wait_all raises the first failure (in list
    order) only after every job is done."""
    before = set(threading.enumerate())
    ran, finished = [], set()

    def make(node, ident):
        sleep, fails, _, each_child, children = node

        def fn():
            ran.append(ident)
            try:
                time.sleep(sleep)
                fork_and_wait(children, ident, each_child)
                if fails:
                    raise InjectedError(f"job {ident}")
            finally:
                finished.add(ident)
        return fn

    def fork_and_wait(nodes, parent, each_child):
        idents = [parent + (i,) for i in range(len(nodes))]
        jobs = [helper.fork(make(node, ident), first=node[2])
                for node, ident in zip(nodes, idents)]
        failing = [ident for node, ident in zip(nodes, idents) if node[1]]
        if each_child:
            for node, ident, job in zip(nodes, idents, jobs):
                if node[1]:
                    with pytest.raises(InjectedError) as info:
                        job.wait()
                    assert str(info.value) == f"job {ident}"
                else:
                    job.wait()
                assert ident in finished
        elif failing:
            with pytest.raises(InjectedError) as info:
                nn.wait_all(jobs)
            assert str(info.value) == f"job {failing[0]}"
        else:
            nn.wait_all(jobs)
        assert finished.issuperset(idents)

    def all_idents(nodes, parent):
        for i, node in enumerate(nodes):
            yield parent + (i,)
            yield from all_idents(node[4], parent + (i,))

    with nn.Helper() as helper:
        _within(30.0, lambda: fork_and_wait(roots, (), each))
    assert sorted(ran) == sorted(all_idents(roots, ()))
    assert set(threading.enumerate()) == before
