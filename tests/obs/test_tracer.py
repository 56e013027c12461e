"""Span trees, the ambient run, and fork-capture re-parenting."""

import pickle

import pytest

from repro.obs import runtime as obs
from repro.obs.trace import Span, Tracer


@pytest.fixture(autouse=True)
def _no_leaked_run():
    assert obs.active() is None
    yield
    if obs.active() is not None:  # pragma: no cover - test bug guard
        obs.finish(obs.active())
        pytest.fail("test leaked an active observability run")


def test_span_nesting_builds_a_tree():
    tracer = Tracer()
    with tracer.span("outer", K=3):
        with tracer.span("inner-1"):
            pass
        with tracer.span("inner-2"):
            with tracer.span("leaf"):
                pass
    assert [s.name for _d, s in tracer.walk()] == [
        "outer", "inner-1", "inner-2", "leaf"]
    assert [d for d, _s in tracer.walk()] == [0, 1, 1, 2]
    root = tracer.roots[0]
    assert root.attrs == {"K": 3}
    assert root.duration is not None
    assert all(child.duration <= root.duration
               for child in root.children)


def test_span_closes_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("fails"):
            raise RuntimeError("boom")
    assert tracer.roots[0].duration is not None
    assert tracer.current is None


def test_annotate_targets_current_span():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.annotate(states=81)
    assert tracer.roots[0].children[0].attrs == {"states": 81}
    tracer.annotate(ignored=True)  # outside any span: no-op
    assert tracer.roots[0].attrs == {}


def test_spans_pickle_with_children():
    tracer = Tracer()
    with tracer.span("parent", backend="kernel"):
        with tracer.span("child"):
            pass
    clone = pickle.loads(pickle.dumps(tracer.roots[0]))
    assert clone.name == "parent"
    assert clone.attrs == {"backend": "kernel"}
    assert [c.name for c in clone.children] == ["child"]
    assert clone.pid == tracer.roots[0].pid


def test_ambient_helpers_are_noops_when_inactive():
    with obs.span("nothing") as span:
        assert span is None
    obs.annotate(ignored=True)
    obs.event("ignored")
    obs.metric("ignored")
    obs.gauge("ignored", 1)
    assert obs.active() is None


def test_run_records_spans_events_metrics():
    with obs.run("test-run", flavor="unit") as run_ctx:
        with obs.span("step", K=2) as span:
            assert span is not None
            obs.metric("engine.work_items", 3)
            obs.event("milestone", detail="reached")
            obs.annotate(extra=1)
    assert run_ctx.wall_seconds is not None
    names = [s.name for _d, s in run_ctx.walk()]
    assert names == ["test-run", "step"]
    step = run_ctx.spans[0].children[0]
    assert step.attrs == {"K": 2, "extra": 1}
    assert run_ctx.metrics.value("engine.work_items") == 3
    assert run_ctx.events[0]["kind"] == "milestone"
    assert obs.active() is None


def test_nested_run_activation_raises():
    with obs.run("outer"):
        with pytest.raises(RuntimeError):
            obs.start("inner")


def test_fork_capture_roundtrip_reparents_and_merges():
    with obs.run("parent-run") as run_ctx:
        # Simulate the forked child: swap, record, capture.
        inherited = obs.fork_capture_begin()
        with obs.span("worker.task", item=7):
            obs.metric("localkernel.mask_evaluations", 5)
            obs.event("from-child")
        capture = obs.fork_capture_end(inherited)
        capture = pickle.loads(pickle.dumps(capture))  # crosses the pipe

        with obs.span("pool.map"):
            obs.adopt_child(capture, "item[0]", K=4)

    pool_span = run_ctx.spans[0].children[0]
    assert pool_span.name == "pool.map"
    wrapper = pool_span.children[0]
    assert wrapper.name == "item[0]"
    assert wrapper.attrs["K"] == 4
    assert wrapper.attrs["pid"] == capture.pid
    assert [c.name for c in wrapper.children] == ["worker.task"]
    assert run_ctx.metrics.value("localkernel.mask_evaluations") == 5
    assert any(e["kind"] == "from-child" for e in run_ctx.events)


def test_fork_capture_without_active_run_carries_layer_counts():
    saved = obs.fork_capture_begin()
    with obs.span("untraced") as span:
        assert span is None  # no run, no spans
    obs.metric("kernel.states_encoded", 5)
    obs.metric("supervisor.retries")  # a report counter: not collected
    capture = obs.fork_capture_end(saved)
    assert obs.active() is None
    assert capture.spans == [] and capture.events == []
    assert capture.metrics.as_dict() == {"kernel.states_encoded": 5}
    obs.metric("kernel.states_encoded")  # capture closed: a no-op
    assert capture.metrics.as_dict() == {"kernel.states_encoded": 5}
    obs.adopt_child(capture)  # no run, no collector: nothing to do
    obs.adopt_child(None)  # must not raise


def test_adopt_child_without_wrapper_extends_current_children():
    with obs.run("run") as run_ctx:
        saved = obs.fork_capture_begin()
        with obs.span("bare"):
            pass
        capture = obs.fork_capture_end(saved)
        obs.adopt_child(capture)
    assert [c.name for c in run_ctx.spans[0].children] == ["bare"]
