"""Span arithmetic and wrapper installation of the traced run."""

import math

import pytest

import tracing


def test_self_time_on_hand_built_tree():
    # root 0..10 with children 1..3 and 2..6 (overlapping: union 1..6) and
    # 8..12 (clipped to the root's end); child 1 has one grandchild 2..3
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 2.0, 8.0, 2.0]
    end = [10.0, 3.0, 6.0, 12.0, 3.0]
    assert tracing.self_times(parent, start, end) == pytest.approx(
        [10.0 - 5.0 - 2.0, 2.0 - 1.0, 4.0, 4.0, 1.0])


def test_self_time_of_leaf_and_nested_chain():
    parent = [-1, 0, 1]
    start = [0.0, 0.5, 0.75]
    end = [1.0, 0.9, 0.8]
    assert tracing.self_times(parent, start, end) == pytest.approx([0.6, 0.35, 0.05])


def test_span_records_name_parent_and_order():
    t = tracing.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    assert [t.names[i] for i in t.name] == ["outer", "inner"]
    assert list(t.parent) == [-1, 0]
    assert t.start[0] <= t.start[1] <= t.end[1] <= t.end[0]


def test_install_wraps_every_reference_and_uninstall_restores():
    import crossgen.autodiff as ad
    import crossgen.cli as cli
    import crossgen.model as model

    original_matmul, original_load = ad.matmul, model.load_checkpoint
    original_cmd = cli.COMMANDS["generate"]
    t = tracing.Tracer()
    t.install()
    try:
        assert ad.matmul is not original_matmul
        assert cli.load_checkpoint is model.load_checkpoint is not original_load
        assert cli.COMMANDS["generate"] is cli.cmd_generate is not original_cmd
        a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        with t.span("bench.run"):
            out = ad.tsum(a @ ad.Tensor([[3.0], [4.0]]))
            out.backward()
    finally:
        t.uninstall()
    assert ad.matmul is original_matmul and cli.load_checkpoint is original_load
    assert cli.COMMANDS["generate"] is original_cmd
    assert t.absent == []
    m = tracing.layer_metrics(t)
    assert m["autodiff.matmul.calls"] == (1.0, "count")
    assert m["autodiff.tsum.calls"] == (1.0, "count")
    assert m["autodiff.matmul.forward_ms"][0] > 0.0


def test_missing_function_is_reported_absent():
    t = tracing.Tracer()
    t.install(targets=(("crossgen.generation", "beam_search_batch", "gen.batch", None),
                       ("crossgen.nonexistent", "f", "gone", None)))
    t.uninstall()
    assert t.absent == ["gen.batch", "gone"]
    m = tracing.layer_metrics(t)
    assert m["generation.beam_search_ms"] == (0.0, "ms")
    assert all(math.isfinite(v) for v, _ in m.values())
