"""Self-time arithmetic and span recording of perfbench/spans.py.

Run from the repository root: python -m pytest perfbench/tests
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Tracer, summarize  # noqa: E402


def test_self_time_of_synthetic_nested_spans():
    # run 0..10 holds a 1..4 (which holds b 2..3) and a 5..6; c 7..9 is a
    # direct child of run; d 20..21 is a second root.
    names = ["run", "a", "b", "c", "d"]
    spans = [
        # (name, parent, start, end)
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),
        (1, 0, 5.0, 6.0),
        (3, 0, 7.0, 9.0),
        (4, -1, 20.0, 21.0),
    ]
    result = summarize(names, *zip(*spans))
    assert result["run"] == (1, pytest.approx(10.0 - 3.0 - 1.0 - 2.0))
    assert result["a"] == (2, pytest.approx((3.0 - 1.0) + 1.0))
    assert result["b"] == (1, pytest.approx(1.0))
    assert result["c"] == (1, pytest.approx(2.0))
    assert result["d"] == (1, pytest.approx(1.0))
    # Self times add up to the time covered by the roots.
    assert sum(s for _, s in result.values()) == pytest.approx(11.0)


def test_name_without_spans_reports_zero():
    assert summarize(["unused"], [], [], [], []) == {"unused": (0, 0.0)}


def test_tracer_records_parents_hooks_and_generator_steps():
    tracer = Tracer()
    seen = []

    def leaf(x):
        return x + 1

    def gen(n):
        for i in range(n):
            yield leaf(i)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_gen = tracer.wrap("gen", gen, hook=lambda args, kwargs, item: seen.append(item))
    leaf = traced_leaf  # gen looks `leaf` up at call time, so it calls the traced one

    def outer():
        return sum(traced_gen(3))

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer() == 1 + 2 + 3
    assert seen == [1, 2, 3]

    names = [tracer.names[n] for n in tracer.span_name]
    parents = list(tracer.span_parent)
    # outer, then per item a `gen` step holding one `leaf` call, then the
    # final step that ends the generator.
    assert names == ["outer", "gen", "leaf", "gen", "leaf", "gen", "leaf", "gen"]
    assert parents == [-1, 0, 1, 0, 3, 0, 5, 0]
    assert all(end >= start for start, end in zip(tracer.span_start, tracer.span_end))
    summary = tracer.summarize()
    assert summary["gen"][0] == 4 and summary["leaf"][0] == 3 and summary["outer"][0] == 1


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert len(tracer.span_name) == 1 and tracer.span_end[0] >= tracer.span_start[0]
    assert tracer._stack == []
