"""Tests of the benchmark's own helpers: python3 -m pytest bench/tests"""

from collections import Counter

import pytest

from stats import MIN_BEYOND, Spans, percentile, supported, tail
from workloads import (
    DEFAULT_SEED,
    MIX_BLOCK,
    REQUEST_MIX,
    WORKLOADS,
    make_config,
    node_ids,
    request_stream,
)


def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == (50, 50)
    assert percentile(samples, 99) == (99, 1)
    assert percentile(reversed(samples), 90) == (90, 10)
    assert percentile([7.0], 99) == (7.0, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    assert supported(range(1000), 99)  # 10 beyond
    assert not supported(range(999), 99)  # 9 beyond
    assert tail(range(1000), 99) == (99.0, 989)
    assert tail(range(999), 99) == (95.0, 949)
    assert tail(range(100_000)) == (99.9, 99_899)
    assert tail(range(15)) == (50.0, 7)  # p50 has only 7 beyond: still the floor


def test_self_time_subtracts_the_part_children_cover():
    spans = Spans()
    root = spans.add("round", 0.0, 10.0)
    child = spans.add("a", 1.0, 4.0, root)
    spans.add("a.inner", 2.0, 3.0, child)
    spans.add("b", 3.5, 6.0, root)  # overlaps "a" by 0.5
    spans.add("c", 9.0, 12.0, root)  # runs past its parent's end
    spans.add("other", 0.0, 1.0)
    assert spans.self_times() == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 2.0, 1.0, 2.5, 3.0, 1.0])
    summary = spans.summary()
    assert summary["a"] == {"count": 1, "total_s": 3.0, "self_s": pytest.approx(2.0)}
    assert spans.durations("a.inner") == [1.0]


def test_span_context_manager_closes_on_error():
    spans = Spans()
    with pytest.raises(RuntimeError):
        with spans.span("outer") as sid:
            with spans.span("inner", sid):
                raise RuntimeError
    assert spans.parents == [-1, 0]
    assert all(end >= start for start, end in zip(spans.starts, spans.ends))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_are_a_function_of_the_seed(name):
    w = WORKLOADS[name]
    for serve in (False, True):
        assert make_config(w, 5, serve) == make_config(w, 5, serve)
        assert make_config(w, 5, serve) != make_config(w, 6, serve)
    assert make_config(w, DEFAULT_SEED, False) != make_config(w, DEFAULT_SEED, True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_parse(name):
    from wsnmon import parse_config

    w = WORKLOADS[name]
    for seed in (DEFAULT_SEED, 2, 3):
        sim = parse_config(make_config(w, seed, serve=False)).sim
        assert len(sim.topology.sensing_nodes()) == w.heads * (w.leaves + 1)
        assert sim.rounds == w.batch_rounds
        serve = parse_config(make_config(w, seed, serve=True)).sim
        assert (serve.rounds, serve.round_period_ms) == (w.serve_rounds, w.serve_period_ms)


def test_request_mix_is_seeded_and_follows_the_weights():
    clusters = node_ids(3, 4)
    heads = [h for h, _ in clusters]
    sensing = [n for h, leaves in clusters for n in (h, *leaves)]

    def first(seed, connection, n=4000):
        stream = request_stream(seed, connection, heads, sensing)
        return [next(stream) for _ in range(n)]

    assert first(1, 0) == first(1, 0)
    assert first(1, 0) != first(1, 1)
    assert first(1, 0) != first(2, 0)
    requests = first(1, 0)
    for block in range(0, 4000, MIX_BLOCK):  # every block holds the mix exactly
        counts = Counter(r.split()[0] for r in requests[block:block + MIX_BLOCK])
        assert counts == {verb: weight * MIX_BLOCK // 100 for verb, weight in REQUEST_MIX}
    for request in first(1, 0, 500):
        verb, *args = request.split()
        assert {"NODE": [a in sensing for a in args], "CLUSTER": [a in heads for a in args]}.get(
            verb, [not args]) == [True]
