"""Server observability integration: registry/stats agreement, stage
latency breakdown, trace-span ordering under faults, the HTTP edge."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import nn
from repro.obs.metrics import NULL_REGISTRY, Registry
from repro.serve import Server, inject_faults
from repro.serve.resilience import RetryPolicy


def _mlp(rng):
    model = nn.Sequential(
        nn.Linear(12, 16, rng=rng),
        nn.ReLU(),
        nn.Linear(16, 5, rng=rng),
    )
    model.eval()
    return model


def _server(rng, **kwargs):
    kwargs.setdefault("buckets", (1, 4))
    return Server(_mlp(rng), np.zeros((1, 12), np.float32), **kwargs)


def _value(server, name, **extra_labels):
    family = server.registry.get(name)
    assert family is not None, f"{name} not registered"
    labels = {"mode": server.mode, "server": server._server_id, **extra_labels}
    return family.labels(**labels).value


# --------------------------------------------------------------------------- #
# Registry is the source of truth; stats() is the same numbers
# --------------------------------------------------------------------------- #
def test_stats_and_registry_agree_after_traffic():
    rng = np.random.default_rng(0)
    with _server(rng, workers=2) as server:
        futures = [
            server.submit(rng.standard_normal((n, 12)).astype(np.float32))
            for n in (1, 3, 4, 7, 2)
        ]
        for f in futures:
            f.result(timeout=10)
        stats = server.stats()

        assert stats["requests_submitted"] == 5.0
        assert stats["requests_completed"] == 5.0
        assert stats["samples_completed"] == 17.0
        assert stats["requests_submitted"] == _value(
            server, "repro_serve_requests_submitted_total")
        assert stats["requests_completed"] == _value(
            server, "repro_serve_requests_completed_total")
        assert stats["samples_completed"] == _value(
            server, "repro_serve_samples_completed_total")
        assert stats["batches_dispatched"] == _value(
            server, "repro_serve_batches_dispatched_total")
        # Pool routing counters roll up into the labeled bucket series.
        for bucket, count in stats["bucket_calls"].items():
            assert count == _value(
                server, "repro_serve_bucket_calls_total", bucket=str(bucket))
        # Scrape-time gauges evaluate live.
        assert _value(server, "repro_serve_queue_depth") == 0.0
        assert _value(server, "repro_serve_workers_alive") == 2.0
        assert _value(server, "repro_serve_batch_occupancy") == pytest.approx(
            stats["batch_occupancy"])
        # The latency histogram observed exactly the completed requests.
        fam = server.registry.get("repro_serve_request_latency_ms")
        assert fam.labels(mode="thread", server=server._server_id).count == 5


def test_stage_breakdown_queue_wait_plus_service():
    rng = np.random.default_rng(1)
    with _server(rng, workers=1) as server:
        for _ in range(8):
            server.submit(rng.standard_normal((2, 12)).astype(np.float32)).result(
                timeout=10)
        stats = server.stats()
        for key in ("latency_ms", "queue_wait_ms", "service_ms"):
            for pct in (50, 95, 99):
                assert f"{key}_p{pct}" in stats
        # All three stage quantities are per-request over the same window:
        # latency (submit->result) decomposes into queue wait
        # (submit->collect) plus service (collect->result).
        assert stats["latency_ms_p50"] > 0.0
        assert stats["service_ms_p50"] > 0.0
        assert stats["latency_ms_p50"] == pytest.approx(
            stats["queue_wait_ms_p50"] + stats["service_ms_p50"], rel=0.5,
            abs=2.0)
        # The histograms observed the same per-request quantities.
        for name, count in (
            ("repro_serve_request_latency_ms", 8),
            ("repro_serve_queue_wait_ms", 8),
            ("repro_serve_service_ms", 8),
        ):
            child = server.registry.get(name).labels(
                mode="thread", server=server._server_id)
            assert child.count == count


def test_null_registry_disables_counters_but_keeps_percentiles():
    rng = np.random.default_rng(2)
    with _server(rng, registry=NULL_REGISTRY, trace=False) as server:
        assert server.tracer is None
        server.submit(rng.standard_normal((3, 12)).astype(np.float32)).result(
            timeout=10)
        stats = server.stats()
        assert stats["requests_completed"] == 0.0  # writes were swallowed
        assert stats["latency_ms_p50"] > 0.0  # internal windows stay live
        assert server.registry.render() == ""


def test_two_servers_share_a_registry_via_the_server_label():
    rng = np.random.default_rng(3)
    registry = Registry()
    with _server(rng, registry=registry) as a, _server(rng, registry=registry) as b:
        a.submit(np.zeros((1, 12), np.float32)).result(timeout=10)
        b.submit(np.zeros((2, 12), np.float32)).result(timeout=10)
        assert a._server_id != b._server_id
        text = registry.render()
        assert (
            'repro_serve_samples_completed_total{mode="thread",server="%s"} 1'
            % a._server_id
        ) in text
        assert (
            'repro_serve_samples_completed_total{mode="thread",server="%s"} 2'
            % b._server_id
        ) in text


# --------------------------------------------------------------------------- #
# Trace spans: the request lifecycle, including retries and bisection
# --------------------------------------------------------------------------- #
def _spans_by_name(tracer, trace_id):
    spans = tracer.spans(trace_id)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    return spans, by_name


def test_clean_request_records_ordered_stage_spans():
    rng = np.random.default_rng(4)
    with _server(rng, workers=1) as server:
        future = server.submit(rng.standard_normal((2, 12)).astype(np.float32))
        future.result(timeout=10)
        trace_id = len(server.tracer.spans()) and server.tracer.spans()[0].trace_id
        spans, by_name = _spans_by_name(server.tracer, trace_id)
        for stage in ("queue_wait", "coalesce", "serve", "scatter", "resolve"):
            assert stage in by_name, f"missing {stage} span"
        # Stage intervals chain: each starts where the previous ended.
        qw, co = by_name["queue_wait"][0], by_name["coalesce"][0]
        sv, sc = by_name["serve"][0], by_name["scatter"][0]
        rs = by_name["resolve"][0]
        assert qw.start <= qw.end == co.start <= co.end <= sv.start
        assert sv.end <= sc.start <= sc.end == rs.start <= rs.end
        assert sv.args["attempt"] == 0 and "error" not in sv.args


def test_retried_request_records_a_serve_span_per_attempt():
    rng = np.random.default_rng(5)
    with _server(rng, workers=1,
                 retry=RetryPolicy(max_retries=2, backoff_base=0.0)) as server:
        with inject_faults(server, raise_on={1}, seed=0):
            future = server.submit(
                rng.standard_normal((2, 12)).astype(np.float32))
            future.result(timeout=10)
        trace_id = server.tracer.spans()[0].trace_id
        _, by_name = _spans_by_name(server.tracer, trace_id)
        serves = by_name["serve"]
        assert len(serves) == 2
        assert serves[0].args["attempt"] == 0
        assert serves[0].args["error"] == "TransientError"
        assert serves[1].args["attempt"] == 1 and "error" not in serves[1].args
        assert serves[0].end <= serves[1].start
        assert server.stats()["batches_retried"] == 1.0


def test_bisected_poisoned_request_spans_and_isolation(hold_workers):
    rng = np.random.default_rng(6)
    clean_a = rng.standard_normal((1, 12)).astype(np.float32)
    poisoned = np.full((1, 12), np.nan, dtype=np.float32)
    clean_b = rng.standard_normal((1, 12)).astype(np.float32)
    with _server(rng, workers=1, max_batch_size=4) as server:
        with inject_faults(
            server, poison=lambda arrays: np.isnan(arrays[0]).any(), seed=0,
        ) as chaos:
            # One coalesced group of three requests, the middle one
            # poisoned, queued behind a parked clean request.
            with hold_workers(server, clean_a) as parked:
                futures = [server.submit(clean_a), server.submit(poisoned),
                           server.submit(clean_b)]
            parked[0].result(timeout=10)
            results = []
            for f in futures:
                try:
                    results.append(f.result(timeout=10))
                except Exception as exc:
                    results.append(exc)
        assert chaos.poisoned >= 2  # whole group + at least one half
        # Isolation: only the poisoned request failed.
        assert isinstance(results[0], np.ndarray)
        assert type(results[1]).__name__ == "PoisonedRequest"
        assert isinstance(results[2], np.ndarray)

        all_spans = server.tracer.spans()
        poisoned_id = sorted({s.trace_id for s in all_spans})[2]  # 3rd submit
        spans, by_name = _spans_by_name(server.tracer, poisoned_id)
        # The poisoned request was served more than once (group, then its
        # bisection half/single), every attempt failing.
        serves = by_name["serve"]
        assert len(serves) >= 2
        assert all(s.args["error"] == "PoisonedRequest" for s in serves)
        # The group shrank toward the singleton across bisection levels.
        group_sizes = [s.args["group_requests"] for s in serves]
        assert group_sizes[0] == 3 and group_sizes[-1] == 1
        assert sorted(group_sizes, reverse=True) == group_sizes
        # Ordering: queue_wait -> coalesce -> first serve, serves in order.
        qw, co = by_name["queue_wait"][0], by_name["coalesce"][0]
        assert qw.end == co.start <= co.end <= serves[0].start
        for earlier, later in zip(serves, serves[1:]):
            assert earlier.end <= later.start
        # A failed request has no scatter/resolve stage.
        assert "scatter" not in by_name and "resolve" not in by_name
        # The clean co-batched requests did resolve, with their own spans.
        for clean_id in (poisoned_id - 1, poisoned_id + 1):
            _, clean_names = _spans_by_name(server.tracer, clean_id)
            assert "scatter" in clean_names and "resolve" in clean_names
        assert server.stats()["requests_failed"] == 1.0
        assert server.stats()["batches_retried"] >= 2.0  # bisection halves


def test_trace_ring_is_bounded_per_server():
    rng = np.random.default_rng(7)
    with _server(rng, trace_capacity=8) as server:
        for _ in range(10):
            server.submit(np.zeros((1, 12), np.float32)).result(timeout=10)
        assert len(server.tracer.spans()) <= 8


# --------------------------------------------------------------------------- #
# The HTTP edge on a live server
# --------------------------------------------------------------------------- #
def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read().decode()


def test_serve_http_exposes_metrics_probes_and_traces():
    rng = np.random.default_rng(8)
    with _server(rng, workers=1) as server:
        edge = server.serve_http()
        assert server.serve_http() is edge  # idempotent
        server.submit(rng.standard_normal((3, 12)).astype(np.float32)).result(
            timeout=10)

        status, body = _get(edge.url + "/metrics")
        assert status == 200
        sid = server._server_id
        assert (
            f'repro_serve_requests_completed_total'
            f'{{mode="thread",server="{sid}"}} 1' in body
        )
        assert f'repro_serve_queue_depth{{mode="thread",server="{sid}"}} 0' in body
        assert (
            f'repro_serve_request_latency_ms_bucket'
            f'{{mode="thread",server="{sid}",le="+Inf"}} 1' in body
        )
        for series in (
            "repro_serve_requests_rejected_total",
            "repro_serve_requests_expired_total",
            "repro_serve_batches_retried_total",
            "repro_serve_worker_restarts_total",
            "repro_serve_queue_wait_ms_bucket",
            "repro_serve_service_ms_bucket",
        ):
            assert series in body

        status, body = _get(edge.url + "/health")
        health = json.loads(body)
        assert health["ready"] is True and health["workers_alive"] == 1

        status, body = _get(edge.url + "/ready")
        assert status == 200

        status, body = _get(edge.url + "/traces.json")
        names = {e["name"] for e in json.loads(body)["traceEvents"]}
        assert {"queue_wait", "coalesce", "serve"} <= names

        url = edge.url
    # stop() (via the context manager) took the edge down with the server.
    with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
        _get(url + "/metrics")
    assert server._http is None
