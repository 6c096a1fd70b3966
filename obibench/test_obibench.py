"""Tests of the benchmark itself: ``python -m pytest obibench -q``.

Not collected by the repository's tier-1 run (``testpaths = tests``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from obibench import compare, stats, suite
from obibench.spans import BENCH, Span, Tracer, attribute, self_times
from obibench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([10, 20], 50) == 15
    assert stats.percentile([7], 99) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(("pct", "size"), [(75.0, 40), (90.0, 100), (95.0, 200), (99.0, 1000)])
def test_a_tail_window_has_ten_samples_beyond(pct, size):
    assert stats.window_size(pct) == size
    assert size * (100 - pct) / 100 == pytest.approx(stats.MIN_BEYOND)


def test_windowed_tail_is_the_median_of_window_tails():
    quiet = list(range(100))  # p90 of 0..99 = 89.1
    burst = [v + 1000 for v in quiet]
    value, windows = stats.windowed_tail(quiet + burst + quiet, 90.0)
    assert (value, windows) == (pytest.approx(89.1), 3)
    assert stats.percentile(quiet + burst + quiet, 90.0) > 1000  # what the burst does unwindowed
    # a trailing partial window is dropped; less than one window is flagged
    assert stats.windowed_tail(quiet + quiet[:50], 90.0) == (pytest.approx(89.1), 1)
    assert stats.windowed_tail(quiet[:99], 90.0) == (stats.percentile(quiet[:99], 90.0), 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_tails_are_supported_at_the_sized_run(name):
    """At the seed commit a run yields at least this many samples; every
    pinned tail percentile must then have a full window."""
    floor = {  # samples per run_seconds at half the measured speed
        "mobile_session": {"unit": 40, "read": 40, "write": 40},
        "fault_walk": {"unit": 40, "read": 20000, "write": 40},
        "bulk_sync": {"unit": 40, "read": 40, "write": 40},
        "sync_mix": {"unit": 800, "read": 4000, "write": 3200},
    }[name]
    for kind, pct in WORKLOADS[name].tail_pct.items():
        assert stats.window_size(pct) <= floor[kind], (name, kind)


def test_quartile_spread_is_the_drivers_arithmetic():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert stats.quartile_spread(values) == pytest.approx(0.0225)
    assert stats.quartile_spread([5.0, 5.0, 5.0]) == 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _span(trace, span, parent, layer, start, end, name="x"):
    return Span(trace, span, parent, layer, name, 0, start, end, 0, True)


def test_self_time_subtracts_children_on_any_thread():
    spans = [
        _span(1, 1, 0, BENCH, 0, 100),
        _span(1, 2, 1, "rmi", 10, 90),
        _span(1, 3, 2, "simnet", 20, 80),  # client transport span
        _span(1, 4, 3, "simnet", 30, 70),  # handler, another thread, linked
        _span(1, 5, 4, "serial", 40, 50),
    ]
    own = self_times(spans)
    assert own == {1: 20, 2: 20, 3: 20, 4: 30, 5: 10}
    assert sum(own.values()) == 100  # a fully linked tree accounts for its root


def test_attribution_coverage_and_unattributed_bucket():
    spans = [
        _span(1, 1, 0, BENCH, 0, 100),
        _span(1, 2, 1, "core", 0, 90),
        _span(7, 7, 0, "simnet", 0, 40),  # a handler nobody could link
        _span(7, 8, 7, "serial", 0, 10),
    ]
    where = attribute(spans)
    assert where.unit_ns == 100
    assert where.layer_self_ns == {BENCH: 10, "core": 90}
    assert where.coverage == pytest.approx(0.9)
    assert where.unattributed_ns == 40


class _FakeNetwork:
    """``call`` serves the request on another thread, like the TCP transport."""

    def __init__(self, callers: int = 1):
        self.handlers = {}
        self.all_in_flight = threading.Barrier(callers, timeout=5)

    def call(self, src, dst, payload):
        self.all_in_flight.wait()
        box = []
        message = type("Message", (), {"src": src, "dst": dst, "payload": payload})()
        worker = threading.Thread(target=lambda: box.append(self.handlers[dst](message)))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        return box[0]


def test_handler_links_to_the_client_span_across_threads():
    tracer = Tracer()
    network = _FakeNetwork()
    network.handlers["P"] = tracer.wrap_handler("P", lambda message: message.payload * 2)
    call = tracer.wrap_transport("Network.call", _FakeNetwork.call)
    with tracer.span(BENCH, "unit"):
        assert call(network, "C", "P", b"ab") == b"abab"
    by_name = {s.name: s for s in tracer.spans}
    unit, client, handler = by_name["unit"], by_name["Network.call"], by_name["handler"]
    assert client.parent_id == unit.span_id
    assert handler.parent_id == client.span_id
    assert handler.trace_id == client.trace_id == unit.trace_id
    assert handler.thread != client.thread
    assert client.nbytes == 2 + 4
    assert attribute(tracer.spans).unattributed_ns == 0


def test_two_calls_in_flight_on_one_pair_are_not_guessed():
    tracer = Tracer()
    network = _FakeNetwork(callers=2)  # both are in flight before either is served ...
    both_serving = threading.Barrier(2, timeout=5)  # ... and until both were looked up

    def handler(message):
        both_serving.wait()
        return b"ok"

    network.handlers["P"] = tracer.wrap_handler("P", handler)
    call = tracer.wrap_transport("Network.call", _FakeNetwork.call)
    clients = [
        threading.Thread(target=call, args=(network, "C", "P", b"x")) for _ in range(2)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=5)
        assert not client.is_alive()
    handlers = [s for s in tracer.spans if s.name == "handler"]
    assert len(handlers) == 2
    assert all(s.parent_id == 0 for s in handlers)  # kept as roots
    assert attribute(tracer.spans).unattributed_ns >= sum(s.duration_ns for s in handlers)


def test_submit_hands_the_link_to_the_call_inside_it():
    tracer = Tracer()
    network = _FakeNetwork()
    network.handlers["P"] = tracer.wrap_handler("P", lambda message: b"ok")
    call = tracer.wrap_transport("Network.call", _FakeNetwork.call)
    submit = tracer.wrap_transport("Network.submit", lambda net, src, dst, payload: call(net, src, dst, payload))
    submit(network, "C", "P", b"x")
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["handler"].parent_id == by_name["Network.call"].span_id
    assert by_name["Network.call"].parent_id == by_name["Network.submit"].span_id


def test_wrap_records_failures_and_sizes():
    tracer = Tracer()
    double = tracer.wrap("serial", "double", lambda data: data * 2, size=lambda a, k, r: len(r))
    boom = tracer.wrap("rmi", "boom", lambda: 1 / 0, label=lambda a, k: "zero")
    assert double(b"abc") == b"abcabc"
    with pytest.raises(ZeroDivisionError):
        boom()
    first, second = tracer.spans
    assert (first.name, first.nbytes, first.ok) == ("double", 6, True)
    assert (second.name, second.ok) == ("boom:zero", False)


def test_lock_wrapper_spans_only_the_contended_acquires():
    class Lock:
        waits = 0

        def acquire(self):
            if self.contended:
                self.waits += 1
                time.sleep(0.001)

    tracer = Tracer()
    acquire = tracer.wrap_if_waited("core", "Lock.acquire", Lock.acquire, lambda lock: lock.waits)
    lock = Lock()
    lock.contended = False
    acquire(lock)
    assert tracer.spans == []
    lock.contended = True
    acquire(lock)
    assert [s.name for s in tracer.spans] == ["Lock.acquire"]
    assert tracer.spans[0].duration_ns >= 1_000_000


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = WORKLOADS[name]
    plans = [[cls(seed).plan(client, index) for client in range(cls.clients) for index in range(5)]
             for seed in (11, 11, 12)]
    assert plans[0] == plans[1]
    assert plans[0] != plans[2]
    assert len({json.dumps(plan, default=repr) for plan in plans[0]}) == len(plans[0])


def test_sync_mix_block_keeps_the_mix_and_the_key_ranges():
    workload = WORKLOADS["sync_mix"](3)
    for client in range(workload.clients):
        for index in range(20):
            plan = workload.plan(client, index)
            assert sorted(op[0] for op in plan) == sorted(workload.BLOCK)
            half = workload.records // workload.clients
            for kind, key, _field, value in plan:
                assert 0 <= key < workload.records
                if kind != "refresh":
                    assert client * half <= key < (client + 1) * half
                assert value.bit_length() == 31  # fixed encoded width


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_keeps_the_contract():
    spec = suite.definition()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["obibench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 12) <= 3420  # 12 s: set-ups, start-up, gates


# ----------------------------------------------------------------------
# result files and compare
# ----------------------------------------------------------------------
def _result(values_by_metric: dict[str, list[float]]) -> dict:
    repeats = len(next(iter(values_by_metric.values())))
    runs = [
        {
            "seed": r, "correct": True, "attempted": 10, "failed": 0, "failures": [],
            "units": 10, "ops": 10, "wall_s": 1.0,
            "metrics": {m: {"value": v[r], "unit": "ms", "n": 10} for m, v in values_by_metric.items()},
        }
        for r in range(repeats)
    ]
    return {
        "schema": suite.SCHEMA, "commit": "0" * 40, "seed": 0, "repeats": repeats, "seconds": 1.0,
        "trace": False, "smoke": True, "env": {"nproc": 2, "python": "3", "machine": "x"},
        "workloads": {"fault_walk": {"clients": 1, "op": "fault", "runs": runs}},
    }


def test_result_file_round_trip(tmp_path):
    result = _result({"unit_p50_ms": [1.0, 1.1, 0.9]})
    path = tmp_path / "a.json"
    path.write_text(json.dumps(result))
    loaded = suite.load(str(path))
    assert loaded == result
    assert suite.values(loaded, "fault_walk", "unit_p50_ms") == [1.0, 1.1, 0.9]
    assert suite.ops_failed(loaded) == 0
    path.write_text(json.dumps({**result, "schema": "other/9"}))
    with pytest.raises(ValueError):
        suite.load(str(path))


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "higher", 0.10)[0] == "ok"
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)[0] == "unresolved"
    # ... unless every run of B reads better than every run of A
    assert compare.verdict(noisy, [v / 3 for v in noisy], "lower", 0.10)[0] == "ok"
    # a single repeat has no spread: the medians decide
    assert compare.verdict([10.0], [12.0], "lower", 0.10) == ("regressed", None)


def test_compare_exit_code(tmp_path, capsys):
    before = tmp_path / "a.json"
    after = tmp_path / "b.json"
    before.write_text(json.dumps(_result({"unit_p50_ms": [10.0, 10.1, 9.9]})))
    after.write_text(json.dumps(_result({"unit_p50_ms": [13.0, 13.1, 12.9]})))
    assert compare.main([str(before), str(before)]) == 0
    assert compare.main([str(before), str(after)]) == 1
    assert "regressed" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the whole thing, small
# ----------------------------------------------------------------------
def _obibench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "obibench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_smoke_run_of_both_commands(tmp_path):
    spec = suite.definition()
    started = time.monotonic()
    files = {}
    for kind, flags in (("e2e", []), ("trace", ["--trace"])):
        files[kind] = tmp_path / f"{kind}.json"
        done = _obibench("run", "--smoke", "--seed", "5", *flags, "--out", str(files[kind]))
        assert done.returncode == 0, done.stderr + done.stdout
    assert time.monotonic() - started < 15

    for kind, listed in (("e2e", spec["end_to_end"]), ("trace", spec["per_layer"])):
        result = suite.load(str(files[kind]))
        assert list(result["workloads"]) == list(WORKLOADS)
        assert result["env"]["nproc"] >= 1 and result["seed"] == 5
        for name, entry in result["workloads"].items():
            assert entry["clients"] <= max(2, result["env"]["nproc"])
            (run,) = entry["runs"]
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, (name, run)
            assert {m: v["unit"] for m, v in run["metrics"].items()} == {
                m["name"]: m["unit"] for m in listed
            }
            if kind == "e2e":
                assert all(v["value"] > 0 for v in run["metrics"].values()), (name, run)

    traced = suite.load(str(files["trace"]))["workloads"]
    for name in ("fault_walk", "bulk_sync"):
        metrics = traced[name]["runs"][0]["metrics"]
        assert all(v["value"] == 0 for m, v in metrics.items() if m.startswith(("feed.", "mobility.")))
        assert metrics["core.stripe_wait_us_p99"]["value"] == 0
    assert traced["mobile_session"]["runs"][0]["metrics"]["mobility.version_probes"]["value"] > 0
    assert traced["sync_mix"]["runs"][0]["metrics"]["feed.acked_writes_lost"]["value"] == 0

    same = _obibench("compare", str(files["e2e"]), str(files["e2e"]))
    assert same.returncode == 0 and "0 regressed" in same.stdout


def test_driver_command_prints_one_result_line():
    spec = suite.definition()
    done = subprocess.run(
        [*spec["command"], "--workload", "fault_walk", "--seed", "9", "--seconds", "0.3",
         "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "obibench").mkdir(parents=True)
    for source in (ROOT / "obibench").glob("*.py"):
        (bare / "obibench" / source.name).write_text(source.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "-m", "obibench", "--workload", "fault_walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
