"""Unit tests for :mod:`repro.obs` — events, metrics, traces, CLI."""

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs import (EVENT_TYPES, DEFAULT_BOUNDS, EventLog, Histogram,
                       MetricsRegistry, ProgressMeter, Telemetry,
                       chrome_trace, counter_delta, load_metrics,
                       read_events, summarize, validate_event)
from repro.obs.telemetry import SILENT, current
from repro.runner import run_tasks_stored


def _square(_context, task):
    return task * task


def _nested_dispatch(_context, task):
    """Dispatch two tasks of its own; say whether the unit ran with no
    campaign current."""
    inner = run_tasks_stored(_square, [task, task + 1]).results
    return current() is SILENT, inner


class TestHistogram:
    def test_observe_and_stats(self):
        h = Histogram()
        for value in (0.5, 1.5, 2.0):
            h.observe(value)
        assert h.count == 3
        assert h.minimum == 0.5
        assert h.maximum == 2.0
        assert h.mean == pytest.approx((0.5 + 1.5 + 2.0) / 3)

    def test_merge_is_order_independent(self):
        parts = []
        for values in ((0.1, 10.0), (2.5,), (0.0001, 7.0, 300.0)):
            h = Histogram()
            for value in values:
                h.observe(value)
            parts.append(h.as_dict())
        forward, backward = Histogram(), Histogram()
        for part in parts:
            forward.merge(part)
        for part in reversed(parts):
            backward.merge(part)
        assert forward.as_dict() == backward.as_dict()
        assert forward.count == 6

    def test_merge_rejects_mismatched_bounds(self):
        h = Histogram(bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            h.merge(Histogram().as_dict())


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        r = MetricsRegistry()
        r.count("a")
        r.count("a", 4)
        r.gauge("g", 2.0)
        r.gauge("g", 1.0)  # gauges keep the high-water mark
        r.observe("h", 0.5)
        snap = r.snapshot()
        assert snap["counters"] == {"a": 5}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_is_order_independent(self):
        snaps = []
        for base in (1, 10, 100):
            r = MetricsRegistry()
            r.count("x", base)
            r.gauge("peak", float(base))
            r.observe("t", base / 10.0)
            snaps.append(r.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snaps:
            forward.merge(snap)
        for snap in reversed(snaps):
            backward.merge(snap)
        assert forward.snapshot() == backward.snapshot()
        assert forward.counters["x"] == 111
        assert forward.gauges["peak"] == 100.0

    def test_counter_delta(self):
        previous = {"a": 2, "b": 5}
        current = {"a": 7, "b": 5, "c": 1}
        assert counter_delta(current, previous) == {"a": 5, "c": 1}

    def test_render_json_is_deterministic(self):
        r = MetricsRegistry()
        r.count("z")
        r.count("a")
        text = r.render_json()
        assert json.loads(text)["counters"] == {"a": 1, "z": 1}
        assert text.index('"a"') < text.index('"z"')


class TestEvents:
    def test_validate_accepts_good_event(self):
        validate_event({"ts": 0.5, "event": "note", "text": "hi"})

    @pytest.mark.parametrize("record", [
        "not a dict",
        {"event": "note"},                        # missing ts
        {"ts": -1.0, "event": "note"},            # negative ts
        {"ts": True, "event": "note"},            # bool is not a time
        {"ts": 0.0, "event": "no-such-type"},     # unknown type
        {"ts": 0.0, "event": "note", "x": [1]},   # non-scalar field
    ])
    def test_validate_rejects_bad_events(self, record):
        with pytest.raises(ValueError):
            validate_event(record)

    def test_event_log_writes_valid_monotonic_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("campaign-start", campaign="t")
        log.emit("note", text="mid")
        log.emit("campaign-end", seconds=0.0)
        log.close()
        records = list(read_events(path))
        assert [r["event"] for r in records] == [
            "campaign-start", "note", "campaign-end"]
        stamps = [validate_event(r)["ts"] for r in records]
        assert stamps == sorted(stamps)

    def test_event_log_rejects_reserved_fields(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl")
        with pytest.raises(ValueError):
            log.emit("note", ts=1.0)
        log.close()

    def test_event_types_cover_the_schema(self):
        assert "task-completed" in EVENT_TYPES
        assert "store-hit" in EVENT_TYPES
        assert "shard-decision" in EVENT_TYPES


class TestTrace:
    def test_chrome_trace_structure(self):
        spans = [(0, 111, 1.0, 2.0), (1, 222, 1.5, 3.0)]
        phases = [("execute", 0.9, 3.1)]
        doc = chrome_trace(spans, phases, origin=0.0)
        events = doc["traceEvents"]
        names = {e.get("name") for e in events if e.get("ph") == "X"}
        assert "task 0" in names and "task 1" in names
        assert "execute" in names
        lanes = {e["args"]["name"] for e in events
                 if e.get("name") == "thread_name"}
        assert {"campaign phases", "worker 111", "worker 222"} <= lanes
        # complete events carry microsecond timestamps and durations
        task = next(e for e in events if e.get("name") == "task 0")
        assert task["dur"] == pytest.approx(1_000_000.0)


class TestProgress:
    def test_meter_renders_counts_and_finishes(self):
        stream = io.StringIO()
        meter = ProgressMeter(label="demo", stream=stream, min_interval=0.0)
        meter.plan(10, cached=2, skipped=3)
        for _ in range(5):
            meter.tick()
        meter.finish()
        text = stream.getvalue()
        assert "demo" in text
        assert "7/10" in text          # 2 cached + 5 executed
        assert "2 cached" in text
        assert text.endswith("\n")


class TestTelemetry:
    def test_full_lifecycle_writes_all_artifacts(self, tmp_path):
        telemetry = Telemetry(directory=tmp_path / "tel")
        telemetry.begin("demo", {"seed": 7, "event": "clash"})
        with telemetry.phase("execute"):
            telemetry.plan(2)
            for index in (0, 1):
                telemetry.task_scheduled(index)
                telemetry.task_completed(
                    (4321, 0.0, 0.25, {"sim.runs.fast": 1}),
                    index)
        telemetry.finish()
        telemetry.finish()  # idempotent

        records = list(read_events(tmp_path / "tel" / "events.jsonl"))
        for record in records:
            validate_event(record)
        start = records[0]
        assert start["event"] == "campaign-start"
        assert start["x_event"] == "clash"  # reserved keys are prefixed
        kinds = [r["event"] for r in records]
        assert kinds.count("task-completed") == 2
        assert "worker-start" in kinds and "worker-exit" in kinds
        assert (records[-1]["event"], records[-1]["status"]) == \
            ("campaign-end", "completed")

        metrics = load_metrics(tmp_path / "tel")
        assert metrics["counters"]["tasks.completed"] == 2
        assert metrics["counters"]["sim.runs.fast"] == 2

        trace = json.loads((tmp_path / "tel" / "trace.json").read_text())
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])

        text, problems = summarize(tmp_path / "tel")
        assert problems == 0
        assert "demo" in text
        assert "status      completed" in text

    def test_fault_heartbeat_counts_specimens_and_labels_groups(self):
        # 6 models x 11 specimens: two lockstep groups (64 + 2); progress
        # advances by specimens, completions are labelled by each group's
        # first campaign-global specimen index
        from repro.crypto.keys import DeviceKeys
        from repro.faults import run_campaign
        from repro.workloads import make_workload
        workload = make_workload("crc32", "tiny")
        stream = io.StringIO()
        telemetry = Telemetry(progress=True, stream=stream)
        with obs.campaign(telemetry, "fault", {}):
            results, _summary = run_campaign(
                workload.compile().program, DeviceKeys.from_seed(0xFA),
                workload.expected_output, per_model=11, seed=9)
        assert len(results) == 66
        last = stream.getvalue().rstrip("\n").split("\r")[-1]
        assert last.startswith("# fault: 66/66 tasks ")
        assert last.replace("\x1b[K", "").endswith(" done")
        assert [span[0] for span in telemetry.spans] == [0, 64]
        assert telemetry.events.counts["task-scheduled"] == 2
        assert telemetry.metrics.counters["tasks.completed"] == 2

    def test_campaign_and_phase_noop_on_none(self):
        with obs.campaign(None, "x", {"a": 1}) as handle:
            assert handle is None
            with obs.phase("execute"):
                pass

    def test_an_open_campaign_is_current(self):
        outer, inner = Telemetry(), Telemetry()
        assert current() is SILENT
        with obs.campaign(outer, "outer"):
            assert current() is outer
            with obs.campaign(inner, "inner"):
                with obs.phase("execute"):
                    assert current() is inner
            assert current() is outer
        assert current() is SILENT
        assert [name for name, _start, _end in inner.phases] == ["execute"]
        assert outer.phases == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_dispatched_unit_runs_unobserved(self, jobs):
        # a dispatch nested in a task, as a design point runs campaigns
        # of its own, sees no campaign and reports nothing into it
        telemetry = Telemetry()
        with obs.campaign(telemetry, "outer"):
            results = run_tasks_stored(_nested_dispatch, [1, 2, 3],
                                       jobs=jobs).results
        assert results == [(True, [1, 4]), (True, [4, 9]), (True, [9, 16])]
        assert telemetry.events.counts["tasks-planned"] == 1
        assert telemetry.metrics.counters["tasks.completed"] == 3


class TestFastEngineTelemetry:
    """The fast engine honors the observability invariants: telemetry
    never changes an exported byte, per-engine throughput derives from
    the counters, and hot-tier compiles are visible."""

    def test_export_identical_telemetry_on_off(self, tmp_path):
        from repro.attacksynth import run_attacksynth
        exports, counters = {}, None
        for label in ("off", "on"):
            export = tmp_path / f"{label}.json"
            telemetry = Telemetry() if label == "on" else None
            with obs.campaign(telemetry, "attacksynth", {"label": label}):
                run_attacksynth(1, seed=0x0B5, per_program=2,
                                key_seed=0x50F1A,
                                export_path=str(export))
            exports[label] = export.read_bytes()
            if telemetry is not None:
                counters = dict(telemetry.metrics.counters)
        assert exports["on"] == exports["off"], \
            "attacksynth export differs with telemetry attached"
        assert counters["sim.runs.fast"] > 0
        assert counters["sim.vanilla.runs.fast"] > 0
        assert counters["sim.vanilla.instructions.fast"] > 0
        # every machine here is built with the fast engine, and the clean
        # SOFIA run reads its traversed blocks off the verified blocks
        # instead of a commit hook, so no run falls back to the oracle
        assert counters["sim.instructions.fast"] > 0
        assert "sim.runs.reference" not in counters

    def test_compile_counter_fires_on_hot_blocks(self):
        from repro.crypto.keys import DeviceKeys
        from repro.sim import SofiaMachine
        from repro.transform import transform
        from repro.workloads import make_workload
        workload = make_workload("crc32", "tiny")
        keys = DeviceKeys.from_seed(1)
        image = transform(workload.compile().program, keys, nonce=0x2016)
        telemetry = Telemetry()
        with obs.campaign(telemetry, "demo", {}):
            machine = SofiaMachine(image, keys)
            result = machine.run(2_000_000)
        assert result.ok
        counters = telemetry.metrics.counters
        # crc32's inner loop crosses the hotness threshold, so at least
        # one block must have been source-compiled
        assert counters["sim.fused_compile"] > 0
        baseline = SofiaMachine(image, keys, engine="reference")
        assert baseline.run(2_000_000).instructions == result.instructions

    def test_stats_derives_per_engine_throughput(self, tmp_path):
        telemetry = Telemetry(directory=tmp_path / "tel")
        telemetry.begin("demo", {})
        telemetry.task_completed(
            (100, 0.0, 0.5, {"sim.instructions.fast": 5000,
                             "sim.vanilla.instructions.fast": 3000}), 0)
        telemetry.finish()
        text, problems = summarize(tmp_path / "tel")
        assert problems == 0
        assert "instructions/s (fast sofia, campaign wall)" in text
        assert "instructions/s (fast vanilla, campaign wall)" in text

    def test_stats_reports_fault_convergence(self, tmp_path):
        telemetry = Telemetry(directory=tmp_path / "tel")
        telemetry.begin("demo", {})
        telemetry.task_completed(
            (100, 0.0, 0.5, {"faults.converged": 27,
                             "faults.instructions_skipped": 1_900_000}), 0)
        telemetry.finish()
        text, problems = summarize(tmp_path / "tel")
        assert problems == 0
        assert ("converged   27 fault specimen(s) rejoined the golden run; "
                "1,900,000 golden instructions not simulated") in text


class TestNoteQuiet:
    def test_note_writes_unless_quiet(self, capsys):
        obs.set_quiet(False)
        obs.note("# hello")
        assert capsys.readouterr().err == "# hello\n"
        obs.set_quiet(True)
        try:
            obs.note("# silenced")
            assert capsys.readouterr().err == ""
        finally:
            obs.set_quiet(False)


class TestCli:
    def test_version_prints_package_and_code_digest(self, capsys):
        from repro import __version__
        from repro.runner.store import code_version
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert f"repro {__version__}" in out
        assert f"code {code_version()}" in out

    def test_stats_on_missing_directory_is_usage_error(self, tmp_path):
        assert main(["stats", str(tmp_path / "nope")]) == 2

    def test_stats_on_telemetry_directory(self, tmp_path, capsys):
        telemetry = Telemetry(directory=tmp_path / "tel")
        telemetry.begin("demo", {})
        telemetry.task_completed((1, 0.0, 0.1, {}), 0)
        telemetry.finish()
        assert main(["stats", str(tmp_path / "tel")]) == 0
        assert "demo" in capsys.readouterr().out

    def test_quiet_flag_suppresses_notes(self, tmp_path, capsys):
        source = tmp_path / "p.c"
        source.write_text("int main() { print_int(33); return 0; }\n")
        assert main(["run", str(source)]) == 0
        loud = capsys.readouterr()
        assert loud.out == "33\n"
        assert loud.err.startswith("# ")
        assert main(["--quiet", "run", str(source)]) == 0
        quiet = capsys.readouterr()
        assert quiet.out == "33\n"
        assert quiet.err == ""
