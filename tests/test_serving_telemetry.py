"""Live serving telemetry: request tracing, /metrics endpoint, SLO alerts.

Three contracts under test:

* **read-only telemetry** — serve reports are byte-identical with the
  metrics endpoint on or off, and with alerting on or off (modulo the
  strictly-additive ``alerts`` sections);
* **determinism** — request-lifecycle trace events and alert
  firing/resolve sequences are identical across same-seed runs;
* **validity** — every scrape of a live endpoint parses as OpenMetrics,
  and counters only move forward within an arm.
"""

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.alerts import AlertEngine, AlertRule, default_serving_rules
from repro.obs.ledger import RunLedger, canonical_json
from repro.obs.live import MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import validate_openmetrics
from repro.serving.report import run_serve, run_sweep

OVERLOAD = dict(
    quick=True, rate_rps=8000.0, requests=24, schemes=("optimus",)
)


def _scrape(url, timeout=2.0):
    with urllib.request.urlopen(url, timeout=timeout) as r:
        return r.status, r.read().decode()


# ----------------------------------------------------------------------
# alert rules + engine
# ----------------------------------------------------------------------
class TestAlertRules:
    def test_rule_roundtrip(self):
        r = AlertRule(
            "q",
            "serving/queue_depth",
            ">=",
            8.0,
            for_s=1e-3,
            severity="critical",
            labels=(("scheme", "optimus"),),
        )
        d = r.to_dict()
        assert d["expr"].startswith("serving/queue_depth")
        assert AlertRule.from_dict(d) == r

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            AlertRule("x", "m", "!=", 1.0)
        with pytest.raises(ValueError):
            AlertRule("x", "m", ">", 1.0, stat="p42")
        with pytest.raises(ValueError):
            AlertRule("x", "m", ">", 1.0, severity="meh")
        with pytest.raises(ValueError):
            AlertRule("x", "m", ">", 1.0, for_s=-1.0)

    def test_duplicate_rule_names_rejected(self):
        rules = [AlertRule("a", "m", ">", 1.0), AlertRule("a", "m", "<", 1.0)]
        with pytest.raises(ValueError):
            AlertEngine(rules)

    def test_for_s_hysteresis(self):
        """A breach must *hold* for for_s before firing, then resolve."""
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        eng = AlertEngine([AlertRule("deep", "depth", ">=", 4.0, for_s=0.5)])
        g.set(5.0)
        assert eng.evaluate(reg, 0.1, 0) == []  # breach starts, not held
        assert eng.evaluate(reg, 0.4, 1) == []  # held 0.3s < 0.5s
        events = eng.evaluate(reg, 0.7, 2)  # held 0.6s -> fires
        assert [e.state for e in events] == ["firing"]
        assert eng.firing() == ["deep"]
        assert eng.evaluate(reg, 0.9, 3) == []  # already firing, no re-fire
        g.set(1.0)
        events = eng.evaluate(reg, 1.0, 4)
        assert [e.state for e in events] == ["resolved"]
        assert eng.firing() == []

    def test_flap_resets_hold_window(self):
        """Dropping below threshold mid-hold restarts the for_s clock."""
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        eng = AlertEngine([AlertRule("deep", "depth", ">=", 4.0, for_s=0.5)])
        g.set(5.0)
        eng.evaluate(reg, 0.0, 0)
        g.set(1.0)
        eng.evaluate(reg, 0.3, 1)  # breach cleared before it fired
        g.set(5.0)
        eng.evaluate(reg, 0.4, 2)  # breach restarts here
        assert eng.evaluate(reg, 0.8, 3) == []  # only 0.4s held
        assert [e.state for e in eng.evaluate(reg, 0.95, 4)] == ["firing"]

    def test_rate_stat_inactive_until_positive(self):
        """A zero counter at t=0 must not trip a '< floor' rate rule."""
        reg = MetricsRegistry()
        c = reg.counter("tok")
        eng = AlertEngine([AlertRule("slow", "tok", "<", 100.0, stat="rate")])
        assert eng.evaluate(reg, 0.0, 0) == []
        assert eng.evaluate(reg, 1.0, 1) == []  # still zero: inactive
        c.inc(5.0)
        assert [e.state for e in eng.evaluate(reg, 1.5, 2)] == ["firing"]

    def test_default_rules_cover_slo_and_capacity(self):
        names = {r.name for r in default_serving_rules(0.5, 0.05, 8)}
        assert names == {
            "ttft-p99-burn",
            "tpot-p99-burn",
            "queue-depth-ceiling",
            "kv-occupancy-high",
            "goodput-floor",
        }


# ----------------------------------------------------------------------
# byte-identity: telemetry is read-only over the simulation
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_default_report_has_no_alert_keys(self):
        doc = run_serve(0, quick=True, schemes=("optimus",))
        assert "alerts" not in doc["serving"]
        assert all("alerts" not in e for e in doc["schemes"])

    def test_alerts_on_is_additive_only(self):
        base = run_serve(0, quick=True, schemes=("optimus",))
        doc = run_serve(0, quick=True, schemes=("optimus",), alerts=True)
        assert "alerts" in doc["serving"]
        doc["serving"].pop("alerts")
        for e in doc["schemes"]:
            e.pop("alerts")
        assert canonical_json(doc) == canonical_json(base)

    def test_endpoint_on_off_identical(self):
        base = run_serve(0, quick=True, schemes=("optimus",))
        server = MetricsServer(port=0).start()
        try:
            doc = run_serve(
                0, quick=True, schemes=("optimus",), metrics_server=server
            )
        finally:
            server.stop()
        assert canonical_json(doc) == canonical_json(base)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_overload_alerts_fire_resolve_and_repeat(self):
        a = run_serve(0, alerts=True, **OVERLOAD)
        b = run_serve(0, alerts=True, **OVERLOAD)
        assert canonical_json(a) == canonical_json(b)
        (entry,) = a["schemes"]
        al = entry["alerts"]
        states = [e["state"] for e in al["events"]]
        assert al["fired_total"] >= 1
        assert al["resolved_total"] >= 1
        assert states.count("firing") == al["fired_total"]
        # every event pins the simulated step it was observed at
        assert all(isinstance(e["step"], int) for e in al["events"])

    def test_request_trace_events_deterministic(self):
        from repro.obs.profile import run_profile

        def lifecycle(sim):
            return [
                (
                    e.kind,
                    e.label,
                    e.t_start,
                    e.t_end,
                    tuple(e.ranks),
                    tuple(sorted((e.attrs or {}).items())),
                )
                for e in sim.tracer.events
                if e.kind in ("request", "alert")
            ]

        a = lifecycle(run_profile("serve"))
        b = lifecycle(run_profile("serve"))
        assert a == b
        labels = {label for _, label, *_ in a}
        assert {"queued", "admitted", "prefill", "decode", "complete", "request"} <= labels


# ----------------------------------------------------------------------
# live endpoint
# ----------------------------------------------------------------------
class TestLiveEndpoint:
    def test_concurrent_scrapes_valid_and_monotone(self):
        server = MetricsServer(port=0).start()
        url = f"http://127.0.0.1:{server.port}/metrics"
        bodies, stop = [], threading.Event()

        def scraper():
            while not stop.is_set():
                try:
                    status, body = _scrape(url)
                    if status == 200:
                        bodies.append(body)
                except OSError:
                    pass
                time.sleep(0.002)

        t = threading.Thread(target=scraper)
        t.start()
        try:
            run_serve(0, quick=True, schemes=("optimus",), metrics_server=server)
        finally:
            stop.set()
            t.join()
            server.stop()
        assert len(bodies) >= 2
        for body in bodies:
            assert validate_openmetrics(body) == []
        steps = []
        for body in bodies:
            for line in body.splitlines():
                if line.startswith("repro_serving_steps_total{"):
                    steps.append(float(line.rsplit(" ", 1)[1]))
        assert steps and steps == sorted(steps)

    def test_health_quit_and_404(self):
        server = MetricsServer(port=0).start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            assert _scrape(f"{base}/healthz") == (200, "ok\n")
            with pytest.raises(urllib.error.HTTPError):
                _scrape(f"{base}/nope")
            # no source attached yet -> 503, not an invalid exposition
            with pytest.raises(urllib.error.HTTPError) as exc:
                _scrape(f"{base}/metrics")
            assert exc.value.code == 503
            assert _scrape(f"{base}/quitquitquit")[0] == 200
            server.hold(5.0)  # returns immediately: quit released it
        finally:
            server.stop()

    def test_ledger_endpoint_rereads_per_scrape(self, tmp_path):
        from repro.obs.ledger import record_from_sim
        from repro.runtime.simulator import Simulator

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        sim = Simulator.for_mesh(q=2)
        sim.metrics.counter("demo/total").inc(3)
        led.append(record_from_sim("train", sim, label="a", seed=0))

        from repro.obs.dash import render_openmetrics_for_records

        server = MetricsServer(port=0).start()
        server.attach_renderer(lambda: render_openmetrics_for_records(led.read()))
        try:
            status, body = _scrape(f"http://127.0.0.1:{server.port}/metrics")
            assert status == 200
            assert "repro_demo_total" in body
            sim.metrics.counter("demo/total").inc(4)
            led.append(record_from_sim("train", sim, label="b", seed=0))
            _, body2 = _scrape(f"http://127.0.0.1:{server.port}/metrics")
            assert body2 != body  # newest record picked up without restart
        finally:
            server.stop()


# ----------------------------------------------------------------------
# sweep + dashboard + ledger
# ----------------------------------------------------------------------
class TestSweepAndDash:
    def test_sweep_report_and_dash_curve(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        doc = run_sweep(
            0,
            rates=(500.0, 4000.0),
            quick=True,
            schemes=("optimus",),
            ledger=led,
        )
        assert doc["report"] == "repro-serve-sweep-v1"
        assert [p["rate_rps"] for p in doc["points"]] == [500.0, 4000.0]
        assert all(p["p99_e2e_s"] > 0 for p in doc["points"])

        from repro.obs.dash import sweep_section, sweep_series

        series = sweep_series(led.read())
        assert "optimus/poisson" in series["p99_e2e_s"]
        assert len(series["p99_e2e_s"]["optimus/poisson"]) == 2
        html_text = sweep_section(led.read())
        assert "<svg" in html_text and "<script" not in html_text

    def test_sweep_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            run_sweep(0, rates=(), quick=True)
        with pytest.raises(ValueError):
            run_sweep(0, rates=(100.0, -5.0), quick=True)

    def test_alert_totals_reach_ledger_and_dash(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_serve(0, alerts=True, ledger=led, **OVERLOAD)
        (rec,) = [r for r in led.read() if r.kind == "serve"]
        assert rec.extra["alerts"]["fired"] >= 1

        from repro.obs.dash import SECTIONS

        (alerts,) = [s for s in SECTIONS if getattr(s, "title", None) == "Alerts"]
        rows = alerts.rows(led.read(), {})
        assert rows and rows[0].extra["alerts"]["fired"] >= 1
        html_text = alerts(led.read(), {})
        assert "FIRED" in html_text and "<script" not in html_text


# ----------------------------------------------------------------------
# perfetto + critpath over serve traces
# ----------------------------------------------------------------------
class TestServeTraceExports:
    def test_perfetto_request_slices_and_flows(self):
        from repro.obs.perfetto import chrome_trace
        from repro.obs.profile import run_profile

        sim = run_profile("serve")
        trace = chrome_trace(sim)
        evs = trace["traceEvents"]
        req = [e for e in evs if e.get("cat") == "request"]
        slices = [e for e in req if e["ph"] == "X"]
        flows = [e for e in req if e["ph"] in ("s", "t", "f")]
        assert slices and flows
        # each chained request gets exactly one start and one finish arrow
        per_id = {}
        for f in flows:
            per_id.setdefault(f["id"], []).append(f["ph"])
        for phases in per_id.values():
            assert phases.count("s") == 1 and phases.count("f") == 1
        # the requests thread exists on every rank; absent for non-serve runs
        assert any(e["ph"] == "M" and e.get("tid") == 2 for e in evs)
        tiny = chrome_trace(run_profile("tiny"))
        assert not any(e["ph"] == "M" and e.get("tid") == 2 for e in tiny["traceEvents"])

    def test_critpath_ignores_request_events(self):
        from repro.obs.critpath import critpath_report
        from repro.obs.profile import run_profile

        doc = critpath_report(run_profile("serve"))
        assert doc["num_windows"] >= 1
        assert all(w["conservation_ok"] for w in doc["windows"])
        assert all("request" not in w["by_kind"] for w in doc["windows"])

    def test_calibration_suggestion_deterministic(self):
        from repro.obs.critpath import calibration_suggestion
        from repro.obs.profile import run_profile

        a = calibration_suggestion(run_profile("serve"), "serve", "optimus")
        b = calibration_suggestion(run_profile("serve"), "serve", "optimus")
        assert canonical_json(a) == canonical_json(b)
        assert a["schema"] == "repro-calib-v1"
        assert a["suggestion"]["comm_scale"] == pytest.approx(1.0, abs=0.05)
