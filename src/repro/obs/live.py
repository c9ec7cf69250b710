"""Live OpenMetrics HTTP endpoint (stdlib ``http.server`` only).

:class:`MetricsServer` runs a daemon :class:`~http.server.ThreadingHTTPServer`
that renders a metrics source **on every scrape**:

* ``repro serve --metrics-port N`` attaches each serving arm's live
  registry (:meth:`MetricsServer.attach_registry`) — scrapes mid-run see
  queue depth, KV occupancy and latency histograms move step by step;
* ``repro metrics serve <ledger>`` re-reads the run ledger per scrape
  (:meth:`MetricsServer.attach_renderer` over
  :func:`repro.obs.dash.render_openmetrics_for_records`), turning the
  append-only ledger into a Prometheus target.

Every response body is passed through
:func:`repro.obs.openmetrics.validate_openmetrics` before it leaves the
process — an invalid exposition becomes a 500 with the problem list, never
a silently-broken scrape.  The server binds 127.0.0.1 and is strictly
read-only over the simulation, so a serve run's artifacts are
byte-identical with the endpoint on or off.

Concurrency: the engine appends to the registry while a scrape renders.
Metric values are plain floats (no torn reads under the GIL) but the dict
of instances can grow mid-iteration, so rendering retries a few times on
``RuntimeError`` before giving up.

Endpoints: ``/metrics`` (OpenMetrics text), ``/healthz``, and
``/quitquitquit`` (POST/GET: releases :meth:`hold` and stops serving —
lets CI end a ``--metrics-hold`` window early).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.obs.openmetrics import render_registry, validate_openmetrics

CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: render retries when the registry grows mid-iteration
RENDER_ATTEMPTS = 8


class _Handler(BaseHTTPRequestHandler):
    server: "MetricsServer"

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass

    def _send(self, status: int, body: str, content_type: str = "text/plain") -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path.split("?")[0] == "/metrics":
            status, body, ctype = self.server.render_metrics()
            self._send(status, body, ctype)
        elif self.path == "/healthz":
            self._send(200, "ok\n")
        elif self.path == "/quitquitquit":
            self._send(200, "bye\n")
            self.server.release()
        else:
            self._send(404, f"not found: {self.path}\n")

    do_POST = do_GET


class MetricsServer(ThreadingHTTPServer):
    """Scrape endpoint over a swappable metrics source."""

    daemon_threads = True

    def __init__(self, port: int = 0, host: str = "127.0.0.1"):
        super().__init__((host, port), _Handler)
        self._render: Optional[Callable[[], str]] = None
        self._thread: Optional[threading.Thread] = None
        self._released = threading.Event()

    # -- metrics source ------------------------------------------------
    def attach_registry(self, registry) -> None:
        """Serve a live :class:`~repro.obs.metrics.MetricsRegistry`."""
        self._render = lambda: render_registry(registry)

    def attach_renderer(self, render: Callable[[], str]) -> None:
        """Serve an arbitrary OpenMetrics renderer (called per scrape)."""
        self._render = render

    def render_metrics(self):
        """(status, body, content-type) for one ``/metrics`` scrape."""
        render = self._render
        if render is None:
            return 503, "no metrics source attached yet\n", "text/plain"
        body = None
        for attempt in range(RENDER_ATTEMPTS):
            try:
                body = render()
                break
            except RuntimeError:  # registry grew mid-iteration; re-render
                if attempt == RENDER_ATTEMPTS - 1:
                    return 500, "metrics render did not settle\n", "text/plain"
        problems = validate_openmetrics(body)
        if problems:
            body = "invalid OpenMetrics exposition:\n" + "\n".join(problems) + "\n"
            return 500, body, "text/plain"
        return 200, body, CONTENT_TYPE

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self

    def release(self) -> None:
        """Unblock :meth:`hold` (also triggered by ``/quitquitquit``)."""
        self._released.set()

    def hold(self, seconds: Optional[float]) -> None:
        """Keep serving for ``seconds`` wall-clock seconds (None = forever),
        returning early if :meth:`release` fires."""
        self._released.wait(timeout=seconds)

    def stop(self) -> None:
        self.release()
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()


# ----------------------------------------------------------------------
# repro metrics serve <ledger>
# ----------------------------------------------------------------------
def serve_ledger_metrics(
    ledger: str,
    port: int = 9464,
    hold: Optional[float] = None,
    printer=print,
) -> int:
    """Serve the ledger's newest per-kind metrics until ``hold`` expires
    (or ``/quitquitquit``); the ledger is re-read on every scrape, so a
    long-lived endpoint tracks records appended after startup."""
    from repro.obs.dash import render_openmetrics_for_records
    from repro.obs.ledger import RunLedger

    led = RunLedger(ledger)

    def render() -> str:
        return render_openmetrics_for_records(led.read())

    render()  # fail fast on an unreadable ledger before binding the port
    server = MetricsServer(port=port)
    server.attach_renderer(render)
    server.start()
    printer(
        f"serving ledger metrics from {ledger} on "
        f"http://127.0.0.1:{server.port}/metrics"
        + (f" for {hold:g}s" if hold is not None else " (ctrl-c to stop)")
    )
    try:
        server.hold(hold)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0
