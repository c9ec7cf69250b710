"""Observability: metrics registry, trace exporters, profiling reports.

The simulator produces raw signal — flat :class:`~repro.runtime.events.TraceEvent`
records, hierarchical :class:`~repro.runtime.events.Span` regions, per-rank
memory timelines, device counters.  This package turns that signal into the
artifacts performance work is judged against:

* :mod:`repro.obs.metrics` — counters / gauges / histograms with labels;
* :mod:`repro.obs.perfetto` — Chrome/Perfetto ``trace_event`` JSON export
  (one track per rank, flow arrows for point-to-point transfers);
* :mod:`repro.obs.comm_matrix` — rank→rank traffic matrices (raw and
  β-weighted) whose totals reconcile with the device byte counters;
* :mod:`repro.obs.report` — plain-text top-k span and memory reports;
* :mod:`repro.obs.profile` — the ``python -m repro profile`` driver;
* :mod:`repro.obs.ledger` — append-only, byte-deterministic JSONL run
  records shared by the trainer, chaos campaigns, serving runs and stems;
* :mod:`repro.obs.openmetrics` — Prometheus/OpenMetrics text exposition
  of metric snapshots (live registry or ledger records), with a grammar
  validator;
* :mod:`repro.obs.claims` — the paper-claims scorecard (measured ledger
  evidence vs :mod:`repro.perfmodel` predictions);
* :mod:`repro.obs.dash` — the ``python -m repro dash`` static HTML
  dashboard;
* :mod:`repro.obs.critpath` — the ``python -m repro critpath`` analyzer:
  per-rank nanosecond attribution (compute/comm/stall/overhead) with an
  exact conservation invariant, the cross-rank critical path, and a
  predicted-vs-measured bottleneck ranking against the α–β cost model;
* :mod:`repro.obs.flamegraph` — collapsed-stack (folded) flamegraph
  export for speedscope / flamegraph.pl.
"""
