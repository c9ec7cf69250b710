"""Command-line interface: regenerate any of the paper's tables and figures.

Usage::

    python -m repro table2            # weak scaling (Table 2)
    python -m repro fig9              # memory limits (Figure 9)
    python -m repro all               # every table and figure
    python -m repro verify            # quick numerical equivalence check
    python -m repro check --trials 5  # fuzzed equivalence + contract checks
    python -m repro profile table1 --trace-out trace.json --mem-timeline
    python -m repro critpath table1 --folded stem.folded
    python -m repro ledger compact --dry-run

Each experiment command prints the rows/series the paper reports, side by
side with the paper's measured values: the bytes ``pytest benchmarks``
persists under ``benchmarks/results/``.  ``profile`` runs a small traced
instance of an experiment workload and emits span/communication/memory
reports plus a Perfetto-loadable ``trace.json`` (see docs/simulator.md,
"Profiling and tracing").
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from typing import Callable, Dict, Tuple

from repro.utils import UsageError


def _cmd_verify() -> None:
    """Tiny end-to-end equivalence check across all three implementations."""
    import numpy as np

    from repro.config import tiny_config
    from repro.nn.init import init_transformer_params
    from repro.reference.model import ReferenceTransformer
    from repro.schemes import SCHEMES

    cfg = tiny_config(num_layers=2)
    params = init_transformer_params(cfg, seed=1)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab_size, size=(6, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(6, cfg.seq_len))

    ref_loss = float(ReferenceTransformer(cfg, params).forward(ids, labels))
    print(f"serial reference loss : {ref_loss:.12f}")
    ok = True
    for scheme, p, name in (("optimus", 4, "Optimus (2x2)"), ("megatron", 3, "Megatron (p=3)")):
        rec = SCHEMES[scheme]
        loss = rec.model(rec.simulator(p), cfg, params).forward(ids, labels)
        print(f"{name:<16} loss : {loss:.12f}  (diff {abs(loss - ref_loss):.2e})")
        ok = ok and abs(loss - ref_loss) < 1e-9
    print("OK: all three implementations agree" if ok else "MISMATCH")
    if not ok:  # pragma: no cover
        sys.exit(1)


#: every command's function as ``module:function``, imported when run.  The
#: paper results, in ``all``'s order, each print their module's one text
PAPER_RESULTS: Dict[str, str] = {
    name: f"repro.experiments.{name}:main"
    for name in ("table1", "table2", "table3", "fig7", "fig8", "fig9", "isoefficiency")
}
COMMANDS: Dict[str, str] = {
    **PAPER_RESULTS, "report": "repro.experiments.report:main", "verify": "repro.cli:_cmd_verify"
}
#: the other subcommands' drivers, each called with the parsed arguments as
#: keywords; ``chaos --serve`` and ``serve --preempt-ab`` name the campaigns
#: those flags select
DRIVERS: Dict[str, str] = {
    "check": "repro.check.fuzz:main",
    "chaos": "repro.resilience.chaos:main",
    "chaos --serve": "repro.serving.chaos:main",
    "critpath": "repro.obs.critpath:main",
    "dash": "repro.obs.dash:main",
    "ledger": "repro.obs.ledger:compact_main",
    "metrics": "repro.obs.live:serve_ledger_metrics",
    "profile": "repro.obs.profile:main",
    "serve": "repro.serving.report:cmd_serve",
    "serve --preempt-ab": "repro.serving.report:cmd_preempt_ab",
}
#: the choices of ``--scheme`` (:data:`repro.schemes.SCHEMES`' keys), of
#: ``chaos --scheme`` (:data:`repro.resilience.chaos.SCHEMES`) and of the
#: ``profile`` / ``critpath`` experiment (:data:`repro.obs.profile.EXPERIMENTS`),
#: named here so that building the parser imports none of those modules;
#: ``tests/test_cli_options.py`` holds each equal to the table it mirrors
SCHEMES = ("optimus", "megatron")
CHAOS_SCHEMES = ("optimus", "megatron", "hybrid")
EXPERIMENTS = ("table1", "table2", "table3", "fig7", "fig8", "fig9", "tiny", "train", "serve")
#: per driver row, what its signature cannot say (argparse dests): a flag
#: that only qualifies another, which must be given with it ...
NEEDS: Dict[str, Dict[str, str]] = {
    "critpath": {"ledger": "calibrate"},
    "serve": {"threshold": "compare", "metrics_hold": "metrics_port"},
}
#: ... and a flag that selects a mode, with the flags that mode leaves unread
EXCLUDES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "critpath": {"as_json": ("top",)},
    "ledger": {"dry_run": ("out",)},
    "serve": {"sweep": ("rate_rps", "compare")},
}


def resolve(spec: str) -> Callable:
    """The function a ``module:function`` row names, importing its module."""
    module, _, name = spec.partition(":")
    return getattr(importlib.import_module(module), name)


def _options(parser: argparse.ArgumentParser) -> list:
    """The option actions of ``parser`` and its nested subcommands' (``ledger compact``)."""
    out = [a for a in parser._actions if a.option_strings]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            out += [o for nested in action.choices.values() for o in _options(nested)]
    return out


def driver_kwargs(command: str, driver, args: dict, parser: argparse.ArgumentParser) -> dict:
    """The parsed ``args`` (dest → value) that ``driver``, the ``command``
    row's function, takes.  A flag given (its value is not the default)
    that the campaign would not read is a :class:`UsageError` naming its
    option string: one ``driver`` has no parameter for, one :data:`EXCLUDES`
    lists for a mode given, or one :data:`NEEDS` ties to a flag not given."""
    options = _options(parser)
    flag = {a.dest: a.option_strings[0] for a in options}
    default = {a.dest: a.default for a in options}
    params = inspect.signature(driver).parameters
    takes_all = any(p.kind is p.VAR_KEYWORD for p in params.values())

    def given(dest: str) -> bool:
        return args[dest] != default.get(dest)

    mode = command.partition(" ")[2] or command
    for dest in args:
        if not (takes_all or dest in params) and given(dest):
            raise UsageError(f"{flag[dest]} cannot be combined with {mode}")
    for mode_dest, unread in EXCLUDES.get(command, {}).items():
        for dest in unread:
            if given(mode_dest) and given(dest):
                raise UsageError(f"{flag[dest]} cannot be combined with {flag[mode_dest]}")
    for dest, needed in NEEDS.get(command, {}).items():
        if given(dest) and not given(needed):
            raise UsageError(f"{flag[dest]} requires {flag[needed]}")
    return {dest: value for dest, value in args.items() if takes_all or dest in params}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the Optimus paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in sorted(COMMANDS) + ["all"]:
        sub.add_parser(name, help=f"regenerate {name}")

    from repro.serving.scheduler import POLICIES
    from repro.serving.traffic import ARRIVAL_PROFILES

    prof = sub.add_parser(
        "profile",
        help="run a traced experiment workload and report spans/comm/memory",
    )
    prof.add_argument("experiment", choices=sorted(EXPERIMENTS))
    prof.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Perfetto/Chrome trace_event JSON file",
    )
    prof.add_argument(
        "--mem-timeline", action="store_true",
        help="sample a per-allocation memory timeline on every rank",
    )
    prof.add_argument(
        "--scheme", choices=SCHEMES, default="optimus",
        help="which parallelism scheme to profile (default: optimus)",
    )
    prof.add_argument(
        "--top", type=int, default=12, help="rows in the top-span report"
    )

    crit = sub.add_parser(
        "critpath",
        help="trace an experiment workload, attribute every nanosecond "
        "(compute/comm/stall/overhead) and rank critical-path bottlenecks "
        "against the α–β cost model",
    )
    crit.add_argument("experiment", choices=sorted(EXPERIMENTS))
    crit.add_argument(
        "--scheme", choices=SCHEMES, default="optimus",
        help="which parallelism scheme to analyze (default: optimus)",
    )
    crit.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the deterministic repro-critpath-v1 JSON document",
    )
    crit.add_argument(
        "--folded", default=None, metavar="PATH",
        help="write a collapsed-stack flamegraph (speedscope/flamegraph.pl)",
    )
    crit.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print only the canonical JSON document to stdout",
    )
    crit.add_argument(
        "--top", type=int, default=12, help="rows in the bottleneck table"
    )
    crit.add_argument(
        "--calibrate", action="store_true",
        help="emit a canonical-JSON α–β cost-model adjustment suggestion "
        "from the measured/predicted bottleneck ratios (no automatic "
        "application)",
    )
    crit.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="with --calibrate: store the suggestion as a ledger extra",
    )

    led = sub.add_parser(
        "ledger", help="run-ledger maintenance (see subcommands)"
    )
    led_sub = led.add_subparsers(required=True, metavar="subcommand")
    led_compact = led_sub.add_parser(
        "compact",
        help="rewrite the ledger keeping the latest record per "
        "(config fingerprint, git rev); run_ids are preserved",
    )
    led_compact.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="ledger JSONL file/dir (default: benchmarks/ledger/ledger.jsonl)",
    )
    led_compact.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the compacted ledger here instead of in place",
    )
    led_compact.add_argument(
        "--dry-run", action="store_true",
        help="report what would be dropped without writing anything",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign: crash/corrupt/retry/restart, "
        "verify recovery reaches a bit-exact loss trajectory",
    )
    chaos.add_argument("--seed", type=int, default=0, help="campaign seed")
    chaos.add_argument(
        "--quick", action="store_true", help="short campaign (CI smoke job)"
    )
    chaos.add_argument(  # selects the "chaos --serve" driver
        "--serve", action="store_const", dest="command", const="chaos --serve",
        default="chaos",
        help="serving campaign instead of training: crash/flaky-link/straggler "
        "faults inside the decode loop, recovery must be token-identical",
    )
    chaos.add_argument(
        "--steps", type=int, default=None, help="training steps per run (>= 5)"
    )
    chaos.add_argument(
        "--scheme", action="append", default=None, dest="schemes",
        choices=CHAOS_SCHEMES,
        help="restrict to a scheme (repeatable; default: all three)",
    )
    chaos.add_argument(
        "--out", default=None, metavar="PATH", help="write campaign JSON report"
    )
    chaos.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write per-scheme Perfetto traces of the chaos runs",
    )
    chaos.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append per-scheme 'chaos' records to this run-ledger file/dir",
    )

    dash = sub.add_parser(
        "dash",
        help="render a static HTML dashboard + OpenMetrics file from the "
        "run ledger (collects missing evidence first)",
    )
    dash.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="ledger JSONL file/dir (default: benchmarks/ledger/ledger.jsonl)",
    )
    dash.add_argument(
        "--out", default=None, metavar="PATH",
        help="dashboard HTML path (default: <ledger dir>/dash.html)",
    )
    dash.add_argument(
        "--openmetrics", default=None, metavar="PATH", dest="openmetrics_out",
        help="OpenMetrics text path (default: <ledger dir>/metrics.txt)",
    )
    dash.add_argument(
        "--no-collect", action="store_true",
        help="render only what the ledger already holds (no new runs)",
    )

    srv = sub.add_parser(
        "serve",
        help="serve seeded synthetic traffic through the Optimus/Megatron "
        "decode engines (continuous batching, sharded KV-cache) and emit a "
        "byte-deterministic repro-serve-v1 report",
    )
    srv.add_argument("--seed", type=int, default=0, help="traffic seed")
    srv.add_argument(
        "--quick", action="store_true",
        help="short poisson-only run (CI smoke job)",
    )
    srv.add_argument(
        "--scheme", action="append", default=None, dest="schemes",
        choices=SCHEMES,
        help="restrict to a scheme (repeatable; default: both)",
    )
    srv.add_argument(
        "--arrival", action="append", default=None, dest="arrivals",
        choices=ARRIVAL_PROFILES,
        help="restrict to an arrival profile (repeatable; default: both)",
    )
    srv.add_argument("--requests", type=int, default=None, help="request count")
    srv.add_argument(
        "--rate", type=float, default=None, dest="rate_rps", metavar="RATE",
        help="mean offered load (requests/s)",
    )
    srv.add_argument("--q", type=int, default=None, help="mesh side (devices = q²)")
    srv.add_argument(
        "--slots", type=int, default=None, help="concurrent sequence slots"
    )
    srv.add_argument(
        "--block-size", type=int, default=None, help="KV-cache block size (tokens)"
    )
    srv.add_argument(
        "--blocks", type=int, default=None,
        help="KV blocks per optimus row-group (megatron gets q× for equal "
        "per-device bytes)",
    )
    srv.add_argument(
        "--slo-ttft", type=float, default=None,
        help="SLO: time-to-first-token bound (simulated seconds)",
    )
    srv.add_argument(
        "--slo-tpot", type=float, default=None,
        help="SLO: time-per-output-token bound (simulated seconds)",
    )
    srv.add_argument(
        "--out", default=None, metavar="PATH", help="write the JSON report here"
    )
    srv.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append per-arm 'serve' records to this run-ledger file/dir",
    )
    srv.add_argument(
        "--compare", default=None, metavar="BASELINE.json",
        help="SLO regression gate: exit 1 if p99 latency or goodput regresses",
    )
    srv.add_argument(
        "--threshold", type=float, default=None,
        help="relative SLO regression threshold (default 0.20)",
    )
    srv.add_argument(
        "--policy", default=None, choices=POLICIES,
        help="admission policy: conservative whole-footprint reservation "
        "(default) or prompt-footprint admission with preemption",
    )
    srv.add_argument(
        "--swap-blocks", type=int, default=None, metavar="N",
        help="host swap capacity in KV blocks for preempted sequences "
        "(0 = recompute fallback only)",
    )
    srv.add_argument(
        "--swap-bw", type=float, default=None, dest="swap_gbps", metavar="GBPS",
        help="host swap link bandwidth per rank (GB/s, default 16)",
    )
    srv.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="e2e deadline applied to every request (simulated seconds)",
    )
    srv.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="idempotent retry budget per request after a deadline timeout",
    )
    srv.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="overload backpressure: shed arrivals beyond this waiting-room depth",
    )
    srv.add_argument(  # selects the "serve --preempt-ab" driver
        "--preempt-ab", action="store_const", dest="command", const="serve --preempt-ab",
        default="serve",
        help="run reserve vs preempt(swap) vs preempt(recompute) arms on an "
        "overload profile and gate on preemption winning",
    )
    srv.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve a live OpenMetrics endpoint on 127.0.0.1:PORT while the "
        "run executes (0 = ephemeral port; simulated outputs unchanged)",
    )
    srv.add_argument(
        "--metrics-hold", type=float, default=None, metavar="SECONDS",
        help="keep the metrics endpoint up this long after the run so late "
        "scrapers catch the final state (/quitquitquit ends it early)",
    )
    srv.add_argument(
        "--alerts", action="store_true",
        help="arm the stock SLO alert rules (p99-TTFT/TPOT burn, queue-depth "
        "ceiling, KV-occupancy high-water, goodput floor); adds an 'alerts' "
        "section per arm",
    )
    srv.add_argument(
        "--alert-rules", default=None, metavar="RULES.json",
        help="arm a custom JSON list of alert rules instead of the stock set",
    )
    srv.add_argument(
        "--sweep", default=None, metavar="RATE1,RATE2,...",
        help="latency-vs-load sweep: run the seeded traffic at each offered "
        "load and emit a repro-serve-sweep-v1 report (one ledger record per "
        "point with --ledger; the dashboard charts the curve)",
    )

    chk = sub.add_parser(
        "check",
        help="fuzzed Optimus/Megatron/serial equivalence under contract "
        "and invariant checking",
    )
    chk.add_argument("--seed", type=int, default=0, help="fuzzing seed")
    chk.add_argument("--trials", type=int, default=5, help="number of trials")
    chk.add_argument(
        "--no-strict", action="store_false", dest="strict",
        help="skip DTensor layout-invariant validation",
    )
    chk.add_argument(
        "--no-contracts", action="store_false", dest="contracts",
        help="skip collective contract checking",
    )

    met = sub.add_parser(
        "metrics",
        help="live OpenMetrics endpoints (see subcommands)",
    )
    met_sub = met.add_subparsers(required=True, metavar="subcommand")
    met_serve = met_sub.add_parser(
        "serve",
        help="serve the run ledger's newest per-kind metrics over HTTP "
        "(re-read on every scrape; validated OpenMetrics)",
    )
    met_serve.add_argument(
        "ledger", nargs="?", default="benchmarks/ledger",
        help="ledger JSONL file/dir (default: benchmarks/ledger)",
    )
    met_serve.add_argument(
        "--port", type=int, default=9464,
        help="listen port on 127.0.0.1 (0 = ephemeral; default 9464)",
    )
    met_serve.add_argument(
        "--hold", type=float, default=None, metavar="SECONDS",
        help="serve for this long then exit (default: until ctrl-c or "
        "/quitquitquit)",
    )

    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    if command in DRIVERS:
        driver = resolve(DRIVERS[command])
        try:  # a UsageError is raised before the driver does any work
            return driver(**driver_kwargs(command, driver, args, sub.choices[command.split()[0]]))
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if command == "all":
        for name, spec in PAPER_RESULTS.items():
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            resolve(spec)()
    else:
        resolve(COMMANDS[command])()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
