"""Per-layer metrics: the pipeline run in process, with spans around each layer.

The traced run calls ``parse_config`` and then ``run_simulation`` with a
sink that runs the stages of ``cmd_run`` in the same order: append and mirror
for the batch config, append and publish for the serve config (as
``wsn run --serve`` does). Spans are recorded here, around calls to public
functions, never
inside the program: a round's simulation time is the stretch from the end of
the previous sink call to its first trace event, and the event loop is the
stretch from there to the sink. ``environment`` cannot be wrapped that way,
so ``truth_at`` and ``sense`` are timed directly on the run's inputs.

Run as a script, this module is the probe child that times
``parse_telemetry`` and ``wsn plotdata`` in a fresh process:

    python3 bench/layers.py <log> <node> <channel>
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time
from statistics import median

from endtoend import ServeSession
from oracles import Log, final_alerts_match, responses_match_log
from report import BENCH, batch_args, batch_files, write_configs
from stats import Spans, percentile, tail
from workloads import DEFAULT_SEED, REQUEST_MIX, node_ids, request_stream

#: sampled rounds for the direct environment and serialization probes
SAMPLES = 40
TCP_IDLE_S = 2.0
HANDLE_REQUESTS = 1000
PAIR_SECONDS = 4.0


def traced_pipeline(spans: Spans, text: str, prefix: str, batch: bool, keep: int):
    """One run of cmd_run's stages with spans: batch (trace, mirror) or serve (publish)."""
    from wsnmon import Gateway, LatestMirror, TelemetryWriter, parse_config, run_simulation
    from wsnmon.netsim import trace_line

    started = time.perf_counter()
    with spans.span("config.parse_config"):
        run_cfg = parse_config(text)
    sim = run_cfg.sim
    nodes = sim.topology.sensing_nodes()
    writer = TelemetryWriter(prefix + ".log", nodes)
    mirror = LatestMirror(prefix + ".latest", nodes) if batch else None
    gateway = None if batch else Gateway(sim.topology, run_cfg.rules)
    trace_fh = open(prefix + ".trace", "w", encoding="utf-8", newline="\n") if batch else None
    kept, fired = [], []
    mark = {"end": 0.0, "first_event": None}

    def on_event(ev) -> None:
        if mark["first_event"] is None:
            mark["first_event"] = time.perf_counter()
        trace_fh.write(trace_line(ev) + "\n")

    def sink(s) -> None:
        now = time.perf_counter()
        rid = spans.open("round", parent=sim_span, start=mark["end"])
        first = mark["first_event"] or now
        spans.add("netsim.run_round", mark["end"], first, rid)
        if trace_fh is not None:
            spans.add("netsim.trace_events", first, now, rid)
        with spans.span("basestation.append", rid):
            writer.append(s)
        if mirror is not None:
            with spans.span("basestation.mirror_update", rid):
                mirror.update(s)
        if gateway is not None:
            with spans.span("gateway.publish", rid):
                fired.extend(gateway.publish(s))
        if s.round % keep == 0:
            kept.append(s)
        mark["first_event"] = None
        mark["end"] = time.perf_counter()
        spans.close(rid, mark["end"])

    try:
        sim_span = spans.open("netsim.run_simulation")
        mark["end"] = spans.starts[sim_span]
        summary = run_simulation(sim, sink, on_event=on_event if batch else None)
        spans.close(sim_span)
    finally:
        writer.close()
        if trace_fh is not None:
            trace_fh.close()
    return run_cfg, summary, time.perf_counter() - started, kept, fired, gateway


def mean_us(fn, calls) -> float:
    started = time.perf_counter()
    for args in calls:
        fn(*args)
    return (time.perf_counter() - started) / len(calls) * 1e6


def per_layer(w, seed: int, runner, report) -> None:
    from wsnmon import evaluate_alerts, parse_config, sense, truth_at
    from wsnmon.basestation import snapshot_block
    from wsnmon.cli import main as wsn_main

    work, tally, m = runner.work, report.tally, report.metrics
    text, serve_text = write_configs(w, seed, work, report)
    golden = seed == DEFAULT_SEED
    clusters = dict(node_ids(w.heads, w.leaves))
    sensing = [n for head, leaves in clusters.items() for n in (head, *leaves)]

    # untraced reference: the CLI itself, in this process, alternating with the
    # traced run until both have had a few seconds, so short runs compare fairly
    untraced_s, traced_s = [], []
    while sum(untraced_s) + sum(traced_s) < PAIR_SECONDS:
        started = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            rc = wsn_main(batch_args(str(work / f"{w.name}.cfg"), str(work / "cli")))
        untraced_s.append(time.perf_counter() - started)
        tally.check("in-process wsn run", [] if rc == 0 else [f"exit code {rc}"])
        spans = Spans()
        keep = max(1, w.batch_rounds // SAMPLES)
        run_cfg, summary, seconds, kept, _, _ = traced_pipeline(
            spans, text, str(work / "traced"), batch=True, keep=keep)
        traced_s.append(seconds)
    report.outputs("cli", work, batch_files("cli"), check_golden=False)
    report.outputs(w.name, work, batch_files("traced"), check_golden=golden)
    report.same_outputs("traced run writes what the CLI writes", w.name, "cli")
    m["trace.overhead_pct"] = ((median(traced_s) / median(untraced_s) - 1) * 100, "%")
    report.notes.append(f"trace overhead from {len(traced_s)} traced/untraced pairs")

    parse_ms = []
    for _ in range(5):
        t = time.perf_counter()
        parse_config(text)
        parse_ms.append((time.perf_counter() - t) * 1e3)
    m["config.parse_config_ms"] = (median(parse_ms), "ms")

    # environment, timed directly on the run's inputs
    sim = run_cfg.sim
    field, specs = sim.field, sim.sensors
    rounds = range(0, w.batch_rounds, keep)
    started = time.perf_counter()
    for r in rounds:
        for spec in specs:
            truth_at(field, spec.channel, r)
    truth_ms = (time.perf_counter() - started) / len(rounds) * 1e3
    m["environment.truth_at_ms_per_round"] = (truth_ms, "ms")
    draw = random.Random(seed)
    calls = [(spec, truth_at(field, spec.channel, 0), draw.uniform(-1.0, 1.0))
             for _ in range(4000) for spec in specs]
    sense_us = mean_us(sense, calls)
    m["environment.sense_us_per_call"] = (sense_us, "us")

    run_round = [d * 1e3 for d in spans.durations("netsim.run_round")]
    p, value = tail(run_round)
    report.notes.append(f"netsim.run_round: n={len(run_round)}, tail at p{p:g}")
    m["netsim.run_round_ms_p50"] = (percentile(run_round, 50)[0], "ms")
    m["netsim.run_round_ms_tail"] = (value, "ms")
    env_ms = truth_ms + len(sensing) * len(specs) * sense_us / 1e3
    m["netsim.host_us_per_message"] = (
        (sum(run_round) - env_ms * len(run_round)) * 1e3 / summary.messages_sent, "us")
    events = summary.messages_sent + summary.messages_dropped
    m["netsim.trace_line_us_per_event"] = (
        sum(spans.durations("netsim.trace_events")) / events * 1e6, "us")
    m["netsim.trace_events"] = (events, "count")
    m["basestation.snapshot_block_ms_per_round"] = (
        mean_us(snapshot_block, [(s,) for s in kept]) / 1e3, "ms")
    for name in ("append", "mirror_update"):
        m[f"basestation.{name}_ms_per_round"] = (
            sum(spans.durations(f"basestation.{name}")) / w.batch_rounds * 1e3, "ms")
    m["records.reading_for_us"] = (
        mean_us(lambda s, n: s.reading_for(n), [(s, n) for s in kept[:10] for n in sensing]),
        "us")

    log = (work / "traced.log").read_bytes()
    m["netsim.messages_sent"] = (summary.messages_sent, "count")
    m["netsim.messages_dropped"] = (summary.messages_dropped, "count")
    m["netsim.null_readings"] = (log.count(b",NULL\n"), "count")
    m["netsim.delivery_ratio"] = (1 - summary.messages_dropped / summary.messages_sent, "ratio")
    m["basestation.log_bytes"] = (len(log), "B")
    m["basestation.trace_bytes"] = ((work / "traced.trace").stat().st_size, "B")
    del log, kept

    # parse_telemetry and plotdata in a fresh process, whose peak RSS is the parse's
    plot_node = random.Random(f"plot/{seed}").choice(sensing)
    probe = runner.run([work / "traced.log", plot_node, w.plot_channel],
                       stdout=work / "probe.json", program=(str(BENCH / "layers.py"),))
    tally.child("parse probe", probe)
    parsed = json.loads((work / "probe.json").read_text())
    tally.check("in-process wsn plotdata", [] if parsed["rc"] == 0 else [f"rc {parsed['rc']}"])
    m["basestation.parse_telemetry_s"] = (parsed["parse_s"], "s")
    m["basestation.parse_mb_per_s"] = (parsed["bytes"] / 1e6 / parsed["parse_s"], "MB/s")
    m["basestation.parse_peak_mb"] = (probe.peak_rss_mb, "MB")
    m["cli.plotdata_other_s"] = (parsed["plotdata_s"] - parsed["parse_s"], "s")

    # gateway: the serve config's stages (append, publish) without pacing
    keep = max(1, w.serve_rounds // SAMPLES)
    serve_spans = Spans()
    run_cfg, _, _, kept, fired, gateway = traced_pipeline(
        serve_spans, serve_text, str(work / "traced-serve"), batch=False, keep=keep)
    report.outputs(f"{w.name}-serve", work, {"log": "traced-serve.log"}, check_golden=golden)
    m["gateway.publish_ms"] = (median(serve_spans.durations("gateway.publish")) * 1e3, "ms")
    state: dict = {}
    started = time.perf_counter()
    for s in kept:
        state, _ = evaluate_alerts(run_cfg.rules, s, state)
    m["gateway.evaluate_alerts_ms"] = ((time.perf_counter() - started) / len(kept) * 1e3, "ms")
    m["gateway.fired_alerts"] = (len(fired), "count")

    # in-process request handling on the final state, over the client's own mix
    stream = request_stream(seed, 0, list(clusters), sensing)
    by_verb: dict[str, list[float]] = {verb: [] for verb, _ in REQUEST_MIX}
    mix = []
    for _ in range(HANDLE_REQUESTS):
        request = next(stream)
        t = time.perf_counter()
        gateway.handle_request(request + "\n")
        mix.append((time.perf_counter() - t) * 1e6)
        by_verb[request.split()[0]].append(mix[-1])
    for verb, times in by_verb.items():
        m[f"gateway.handle_request_us.{verb}"] = (median(times), "us")

    session = ServeSession(runner, ["run", f"{w.name}-serve.cfg", "--out", "tcp.log",
                                    "--serve", "--port", "0"], seed, list(clusters), sensing)
    try:
        session.connect(1)
        session.phase(session.conns, lambda: b"simulation done" in session.stderr)
        session.idle = True
        until = time.perf_counter() + TCP_IDLE_S
        idle, _ = session.phase(session.conns, lambda: time.perf_counter() >= until)
    finally:
        server = session.stop()
    tally.child("wsn run --serve, stopped by SIGINT", server)
    tally.attempted += session.attempted
    tally.failed += session.failed
    tally.problems += session.errors[:5]
    tcp_log = Log((work / "tcp.log").read_bytes())
    tally.check("gateway responses vs log", responses_match_log(session.responses, tcp_log,
                                                                clusters))
    tally.check("final ALERTS vs replay", final_alerts_match(
        session.final_alerts, bytes(session.stderr), serve_text, tcp_log))
    report.outputs("tcp", work, {"log": "tcp.log"}, check_golden=False)
    report.same_outputs("traced serve run writes what the server writes", f"{w.name}-serve", "tcp")
    report.notes.append(f"tcp idle 1c: n={len(idle)}; in-process mix: n={len(mix)}")
    m["gateway.tcp_overhead_us"] = (
        (percentile(idle, 50)[0] * 1e6 - percentile(mix, 50)[0]), "us")
    m["gateway.server_cpu_util"] = (server.cpu_s / server.wall_s, "ratio")

    tables = {"batch": spans.summary(), "serve": serve_spans.summary()}
    (BENCH / ".work" / f"{w.name}.spans.json").write_text(json.dumps(tables, indent=1))
    for run, table in tables.items():
        for name, row in table.items():
            report.notes.append(f"{run} span {name}: n={row['count']} "
                                f"total={row['total_s']:.4f}s self={row['self_s']:.4f}s")


def _probe(log: str, node: str, channel: str) -> None:
    from wsnmon import parse_telemetry
    from wsnmon.cli import main as wsn_main

    with open(log, "rb") as fh:
        data = fh.read()
    parse_s, plotdata_s, rc = [], [], 0
    for _ in range(2):
        started = time.perf_counter()
        parse_telemetry(data)
        parse_s.append(time.perf_counter() - started)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            started = time.perf_counter()
            rc = rc or wsn_main(["plotdata", log, "--node", node, "--channel", channel])
            plotdata_s.append(time.perf_counter() - started)
    print(json.dumps({"parse_s": min(parse_s), "plotdata_s": min(plotdata_s), "rc": rc,
                      "bytes": len(data)}))


if __name__ == "__main__":
    _probe(*sys.argv[1:4])
