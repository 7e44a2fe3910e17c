#!/usr/bin/env python3
"""Validate BENCH_*.json metrics files against the ddbg schemas.

Checks the "ddbg.bench.metrics.v1" envelope and every embedded
"ddbg.metrics.v1" snapshot: required keys, integer-only counters, traffic
classes, per-channel/per-process shape and cross-checked totals.

Usage:  tools/validate_metrics.py BENCH_e7_overhead.json [more.json ...]
Exits non-zero on the first malformed file.  Stdlib only.
"""
import json
import sys

TRAFFIC_CLASSES = [
    "app", "halt_marker", "snapshot_marker", "predicate_marker", "control",
]
SPAN_NAMES = ["halt_wave", "snapshot_wave", "breakpoint_notify", "arm"]
LATENCY_KEYS = {"count", "total_ns", "min_ns", "max_ns"}
TRANSPORT_KEYS = {
    "pool_hits", "pool_misses", "deliver_batches", "deliver_batch_messages",
    "max_deliver_batch", "write_batches", "write_batch_frames",
    "max_write_batch", "epoll_wakeups", "frames_per_wakeup_max",
    "eagain_deferrals", "mux_channels_per_socket", "faults_injected",
    "retransmits", "dup_suppressed", "reconnects", "resync_replayed",
    "channel_down",
}
FAULT_KINDS = ["drop", "duplicate", "reorder", "delay", "partition", "reset"]
TIER_KEYS = {"tree_fanout", "acks_aggregated", "markers_suppressed"}
SESSION_KEYS = {
    "opened", "closed", "active_peak", "requests", "request_errors",
    "halts_handed_off", "halts_released",
}
REPLAY_LOGGED_KEYS = [
    "deliveries_logged", "timer_sets_logged", "timer_fires_logged",
    "cuts_logged", "annotations_logged",
]
REPLAY_KEYS = set(REPLAY_LOGGED_KEYS) | {
    "records_logged", "log_bytes", "deliveries_replayed", "timers_replayed",
    "cuts_replayed", "divergences",
}
RUNTIMES = {"sim", "threads", "tcp"}


class ValidationError(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise ValidationError(message)


def check_class_counts(obj, where):
    for direction in ("sent", "delivered"):
        counts = obj.get(direction)
        expect(isinstance(counts, dict), f"{where}: missing '{direction}'")
        expect(set(counts) == set(TRAFFIC_CLASSES),
               f"{where}: '{direction}' classes {sorted(counts)} != "
               f"{sorted(TRAFFIC_CLASSES)}")
        for name, value in counts.items():
            expect(isinstance(value, int) and value >= 0,
                   f"{where}: {direction}.{name} not a non-negative int")


def check_latency(obj, where):
    expect(isinstance(obj, dict) and set(obj) == LATENCY_KEYS,
           f"{where}: latency keys {sorted(obj) if isinstance(obj, dict) else obj}")
    for key, value in obj.items():
        expect(isinstance(value, int) and value >= 0,
               f"{where}: {key} not a non-negative int")
    if obj["count"] == 0:
        expect(obj["total_ns"] == 0 and obj["min_ns"] == 0,
               f"{where}: empty stat with non-zero total/min")
    else:
        expect(obj["min_ns"] <= obj["max_ns"], f"{where}: min > max")
        expect(obj["total_ns"] >= obj["max_ns"], f"{where}: total < max")


def check_snapshot(snap, where):
    expect(snap.get("schema") == "ddbg.metrics.v1",
           f"{where}: schema {snap.get('schema')!r}")
    expect(snap.get("runtime") in RUNTIMES,
           f"{where}: runtime {snap.get('runtime')!r}")
    expect(isinstance(snap.get("elapsed_ns"), int),
           f"{where}: elapsed_ns not an int")

    totals = snap.get("totals")
    expect(isinstance(totals, dict), f"{where}: missing totals")
    check_class_counts(totals, f"{where}.totals")
    for key in ("messages_sent", "messages_delivered", "bytes_sent",
                "bytes_delivered"):
        expect(isinstance(totals.get(key), int) and totals[key] >= 0,
               f"{where}.totals: {key} not a non-negative int")
    expect(totals["messages_sent"] ==
           sum(totals["sent"][c] for c in TRAFFIC_CLASSES),
           f"{where}.totals: messages_sent != sum of classes")
    expect(totals["messages_delivered"] ==
           sum(totals["delivered"][c] for c in TRAFFIC_CLASSES),
           f"{where}.totals: messages_delivered != sum of classes")

    transport = snap.get("transport")
    expect(isinstance(transport, dict), f"{where}: missing transport")
    expect(set(transport) == TRANSPORT_KEYS,
           f"{where}: transport keys {sorted(transport)} != "
           f"{sorted(TRANSPORT_KEYS)}")
    for key, value in transport.items():
        if key == "faults_injected":
            continue
        expect(isinstance(value, int) and value >= 0,
               f"{where}.transport: {key} not a non-negative int")
    faults = transport["faults_injected"]
    expect(isinstance(faults, dict) and list(faults) == FAULT_KINDS,
           f"{where}.transport: faults_injected keys "
           f"{sorted(faults) if isinstance(faults, dict) else faults} != "
           f"{FAULT_KINDS}")
    for kind, value in faults.items():
        expect(isinstance(value, int) and value >= 0,
               f"{where}.transport: faults_injected.{kind} "
               f"not a non-negative int")
    # Recovery counters only move when their cause did: a resync implies a
    # reconnect; a reconnect implies a reset fault or an observed channel
    # loss; a suppressed duplicate implies an injected duplicate or a
    # retransmitted/replayed frame that raced its own ack.
    expect(transport["resync_replayed"] == 0 or transport["reconnects"] > 0,
           f"{where}.transport: resync_replayed without reconnects")
    expect(transport["reconnects"] == 0 or
           faults["reset"] + transport["channel_down"] > 0,
           f"{where}.transport: reconnects without reset/channel_down")
    expect(transport["dup_suppressed"] == 0 or
           faults["duplicate"] + transport["retransmits"] +
           transport["resync_replayed"] > 0,
           f"{where}.transport: dup_suppressed without a duplicate source")
    # Retired counters: no substrate pools encode buffers any more, so
    # both are exactly zero (kept in the schema for existing readers).
    expect(transport["pool_hits"] == 0 and transport["pool_misses"] == 0,
           f"{where}.transport: retired pool counters are nonzero")
    expect(transport["deliver_batch_messages"] ==
           totals["messages_delivered"],
           f"{where}.transport: batch messages != messages_delivered")
    expect(transport["max_deliver_batch"] <=
           transport["deliver_batch_messages"],
           f"{where}.transport: max_deliver_batch exceeds total")
    expect(transport["write_batch_frames"] >= transport["max_write_batch"],
           f"{where}.transport: max_write_batch exceeds total frames")
    # Epoll reactor counters only move on the TCP substrate, and a parsed
    # frame or a deferred write implies the reactor actually woke up.
    if snap.get("runtime") != "tcp":
        for key in ("epoll_wakeups", "frames_per_wakeup_max",
                    "eagain_deferrals", "mux_channels_per_socket"):
            expect(transport[key] == 0,
                   f"{where}.transport: {key} nonzero off the tcp runtime")
    expect(transport["frames_per_wakeup_max"] == 0 or
           transport["epoll_wakeups"] > 0,
           f"{where}.transport: frames parsed without any epoll wakeup")
    expect(transport["eagain_deferrals"] == 0 or
           transport["epoll_wakeups"] > 0,
           f"{where}.transport: eagain deferrals without any epoll wakeup")
    # A wakeup cannot retire more frames than were ever delivered plus the
    # reliability traffic (acks/duplicates) that rides the same sockets; the
    # cheap sound bound is against total frames written.
    expect(transport["frames_per_wakeup_max"] == 0 or
           transport["write_batch_frames"] > 0 or
           totals["messages_delivered"] > 0,
           f"{where}.transport: frames_per_wakeup_max without any traffic")

    tier = snap.get("tier")
    expect(isinstance(tier, dict) and set(tier) == TIER_KEYS,
           f"{where}: tier keys "
           f"{sorted(tier) if isinstance(tier, dict) else tier} != "
           f"{sorted(TIER_KEYS)}")
    for key, value in tier.items():
        expect(isinstance(value, int) and value >= 0,
               f"{where}.tier: {key} not a non-negative int")
    # Aggregated acks only exist where a debugger tier observed children.
    expect(tier["acks_aggregated"] == 0 or tier["tree_fanout"] > 0,
           f"{where}.tier: acks_aggregated without any tree fanout")
    # A suppressed marker is a wave echo that was not sent: some wave
    # markers must have gone out for an echo to exist at all.
    expect(tier["markers_suppressed"] == 0 or
           totals["sent"]["halt_marker"] +
           totals["sent"]["snapshot_marker"] > 0,
           f"{where}.tier: markers_suppressed without any wave markers")

    session = snap.get("session")
    expect(isinstance(session, dict) and set(session) == SESSION_KEYS,
           f"{where}: session keys "
           f"{sorted(session) if isinstance(session, dict) else session} != "
           f"{sorted(SESSION_KEYS)}")
    for key, value in session.items():
        expect(isinstance(value, int) and value >= 0,
               f"{where}.session: {key} not a non-negative int")
    # A session closes at most once per open, and the concurrency peak can
    # never exceed how many sessions ever existed.
    expect(session["closed"] <= session["opened"],
           f"{where}.session: closed exceeds opened")
    expect(session["active_peak"] <= session["opened"],
           f"{where}.session: active_peak exceeds opened")
    expect(session["request_errors"] <= session["requests"],
           f"{where}.session: request_errors exceeds requests")
    # Disconnect-mid-halt outcomes require sessions that actually closed.
    expect(session["halts_handed_off"] + session["halts_released"] <=
           session["closed"],
           f"{where}.session: halt teardown outcomes exceed closed sessions")
    expect(session["requests"] == 0 or session["opened"] > 0,
           f"{where}.session: requests without any session")

    replay = snap.get("replay")
    expect(isinstance(replay, dict) and set(replay) == REPLAY_KEYS,
           f"{where}: replay keys "
           f"{sorted(replay) if isinstance(replay, dict) else replay} != "
           f"{sorted(REPLAY_KEYS)}")
    for key, value in replay.items():
        expect(isinstance(value, int) and value >= 0,
               f"{where}.replay: {key} not a non-negative int")
    # records_logged is derived, never counted: it must equal the sum of
    # the per-kind logged counters exactly.
    expect(replay["records_logged"] ==
           sum(replay[k] for k in REPLAY_LOGGED_KEYS),
           f"{where}.replay: records_logged != sum of per-kind counters")
    # A recording and a replay never share a registry: the recorded run
    # logs, the replaying simulation replays.
    expect(replay["records_logged"] == 0 or
           replay["deliveries_replayed"] + replay["timers_replayed"] +
           replay["cuts_replayed"] == 0,
           f"{where}.replay: one registry both logged and replayed records")

    processes = snap.get("processes")
    expect(isinstance(processes, list), f"{where}: missing processes")
    for i, proc in enumerate(processes):
        pwhere = f"{where}.processes[{i}]"
        expect(isinstance(proc.get("id"), int), f"{pwhere}: missing id")
        check_class_counts(proc, pwhere)
        for key in ("bytes_sent", "bytes_delivered", "max_queue_depth"):
            expect(isinstance(proc.get(key), int) and proc[key] >= 0,
                   f"{pwhere}: {key} not a non-negative int")

    channels = snap.get("channels")
    expect(isinstance(channels, list), f"{where}: missing channels")
    channel_bytes_sent = 0
    for i, chan in enumerate(channels):
        cwhere = f"{where}.channels[{i}]"
        for key in ("id", "source", "destination"):
            expect(isinstance(chan.get(key), int), f"{cwhere}: missing {key}")
        expect(isinstance(chan.get("control"), bool),
               f"{cwhere}: control not a bool")
        check_class_counts(chan, cwhere)
        for key in ("bytes_sent", "bytes_delivered", "send_blocked_ns",
                    "max_backlog"):
            expect(isinstance(chan.get(key), int) and chan[key] >= 0,
                   f"{cwhere}: {key} not a non-negative int")
        channel_bytes_sent += chan["bytes_sent"]
    expect(channel_bytes_sent == totals["bytes_sent"],
           f"{where}: per-channel bytes_sent does not sum to totals")

    latencies = snap.get("latencies")
    expect(isinstance(latencies, dict) and set(latencies) == set(SPAN_NAMES),
           f"{where}: latencies keys "
           f"{sorted(latencies) if isinstance(latencies, dict) else latencies}")
    for name in SPAN_NAMES:
        check_latency(latencies[name], f"{where}.latencies.{name}")

    # Convergecast bound: each completed wave produces at most one combined
    # report per non-root tier node, and there are fewer tier nodes than
    # processes, so acks_aggregated <= waves * (num_processes - 1).
    waves = (latencies["halt_wave"]["count"] +
             latencies["snapshot_wave"]["count"])
    if waves > 0 and len(processes) > 1:
        expect(tier["acks_aggregated"] <= waves * (len(processes) - 1),
               f"{where}.tier: acks_aggregated {tier['acks_aggregated']} "
               f"exceeds {waves} waves x {len(processes) - 1} nodes")


def check_file(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    expect(doc.get("schema") == "ddbg.bench.metrics.v1",
           f"envelope schema {doc.get('schema')!r}")
    expect(isinstance(doc.get("bench"), str) and doc["bench"],
           "envelope missing bench name")
    runs = doc.get("runs")
    expect(isinstance(runs, list), "envelope missing runs array")
    for i, run in enumerate(runs):
        expect(isinstance(run.get("label"), str) and run["label"],
               f"runs[{i}]: missing label")
        expect(isinstance(run.get("metrics"), dict),
               f"runs[{i}]: missing metrics object")
        check_snapshot(run["metrics"], f"runs[{i}]({run['label']})")
    return len(runs)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            count = check_file(path)
        except (ValidationError, json.JSONDecodeError, OSError) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            return 1
        print(f"ok   {path}: {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
