//! The store's benchmark: three workloads, end-to-end metrics from
//! untraced runs, and a per-layer split from a separate traced run that
//! times calls into each crate's public functions. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-sync-ycsb-a --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every line before the last is a human-readable table; the last line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The process exits 1 on any correctness violation and 2 on bad
//! arguments.

mod netrun;
mod replay;
mod simrun;
mod stats;

use netrun::NetSpec;
use sbs_core::ByzStrategy;
use sbs_sim::{Message, SimDuration};
use sbs_store::{DataPlane, StoreBuilder};
use simrun::{round_seeds, SimSpec, Transient, Wipe};
use stats::{beyond, mean, median, nearest_rank, peak_rss_mib};
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <sim-sync-ycsb-a|sim-async-coded-faulted|net-sync-ycsb-b> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

/// `setup_s` is the mean over rounds of the median of this many
/// deployments made before each round, so that it samples the host's
/// speed changes over the run like the rounds do.
const SIM_SETUP_REPS: u64 = 21;
const NET_SETUP_REPS: u64 = 5;
/// Messages a traced socket round keeps for the codec replay.
const CAPTURE_LIMIT: usize = 40_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark's workloads. All are closed loop: each client is a
/// sequential process with one pending operation, as in the paper.
enum Spec {
    /// A simulator workload.
    Sim(SimSpec),
    /// The loopback-TCP workload.
    Net(NetSpec),
}

fn workload(name: &str) -> Option<(Spec, &'static str)> {
    Some(match name {
        // The metadata path does nearly all the work: register rounds,
        // the store client/server nodes, the sim scheduler. Put latency
        // shows the sync help-round timer; msgs_per_op shows round cuts.
        "sim-sync-ycsb-a" => (
            Spec::Sim(SimSpec {
                builder: StoreBuilder::synchronous(1, SimDuration::millis(5))
                    .shards(8)
                    .writers(4)
                    .extra_readers(4)
                    .byzantine(3, ByzStrategy::StaleReplay),
                ops: 20_000,
                keys: 1024,
                value_len: 16,
                read_fraction: 0.5,
                transient: None,
                wipe: None,
                preload: false,
                rounds: 20,
                fixed_round_s: None,
            }),
            "metadata path under the sync help-round timer; bulk and net layers bypassed",
        ),
        // Read-heavy, large payloads: Reed–Solomon, Merkle and digests,
        // fetch rounds, the healer and stabilization under load.
        //
        // Known defect kept on purpose: with bulk_coded(2), n = 9, t = 1,
        // a Byzantine server 4 and a wipe of server 2, 3, 5 or 6 (a
        // window-mate of server 4), only one honest fragment of the
        // shared windows survives while k = 2 are needed to read or
        // repair, so the whole closed loop stalls at the wipe. Victims
        // 0, 1, 7 and 8, bulk_coded(1), or either fault alone complete.
        // The stall shows as failed operations, not as an abort.
        "sim-async-coded-faulted" => (
            Spec::Sim(SimSpec {
                builder: StoreBuilder::asynchronous(1)
                    .bulk_coded(2)
                    .anti_entropy(SimDuration::millis(5))
                    .shards(8)
                    .writers(4)
                    .extra_readers(4)
                    .byzantine(4, ByzStrategy::StaleReplay),
                ops: 6_000,
                keys: 256,
                value_len: 1024,
                read_fraction: 0.95,
                transient: Some(Transient {
                    at_fraction: 1.0 / 3.0,
                    server: 1,
                    garbage: 2,
                }),
                wipe: Some(Wipe {
                    at_fraction: 2.0 / 3.0,
                    server: 5,
                }),
                preload: true,
                rounds: 10,
                fixed_round_s: Some(2.0),
            }),
            "coded bulk plane, healer and stabilization under faults; sync timer and net bypassed",
        ),
        // The only workload crossing the codec, the TCP transport and the
        // thread runtime. Get latency is host cost; put latency is the
        // sync help-round timer.
        "net-sync-ycsb-b" => (
            Spec::Net(NetSpec {
                builder: StoreBuilder::synchronous(1, SimDuration::millis(5))
                    .shards(4)
                    .writers(1)
                    .extra_readers(1),
                ops: 3_000,
                keys: 256,
                read_fraction: 0.95,
            }),
            "codec, TCP transport and thread runtime on loopback; no faults",
        ),
        _ => return None,
    })
}

/// One run's outcome: verdict, op accounting, metrics and notes.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Measured but not part of the JSON result (printed only).
    extra: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CORRECTNESS VIOLATION: {why}"));
    }

    fn print(&self, name: &str, args: &Args, why: &str) {
        println!(
            "workload {name} (seed {}, {} s, trace {}): {why}",
            args.seed, args.seconds, args.trace as u8
        );
        for n in &self.notes {
            println!("  {n}");
        }
        for (label, list) in [("metric", &self.metrics), ("printed", &self.extra)] {
            for (m, v, u) in list {
                println!("  {label:<8} {m:<38} {v:>16.6} {u}");
            }
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  ops      attempted {} failed {} ops_failed_ratio {failed_ratio:.6}",
            self.attempted, self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// How per-round values of one quantity combine into the run's value.
/// Simulated quantities are a pure function of the round's seed, so the
/// median over rounds ignores one outlier round; host-time quantities
/// swing with the host's speed during the run, so the mean averages the
/// swings.
#[derive(Clone, Copy)]
enum Clock {
    Simulated,
    Host,
}

impl Clock {
    fn combine(self, per_round: &[f64]) -> f64 {
        match self {
            Clock::Simulated => median(per_round),
            Clock::Host => mean(per_round),
        }
    }
}

/// The `p`th latency percentile, in milliseconds, from each round's exact
/// per-op samples (nanoseconds): the per-round percentiles combined by
/// `clock` when every round has at least ten samples beyond it, otherwise
/// the percentile of all rounds' samples pooled.
fn latency_ms(report: &mut Report, what: &str, rounds: &[&[u64]], p: f64, clock: Clock) -> f64 {
    let sorted: Vec<Vec<u64>> = rounds
        .iter()
        .map(|r| {
            let mut v = r.to_vec();
            v.sort_unstable();
            v
        })
        .collect();
    if sorted.iter().all(|v| !v.is_empty() && beyond(v, p) >= 10) {
        let fewest = sorted.iter().map(Vec::len).min().unwrap_or(0);
        report.notes.push(format!(
            "{what} p{p}: over {} per-round values (at least {fewest} samples per round)",
            sorted.len()
        ));
        let per_round: Vec<f64> = sorted.iter().map(|v| nearest_rank(v, p) as f64).collect();
        return clock.combine(&per_round) / 1e6;
    }
    let mut pooled: Vec<u64> = sorted.concat();
    if pooled.is_empty() {
        report.fail(format!("no completed {what} samples"));
        return 0.0;
    }
    pooled.sort_unstable();
    let n_beyond = beyond(&pooled, p);
    report.notes.push(format!(
        "{what} p{p}: pooled over {} rounds, {} samples, {n_beyond} beyond{}",
        sorted.len(),
        pooled.len(),
        if n_beyond < 10 {
            " (FEWER THAN 10)"
        } else {
            ""
        }
    ));
    nearest_rank(&pooled, p) as f64 / 1e6
}

/// How many rounds a run makes.
#[derive(Clone, Copy)]
enum Budget {
    /// Rounds repeat until at least this many are done and `--seconds`
    /// of wall time have passed.
    Timed(u64),
    /// Exactly this many rounds.
    Fixed(u64),
}

/// Host time of a traced step (an untraced round and its traced rerun)
/// in rounds.
const TRACED_STEP_ROUNDS: f64 = 2.2;

/// The budget of a simulator run: timed, or fixed when the workload's
/// faults can stall a round (`SimSpec::fixed_round_s`).
fn sim_budget(spec: &SimSpec, seconds: f64, traced: bool) -> Budget {
    let (min, step_rounds) = if traced {
        (1, TRACED_STEP_ROUNDS)
    } else {
        (spec.rounds, 1.0)
    };
    match spec.fixed_round_s {
        None => Budget::Timed(min),
        Some(round_s) => Budget::Fixed(min.max((seconds / (round_s * step_rounds)).ceil() as u64)),
    }
}

/// Runs `step` for rounds 0, 1, … as `budget` says.
fn rounds<T>(seconds: f64, budget: Budget, mut step: impl FnMut(u64) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let done = out.len() as u64;
        let more = match budget {
            Budget::Timed(min) => done < min.max(1) || start.elapsed().as_secs_f64() < seconds,
            Budget::Fixed(n) => done < n.max(1),
        };
        if !more {
            return out;
        }
        out.push(step(done));
    }
}

fn end_to_end_sim(spec: &SimSpec, args: &Args) -> Report {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let mut setups = Vec::new();
    let mut peak_rss = 0.0;
    let runs = rounds(args.seconds, sim_budget(spec, args.seconds, false), |i| {
        let seeds = round_seeds(args.seed, i);
        setups.push(median(&simrun::setup_samples(spec, seeds, SIM_SETUP_REPS)));
        let run = simrun::drive(spec, seeds, false).0;
        if i == 0 {
            peak_rss = peak_rss_mib();
        }
        run
    });
    let (mut completed, mut host_s) = (0u64, 0.0);
    for (i, run) in runs.iter().enumerate() {
        r.attempted += run.asked;
        r.failed += run.asked - run.completed;
        completed += run.completed;
        host_s += run.host_s;
        check_sim_round(&mut r, i, run);
    }
    // Simulated quantities come from the first `spec.rounds` rounds only,
    // so they are a pure function of the seed.
    let fixed = &runs[..spec.rounds as usize];
    let per_round = |f: &dyn Fn(&simrun::Round) -> f64| {
        Clock::Simulated.combine(&fixed.iter().map(f).collect::<Vec<_>>())
    };
    r.notes.push(format!(
        "{} rounds of {} ops; simulated quantities over the first {}",
        runs.len(),
        spec.ops,
        spec.rounds
    ));
    let puts: Vec<&[u64]> = fixed.iter().map(|x| &x.put_ns[..]).collect();
    let gets: Vec<&[u64]> = fixed.iter().map(|x| &x.get_ns[..]).collect();
    let sim = Clock::Simulated;
    let put_p50 = latency_ms(&mut r, "put", &puts, 50.0, sim);
    let put_p99 = latency_ms(&mut r, "put", &puts, 99.0, sim);
    let get_p50 = latency_ms(&mut r, "get", &gets, 50.0, sim);
    let get_p99 = latency_ms(&mut r, "get", &gets, 99.0, sim);
    r.metrics = vec![
        ("setup_s", mean(&setups), "s"),
        ("host_ops_per_s", completed as f64 / host_s, "1/s"),
        (
            "clock_ops_per_s",
            per_round(&|x| x.completed as f64 / x.clock_s),
            "1/s",
        ),
        ("put_p50_ms", put_p50, "ms"),
        ("get_p50_ms", get_p50, "ms"),
        (
            "msgs_per_op",
            per_round(&|x| x.envelopes as f64 / x.completed as f64),
            "count",
        ),
        (
            "wire_bytes_per_op",
            per_round(&|x| x.wire_bytes as f64 / x.completed as f64),
            "B",
        ),
        (
            "replica_stored_kib_max",
            per_round(&|x| x.stored_max_bytes as f64) / 1024.0,
            "KiB",
        ),
        ("peak_rss_mib", peak_rss, "MiB"),
    ];
    // Printed, not gated: too unsteady on the socket workload (README.md).
    r.extra.push(("put_p99_ms", put_p99, "ms"));
    r.extra.push(("get_p99_ms", get_p99, "ms"));
    if spec.transient.is_some() {
        let stab: Vec<f64> = fixed.iter().filter_map(|x| x.stabilization_s).collect();
        r.extra.push(("stabilization_s", median(&stab), "s"));
    }
    r
}

fn check_sim_round(r: &mut Report, i: usize, run: &simrun::Round) {
    if let Err(e) = &run.atomicity {
        r.fail(format!("round {i}: per-key atomicity: {e}"));
    }
    // Every planned op completes, except behind the known stalls of the
    // faulted workload, which may only start once a fault is applied.
    let stall_ok = run.completed_at_fault.is_some_and(|f| run.completed >= f);
    if run.completed != run.asked {
        r.notes.push(format!(
            "round {i}: {} of {} ops completed; first fault after {:?}",
            run.completed, run.asked, run.completed_at_fault
        ));
    }
    if run.completed != run.asked && !stall_ok {
        r.fail(format!(
            "round {i}: {} of {} planned ops completed",
            run.completed, run.asked
        ));
    }
}

fn end_to_end_net(spec: &NetSpec, args: &Args) -> Report {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let mut setups = Vec::new();
    let mut peak_rss = 0.0;
    let runs = rounds(args.seconds, Budget::Timed(1), |i| {
        let seeds = round_seeds(args.seed, i);
        setups.push(median(&netrun::setup_samples(spec, seeds, NET_SETUP_REPS)));
        let run = netrun::drive(spec, seeds, None);
        if i == 0 {
            peak_rss = peak_rss_mib();
        }
        run
    });
    let (mut completed, mut frames, mut bytes) = (0u64, 0u64, 0u64);
    for (i, run) in runs.iter().enumerate() {
        r.attempted += run.asked;
        r.failed += run.asked - run.completed;
        completed += run.completed;
        frames += run.envelopes;
        bytes += run.bytes;
        check_net_round(&mut r, i, run);
    }
    let sum = |f: &dyn Fn(&netrun::NetRound) -> f64| runs.iter().map(f).sum::<f64>();
    r.notes
        .push(format!("{} rounds of {} ops", runs.len(), spec.ops));
    let puts: Vec<&[u64]> = runs.iter().map(|x| &x.put_ns[..]).collect();
    let gets: Vec<&[u64]> = runs.iter().map(|x| &x.get_ns[..]).collect();
    let host = Clock::Host;
    let put_p50 = latency_ms(&mut r, "put", &puts, 50.0, host);
    let put_p99 = latency_ms(&mut r, "put", &puts, 99.0, host);
    let get_p50 = latency_ms(&mut r, "get", &gets, 50.0, host);
    let get_p99 = latency_ms(&mut r, "get", &gets, 99.0, host);
    let host_ops = completed as f64 / sum(&|x| x.host_s);
    r.metrics = vec![
        ("setup_s", mean(&setups), "s"),
        ("host_ops_per_s", host_ops, "1/s"),
        // The protocol clock of the socket backend is the wall clock.
        ("clock_ops_per_s", host_ops, "1/s"),
        ("put_p50_ms", put_p50, "ms"),
        ("get_p50_ms", get_p50, "ms"),
        (
            "msgs_per_op",
            frames as f64 / completed.max(1) as f64,
            "count",
        ),
        (
            "wire_bytes_per_op",
            bytes as f64 / completed.max(1) as f64,
            "B",
        ),
        (
            "replica_stored_kib_max",
            sum(&|x| x.stored_max_bytes as f64) / runs.len() as f64 / 1024.0,
            "KiB",
        ),
        ("peak_rss_mib", peak_rss, "MiB"),
    ];
    // Printed, not gated: too unsteady on the socket workload (README.md).
    r.extra.push(("put_p99_ms", put_p99, "ms"));
    r.extra.push(("get_p99_ms", get_p99, "ms"));
    r
}

fn check_net_round(r: &mut Report, i: usize, run: &netrun::NetRound) {
    if let Err(e) = &run.atomicity {
        r.fail(format!("round {i}: per-key atomicity: {e}"));
    }
    if run.completed != run.asked {
        r.fail(format!(
            "round {i}: {} of {} planned ops completed",
            run.completed, run.asked
        ));
    }
    if run.rejects != 0 || run.drops != 0 {
        r.fail(format!(
            "round {i}: {} decode rejects, {} transport drops",
            run.rejects, run.drops
        ));
    }
}

/// The per-layer metrics in output order, with units. Every workload
/// reports every one; 0 means the layer is bypassed by the workload or
/// measured on another one (see README.md).
const LAYERS: &[(&str, &str)] = &[
    ("sim.events_per_op", "count"),
    ("sim.self_us_per_op", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("store.harness.us_per_op", "us"),
    ("store.client.us_per_op", "us"),
    ("store.client.calls_per_op", "count"),
    ("store.server.us_per_op", "us"),
    ("store.server.calls_per_op", "count"),
    ("core.regmsgs_per_op", "count"),
    ("core.timer_fires_per_op", "count"),
    ("store.batcher.regmsgs_per_envelope", "count"),
    ("store.retransmits_per_kop", "count"),
    ("store.metadata_rereads_per_kop", "count"),
    ("store.dead_fetch_rounds_per_kop", "count"),
    ("store.healer.repair_rounds", "count"),
    ("store.healer.gossip_msgs_per_op", "count"),
    ("bulk.snapshot_kib_per_put", "KiB"),
    ("bulk.digest_gb_per_s", "GB/s"),
    ("bulk.encode_us", "us"),
    ("bulk.merkle_build_us", "us"),
    ("bulk.verify_fragment_us", "us"),
    ("bulk.reconstruct_us", "us"),
    ("bulk.fetch_useful_ratio", "ratio"),
    ("net.codec.encode_ns_per_frame", "ns"),
    ("net.codec.decode_ns_per_frame", "ns"),
    ("net.codec.bytes_per_frame", "B"),
    ("net.transport.frames_per_op", "count"),
    ("net.transport.send_us_per_frame", "us"),
    ("net.transport.drops", "count"),
    ("net.codec.decode_rejects", "count"),
];

fn layer_report(values: &[(&'static str, f64)]) -> Vec<(&'static str, f64, &'static str)> {
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, v, unit)
        })
        .collect()
}

fn traced_sim(spec: &SimSpec, args: &Args) -> Report {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let pairs = rounds(args.seconds, sim_budget(spec, args.seconds, true), |i| {
        let seeds = round_seeds(args.seed, i);
        let (plain, _) = simrun::drive(spec, seeds, false);
        let (traced, layers) = simrun::drive(spec, seeds, true);
        (
            plain,
            traced,
            layers.expect("traced round returns its layers"),
        )
    });
    let mut ops = 0u64;
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut slow = sbs_sim::SlowPath::default();
    let (mut events, mut gossip, mut events_after, mut repairs_after) = (0u64, 0u64, 0u64, 0u64);
    let mut c = simrun::Counters::default();
    let (mut run_for, mut drain, mut invoke, mut invocations) = (0u128, 0u128, 0u128, 0u64);
    let (mut snapshot_sizes, mut puts) = (Vec::new(), 0u64);
    let (mut useful, mut replies) = (0u64, 0u64);
    let mut plane = DataPlane::Full;
    for (i, (plain, traced, layers)) in pairs.iter().enumerate() {
        if plain.metrics != traced.metrics || plain.records != traced.records {
            r.fail(format!(
                "round {i}: the traced rerun changed the deterministic counts \
                 (messages, bytes, events or simulated latencies)"
            ));
        }
        check_sim_round(&mut r, i, traced);
        r.attempted += traced.asked;
        r.failed += traced.asked - traced.completed;
        ops += traced.completed;
        puts += traced.put_ns.len() as u64;
        plain_s += plain.host_s;
        traced_s += traced.host_s;
        // Simulator and shim counts up to the last completion.
        let tm = &layers.metrics;
        events += tm.events_processed;
        events_after += traced.metrics.events_processed - tm.events_processed;
        repairs_after += traced.metrics.slow_paths.repair_rounds - tm.slow_paths.repair_rounds;
        slow.retransmits += tm.slow_paths.retransmits;
        slow.metadata_rereads += tm.slow_paths.metadata_rereads;
        slow.dead_fetch_rounds += tm.slow_paths.dead_fetch_rounds;
        slow.repair_rounds += tm.slow_paths.repair_rounds;
        gossip += ["DIGEST_SUMMARY", "REPAIR_REQ", "REPAIR_REPLY"]
            .iter()
            .map(|l| tm.sent_with_label(l))
            .sum::<u64>();
        c.add(&layers.upto);
        run_for += layers.times.run_for.as_nanos();
        drain += layers.times.drain.as_nanos();
        invoke += layers.times.invoke.as_nanos();
        invocations += layers.times.invocations;
        plane = layers.plane;
        if let DataPlane::Coded { k, .. } = plane {
            let s = &layers.stats;
            snapshot_sizes.extend(s.dispersals.values().map(|&(flen, _)| flen * k));
            for &n in s.frag_replies.values() {
                useful += n.min(k as u64);
                replies += n;
            }
        }
    }
    if events_after > 0 {
        r.notes.push(format!(
            "after the last completion of stalled rounds (not charged below): \
             {events_after} events, {repairs_after} repair rounds"
        ));
    }
    let (client, server, envelopes, regmsgs, timers) =
        (c.client, c.server, c.envelopes, c.regmsgs, c.client_timers);
    let per_op = |x: f64| x / ops.max(1) as f64;
    let mut values = vec![
        ("sim.events_per_op", per_op(events as f64)),
        (
            "sim.self_us_per_op",
            per_op((run_for as f64 - (client.1 + server.1) as f64) / 1e3),
        ),
        ("trace.overhead_ratio", traced_s / plain_s),
        ("store.harness.us_per_op", per_op(drain as f64 / 1e3)),
        (
            "store.client.us_per_op",
            per_op((client.1 as f64 + invoke as f64) / 1e3),
        ),
        (
            "store.client.calls_per_op",
            per_op((client.0 + invocations) as f64),
        ),
        ("store.server.us_per_op", per_op(server.1 as f64 / 1e3)),
        ("store.server.calls_per_op", per_op(server.0 as f64)),
        ("core.regmsgs_per_op", per_op(regmsgs as f64)),
        ("core.timer_fires_per_op", per_op(timers as f64)),
        (
            "store.batcher.regmsgs_per_envelope",
            regmsgs as f64 / envelopes.max(1) as f64,
        ),
        (
            "store.retransmits_per_kop",
            per_op(1e3 * slow.retransmits as f64),
        ),
        (
            "store.metadata_rereads_per_kop",
            per_op(1e3 * slow.metadata_rereads as f64),
        ),
        (
            "store.dead_fetch_rounds_per_kop",
            per_op(1e3 * slow.dead_fetch_rounds as f64),
        ),
        (
            "store.healer.repair_rounds",
            slow.repair_rounds as f64 / pairs.len() as f64,
        ),
        ("store.healer.gossip_msgs_per_op", per_op(gossip as f64)),
    ];
    if let DataPlane::Coded { replicas, k } = plane {
        values.push((
            "bulk.snapshot_kib_per_put",
            snapshot_sizes.iter().sum::<usize>() as f64 / 1024.0 / puts.max(1) as f64,
        ));
        values.push((
            "bulk.fetch_useful_ratio",
            useful as f64 / replies.max(1) as f64,
        ));
        match replay::bulk(&snapshot_sizes, k, replicas, args.seed) {
            Some(c) if !snapshot_sizes.is_empty() => {
                r.notes.push(format!(
                    "bulk replay at the median captured snapshot of {} B, k={k} of m={replicas}",
                    c.snapshot_bytes
                ));
                values.push(("bulk.digest_gb_per_s", c.digest_gb_per_s));
                values.push(("bulk.encode_us", c.encode_us));
                values.push(("bulk.merkle_build_us", c.merkle_build_us));
                values.push(("bulk.verify_fragment_us", c.verify_fragment_us));
                values.push(("bulk.reconstruct_us", c.reconstruct_us));
            }
            Some(_) => r.fail("the coded workload dispersed no snapshot".into()),
            None => r.fail("bulk replay: a fragment failed to verify or reconstruct".into()),
        }
    }
    r.notes.push(format!(
        "{} traced rounds of {} ops; host time traced/untraced {:.3}",
        pairs.len(),
        spec.ops,
        traced_s / plain_s
    ));
    r.notes
        .push("handler time by role and message label (calls, us/call):".into());
    for ((role, label), (calls, ns)) in c.by_label {
        r.notes.push(format!(
            "  {role:<6} {label:<15} {calls:>10} {:>10.3}",
            ns as f64 / 1e3 / calls.max(1) as f64
        ));
    }
    r.metrics = layer_report(&values);
    r
}

fn traced_net(spec: &NetSpec, args: &Args) -> Report {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let pairs = rounds(args.seconds, Budget::Timed(1), |i| {
        let seeds = round_seeds(args.seed, i);
        let plain = netrun::drive(spec, seeds, None);
        let traced = netrun::drive(spec, seeds, Some(CAPTURE_LIMIT));
        (plain, traced)
    });
    let (mut ops, mut frames, mut send_ns, mut drops, mut rejects) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for (i, (plain, traced)) in pairs.iter().enumerate() {
        for run in [plain, traced] {
            check_net_round(&mut r, i, run);
            drops += run.drops;
            rejects += run.rejects;
        }
        r.attempted += traced.asked;
        r.failed += traced.asked - traced.completed;
        ops += traced.completed;
        frames += traced.frames;
        send_ns += traced.send_ns;
        plain_s += plain.host_s;
        traced_s += traced.host_s;
    }
    let (_, last) = pairs.last().expect("at least one round");
    let mut values = vec![
        ("trace.overhead_ratio", traced_s / plain_s),
        (
            "net.transport.frames_per_op",
            frames as f64 / ops.max(1) as f64,
        ),
        (
            "net.transport.send_us_per_frame",
            send_ns as f64 / 1e3 / frames.max(1) as f64,
        ),
        ("net.transport.drops", drops as f64),
    ];
    let c = replay::codec(&last.captured, last.wsn_modulus);
    let kinds: std::collections::BTreeSet<&str> =
        last.captured.iter().map(Message::label).collect();
    r.notes.push(format!(
        "{} traced rounds of {} ops; host time traced/untraced {:.3}; \
         codec replay of {} captured messages {kinds:?}",
        pairs.len(),
        spec.ops,
        traced_s / plain_s,
        last.captured.len()
    ));
    if c.rejects != 0 {
        r.fail(format!("codec replay: {} frames refused", c.rejects));
    }
    values.push(("net.codec.encode_ns_per_frame", c.encode_ns));
    values.push(("net.codec.decode_ns_per_frame", c.decode_ns));
    values.push(("net.codec.bytes_per_frame", c.bytes_per_frame));
    values.push(("net.codec.decode_rejects", (rejects + c.rejects) as f64));
    r.metrics = layer_report(&values);
    r
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some((spec, why)) = workload(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let report = match (&spec, args.trace) {
        (Spec::Sim(s), false) => end_to_end_sim(s, &args),
        (Spec::Sim(s), true) => traced_sim(s, &args),
        (Spec::Net(s), false) => end_to_end_net(s, &args),
        (Spec::Net(s), true) => traced_net(s, &args),
    };
    report.print(&args.workload, &args, why);
    if !report.correct {
        std::process::exit(1);
    }
}
