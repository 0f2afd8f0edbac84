//! The real-socket bench: sustained **wall-clock** throughput of the
//! store over loopback TCP — the number the simulator benches cannot
//! report, because their clock is virtual. Every protocol message
//! crosses a real socket through the canonical codec; latencies are
//! real nanoseconds, including syscalls, scheduling, and the codec
//! itself.
//!
//! Both communication modes run at `t = 1`: the asynchronous fleet
//! (9 servers) and the synchronous one (4 servers, 5 ms link bound —
//! orders of magnitude above loopback latency). Write and read rounds
//! complete on acknowledgements, but a synchronous *help round* (the
//! writer's `NEW_HELP_VAL` refresh, Fig. 5) completes only when its
//! round timer fires (`WPhase::HelpRound` in `sbs-core`'s engine waits
//! for `timed_out`), so sync puts that need one take at least the
//! derived round-trip timeout (2.5× the link bound) even on the happy
//! path. The table therefore prints put and get percentiles side by
//! side. Each run's per-key histories are checked for atomicity before
//! its numbers are recorded: a fast wrong store is not a result.
//!
//! Rows append to `BENCH_net.json` at the repo root. Unlike the
//! simulator trajectories, these numbers move with the host machine —
//! `trajcheck` gates them generously (see the `net-wall-clock` gate).
//!
//! ```sh
//! cargo bench -p sbs-bench --bench net_throughput            # full
//! cargo bench -p sbs-bench --bench net_throughput -- --smoke # CI
//! ```

use sbs_bench::trajectory::BenchTrajectory;
use sbs_net::{NetReport, NetStoreSystem};
use sbs_sim::SimDuration;
use sbs_store::{FaultPlan, KeyDist, LoopMode, OpMix, StoreBuilder, Workload};

fn run_case(builder: StoreBuilder, mix: OpMix, ops: u64, label: &str) -> NetReport {
    let builder = builder.seed(2015).shards(4).writers(2).extra_readers(2);
    let w = Workload {
        ops,
        keys: 64,
        mix,
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode: LoopMode::Closed,
        seed: 42,
        faults: FaultPlan::none(),
    };
    let mut net: NetStoreSystem<u64> = NetStoreSystem::deploy(&builder).expect("deploy");
    let report = net.run_workload(&w, |id| id);
    assert_eq!(report.completed, ops, "{label}: workload must complete");
    net.check_per_key_atomicity()
        .unwrap_or_else(|e| panic!("{label}: socket histories must be atomic: {e}"));
    assert_eq!(
        report.decode_rejects, 0,
        "{label}: no honest frame may be rejected"
    );
    report
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ops: u64 = if smoke { 200 } else { 1000 };
    let mut traj = BenchTrajectory::new("net_throughput", smoke);

    println!(
        "net_throughput: {ops}-op Zipfian workloads over loopback TCP, 64 keys, t=1, closed loop"
    );
    println!(
        "{:<10} {:<6} {:>7} {:>7} {:>9} {:>17} {:>11} {:>11} {:>11} {:>11} {:>10}",
        "mix",
        "mode",
        "servers",
        "shards",
        "writers",
        "ops/wall-second",
        "put p50 us",
        "put p99 us",
        "get p50 us",
        "get p99 us",
        "wall ms"
    );
    let mixes: &[(OpMix, &str)] = if smoke {
        &[(OpMix::ycsb_b(), "ycsb-b")]
    } else {
        &[(OpMix::ycsb_b(), "ycsb-b"), (OpMix::ycsb_a(), "ycsb-a")]
    };
    for &(mix, mix_name) in mixes {
        for (mode, builder) in [
            ("async", StoreBuilder::asynchronous(1)),
            ("sync", StoreBuilder::synchronous(1, SimDuration::millis(5))),
        ] {
            let servers = builder.config().n;
            let report = run_case(builder, mix, ops, mix_name);
            // The trajectory row keeps its schema: `p50/p99_latency_ns`
            // are the dominant kind's (gets when any completed), plus
            // the per-kind p99s.
            let lat = report
                .get_latency
                .as_ref()
                .or(report.put_latency.as_ref())
                .expect("completed ops populate the histograms");
            // Per-kind microseconds for the table ("-" when the mix ran
            // no op of that kind).
            let us = |l: Option<&sbs_sim::LatencySummary>, p99: bool| {
                l.map_or_else(
                    || "-".to_string(),
                    |l| format!("{:.1}", if p99 { l.p99_ns } else { l.p50_ns } as f64 / 1e3),
                )
            };
            let (put, get) = (report.put_latency.as_ref(), report.get_latency.as_ref());
            println!(
                "{:<10} {:<6} {:>7} {:>7} {:>9} {:>17.0} {:>11} {:>11} {:>11} {:>11} {:>10.1}",
                mix_name,
                mode,
                servers,
                4,
                2,
                report.ops_per_wall_sec,
                us(put, false),
                us(put, true),
                us(get, false),
                us(get, true),
                report.wall_elapsed.as_secs_f64() * 1e3,
            );
            traj.row(vec![
                ("mix", mix_name.into()),
                ("mode", mode.into()),
                ("servers", servers.into()),
                ("shards", 4u64.into()),
                ("writers", 2u64.into()),
                ("ops", ops.into()),
                ("ops_per_wall_sec", report.ops_per_wall_sec.into()),
                ("p50_latency_ns", lat.p50_ns.into()),
                ("p99_latency_ns", lat.p99_ns.into()),
                (
                    "put_p99_ns",
                    report.put_latency.as_ref().map_or(0, |l| l.p99_ns).into(),
                ),
                (
                    "get_p99_ns",
                    report.get_latency.as_ref().map_or(0, |l| l.p99_ns).into(),
                ),
                ("wall_ms", (report.wall_elapsed.as_secs_f64() * 1e3).into()),
                ("slow_retransmits", report.slow.retransmits.into()),
                ("transport_drops", report.transport_drops.into()),
            ]);
        }
    }

    if let Some(path) = traj.write_at_repo_root("net") {
        println!("\ntrajectory written to {}", path.display());
    }
    println!("\nexpected shape: loopback round trips are tens of microseconds, so");
    println!("wall-clock throughput is dominated by protocol round count — the");
    println!("synchronous mode's smaller fleet sends fewer messages per round but");
    println!("waits for all of them. These are host-machine numbers: compare runs");
    println!("on the same machine only (trajcheck's net gate is deliberately loose).");
}
