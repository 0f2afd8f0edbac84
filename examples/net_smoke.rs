//! CI socket smoke: run a YCSB-B workload over **real loopback TCP** —
//! every protocol message through the canonical wire codec — with the
//! online atomicity monitor attached, check the per-key histories, and
//! fail loudly if anything is off.
//!
//! ```sh
//! cargo run --release --example net_smoke
//! ```
//!
//! The socket runtime has no deterministic tracer (scheduling is the
//! OS's), so on failure this dumps what the socket run *does* know —
//! the monitor's violations with their culprit ops, the per-key
//! histories involved, and the transport counters — to
//! `FLIGHT_net_smoke.jsonl`, and exits non-zero so CI surfaces the dump
//! as an artifact.
//!
//! A wall-clock budget guards the whole run: loopback YCSB-B at this
//! size finishes in well under a second, so a minute means a deadlock,
//! a reconnect storm, or a stuck reader — all bugs this smoke exists to
//! catch.

use stabilizing_storage::net::NetStoreSystem;
use stabilizing_storage::sim::SimDuration;
use stabilizing_storage::store::{OpMix, StoreBuilder, Workload};
use std::time::{Duration, Instant};

const WALL_BUDGET: Duration = Duration::from_secs(60);

/// The socket wipe drill: a bulk-plane deployment with anti-entropy
/// loses one data replica's fragment store mid-run — over real TCP, not
/// the simulator — and the self-healing plane must pull the committed
/// copies back from window peers, visible as slow-path repair rounds.
fn wipe_drill() {
    let mut wl = Workload::ycsb_b(400, 32);
    wl.mix = OpMix::ycsb_a(); // write-heavy, so stores populate early
    wl.faults.data_wipes = vec![(SimDuration::millis(30), 2)];
    let builder = StoreBuilder::asynchronous(1)
        .seed(77)
        .shards(4)
        .writers(2)
        .bulk()
        .anti_entropy(SimDuration::millis(5))
        .monitor();
    let mut sys: NetStoreSystem<u64> = NetStoreSystem::deploy(&builder).expect("deploy drill");
    let report = sys.run_workload(&wl, |id| id);
    assert_eq!(report.completed, wl.ops, "drill workload must complete");

    // The repair runs on the servers' own anti-entropy timers; give it
    // wall-clock room after the workload drains.
    let deadline = Instant::now() + Duration::from_secs(20);
    while sys.slow_paths().repair_rounds == 0 && Instant::now() < deadline {
        sys.await_completions(Duration::from_millis(50));
    }
    let repairs = sys.slow_paths().repair_rounds;
    assert!(
        repairs > 0,
        "the wiped replica must repair itself over TCP (0 repair rounds observed)"
    );
    sys.check_per_key_atomicity()
        .expect("drill histories must stay atomic through wipe and repair");
    assert!(
        sys.monitor_violations().is_empty(),
        "monitor must stay quiet through the drill: {:?}",
        sys.monitor_violations()
    );
    println!("wipe drill: {repairs} repair rounds over TCP, histories atomic, monitor quiet");
}

fn main() {
    let wl = Workload::ycsb_b(300, 64);
    let builder = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2)
        .monitor();

    let started = Instant::now();
    let mut sys: NetStoreSystem<u64> = NetStoreSystem::deploy(&builder).expect("deploy");
    let report = sys.run_workload(&wl, |id| id);
    println!(
        "workload: {} ops completed in {:.1} wall-ms over TCP ({:.0} ops/s, p50 get {} ns)",
        report.completed,
        report.wall_elapsed.as_secs_f64() * 1e3,
        report.ops_per_wall_sec,
        report.get_latency.as_ref().map_or(0, |l| l.p50_ns),
    );
    println!(
        "transport: {} drops, {} decode rejects, slow paths {:?}",
        report.transport_drops, report.decode_rejects, report.slow
    );

    let monitor = sys.monitor().expect("monitor enabled");
    println!(
        "monitor: {} ops observed, {} keys, window {} ops, {} violations, {} saturations",
        monitor.ops_observed(),
        monitor.keys_monitored(),
        monitor.max_window_in_use(),
        monitor.violations().len(),
        monitor.saturations()
    );

    let atomicity = sys.check_per_key_atomicity();
    let overtime = started.elapsed() > WALL_BUDGET;
    let clean = monitor.is_clean()
        && atomicity.is_ok()
        && report.completed == wl.ops
        && report.decode_rejects == 0
        && !overtime;
    if !clean {
        // No deterministic tracer exists on this backend; dump the
        // violations, their keys' histories, and the counters instead.
        let mut lines = Vec::new();
        for v in sys.monitor_violations() {
            lines.push(format!(
                "{{\"violation\":{{\"key\":{:?},\"op\":{},\"at_ns\":{},\"culprits\":{:?}}}}}",
                v.key, v.op, v.at_ns, v.culprits
            ));
            lines.push(format!(
                "{{\"history\":{{\"key\":{:?},\"records\":{:?}}}}}",
                v.key,
                format!("{:?}", sys.history_for_key(&v.key))
            ));
        }
        if let Err(e) = &atomicity {
            lines.push(format!("{{\"atomicity_error\":{:?}}}", e.to_string()));
        }
        lines.push(format!(
            "{{\"counters\":{{\"completed\":{},\"issued\":{},\"transport_drops\":{},\
             \"decode_rejects\":{},\"wall_ms\":{:.1},\"overtime\":{}}}}}",
            report.completed,
            report.issued,
            report.transport_drops,
            report.decode_rejects,
            started.elapsed().as_secs_f64() * 1e3,
            overtime
        ));
        std::fs::write("FLIGHT_net_smoke.jsonl", lines.join("\n") + "\n")
            .expect("write flight JSONL");
        eprintln!(
            "net smoke FAILED: {} violations, atomicity {:?}, {} decode rejects, \
             overtime={overtime} — dump written to FLIGHT_net_smoke.jsonl",
            monitor.violations().len(),
            atomicity.as_ref().err(),
            report.decode_rejects
        );
        std::process::exit(1);
    }
    println!(
        "net smoke passed: {} keys atomic, no violations, {:.1} wall-ms total",
        atomicity.expect("checked above"),
        started.elapsed().as_secs_f64() * 1e3
    );

    wipe_drill();
}
