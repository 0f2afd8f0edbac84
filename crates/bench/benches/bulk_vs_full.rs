//! The metadata/data-separation bench: bytes-on-wire, per-replica
//! storage, and throughput of the same Zipfian YCSB-B workload under
//! full replication, whole copies on the 2t+1 bulk plane (the `k = 1`
//! dispersal), and k-of-m erasure-coded fragments, swept over payload
//! size × fleet size.
//!
//! ```sh
//! cargo bench -p sbs-bench --bench bulk_vs_full            # full sweep
//! cargo bench -p sbs-bench --bench bulk_vs_full -- --smoke # CI smoke
//! ```
//!
//! Full replication ships every shard-map snapshot to all `n` servers
//! (twice, counting the helping refresh); the bulk plane ships it to
//! `2t + 1` data replicas once (each copy with its Merkle path) and
//! moves 40-byte references through the metadata quorum; the coded plane
//! ships each of those replicas only a `1/k` fragment. The interesting columns are the `total` ratio (grows
//! with payload size and with `n`) and `repl KiB` — the *per-replica
//! stored* bytes the coded mode cuts by ~`k`×. Every coded run is also
//! checked differentially against the full-replication run: same key
//! sets, same per-key write sequences.

use sbs_bench::trajectory::BenchTrajectory;
use sbs_check::{equivalent_write_histories, History};
use sbs_store::{SizedVal, StoreBuilder, StoreSystem, Workload, WorkloadReport};
use std::collections::BTreeMap;
use std::time::Instant;

struct Case {
    n: usize,
    t: usize,
    value_len: u32,
    ops: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Full,
    Bulk,
    Coded { k: usize },
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Bulk => "bulk",
            Mode::Coded { .. } => "coded",
        }
    }
}

/// Merged put+get latency over every shard of a finished run.
fn overall_latency(sys: &StoreSystem<SizedVal>) -> sbs_sim::LatencySummary {
    let mut lat = sys.merged_latency("put");
    lat.merge(&sys.merged_latency("get"));
    lat.summary().expect("completed ops populate the histogram")
}

fn run_case(case: &Case, mode: Mode) -> (WorkloadReport, StoreSystem<SizedVal>, f64) {
    let mut builder = StoreBuilder::asynchronous(case.t)
        .n(case.n)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2);
    builder = match mode {
        Mode::Full => builder,
        Mode::Bulk => builder.bulk(),
        Mode::Coded { k } => builder.bulk_coded(k),
    };
    let mut wl = Workload::ycsb_b(case.ops, 64);
    wl.seed = 42;
    let len = case.value_len;
    let t0 = Instant::now();
    let (report, sys) = wl.run_with(&builder, |id| SizedVal::new(id, len));
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed, case.ops, "workload must complete");
    sys.check_per_key_atomicity()
        .expect("per-key atomicity in every mode");
    (report, sys, wall)
}

fn keyed_histories(sys: &StoreSystem<SizedVal>) -> BTreeMap<String, History<Option<SizedVal>>> {
    sys.keys_touched()
        .into_iter()
        .map(|k| {
            let h = sys.history_for_key(&k);
            (k, h)
        })
        .collect()
}

/// The largest per-server stored payload footprint — the replica a
/// capacity planner has to size for.
fn max_replica_stored(sys: &mut StoreSystem<SizedVal>, n: usize) -> u64 {
    (0..n).map(|i| sys.bulk_bytes_stored(i)).max().unwrap_or(0)
}

fn kib(bytes: u64) -> f64 {
    bytes as f64 / 1024.0
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut traj = BenchTrajectory::new("bulk_vs_full", smoke);
    let cases: Vec<Case> = if smoke {
        // One seed, tiny op count: enough for CI to catch rot.
        vec![Case {
            n: 9,
            t: 1,
            value_len: 1024,
            ops: 120,
        }]
    } else {
        let mut cases = Vec::new();
        for (n, t) in [(9usize, 1usize), (17, 2)] {
            for value_len in [16u32, 256, 1024] {
                cases.push(Case {
                    n,
                    t,
                    value_len,
                    ops: 600,
                });
            }
        }
        cases
    };

    println!(
        "bulk_vs_full: Zipfian YCSB-B, 64 keys / 8 shards, payload size x fleet sweep \
         (coded = k-of-2t+1 fragments, k = t+1)"
    );
    println!(
        "{:<5} {:>5} {:>7} {:>6} {:>12} {:>12} {:>12} {:>10} {:>14} {:>9} {:>9} {:>7} {:>9}",
        "n",
        "t",
        "value",
        "mode",
        "meta KiB",
        "bulk KiB",
        "total KiB",
        "repl KiB",
        "ops/sim-sec",
        "p50 us",
        "p99 us",
        "ratio",
        "wall ms"
    );
    for case in &cases {
        // k = t + 1 is the largest threshold the Byzantine bound admits
        // on a 2t+1 window (k + t <= m), i.e. the biggest byte cut.
        let k = case.t + 1;
        let (full, sys_full, wall_full) = run_case(case, Mode::Full);
        let (bulk, mut sys_bulk, wall_bulk) = run_case(case, Mode::Bulk);
        let (coded, mut sys_coded, wall_coded) = run_case(case, Mode::Coded { k });

        // The coded plane must run the same logical workload as full
        // replication — write sequence by write sequence.
        equivalent_write_histories(&keyed_histories(&sys_full), &keyed_histories(&sys_coded))
            .expect("full and coded executions must be equivalent");

        let lat_full = overall_latency(&sys_full);
        let lat_bulk = overall_latency(&sys_bulk);
        let lat_coded = overall_latency(&sys_coded);
        let stored_bulk = max_replica_stored(&mut sys_bulk, case.n);
        let stored_coded = max_replica_stored(&mut sys_coded, case.n);
        let ratio = full.total_bytes() as f64 / bulk.total_bytes().max(1) as f64;
        let ratio_coded = full.total_bytes() as f64 / coded.total_bytes().max(1) as f64;
        for (mode, report, lat, wall, stored, show_ratio) in [
            (Mode::Full, &full, lat_full, wall_full, 0u64, None),
            (
                Mode::Bulk,
                &bulk,
                lat_bulk,
                wall_bulk,
                stored_bulk,
                Some(ratio),
            ),
            (
                Mode::Coded { k },
                &coded,
                lat_coded,
                wall_coded,
                stored_coded,
                Some(ratio_coded),
            ),
        ] {
            println!(
                "{:<5} {:>5} {:>6}B {:>6} {:>12.1} {:>12.1} {:>12.1} {:>10.1} {:>14.0} {:>9.1} {:>9.1} {:>7} {:>9.1}",
                case.n,
                case.t,
                case.value_len,
                mode.name(),
                kib(report.metadata_bytes),
                kib(report.bulk_bytes),
                kib(report.total_bytes()),
                kib(stored),
                report.ops_per_sim_sec,
                lat.p50_ns as f64 / 1e3,
                lat.p99_ns as f64 / 1e3,
                show_ratio.map_or(String::from("-"), |r| format!("{r:.1}x")),
                wall * 1e3,
            );
            traj.row(vec![
                ("n", case.n.into()),
                ("t", case.t.into()),
                ("value_len", case.value_len.into()),
                ("mode", mode.name().into()),
                (
                    "k",
                    match mode {
                        Mode::Coded { k } => k as u64,
                        _ => 1u64,
                    }
                    .into(),
                ),
                ("ops", case.ops.into()),
                ("metadata_bytes", report.metadata_bytes.into()),
                ("bulk_bytes", report.bulk_bytes.into()),
                ("total_bytes", report.total_bytes().into()),
                ("max_replica_stored_bytes", stored.into()),
                ("ops_per_sim_sec", report.ops_per_sim_sec.into()),
                ("metadata_messages", report.metadata_messages.into()),
                (
                    "metadata_messages_per_op",
                    report.metadata_messages_per_op().into(),
                ),
                ("full_over_mode_bytes", show_ratio.unwrap_or(1.0).into()),
                ("p50_latency_ns", lat.p50_ns.into()),
                ("p99_latency_ns", lat.p99_ns.into()),
                ("wall_ms", (wall * 1e3).into()),
            ]);
        }
        // The coded storage cut: each replica stores 1/k of every
        // snapshot instead of a whole copy (>= because retention-free
        // runs accumulate identical snapshot *sets* in both modes; the
        // only coded overhead is <= k-1 padding bytes per dispersal).
        let storage_cut = stored_bulk as f64 / stored_coded.max(1) as f64;
        assert!(
            storage_cut >= k as f64 * 0.9,
            "coded mode must cut per-replica stored bytes ~{k}x, got {storage_cut:.2}x \
             ({stored_bulk} vs {stored_coded})"
        );
        if case.value_len >= 1024 {
            assert!(
                ratio >= 2.0,
                "bulk must cut >=2x total bytes for >=1KiB values, got {ratio:.2}x"
            );
            assert!(
                ratio_coded >= ratio,
                "coded dispersal must not cost more wire bytes than whole copies: \
                 {ratio_coded:.2}x vs {ratio:.2}x"
            );
        }
    }
    if let Some(path) = traj.write_at_repo_root("bulk") {
        println!("\ntrajectory written to {}", path.display());
    }
    println!("\nexpected shape: the total-bytes ratio grows with payload size (fixed-size");
    println!("references amortize better) and with n (metadata quorum widens, 2t+1 bulk");
    println!("replicas stay narrow); coded mode divides per-replica stored bytes by k on");
    println!("top of that, at the cost of a k-fragment reconstruction per read.");
}
