//! The bench-trajectory regression gate: diffs a fresh `--smoke` bench
//! run against the committed `BENCH_*.json` baseline and fails on a
//! large regression in any gated metric — so perf drift is caught in
//! the PR that causes it instead of post-merge.
//!
//! ```sh
//! cargo bench -p sbs-bench --bench store_throughput -- --smoke
//! cargo bench -p sbs-bench --bench bulk_vs_full -- --smoke
//! cargo bench -p sbs-bench --bench stabilization -- --smoke
//! cargo bench -p sbs-bench --bench net_throughput -- --smoke
//! cargo bench -p sbs-bench --bench bulk_kernels -- --smoke
//! cargo run --release -p sbs-bench --bin trajcheck            # gate
//! cargo run ... --bin trajcheck -- --threshold=5              # custom
//! ```
//!
//! Rows are matched between the smoke file and the committed baseline on
//! their *identity* fields (the workload shape: fleet, mode, mix, value
//! size, window, …) — measurement fields and the op count, which differs
//! between smoke and full runs, are ignored for matching. For each
//! matched pair the gate compares its metrics, each with a direction:
//! `ops_per_sim_sec` is higher-is-better (fail when the committed value
//! exceeds threshold × fresh); `p50_latency_ns`, `p99_latency_ns`, and
//! `stabilization_time_ns` are lower-is-better (fail when the fresh
//! value exceeds threshold × committed). Gating the median alongside the
//! tail catches a protocol that got uniformly slower without yet moving
//! its p99. The simulator gates measure properties of the simulated
//! schedule, not the host: drift means the *protocol* got chattier or
//! slower per simulated second. The `net-wall-clock` and `bulk-kernels`
//! gates are the exception — real-socket and kernel timings move with
//! the machine, so they carry a generous built-in threshold floor and
//! only catch collapses (see their definitions). Smoke rows with no committed
//! counterpart (new configurations) are reported without failing the
//! gate — unless *no* row of a gate matches its baseline at all, which
//! means the identity schema drifted and that bench would otherwise
//! silently stop being gated; a missing or unparsable file always fails.

use sbs_bench::trajectory::{parse, JsonVal, ParsedRow, ParsedTrajectory};
use std::path::Path;

/// One gated measurement and its regression direction.
struct Metric {
    key: &'static str,
    /// `true`: the metric should not *drop* (throughput-like — fail when
    /// committed > threshold × fresh). `false`: the metric should not
    /// *grow* (latency-like — fail when fresh > threshold × committed).
    higher_is_better: bool,
}

/// One gated bench: committed baseline, smoke output, identity fields,
/// gated metrics.
struct Gate {
    /// Human name for failure messages — a missing file must say *which*
    /// gate lost its baseline, not just the filename.
    name: &'static str,
    committed: &'static str,
    smoke: &'static str,
    id_keys: &'static [&'static str],
    metrics: &'static [Metric],
    /// The minimum effective threshold for this gate, regardless of
    /// `--threshold`. Zero for the simulator gates (their numbers are
    /// properties of the simulated schedule, identical on every host).
    /// The wall-clock gate sets a generous floor instead: its numbers
    /// move with the machine, its load, and the CI runner lottery, so
    /// it is informational — it only catches order-of-magnitude
    /// collapses (an accidental sleep, a reconnect storm), never tuning
    /// noise.
    threshold_floor: f64,
    /// Restrict this gate to rows whose field `key` equals `value` —
    /// lets two gates share one trajectory file (e.g. the fault-recovery
    /// and wipe-repair scenarios both land in
    /// `BENCH_stabilization.json`) while each keeps its own loud
    /// zero-matched failure. `None` gates every row of the file.
    row_filter: Option<(&'static str, &'static str)>,
}

const THROUGHPUT_AND_TAIL: &[Metric] = &[
    Metric {
        key: "ops_per_sim_sec",
        higher_is_better: true,
    },
    Metric {
        key: "p50_latency_ns",
        higher_is_better: false,
    },
    Metric {
        key: "p99_latency_ns",
        higher_is_better: false,
    },
];

const GATES: &[Gate] = &[
    Gate {
        name: "store-throughput",
        committed: "BENCH_store.json",
        smoke: "BENCH_store.smoke.json",
        id_keys: &[
            "section",
            "mix",
            "mode",
            "plane",
            "servers",
            "shards",
            "writers",
            "window_us",
        ],
        metrics: THROUGHPUT_AND_TAIL,
        threshold_floor: 0.0,
        row_filter: None,
    },
    Gate {
        name: "bulk-vs-full",
        committed: "BENCH_bulk.json",
        smoke: "BENCH_bulk.smoke.json",
        // "k" keeps coded rows distinct if the bench ever sweeps several
        // reconstruction thresholds per (n, t) — without it two such rows
        // would share an identity and gate against whichever baseline
        // row comes first.
        id_keys: &["n", "t", "value_len", "mode", "k"],
        metrics: THROUGHPUT_AND_TAIL,
        threshold_floor: 0.0,
        row_filter: None,
    },
    Gate {
        name: "stabilization",
        committed: "BENCH_stabilization.json",
        smoke: "BENCH_stabilization.smoke.json",
        id_keys: &["scenario", "mode"],
        metrics: &[Metric {
            key: "stabilization_time_ns",
            higher_is_better: false,
        }],
        threshold_floor: 0.0,
        row_filter: Some(("scenario", "faulted-ycsb-b")),
    },
    // The self-healing probe shares the stabilization trajectory file
    // but is its own gate: a schema drift that stops the wiped-replica
    // rows from matching must fail loudly on its own, not hide behind
    // the still-matching fault-recovery rows.
    Gate {
        name: "repair-stabilization",
        committed: "BENCH_stabilization.json",
        smoke: "BENCH_stabilization.smoke.json",
        id_keys: &["scenario", "mode"],
        metrics: &[Metric {
            key: "stabilization_time_ns",
            higher_is_better: false,
        }],
        threshold_floor: 0.0,
        row_filter: Some(("scenario", "wiped-replica")),
    },
    // The live-reshard probe shares BENCH_store.json (its row is also
    // matched by the store-throughput gate via its distinct `section`)
    // but gets a dedicated gate so the handoff-specific obligations are
    // named: a floor under mid-handoff throughput and a ceiling on the
    // post-flip stabilization time.
    Gate {
        name: "reshard",
        committed: "BENCH_store.json",
        smoke: "BENCH_store.smoke.json",
        id_keys: &[
            "section",
            "mix",
            "mode",
            "plane",
            "servers",
            "shards",
            "writers",
            "window_us",
        ],
        metrics: &[
            Metric {
                key: "ops_per_sim_sec",
                higher_is_better: true,
            },
            Metric {
                key: "stabilization_time_ns",
                higher_is_better: false,
            },
        ],
        threshold_floor: 0.0,
        row_filter: Some(("section", "reshard")),
    },
    Gate {
        name: "net-wall-clock",
        committed: "BENCH_net.json",
        smoke: "BENCH_net.smoke.json",
        id_keys: &["mix", "mode", "servers", "shards", "writers"],
        // No p99 here, although the bench records it: the smoke run's
        // tail is dominated by TCP connection setup amortized over a
        // couple hundred ops, which is not a protocol property at all.
        metrics: &[
            Metric {
                key: "ops_per_wall_sec",
                higher_is_better: true,
            },
            Metric {
                key: "p50_latency_ns",
                higher_is_better: false,
            },
        ],
        // Wall-clock numbers over real sockets depend on the host, not
        // just the protocol: this gate is informational, bounded at 5x
        // so only a collapse (blocking in the send path, a reconnect
        // storm, an accidental sleep) trips it — unlike the simulator
        // gates above, whose virtual-time numbers are host-independent
        // and gated tightly by `--threshold`.
        threshold_floor: 5.0,
        row_filter: None,
    },
    // The Reed–Solomon/Merkle layer bench: host nanoseconds per kernel
    // call, so the same generous floor as the wall-clock gate — it
    // catches a kernel falling back to per-byte work, not tuning noise.
    Gate {
        name: "bulk-kernels",
        committed: "BENCH_layers.json",
        smoke: "BENCH_layers.smoke.json",
        id_keys: &["kernel", "case"],
        metrics: &[Metric {
            key: "ns_per_iter",
            higher_is_better: false,
        }],
        threshold_floor: 5.0,
        row_filter: None,
    },
];

fn identity(row: &ParsedRow, keys: &[&str]) -> String {
    keys.iter()
        .map(|k| {
            let v = ParsedTrajectory::field(row, k);
            format!(
                "{k}={}",
                match v {
                    Some(JsonVal::Str(s)) => s.clone(),
                    Some(JsonVal::Int(n)) => n.to_string(),
                    Some(JsonVal::Num(f)) => f.to_string(),
                    None => String::from("?"),
                }
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn matches(smoke: &ParsedRow, committed: &ParsedRow, keys: &[&str]) -> bool {
    keys.iter().all(|k| {
        match (
            ParsedTrajectory::field(smoke, k),
            ParsedTrajectory::field(committed, k),
        ) {
            (Some(JsonVal::Str(x)), Some(JsonVal::Str(y))) => x == y,
            (Some(a), Some(b)) => a.as_f64() == b.as_f64(),
            _ => false,
        }
    })
}

fn load(
    root: &Path,
    gate: &str,
    file: &str,
    failures: &mut Vec<String>,
) -> Option<ParsedTrajectory> {
    let path = root.join(file);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!(
                "gate '{gate}': {file} unreadable ({e}) — run the smoke benches before \
                 the gate, and keep the committed baselines in the repo"
            ));
            return None;
        }
    };
    match parse(&text) {
        Some(t) => Some(t),
        None => {
            failures.push(format!(
                "gate '{gate}': {file} is malformed trajectory JSON"
            ));
            None
        }
    }
}

fn main() {
    let threshold: f64 = std::env::args()
        .skip(1)
        .find_map(|a| a.strip_prefix("--threshold=").and_then(|v| v.parse().ok()))
        .unwrap_or(3.0);
    // crates/bench -> crates -> repo root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the repo root")
        .to_path_buf();

    let mut failures: Vec<String> = Vec::new();
    let mut compared = 0usize;
    let mut unmatched = 0usize;
    for gate in GATES {
        let (Some(base), Some(smoke)) = (
            load(&root, gate.name, gate.committed, &mut failures),
            load(&root, gate.name, gate.smoke, &mut failures),
        ) else {
            continue;
        };
        let mut gate_matched = 0usize;
        let threshold = threshold.max(gate.threshold_floor);
        let in_gate = |row: &&ParsedRow| match gate.row_filter {
            None => true,
            Some((k, v)) => {
                matches!(ParsedTrajectory::field(row, k), Some(JsonVal::Str(s)) if s == v)
            }
        };
        for row in smoke.rows.iter().filter(in_gate) {
            let id = identity(row, gate.id_keys);
            let Some(pair) = base.rows.iter().find(|b| matches(row, b, gate.id_keys)) else {
                println!("note: {}: no committed baseline for [{id}]", gate.smoke);
                unmatched += 1;
                continue;
            };
            gate_matched += 1;
            for metric in gate.metrics {
                let fresh = ParsedTrajectory::field(row, metric.key).and_then(JsonVal::as_f64);
                let committed = ParsedTrajectory::field(pair, metric.key).and_then(JsonVal::as_f64);
                let (Some(fresh), Some(committed)) = (fresh, committed) else {
                    failures.push(format!("{}: [{id}] lacks {}", gate.smoke, metric.key));
                    continue;
                };
                compared += 1;
                let regressed = if metric.higher_is_better {
                    committed > fresh * threshold
                } else {
                    fresh > committed * threshold
                };
                if regressed {
                    failures.push(format!(
                        "{}: [{id}] {} regressed >{threshold}x: committed {committed:.0}, \
                         smoke {fresh:.0}",
                        gate.smoke, metric.key
                    ));
                } else {
                    println!(
                        "ok: [{id}] {} committed {committed:.0} vs smoke {fresh:.0}",
                        metric.key
                    );
                }
            }
        }
        if gate_matched == 0 {
            // Zero identity matches for THIS gate means its identity
            // schema drifted (a renamed column, a reshaped sweep) — per
            // gate, so one bench's drift cannot hide behind the other
            // gate's still-matching rows; the gate must fail loudly
            // rather than silently stop gating. (Matched rows lacking
            // a metric fail separately above with an exact message.)
            failures.push(format!(
                "gate '{}': no smoke row in {} matched any committed baseline row — \
                 identity fields out of sync with the bench output",
                gate.name, gate.smoke
            ));
        }
    }

    println!("\ntrajcheck: {compared} metric comparisons, {unmatched} rows without baseline");
    if !failures.is_empty() {
        eprintln!("trajectory regression gate FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("trajectory regression gate passed (threshold {threshold}x)");
}
