//! # stabilizing-storage
//!
//! A complete Rust reproduction of *"Stabilizing Server-Based Storage in
//! Byzantine Asynchronous Message-Passing Systems"* (Bonomi, Dolev,
//! Potop-Butucaru, Raynal — PODC 2015): self-stabilizing Byzantine-tolerant
//! read/write registers built on asynchronous message-passing servers.
//!
//! This crate is the façade over the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `sbs-core` | the four register constructions, Byzantine adversaries, scenario harness |
//! | [`sim`] | `sbs-sim` | deterministic discrete-event substrate + thread runtime |
//! | [`link`] | `sbs-link` | ss-broadcast session layer + self-stabilizing data link |
//! | [`stamps`] | `sbs-stamps` | bounded sequence numbers, epochs, timestamps |
//! | [`check`] | `sbs-check` | regularity / atomicity / inversion checkers + differential harness |
//! | [`baseline`] | `sbs-baseline` | masking-quorum and quiescence-dependent comparison registers |
//! | [`bulk`] | `sbs-bulk` | bulk plane: word-at-a-time 256-bit digests, table-driven k-of-m coding + Merkle commitments, verified fragment store, 2t+1 placement |
//! | [`store`] | `sbs-store` | sharded multi-register key-value store + YCSB-style workload engine |
//! | [`net`] | `sbs-net` | canonical wire codec + real-socket (TCP) transport runtime and harness |
//!
//! ## Quickstart
//!
//! ```
//! use stabilizing_storage::core::harness::SwsrBuilder;
//! use stabilizing_storage::check::{check_linearizable, InitialState};
//!
//! // A practically-atomic SWSR register on 9 servers tolerating 1
//! // Byzantine server (n ≥ 8t + 1), over asynchronous links.
//! let mut reg = SwsrBuilder::new(9, 1).seed(42).build_atomic(0u64);
//! reg.write(7);
//! reg.read();
//! assert!(reg.settle());
//!
//! let history = reg.history();
//! assert!(check_linearizable(&history, &InitialState::Any).unwrap().linearizable);
//! ```
//!
//! ## Scaling up: the key-value store
//!
//! Above the single-register constructions sits [`store`]: string keys are
//! hash-sharded onto many logical registers multiplexed over one shared
//! server fleet, driven by a YCSB-style workload engine with Zipfian and
//! uniform popularity, open/closed-loop clients, and pluggable fault
//! plans. With `StoreBuilder::bulk` the payload bytes move to 2t+1
//! content-addressed data replicas ([`bulk`]) while the register quorum
//! carries fixed-size digest references.
//!
//! ```
//! use stabilizing_storage::store::{StoreBuilder, Workload};
//!
//! // 16 keys on 4 shards, one shared 9-server fleet (t = 1, asynchronous).
//! let builder = StoreBuilder::asynchronous(1).seed(1).shards(4).writers(2);
//! let (report, sys) = Workload::ycsb_b(50, 16).run(&builder);
//! assert_eq!(report.completed, 50);
//! sys.check_per_key_atomicity().unwrap();
//! ```
//!
//! The builder is **mode-carrying**: `StoreBuilder::synchronous(t,
//! link_bound)` deploys the same store on the Figure-5 fleet — `n = 3t +
//! 1` servers instead of `n = 8t + 1` — with every client round waiting
//! for all `n` acknowledgements or the timeout derived from the declared
//! link bound, and the whole workload/checker stack runs unchanged over
//! either mode (the `sync_vs_async` example measures the trade).
//!
//! The same deployment also runs over **real TCP sockets**: [`net`]
//! frames every protocol message through a canonical, Byzantine-hardened
//! wire codec and hosts the identical node state machines on OS threads
//! with one socket per peer link — and the differential test suite holds
//! the socket execution to the same per-key atomicity standard as the
//! simulator, on the same workloads.
//!
//! See the `examples/` directory for fault drills, the MWMR configuration
//! store, the sharded key-value store under load (`kv_store`), the
//! synchronous/asynchronous resilience gap, the data-link demo, and
//! running the same protocol code on OS threads.

pub use sbs_baseline as baseline;
pub use sbs_bulk as bulk;
pub use sbs_check as check;
pub use sbs_core as core;
pub use sbs_link as link;
pub use sbs_net as net;
pub use sbs_sim as sim;
pub use sbs_stamps as stamps;
pub use sbs_store as store;
