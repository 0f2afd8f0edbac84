//! Differential sim ≡ socket verification: the same declarative
//! workload, run once on the deterministic simulator and once over real
//! loopback TCP, must produce per-key histories that agree on
//! everything the workload determines (key set, write sequences, op
//! counts) — and *both* executions must independently pass the per-key
//! atomicity check. The socket run additionally keeps the online
//! [`ConsistencyMonitor`](sbs_sim::ConsistencyMonitor) attached and
//! must finish with zero violations.

use sbs_check::{equivalent_write_histories, History};
use sbs_net::NetStoreSystem;
use sbs_sim::SimDuration;
use sbs_store::{
    FaultPlan, KeyDist, LoopMode, OpMix, ReshardPlan, StoreBuilder, StoreSystem, Workload,
};
use std::collections::BTreeMap;

fn workload(ops: u64, mix: OpMix, seed: u64) -> Workload {
    Workload {
        ops,
        keys: 32,
        mix,
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode: LoopMode::Closed,
        seed,
        faults: FaultPlan::none(),
    }
}

fn sim_histories(sys: &StoreSystem<u64>) -> BTreeMap<String, History<Option<u64>>> {
    sys.keys_touched()
        .into_iter()
        .map(|k| {
            let h = sys.history_for_key(&k);
            (k, h)
        })
        .collect()
}

/// Runs `w` on the simulator and on loopback TCP from the same builder,
/// then holds both executions to the full standard.
fn assert_sim_socket_equivalent(builder: &StoreBuilder, w: &Workload) {
    // Simulator execution (virtual time, deterministic).
    let (sim_report, sim_sys) = w.run(builder);
    assert_eq!(sim_report.completed, w.ops, "sim run must complete");
    let sim_checked = sim_sys
        .check_per_key_atomicity()
        .expect("sim histories must be atomic");

    // Socket execution (wall clock, real TCP).
    let mut net: NetStoreSystem<u64> = NetStoreSystem::deploy(builder).expect("deploy");
    let net_report = net.run_workload(w, |id| id);
    assert_eq!(net_report.completed, w.ops, "socket run must complete");
    let net_checked = net
        .check_per_key_atomicity()
        .expect("socket histories must be atomic");
    assert_eq!(sim_checked, net_checked, "same number of keys checked");

    assert!(
        net.monitor_violations().is_empty(),
        "online monitor flagged the socket run: {:?}",
        net.monitor_violations()
    );
    assert_eq!(
        net_report.decode_rejects, 0,
        "no frame may fail decoding between honest nodes"
    );
    assert_eq!(
        net_report.transport_drops, 0,
        "no loopback message may be dropped"
    );

    // The differential core: write sequences and op counts must agree.
    let keys = equivalent_write_histories(&sim_histories(&sim_sys), &net.histories())
        .expect("sim and socket executions diverged");
    assert_eq!(keys, sim_checked);
    assert!(keys > 0, "workload must touch at least one key");
}

#[test]
fn socket_put_get_round_trips() {
    // Smallest end-to-end sanity: one put, one get, over real TCP.
    let builder = StoreBuilder::asynchronous(1).seed(3).monitor();
    let mut net: NetStoreSystem<u64> = NetStoreSystem::deploy(&builder).expect("deploy");
    net.put("alpha", 41);
    let done = net.await_completions(std::time::Duration::from_secs(30));
    assert_eq!(done.len(), 1, "put must complete");
    net.get(0, "alpha");
    let done = net.await_completions(std::time::Duration::from_secs(30));
    assert_eq!(done.len(), 1, "get must complete");
    let h = net.history_for_key("alpha");
    assert_eq!(h.reads().count(), 1);
    assert_eq!(h.writes().count(), 1);
    net.check_per_key_atomicity().expect("atomic");
    assert!(net.monitor_violations().is_empty());
}

#[test]
fn ycsb_a_async_n9_sim_and_socket_agree() {
    // The paper's asynchronous deployment at t = 1 (n = 8t + 1 = 9),
    // sharded, update-heavy.
    let builder = StoreBuilder::asynchronous(1)
        .shards(4)
        .writers(2)
        .extra_readers(1)
        .seed(7)
        .monitor();
    let w = workload(1000, OpMix::ycsb_a(), 11);
    assert_sim_socket_equivalent(&builder, &w);
}

#[test]
fn ycsb_b_sync_n4_sim_and_socket_agree() {
    // The synchronous deployment at t = 1 (n = 3t + 1 = 4): timers
    // carry the round structure, serviced in wall-clock time on the
    // socket backend. The 5 ms link bound is three orders of magnitude
    // above loopback latency, so no honest server is ever suspected.
    let builder = StoreBuilder::synchronous(1, SimDuration::millis(5))
        .shards(2)
        .writers(2)
        .seed(13)
        .monitor();
    let w = workload(1000, OpMix::ycsb_b(), 17);
    assert_sim_socket_equivalent(&builder, &w);
}

#[test]
fn live_reshard_on_sockets_matches_static_sim_run() {
    // The acceptance bar for live resharding on the socket backend: a
    // run that migrates shard ownership *mid-workload* over real TCP
    // must be observationally identical — per-key write sequences and
    // op counts — to the same-seed run that never resharded, with the
    // online monitor silent throughout the handoff.
    let builder = StoreBuilder::asynchronous(1)
        .shards(4)
        .writers(2)
        .seed(41)
        .monitor();
    let mut w = workload(600, OpMix::ycsb_a(), 43);

    // Static same-seed baseline on the deterministic simulator.
    let (sim_report, sim_sys) = w.run(&builder);
    assert_eq!(sim_report.completed, w.ops, "sim baseline must complete");
    sim_sys
        .check_per_key_atomicity()
        .expect("sim baseline must be atomic");

    // Socket run with a dual-commit handoff ~50 ms in: writer 1 retires
    // and every shard it owned migrates to writer 0 while the YCSB-A
    // mix is in flight.
    let mut net: NetStoreSystem<u64> = NetStoreSystem::deploy(&builder).expect("deploy");
    let plan = ReshardPlan::merge_writer(net.routing_table(), 1, 0);
    w.faults.reshards = vec![(SimDuration::millis(50), plan)];
    let report = net.run_workload(&w, |id| id);
    assert_eq!(
        report.completed, w.ops,
        "resharded socket run must complete"
    );
    assert!(!net.reshard_active(), "the handoff must fully drain");
    assert_eq!(net.routing_table().epoch(), 1, "the epoch must flip");
    assert!(
        net.routing_table().shards_of_writer(1).is_empty(),
        "the retired writer must own nothing"
    );
    net.check_per_key_atomicity()
        .expect("resharded socket histories must be atomic");
    assert!(
        net.monitor_violations().is_empty(),
        "online monitor flagged the handoff: {:?}",
        net.monitor_violations()
    );

    let keys = equivalent_write_histories(&sim_histories(&sim_sys), &net.histories())
        .expect("resharded socket run diverged from the static sim run");
    assert!(keys > 0, "workload must touch at least one key");
}

#[test]
fn bulk_plane_survives_the_wire() {
    // Whole copies (the k = 1 dispersal) exercise FRAG_PUT / BULK_GET /
    // FRAG_GET_ACK frames carrying entire snapshots over real sockets.
    let builder = StoreBuilder::asynchronous(1)
        .bulk()
        .shards(2)
        .writers(1)
        .seed(23)
        .monitor();
    let w = workload(300, OpMix::ycsb_a(), 29);
    assert_sim_socket_equivalent(&builder, &w);
}

#[test]
fn coded_plane_survives_the_wire() {
    // The erasure-coded plane exercises FragPut / FragPutAck /
    // FragGetAck (fragments plus Merkle paths) over real sockets.
    let builder = StoreBuilder::asynchronous(1)
        .bulk_coded(2)
        .shards(2)
        .writers(1)
        .seed(31)
        .monitor();
    let w = workload(300, OpMix::ycsb_a(), 37);
    assert_sim_socket_equivalent(&builder, &w);
}
