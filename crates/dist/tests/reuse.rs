//! A coordinator ships each graph once: coloring the same pattern again
//! on the same connections re-installs the shards over the graph the
//! workers hold. Whatever the workers went through before (a full run,
//! a capped run, another partition), every outcome must equal a fresh
//! coordinator's on the same input, and the workers' counters must show
//! a full install exactly where the graph changed.

use std::sync::atomic::Ordering;
use std::time::Duration;

use dist::{Coordinator, Partition, ShardOutcome, MAX_SUPERSTEPS};
use graph::BipartiteGraph;
use serve::{Daemon, ServeConfig};

fn start_workers(n: usize) -> (Vec<Daemon>, Vec<String>) {
    let mut daemons = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let cache = std::env::temp_dir().join(format!("dist-reuse-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let d = Daemon::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            pool_threads: 1,
            cache_dir: cache,
            read_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        })
        .expect("worker daemon start");
        addrs.push(d.local_addr().to_string());
        daemons.push(d);
    }
    (daemons, addrs)
}

/// Full installs and re-installs summed over the fleet.
fn installs(daemons: &[Daemon]) -> (u64, u64) {
    daemons.iter().fold((0, 0), |(full, reused), d| {
        let s = d.stats();
        (
            full + s.shard_installs.load(Ordering::Relaxed),
            reused + s.shard_reuses.load(Ordering::Relaxed),
        )
    })
}

fn assert_same(label: &str, got: &ShardOutcome, want: &ShardOutcome) {
    assert!(got.degraded.is_none(), "{label}: {:?}", got.degraded);
    assert!(want.degraded.is_none(), "{label} (fresh): {:?}", want.degraded);
    assert_eq!(got.colors, want.colors, "{label}");
    assert_eq!(got.supersteps, want.supersteps, "{label}");
    assert_eq!(got.n_shards, want.n_shards, "{label}");
}

#[test]
fn repeat_runs_reinstall_and_match_a_fresh_coordinator() {
    const P: usize = 3;
    let (mut daemons, addrs) = start_workers(P);
    let a = sparse::gen::banded(2000, 3, 1.0, 1);
    let b = sparse::gen::bipartite_uniform(60, 80, 900, 5);
    let na = BipartiteGraph::from_matrix(&a).n_vertices();
    let nb = BipartiteGraph::from_matrix(&b).n_vertices();
    let fresh = |m: &sparse::Csr, partition: &Partition, cap: usize| {
        Coordinator::connect(&addrs)
            .expect("connect")
            .with_max_supersteps(cap)
            .color(m, partition)
            .expect("color")
    };

    // (label, pattern, partition, whether the graph changed).
    let sequence = [
        ("A/block", &a, Partition::block(na, P), true),
        ("A/block again", &a, Partition::block(na, P), false),
        ("A/cyclic", &a, Partition::cyclic(na, P), false),
        ("B/block", &b, Partition::block(nb, P), true),
        ("A/block after B", &a, Partition::block(na, P), true),
    ];
    let mut coord = Coordinator::connect(&addrs).expect("connect");
    for (label, m, partition, changed) in &sequence {
        let want = fresh(m, partition, MAX_SUPERSTEPS);
        let before = installs(&daemons);
        let got = coord.color(m, partition).expect("color");
        let after = installs(&daemons);
        assert_same(label, &got, &want);
        let expect = if *changed { (P as u64, 0) } else { (0, P as u64) };
        assert_eq!((after.0 - before.0, after.1 - before.1), expect, "{label}: (full, reused)");
    }

    // A capped run leaves the workers mid-run; the uncapped run after it
    // on the same connections must not notice.
    let cyclic = Partition::cyclic(na, P);
    let want_capped = fresh(&a, &cyclic, 1);
    let want_free = fresh(&a, &cyclic, MAX_SUPERSTEPS);
    let before = installs(&daemons);
    let mut coord = Coordinator::connect(&addrs).expect("connect").with_max_supersteps(1);
    let capped = coord.color(&a, &cyclic).expect("color");
    assert_same("A/cyclic capped", &capped, &want_capped);
    assert!(capped.rounds() > 1, "the cap must trip on this instance");
    let mut coord = coord.with_max_supersteps(MAX_SUPERSTEPS);
    let free = coord.color(&a, &cyclic).expect("color");
    assert_same("A/cyclic uncapped after capped", &free, &want_free);
    let after = installs(&daemons);
    assert_eq!((after.0 - before.0, after.1 - before.1), (P as u64, P as u64));

    for d in daemons.iter_mut() {
        d.shutdown();
    }
}
