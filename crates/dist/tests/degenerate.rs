//! Degenerate-instance battery for the distributed paths.
//!
//! The sharded coordinator inherits every edge case of the in-process
//! runner, so both are pinned here: more ranks than vertices, ranks that
//! own nothing, and a single giant net spanning every shard — each
//! across block/cyclic/random partitions.

use bgpc::verify::verify_bgpc;
use dist::{Coordinator, DistRunner, Partition};
use graph::BipartiteGraph;
use serve::{Daemon, ServeConfig};
use std::time::Duration;

fn partitions(n: usize, p: usize) -> Vec<Partition> {
    vec![
        Partition::block(n, p),
        Partition::cyclic(n, p),
        Partition::random(n, p, 9),
    ]
}

#[test]
fn more_ranks_than_vertices() {
    // 3 vertices, 8 ranks: most ranks own nothing, whatever the
    // partitioner.
    let m = sparse::Csr::from_rows(3, &[vec![0, 1], vec![1, 2]]);
    let g = BipartiteGraph::from_matrix(&m);
    for partition in partitions(3, 8) {
        let r = DistRunner::new(&g, partition).run();
        verify_bgpc(&g, &r.colors).unwrap();
        assert_eq!(r.colors.len(), 3);
    }
}

#[test]
fn explicitly_empty_ranks() {
    // 4 ranks declared, every vertex owned by ranks 0 and 2 — ranks 1
    // and 3 must idle through the whole run without corrupting it.
    let m = sparse::gen::bipartite_uniform(20, 16, 120, 3);
    let g = BipartiteGraph::from_matrix(&m);
    let owners: Vec<u32> = (0..g.n_vertices()).map(|v| if v % 2 == 0 { 0 } else { 2 }).collect();
    let partition = Partition::from_owners(owners, 4);
    let runner = DistRunner::new(&g, partition);
    let r = runner.run();
    verify_bgpc(&g, &r.colors).unwrap();
}

#[test]
fn single_giant_net_spanning_all_ranks() {
    // One net covering every vertex: the whole instance is one
    // distance-2 clique, every vertex is boundary, and the coloring
    // needs exactly n colors. The worst case for speculative rounds.
    let n = 24u32;
    let m = sparse::Csr::from_rows(n as usize, &[(0..n).collect::<Vec<u32>>()]);
    let g = BipartiteGraph::from_matrix(&m);
    for p in [2, 4, 8] {
        for partition in partitions(n as usize, p) {
            let runner = DistRunner::new(&g, partition);
            assert_eq!(runner.boundary_fraction(), 1.0);
            let r = runner.run();
            verify_bgpc(&g, &r.colors).unwrap();
            assert_eq!(r.num_colors, n as usize, "a clique needs n colors");
        }
    }
}

#[test]
fn giant_net_under_a_tiny_round_cap_still_valid() {
    let n = 40u32;
    let m = sparse::Csr::from_rows(n as usize, &[(0..n).collect::<Vec<u32>>()]);
    let g = BipartiteGraph::from_matrix(&m);
    for partition in partitions(n as usize, 8) {
        let runner = DistRunner::new(&g, partition).with_max_supersteps(2);
        let volume = runner.boundary_volume();
        let r = runner.run();
        verify_bgpc(&g, &r.colors).unwrap();
        let last = r.supersteps.last().unwrap();
        if r.rounds() == 3 {
            // The cap tripped: the repair round charges the merge.
            assert_eq!(last.messages, volume);
        }
    }
}

fn start_workers(n: usize, tag: &str) -> (Vec<Daemon>, Vec<String>) {
    let mut daemons = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let cache = std::env::temp_dir().join(format!(
            "dist-degenerate-{tag}-{}-{i}",
            std::process::id()
        ));
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

#[test]
fn sharded_coordinator_inherits_the_degenerate_cases() {
    let (mut daemons, addrs) = start_workers(4, "coord");

    // Giant net across all 4 shards.
    let n = 16u32;
    let giant = sparse::Csr::from_rows(n as usize, &[(0..n).collect::<Vec<u32>>()]);
    let g = BipartiteGraph::from_matrix(&giant);
    for partition in partitions(n as usize, 4) {
        let mut coord = Coordinator::connect(&addrs).expect("connect");
        let outcome = coord.color(&giant, &partition).expect("color");
        assert!(outcome.degraded.is_none(), "{:?}", outcome.degraded);
        verify_bgpc(&g, &outcome.colors).unwrap();
        assert_eq!(outcome.num_colors, n as usize);
    }

    // More ranks than vertices: 3 vertices over 4 worker shards.
    let tiny = sparse::Csr::from_rows(3, &[vec![0, 1], vec![1, 2]]);
    let tg = BipartiteGraph::from_matrix(&tiny);
    for partition in partitions(3, 4) {
        let mut coord = Coordinator::connect(&addrs).expect("connect");
        let outcome = coord.color(&tiny, &partition).expect("color");
        assert!(outcome.degraded.is_none());
        verify_bgpc(&tg, &outcome.colors).unwrap();
    }

    // Empty graph: zero vertices, zero rounds, nothing to flush.
    let empty = sparse::Csr::empty(0, 0);
    let eg = BipartiteGraph::from_matrix(&empty);
    let mut coord = Coordinator::connect(&addrs).expect("connect");
    let outcome = coord
        .color(&empty, &Partition::block(0, 4))
        .expect("color");
    assert!(outcome.degraded.is_none());
    assert!(outcome.colors.is_empty());
    assert_eq!(outcome.rounds(), 0);
    verify_bgpc(&eg, &outcome.colors).unwrap();

    for d in daemons.iter_mut() {
        d.shutdown();
    }
}
