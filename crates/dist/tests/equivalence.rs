//! The in-memory runner and the sharded coordinator share one state
//! machine, so `DistRunner::run` must equal `Coordinator::color` over
//! loopback worker daemons exactly: the same colors and the same
//! superstep accounting, on every partitioner and shard count, with and
//! without a round cap. Block partitions of the banded instance leave
//! interior vertices on every shard, which the sharded path colors after
//! the boundary.

use std::time::Duration;

use dist::{Coordinator, DistRunner, Partition};
use graph::BipartiteGraph;
use serve::{Daemon, ServeConfig};

fn start_workers(n: usize) -> (Vec<Daemon>, Vec<String>) {
    let mut daemons = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let cache = std::env::temp_dir().join(format!(
            "dist-equivalence-{}-{i}",
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
fn in_memory_runner_equals_the_sharded_coordinator() {
    let (mut daemons, addrs) = start_workers(8);
    for (name, m) in [
        ("uniform", sparse::gen::bipartite_uniform(60, 80, 900, 5)),
        ("banded", sparse::gen::banded(2000, 3, 1.0, 1)),
    ] {
        let g = BipartiteGraph::from_matrix(&m);
        let n = g.n_vertices();
        for p in [1usize, 2, 4, 8] {
            for (pname, partition) in [
                ("block", Partition::block(n, p)),
                ("cyclic", Partition::cyclic(n, p)),
                ("random", Partition::random(n, p, 3)),
            ] {
                for cap in [None, Some(1)] {
                    let label = format!("{name} {pname} p={p} cap={cap:?}");
                    let mut coord = Coordinator::connect(&addrs[..p]).expect("connect");
                    let mut runner = DistRunner::new(&g, partition.clone());
                    if let Some(cap) = cap {
                        coord = coord.with_max_supersteps(cap);
                        runner = runner.with_max_supersteps(cap);
                    }
                    let sharded = coord.color(&m, &partition).expect("color");
                    assert!(sharded.degraded.is_none(), "{label}: {:?}", sharded.degraded);
                    let local = runner.run();
                    assert!(local.degraded.is_none(), "{label}");
                    assert_eq!(local.n_shards, sharded.n_shards, "{label}");
                    assert_eq!(local.supersteps, sharded.supersteps, "{label}");
                    assert_eq!(local.colors, sharded.colors, "{label}");
                    assert_eq!(local.num_colors, sharded.num_colors, "{label}");
                }
            }
        }
    }
    for d in daemons.iter_mut() {
        d.shutdown();
    }
}
