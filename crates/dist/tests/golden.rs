//! Golden sharded colorings: FNV-1a hashes of `Coordinator::color`
//! colorings and of their `(colored, messages, conflicts)` superstep
//! triples, pinned so a refactor of the shard loop has to keep the
//! sharded path byte-identical.
//!
//! Every superstep crosses loopback TCP to in-process worker daemons,
//! and the workers are deterministic, so each row is a pure function of
//! the instance and the partition. Three instances (a uniform random
//! pattern, a banded one whose block partitions leave interior vertices,
//! and a single 24-vertex giant net) run under block, cyclic and
//! random(3) partitions on 1, 2 and 4 workers. One more row caps the
//! rounds at 1 on 4 cyclic workers, so its sequential repair recolors a
//! non-empty set. No row sits where the cap equals the natural round
//! count. If a hash moves on purpose, the failure message prints the new
//! row.

use std::time::Duration;

use bgpc::verify::verify_bgpc;
use bgpc::Color;
use dist::{Coordinator, Partition, ShardOutcome};
use graph::BipartiteGraph;
use serve::{Daemon, ServeConfig};

/// 64-bit FNV-1a over little-endian bytes.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn colors_hash(colors: &[Color]) -> u64 {
    fnv1a(colors.iter().flat_map(|c| c.to_le_bytes()))
}

fn steps_hash(out: &ShardOutcome) -> u64 {
    fnv1a(out.supersteps.iter().flat_map(|s| {
        [s.colored as u64, s.messages as u64, s.conflicts as u64]
            .into_iter()
            .flat_map(u64::to_le_bytes)
    }))
}

fn instances() -> Vec<(&'static str, sparse::Csr)> {
    vec![
        ("uniform", sparse::gen::bipartite_uniform(60, 80, 900, 5)),
        ("banded", sparse::gen::banded(2000, 3, 1.0, 1)),
        ("giant", sparse::Csr::from_rows(24, &[(0..24).collect::<Vec<u32>>()])),
    ]
}

fn partition(name: &str, n: usize, p: usize) -> Partition {
    match name {
        "block" => Partition::block(n, p),
        "cyclic" => Partition::cyclic(n, p),
        _ => Partition::random(n, p, 3),
    }
}

/// (instance, partition, workers, coloring hash, superstep hash).
const GOLDEN: &[(&str, &str, usize, u64, u64)] = &[
    ("uniform", "block", 1, 0x243ee30cfe7d6a4c, 0x9637228231556155),
    ("uniform", "block", 2, 0x749ef44009a49eec, 0xac78b026b7df8a62),
    ("uniform", "block", 4, 0xabb4a3f3931cd3a7, 0x8417ec6ba9c107ec),
    ("uniform", "cyclic", 1, 0x243ee30cfe7d6a4c, 0x9637228231556155),
    ("uniform", "cyclic", 2, 0x225db5d17910f88c, 0x5faaba11d665f3c3),
    ("uniform", "cyclic", 4, 0x5bdc12f62e4c55ba, 0x7f8ae94fcffa2b08),
    ("uniform", "random", 1, 0x243ee30cfe7d6a4c, 0x9637228231556155),
    ("uniform", "random", 2, 0xf2954206510b7938, 0x92cb3040e4b8216f),
    ("uniform", "random", 4, 0x546bb1ec3daab0d7, 0xb10f2b93023f2de5),
    ("banded", "block", 1, 0x6099e06d91d18516, 0x9aec800099ae1698),
    ("banded", "block", 2, 0x7f3f75de743fd625, 0xa1b4c6c11b683852),
    ("banded", "block", 4, 0x43b5646463d1d365, 0x45e0acff64bf34ee),
    ("banded", "cyclic", 1, 0x6099e06d91d18516, 0x9aec800099ae1698),
    ("banded", "cyclic", 2, 0x30b15d7303440adc, 0x9e93ee0693b07e1c),
    ("banded", "cyclic", 4, 0xab0166faaad53d6c, 0x9cec99a7610d2449),
    ("banded", "random", 1, 0x6099e06d91d18516, 0x9aec800099ae1698),
    ("banded", "random", 2, 0x5267cad6191b2d58, 0x2cf809006560b53e),
    ("banded", "random", 4, 0x90ffed1ec963a738, 0x7af033a956b7e387),
    ("giant", "block", 1, 0x49684e18280b7d65, 0x218a1d70c22a1c1d),
    ("giant", "block", 2, 0x1878ec2a820f8a41, 0x50213dbb1f536369),
    ("giant", "block", 4, 0x00128fb702a0a6aa, 0xb3788c9e459b2d75),
    ("giant", "cyclic", 1, 0x49684e18280b7d65, 0x218a1d70c22a1c1d),
    ("giant", "cyclic", 2, 0x03170c5bed37133c, 0x50213dbb1f536369),
    ("giant", "cyclic", 4, 0x06d1e2793f319224, 0xd8521a93787ba7dd),
    ("giant", "random", 1, 0x49684e18280b7d65, 0x218a1d70c22a1c1d),
    ("giant", "random", 2, 0x6be63057ad3c134f, 0x18ec31c75b29132a),
    ("giant", "random", 4, 0xb9217db23afe45c1, 0xb89e8892896a1356),
];

/// The capped row: uniform, cyclic, 4 workers, at most one round.
const CAPPED: (u64, u64) = (0x008b0a7530fa704f, 0x8ac033905b841975);

fn start_workers(n: usize) -> (Vec<Daemon>, Vec<String>) {
    let mut daemons = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let cache = std::env::temp_dir().join(format!(
            "dist-golden-{}-{i}",
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

fn color(
    addrs: &[String],
    m: &sparse::Csr,
    partition: &Partition,
    cap: Option<usize>,
) -> ShardOutcome {
    let mut coord = Coordinator::connect(addrs).expect("connect");
    if let Some(cap) = cap {
        coord = coord.with_max_supersteps(cap);
    }
    let out = coord.color(m, partition).expect("color");
    assert!(out.degraded.is_none(), "healthy fleet degraded: {:?}", out.degraded);
    verify_bgpc(&BipartiteGraph::from_matrix(m), &out.colors).unwrap();
    out
}

#[test]
fn sharded_colorings_match_golden_hashes() {
    let (mut daemons, addrs) = start_workers(4);
    let mut got = Vec::new();
    for (name, m) in instances() {
        for pname in ["block", "cyclic", "random"] {
            for p in [1usize, 2, 4] {
                let out = color(&addrs[..p], &m, &partition(pname, m.ncols(), p), None);
                got.push((name, pname, p, colors_hash(&out.colors), steps_hash(&out)));
            }
        }
    }
    let (name, m) = &instances()[0];
    assert_eq!(*name, "uniform");
    let out = color(&addrs, m, &Partition::cyclic(m.ncols(), 4), Some(1));
    assert_eq!(out.rounds(), 2, "one speculative round + the repair round");
    assert!(out.supersteps[1].colored > 0, "the capped row's repair is non-empty");
    let capped = (colors_hash(&out.colors), steps_hash(&out));
    for d in daemons.iter_mut() {
        d.shutdown();
    }

    let render: String = got
        .iter()
        .map(|(i, pn, p, c, s)| {
            format!("    (\"{i}\", \"{pn}\", {p}, {c:#018x}, {s:#018x}),\n")
        })
        .collect();
    assert!(
        got.as_slice() == GOLDEN && capped == CAPPED,
        "sharded golden hashes moved; new rows:\n{render}capped: ({:#018x}, {:#018x})",
        capped.0,
        capped.1
    );
}
