//! Property tests for the BSP distributed baseline: any partition of any
//! bipartite pattern must converge to a valid coloring, one rank must
//! equal the sequential greedy, and the shard worker's net-based passes
//! must agree with the per-vertex distance-2 rules they replace.
//!
//! Built on the in-repo `minicheck` choice-stream harness.

use minicheck::{check, prop_assert, prop_assert_eq, Gen};

use bgpc::{Color, UNCOLORED};
use dist::{DistRunner, Partition};
use graph::BipartiteGraph;
use serve::shard::{ConflictScan, InterestedRanks};
use sparse::Csr;

fn arb_bipartite(g: &mut Gen) -> Csr {
    let nrows = g.usize_in(1..16);
    let ncols = g.usize_in(1..20);
    let rows: Vec<Vec<u32>> =
        (0..nrows).map(|_| g.vec_of(0..8, |g| g.u32_in(0..ncols as u32))).collect();
    Csr::from_rows(ncols, &rows)
}

fn arb_partition(g: &mut Gen, n: usize) -> Partition {
    let p = g.usize_in(1..6);
    let seed = g.u64_in(0..1000);
    match seed % 3 {
        0 => Partition::block(n, p),
        1 => Partition::cyclic(n, p),
        _ => Partition::random(n, p, seed),
    }
}

#[test]
fn any_partition_converges_to_valid_coloring() {
    check("any_partition_converges_to_valid_coloring", 64, |gen| {
        let matrix = arb_bipartite(gen);
        let g = BipartiteGraph::from_matrix(&matrix);
        let partition = arb_partition(gen, g.n_vertices());
        let runner = DistRunner::new(&g, partition);
        let r = runner.run();
        prop_assert!(bgpc::verify::verify_bgpc(&g, &r.colors).is_ok());
        prop_assert!(r.num_colors >= g.max_net_size());
        // last superstep has no conflicts by definition of termination
        if let Some(last) = r.supersteps.last() {
            prop_assert_eq!(last.conflicts, 0);
        }
        Ok(())
    });
}

#[test]
fn one_rank_equals_sequential() {
    check("one_rank_equals_sequential", 64, |gen| {
        let matrix = arb_bipartite(gen);
        let g = BipartiteGraph::from_matrix(&matrix);
        let runner = DistRunner::new(&g, Partition::block(g.n_vertices(), 1));
        let r = runner.run();
        let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let (seq, k) = bgpc::seq::color_bgpc_seq(&g, &order);
        prop_assert_eq!(r.num_colors, k);
        prop_assert_eq!(r.total_messages(), 0);
        prop_assert_eq!(r.colors, seq);
        Ok(())
    });
}

#[test]
fn partitions_are_total_assignments() {
    check("partitions_are_total_assignments", 64, |gen| {
        let n = gen.usize_in(0..200);
        let p = gen.usize_in(1..8);
        let seed = gen.u64_in(0..100);
        for partition in [
            Partition::block(n, p),
            Partition::cyclic(n, p),
            Partition::random(n, p, seed),
        ] {
            prop_assert_eq!(partition.len(), n);
            let per_rank = partition.rank_vertices();
            let total: usize = per_rank.iter().map(|r| r.len()).sum();
            prop_assert_eq!(total, n);
            for (r, vs) in per_rank.iter().enumerate() {
                for &v in vs {
                    prop_assert_eq!(partition.owner(v as usize), r);
                }
            }
        }
        Ok(())
    });
}

/// Spec of the conflict rule: `w` loses when a smaller distance-2
/// neighbor holds the same color in `view`.
fn loses_conflict(g: &BipartiteGraph, view: &[Color], w: u32) -> bool {
    let cw = view[w as usize];
    g.nets(w as usize).iter().any(|&net| {
        g.vtxs(net as usize)
            .iter()
            .any(|&u| u < w && view[u as usize] == cw)
    })
}

/// Spec of the interested ranks: each shard other than `v`'s owner that
/// owns a distance-2 neighbor of `v`, in the order a walk of `v`'s nets
/// and their pins first meets it.
fn remote_shards(g: &BipartiteGraph, owners: &[u32], v: usize) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for &net in g.nets(v) {
        for &u in g.vtxs(net as usize) {
            let r = owners[u as usize];
            if r != owners[v] && !out.contains(&r) {
                out.push(r);
            }
        }
    }
    out
}

/// A random pattern plus an empty net and one net holding every vertex,
/// so the net spans every shard whatever the partition.
fn arb_bipartite_with_extremes(g: &mut Gen) -> Csr {
    let ncols = g.usize_in(1..24);
    let nrows = g.usize_in(0..16);
    let mut rows: Vec<Vec<u32>> =
        (0..nrows).map(|_| g.vec_of(0..8, |g| g.u32_in(0..ncols as u32))).collect();
    let at = g.usize_in(0..rows.len() + 1);
    rows.insert(at, Vec::new());
    let at = g.usize_in(0..rows.len() + 1);
    rows.insert(at, (0..ncols as u32).collect());
    Csr::from_rows(ncols, &rows)
}

/// Block, cyclic or random partitions at 1–8 ranks, or owner ids near
/// `u32::MAX` (the compacted-scratch path).
fn arb_owners(g: &mut Gen, n: usize) -> Vec<u32> {
    let p = g.usize_in(1..9);
    let seed = g.u64_in(0..1000);
    match g.usize_in(0..4) {
        0 => Partition::block(n, p).owners().to_vec(),
        1 => Partition::cyclic(n, p).owners().to_vec(),
        2 => Partition::random(n, p, seed).owners().to_vec(),
        _ => (0..n).map(|_| u32::MAX - g.u32_in(0..p as u32)).collect(),
    }
}

#[test]
fn net_passes_agree_with_the_per_vertex_specs() {
    check("net_passes_agree_with_the_per_vertex_specs", 256, |gen| {
        let matrix = arb_bipartite_with_extremes(gen);
        let g = BipartiteGraph::from_matrix(&matrix);
        let n = g.n_vertices();
        let owners = arb_owners(gen, n);

        // Interested ranks: every vertex, then one shard's rows only.
        let all = InterestedRanks::build(&g, &owners, None);
        let mut total = 0;
        for v in 0..n {
            let spec = remote_shards(&g, &owners, v);
            prop_assert_eq!(all.of(v), spec.as_slice());
            total += spec.len();
        }
        prop_assert_eq!(all.total(), total);
        let shard = owners[gen.usize_in(0..n)];
        let mine = InterestedRanks::build(&g, &owners, Some(shard));
        for v in 0..n {
            let spec = if owners[v] == shard { remote_shards(&g, &owners, v) } else { Vec::new() };
            prop_assert_eq!(mine.of(v), spec.as_slice());
        }

        // Conflict detection over a few rounds of random views (a small
        // palette forces repeats; UNCOLORED pins included) and random
        // pending subsets in random order, reusing one scratch.
        let mut scan = ConflictScan::new(&g);
        for _ in 0..3 {
            let palette = gen.u32_in(1..6) as i32;
            let view: Vec<Color> = (0..n)
                .map(|_| {
                    let c = gen.u32_in(0..palette as u32 + 1) as i32;
                    if c == palette { UNCOLORED } else { c }
                })
                .collect();
            let mut pending: Vec<u32> =
                (0..n as u32).filter(|_| gen.bool_with(0.5)).collect();
            for i in (1..pending.len()).rev() {
                pending.swap(i, gen.usize_in(0..i + 1));
            }
            scan.detect(&g, &view, &pending);
            let losers: Vec<u32> = pending.iter().copied().filter(|&w| scan.lost(w)).collect();
            let spec: Vec<u32> =
                pending.iter().copied().filter(|&w| loses_conflict(&g, &view, w)).collect();
            prop_assert_eq!(losers, spec);
            for w in 0..n as u32 {
                if !pending.contains(&w) {
                    prop_assert!(!scan.lost(w));
                }
            }
        }
        Ok(())
    });
}
