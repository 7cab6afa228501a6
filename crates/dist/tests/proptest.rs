//! Property tests for the BSP distributed baseline: any partition of any
//! bipartite pattern must converge to a valid coloring, one rank must
//! equal the sequential greedy, the shard worker's net-based passes
//! must agree with the per-vertex distance-2 rules they replace, the
//! core kernel's picks, through which the worker colors, must agree
//! with a plain pin walk, and a re-installed worker must answer exactly
//! as a freshly installed one.
//!
//! Built on the in-repo `minicheck` choice-stream harness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use minicheck::{check, prop_assert, prop_assert_eq, Gen};

use bgpc::vertex::VertexPicker;
use bgpc::{Color, StampSet, UNCOLORED};
use dist::{DistRunner, Partition, MAX_SUPERSTEPS};
use graph::BipartiteGraph;
use serve::protocol::{FlushReply, SuperstepRequest};
use serve::shard::{ConflictScan, InterestedRanks};
use serve::ShardWorker;
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

/// Oracle of the shard worker's pick: the `k`-th smallest color
/// (`k = 0` is first-fit) that no distance-2 neighbor of `w` holds in
/// `view`, by a walk of every pin into a `StampSet`. This was the
/// worker's own pick before it colored through the core kernel.
fn pick_color(g: &BipartiteGraph, view: &[Color], w: u32, fb: &mut StampSet, k: usize) -> Color {
    fb.advance();
    for &net in g.nets(w as usize) {
        for &u in g.vtxs(net as usize) {
            let cu = view[u as usize];
            if u != w && cu != UNCOLORED {
                fb.insert(cu);
            }
        }
    }
    let mut col = fb.first_fit_from(0);
    for _ in 0..k {
        col = fb.first_fit_from(col + 1);
    }
    col
}

/// A random pattern of up to 200 vertices plus up to three dense nets,
/// so that summaries span one to three words.
fn arb_wide_bipartite(g: &mut Gen) -> Csr {
    let ncols = g.usize_in(1..200);
    let nrows = g.usize_in(0..24);
    let mut rows: Vec<Vec<u32>> =
        (0..nrows).map(|_| g.vec_of(0..12, |g| g.u32_in(0..ncols as u32))).collect();
    for _ in 0..g.usize_in(0..4) {
        let p = g.usize_in(1..10) as f64 / 10.0;
        rows.push((0..ncols as u32).filter(|_| g.bool_with(p)).collect());
    }
    Csr::from_rows(ncols, &rows)
}

/// `0..n` in random order.
fn shuffled(g: &mut Gen, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, g.usize_in(0..i + 1));
    }
    v
}

#[test]
fn core_picks_agree_with_the_pin_walk_oracle() {
    // Coverage: cases with multi-word summaries, and picks at or past
    // 64·W (which switch their nets back to pin walks) that later picks
    // then read.
    let multi_word = AtomicUsize::new(0);
    let switched_then_read = AtomicUsize::new(0);
    check("core_picks_agree_with_the_pin_walk_oracle", 128, |gen| {
        let matrix = arb_wide_bipartite(gen);
        let g = BipartiteGraph::from_matrix(&matrix);
        let n = g.n_vertices();
        let mut oracle = StampSet::with_capacity(16);

        // Grow-only, through the summaries: from an all-uncolored view,
        // every vertex once in random order, as round 1, the interior and
        // the repair color. W as the core sizes it for a fresh view.
        let width = (g.max_net_size() * 5).div_ceil(4 * 64).max(1);
        if width > 1 {
            multi_word.fetch_add(1, Ordering::Relaxed);
        }
        let mut view = vec![UNCOLORED; n];
        let mut picker = VertexPicker::new(&g);
        picker.summarize(&g, &view);
        let mut past_width = false;
        for w in shuffled(gen, n) {
            let k = gen.usize_in(0..64);
            let want = pick_color(&g, &view, w, &mut oracle, k);
            let got = picker.pick(&g, &mut view, w, k);
            prop_assert!(got == want, "grow-only pick of {w}, k = {k}: {got}, oracle {want}");
            prop_assert_eq!(view[w as usize], got);
            if past_width {
                switched_then_read.fetch_add(1, Ordering::Relaxed);
            }
            past_width |= got as usize >= 64 * width;
        }

        // Stale losers, through the pin walk: a few rounds of random
        // views in which the queued vertices still hold their old colors
        // (a small palette forces repeats), each queue in random order.
        picker.walk_pins();
        for _ in 0..3 {
            let palette = gen.u32_in(1..80);
            for c in view.iter_mut() {
                if gen.bool_with(0.3) {
                    let d = gen.u32_in(0..palette + 1) as Color;
                    *c = if d == palette as Color { UNCOLORED } else { d };
                }
            }
            let queue: Vec<u32> =
                shuffled(gen, n).into_iter().filter(|_| gen.bool_with(0.5)).collect();
            for w in queue {
                let k = gen.usize_in(0..64);
                let want = pick_color(&g, &view, w, &mut oracle, k);
                let got = picker.pick(&g, &mut view, w, k);
                prop_assert!(got == want, "stale-view pick of {w}, k = {k}: {got}, oracle {want}");
                prop_assert_eq!(view[w as usize], got);
            }
        }
        Ok(())
    });
    assert!(multi_word.load(Ordering::Relaxed) > 0, "no case drew a multi-word summary");
    assert!(
        switched_then_read.load(Ordering::Relaxed) > 0,
        "no case picked past 64·W and then picked again"
    );
}

/// A block, cyclic or random partition of `n` vertices into `p` ranks.
fn arb_partition_of(g: &mut Gen, n: usize, p: usize) -> Partition {
    let seed = g.u64_in(0..1000);
    match seed % 3 {
        0 => Partition::block(n, p),
        1 => Partition::cyclic(n, p),
        _ => Partition::random(n, p, seed),
    }
}

/// One freshly built worker per rank of `partition`, sharing `g`.
fn fresh_workers(g: &Arc<BipartiteGraph>, partition: &Partition) -> Vec<ShardWorker> {
    let p = partition.n_ranks() as u32;
    (0..p)
        .map(|r| ShardWorker::new(r, p, partition.owners().to_vec(), Arc::clone(g)).unwrap())
        .collect()
}

/// Drives `workers` in lockstep as the round loop does: supersteps from 1
/// until a quiescent round or `rounds` of them, each reply's messages
/// routed to the next round, then with `harvest` a harvest round.
/// Returns every reply's encoding in round and rank order.
fn drive(workers: &mut [ShardWorker], rounds: u32, harvest: bool) -> Vec<Vec<u8>> {
    let mut inbox: Vec<Vec<(u32, i32)>> = vec![Vec::new(); workers.len()];
    let mut transcript = Vec::new();
    let mut s = 1;
    while s <= rounds {
        let mut next: Vec<Vec<(u32, i32)>> = vec![Vec::new(); workers.len()];
        let mut colored = 0;
        for (w, updates) in workers.iter_mut().zip(inbox.iter_mut()) {
            let req =
                SuperstepRequest { superstep: s, harvest: false, updates: std::mem::take(updates) };
            let reply = w.superstep(&req).expect("the round loop's requests are valid");
            w.finish_deferred();
            colored += reply.colored;
            for &(dest, v, c) in &reply.messages {
                next[dest as usize].push((v, c));
            }
            transcript.push(reply.encode());
        }
        inbox = next;
        s += 1;
        if colored == 0 {
            break;
        }
    }
    if harvest {
        for w in workers.iter_mut() {
            let req = SuperstepRequest { superstep: s, harvest: true, updates: Vec::new() };
            transcript.push(w.superstep(&req).unwrap().encode());
        }
    }
    transcript
}

#[test]
fn a_reinstalled_worker_answers_as_a_fresh_one() {
    // Coverage: first runs that colored at or past 64 (a pin walk that
    // meets such a color sets the gather's sticky wide-palette flag), and
    // instances whose round-1 summaries span several words.
    let wide = AtomicUsize::new(0);
    let multi_word = AtomicUsize::new(0);
    check("a_reinstalled_worker_answers_as_a_fresh_one", 128, |gen| {
        let matrix = arb_wide_bipartite(gen);
        let g = Arc::new(BipartiteGraph::from_matrix(&matrix));
        let n = g.n_vertices();
        if (g.max_net_size() * 5).div_ceil(4 * 64) > 1 {
            multi_word.fetch_add(1, Ordering::Relaxed);
        }
        let p = gen.usize_in(1..6);
        let first = arb_partition_of(gen, n, p);
        let second = if gen.bool_with(0.5) { first.clone() } else { arb_partition_of(gen, n, p) };

        // A first run to quiescence, stopped after round 1 or 2, or
        // capped there and harvested.
        let mut workers = fresh_workers(&g, &first);
        let (rounds, harvest) = match gen.usize_in(0..3) {
            0 => (MAX_SUPERSTEPS as u32, true),
            1 => (gen.u32_in(1..3), false),
            _ => (gen.u32_in(1..3), true),
        };
        let first_run = drive(&mut workers, rounds, harvest);
        if first_run
            .iter()
            .any(|r| FlushReply::decode(r).unwrap().messages.iter().any(|&(_, _, c)| c >= 64))
        {
            wide.fetch_add(1, Ordering::Relaxed);
        }
        let round1 = SuperstepRequest { superstep: 1, harvest: false, updates: Vec::new() };
        prop_assert!(workers[0].superstep(&round1).is_err(), "a second round 1 without a re-install");

        for (r, w) in workers.iter_mut().enumerate() {
            w.reinstall(r as u32, p as u32, second.owners().to_vec()).unwrap();
        }
        let mut reference = fresh_workers(&g, &second);
        let cap = MAX_SUPERSTEPS as u32;
        prop_assert_eq!(drive(&mut workers, cap, true), drive(&mut reference, cap, true));
        Ok(())
    });
    assert!(wide.load(Ordering::Relaxed) > 0, "no first run colored at or past 64");
    assert!(multi_word.load(Ordering::Relaxed) > 0, "no case drew a multi-word summary");
}
