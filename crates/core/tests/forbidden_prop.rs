//! Property test: [`bgpc::StampSet`] and [`bgpc::BitStampSet`] are
//! observationally equivalent under every operation sequence.
//!
//! The word-packed bitset is the production representation; the per-color
//! stamp array is the executable specification. A random interleaving of
//! `advance` / `insert` / `contains` / `first_fit_from` /
//! `reverse_first_fit_from` must produce identical answers from both,
//! including across epoch boundaries (stale-word reuse) and 64-bit word
//! boundaries.
//!
//! The vertex kernel's distance-2 gather has two paths for a
//! [`BitStampSet`] (the register-word gather and, once a thread has seen
//! a color ≥ 64, the sticky one-by-one fallback); both must pick the
//! colors the [`StampSet`] spec picks.

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

use bgpc::ctx::ThreadCtx;
use bgpc::vertex::color_workqueue_vertex;
use bgpc::{Balance, BitStampSet, Color, Colors, ForbiddenSet, Neighborhood, StampSet};
use graph::{BipartiteGraph, Graph};
use minicheck::{check, prop_assert, Gen};
use par::{Pool, ThreadScratch};
use sparse::Csr;

/// Colors reach past several 64-bit words and past the initial capacity so
/// word-boundary and growth paths are exercised.
const MAX_COLOR: u32 = 300;

#[test]
fn stamp_and_bitstamp_sets_agree_on_random_op_sequences() {
    check("forbidden_set_equivalence", 256, |g| {
        let cap = g.usize_in(1..80);
        let mut spec = StampSet::with_capacity(cap);
        let mut bits = BitStampSet::with_capacity(cap);
        let ops = g.usize_in(1..120);
        for step in 0..ops {
            match g.usize_in(0..5) {
                0 => {
                    spec.advance();
                    bits.advance();
                }
                1 => {
                    let c = g.u32_in(0..MAX_COLOR) as i32;
                    spec.insert(c);
                    bits.insert(c);
                }
                2 => {
                    let c = g.u32_in(0..MAX_COLOR + 64) as i32;
                    prop_assert!(
                        spec.contains(c) == bits.contains(c),
                        "contains({c}) diverged at step {step}"
                    );
                }
                3 => {
                    let from = g.u32_in(0..MAX_COLOR + 64) as i32;
                    prop_assert!(
                        spec.first_fit_from(from) == bits.first_fit_from(from),
                        "first_fit_from({from}) diverged at step {step}: spec {}, bits {}",
                        spec.first_fit_from(from),
                        bits.first_fit_from(from)
                    );
                }
                _ => {
                    let from = g.u32_in(0..MAX_COLOR + 64) as i32 - 1;
                    prop_assert!(
                        spec.reverse_first_fit_from(from) == bits.reverse_first_fit_from(from),
                        "reverse_first_fit_from({from}) diverged at step {step}: spec {}, bits {}",
                        spec.reverse_first_fit_from(from),
                        bits.reverse_first_fit_from(from)
                    );
                }
            }
        }
        Ok(())
    });
}

#[test]
fn first_fit_results_are_never_forbidden() {
    check("first_fit_soundness", 256, |g| {
        let mut bits = BitStampSet::with_capacity(g.usize_in(1..64));
        bits.advance();
        let inserts = g.usize_in(0..90);
        for _ in 0..inserts {
            bits.insert(g.u32_in(0..MAX_COLOR) as i32);
        }
        let from = g.u32_in(0..MAX_COLOR) as i32;
        let ff = bits.first_fit_from(from);
        minicheck::prop_assert!(ff >= from, "first fit went backwards");
        minicheck::prop_assert!(!bits.contains(ff), "first fit picked a forbidden color");
        let rev = bits.reverse_first_fit_from(from);
        if rev >= 0 {
            minicheck::prop_assert!(rev <= from, "reverse fit went forwards");
            minicheck::prop_assert!(!bits.contains(rev), "reverse fit picked forbidden");
        } else {
            // UNCOLORED means every color in [0, from] is forbidden.
            for c in 0..=from {
                minicheck::prop_assert!(bits.contains(c), "reverse fit missed free {c}");
            }
        }
        Ok(())
    });
}

/// One 1-thread [`color_workqueue_vertex`] call from the partial coloring
/// `init` over queue `w`. Returns the colors, the `ForbiddenProbes` count
/// and whether the thread ended on the wide-palette fallback.
fn color_queue<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    init: &[Color],
    w: &[u32],
    balance: Balance,
    chunk: usize,
    start_wide: bool,
) -> (Vec<Color>, u64, bool) {
    let mut pool = Pool::new(1);
    pool.set_tracer(Arc::new(trace::Recorder::new(1)));
    let colors = Colors::new(init.len());
    for (u, &c) in init.iter().enumerate() {
        colors.set(u, c);
    }
    let mut scratch: ThreadScratch<ThreadCtx<F, G::Index>> = ThreadScratch::new(1, |_| {
        let mut ctx = ThreadCtx::new(16);
        ctx.wide_palette = start_wide;
        ctx
    });
    color_workqueue_vertex(g, w, &colors, &pool, chunk, balance, &scratch);
    let probes = pool
        .tracer()
        .expect("recorder installed")
        .snapshot_counters()
        .iter()
        .map(|s| s.get(trace::Counter::ForbiddenProbes))
        .sum();
    let wide = scratch.iter_mut().any(|ctx| ctx.wide_palette);
    (colors.snapshot(), probes, wide)
}

/// Draws a partial coloring over a palette that may cross 64 (about a
/// third of the pins `UNCOLORED`) and a queue of distinct vertices, which
/// keep their stale colors as conflict losers do.
fn partial_coloring(gen: &mut Gen, n: usize) -> (Vec<Color>, Vec<u32>) {
    let palette = gen.u32_in(1..200);
    let init = (0..n)
        .map(|_| {
            if gen.bool_with(0.35) {
                bgpc::UNCOLORED
            } else {
                gen.u32_in(0..palette) as Color
            }
        })
        .collect();
    let w = (0..n as u32).filter(|_| gen.bool_with(0.5)).collect();
    (init, w)
}

/// Runs the three gathers on one instance and compares them.
fn gathers_agree<G: Neighborhood>(
    gen: &mut Gen,
    g: &G,
    fallbacks: &AtomicUsize,
) -> minicheck::PropResult {
    let (init, w) = partial_coloring(gen, g.n_vertices());
    let balance = [Balance::Unbalanced, Balance::B1, Balance::B2][gen.usize_in(0..3)];
    let chunk = gen.usize_in(1..9);
    let spec = color_queue::<StampSet, G>(g, &init, &w, balance, chunk, false);
    let word = color_queue::<BitStampSet, G>(g, &init, &w, balance, chunk, false);
    let sticky = color_queue::<BitStampSet, G>(g, &init, &w, balance, chunk, true);
    prop_assert!(!spec.2, "StampSet never takes the register-word gather");
    prop_assert!(sticky.2, "the fallback flag is sticky");
    if word.2 {
        fallbacks.fetch_add(1, AtomicOrdering::Relaxed);
    }
    prop_assert!(spec.0 == word.0, "register-word gather diverged from the spec");
    prop_assert!(spec.0 == sticky.0, "sticky fallback diverged from the spec");
    prop_assert!(
        spec.1 == word.1 && spec.1 == sticky.1,
        "probe counts diverged: spec {}, word {}, sticky {}",
        spec.1,
        word.1,
        sticky.1
    );
    Ok(())
}

#[test]
fn vertex_gathers_agree_on_random_partial_colorings() {
    // Both problems: BGPC with a net wide enough to hold colors past the
    // first word, D2GC with a hub whose closed neighborhood does.
    let fallbacks = AtomicUsize::new(0);
    check("vertex_gather_equivalence_bgpc", 128, |gen| {
        let verts = gen.usize_in(1..150);
        let nets = gen.usize_in(1..30);
        let nnz = gen.usize_in(0..nets * verts.min(12) + 1);
        let m = sparse::gen::bipartite_uniform(nets, verts, nnz, gen.u64_in(0..u64::MAX));
        let mut rows: Vec<Vec<u32>> = (0..m.nrows()).map(|r| m.row(r).to_vec()).collect();
        if gen.bool_with(0.5) {
            rows.push((0..verts as u32).filter(|_| gen.bool_with(0.8)).collect());
        }
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(verts, &rows));
        gathers_agree(gen, &g, &fallbacks)
    });
    check("vertex_gather_equivalence_d2gc", 128, |gen| {
        let n = gen.usize_in(2..120);
        let edges = gen.usize_in(0..(2 * n).min(n * (n - 1) / 2) + 1);
        let m = sparse::gen::erdos_renyi(n, edges, gen.u64_in(0..u64::MAX));
        let mut rows: Vec<Vec<u32>> = (0..n).map(|r| m.row(r).to_vec()).collect();
        if gen.bool_with(0.5) {
            // Vertex 0 becomes a hub over every vertex.
            for row in rows.iter_mut().skip(1) {
                if row.first() != Some(&0) {
                    row.insert(0, 0);
                }
            }
            rows[0] = (1..n as u32).collect();
        }
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(n, &rows));
        gathers_agree(gen, &g, &fallbacks)
    });
    assert!(
        fallbacks.load(AtomicOrdering::Relaxed) > 0,
        "no case reached a color of 64 or more"
    );
}
