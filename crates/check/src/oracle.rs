//! The differential oracle: every schedule against the sequential baseline.
//!
//! Each *case* draws a randomized instance from [`sparse::gen`], a point
//! of the full configuration matrix (schedule × balancer × thread count ×
//! vertex ordering), runs the speculative driver, and
//! checks it against ground truth:
//!
//! * **Validity** — [`bgpc::verify::verify_bgpc`] /
//!   [`bgpc::verify::verify_d2gc`] on the final coloring, and the run must
//!   not be degraded (no fault fired, no queue overflowed, no cap
//!   tripped).
//! * **Sequential equivalence** — at one thread, the `V-V` schedule (and
//!   `V-V-64D` for D2GC) must reproduce the sequential greedy baseline
//!   *exactly*: same order, same first-fit, no conflicts to repair. Both
//!   read net color summaries, so both must also equal a first-fit by
//!   pin walk (a [`VertexPicker`] that never
//!   summarizes).
//! * **Implementation equivalence** — at one thread the two
//!   forbidden-set representations ([`bgpc::StampSet`] vs
//!   [`bgpc::BitStampSet`]) must produce identical colorings.
//! * **Determinism** — running the same configuration twice at one thread
//!   must produce identical colorings.
//! * **Wide palettes** — one case in four adds a net of 65–300 pins (for
//!   D2GC a hub vertex whose closed neighborhood is that large), so
//!   colors pass 64 and the one-thread equivalences cover the vertex
//!   kernel's wide-palette fallback as well as its register-word gather.
//! * **Color-count sanity** — never more colors than vertices, and for
//!   unbalanced first-fit never more than the maximum distance-2 degree
//!   plus one (the classic greedy bound; the `B1`/`B2` balancers trade
//!   that bound for balance, so it is only asserted for
//!   [`bgpc::Balance::Unbalanced`]).
//!
//! The case logic is written against the tiny [`Draw`] abstraction so the
//! same code runs in two harnesses: [`check_smoke`](../bin/check_smoke.rs)
//! drives it from a seeded [`rng::Pcg32`] (fast, replayable by seed), and
//! `tests/oracle.rs` drives it from [`minicheck::Gen`], which buys
//! shrinking — a failing case is automatically minimized to the smallest
//! choice stream that still fails.

use bgpc::runner::RunnerOpts;
use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::vertex::VertexPicker;
use bgpc::{Balance, BitStampSet, Color, Neighborhood, Schedule, StampSet, UNCOLORED};
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;
use rng::{split_mix64, Pcg32};
use sparse::Csr;

/// The random draws a differential case needs, abstracted so both the
/// seeded smoke harness and the shrinking minicheck harness can drive the
/// same case logic.
pub trait Draw {
    /// Uniform draw from a half-open range.
    fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize;
    /// Uniform 64-bit draw (instance seeds).
    fn u64_any(&mut self) -> u64;
}

impl Draw for minicheck::Gen {
    fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        minicheck::Gen::usize_in(self, range)
    }
    fn u64_any(&mut self) -> u64 {
        self.u64_in(0..u64::MAX)
    }
}

/// [`Draw`] over a plain seeded PCG stream — the smoke harness's source.
pub struct PcgDraw(pub Pcg32);

impl Draw for PcgDraw {
    fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.0.gen_range(range)
    }
    fn u64_any(&mut self) -> u64 {
        self.0.next_u64()
    }
}

pub(crate) fn pick_ordering(d: &mut impl Draw) -> Ordering {
    match d.usize_in(0..5) {
        0 => Ordering::Natural,
        1 => Ordering::Random(d.u64_any()),
        2 => Ordering::LargestFirst,
        3 => Ordering::SmallestLast,
        _ => Ordering::IncidenceDegree,
    }
}

pub(crate) fn pick_balance(d: &mut impl Draw) -> Balance {
    match d.usize_in(0..3) {
        0 => Balance::Unbalanced,
        1 => Balance::B1,
        _ => Balance::B2,
    }
}

/// Exact maximum distance-2 degree of the colored side of a bipartite
/// graph (distinct d2 neighbors, excluding the vertex itself).
pub(crate) fn max_d2_degree_bgpc(g: &BipartiteGraph) -> usize {
    let mut max = 0usize;
    let mut seen = std::collections::HashSet::new();
    for u in 0..g.n_vertices() {
        seen.clear();
        g.for_each_d2_neighbor(u, |w| {
            if w as usize != u {
                seen.insert(w);
            }
        });
        max = max.max(seen.len());
    }
    max
}

/// Exact maximum distance-≤2 degree of a unipartite graph.
pub(crate) fn max_d2_degree_graph(g: &Graph) -> usize {
    let mut max = 0usize;
    let mut seen = std::collections::HashSet::new();
    for u in 0..g.n_vertices() {
        seen.clear();
        g.for_each_d2_neighbor(u, |w| {
            if w as usize != u {
                seen.insert(w);
            }
        });
        for &w in g.nbor(u) {
            if w as usize != u {
                seen.insert(w);
            }
        }
        max = max.max(seen.len());
    }
    max
}

fn same_colors(a: &[Color], b: &[Color], what: &str) -> Result<(), String> {
    if a != b {
        return Err(format!("{what}: colorings diverge ({a:?} vs {b:?})"));
    }
    Ok(())
}

/// Sequential first-fit over `order` by pin walk: a [`VertexPicker`]
/// that never summarizes.
fn pin_walk<G: Neighborhood>(g: &G, order: &[u32]) -> Vec<Color> {
    let mut colors = vec![UNCOLORED; g.n_vertices()];
    let mut picker = VertexPicker::new(g);
    for &w in order {
        picker.pick(g, &mut colors, w, 0);
    }
    colors
}

/// Draws the pin count of the case's wide net: 0 (none) in three cases
/// of four, else 65–300. Nets past 64 pins need colors past the first
/// word; past 128 they take the stamp-set dispatch
/// ([`bgpc::forbidden::DENSE_FORBIDDEN_CUTOFF`]) and multi-word net color
/// summaries.
fn draw_wide_net(d: &mut impl Draw) -> usize {
    if d.usize_in(0..4) == 0 {
        d.usize_in(65..301)
    } else {
        0
    }
}

/// One randomized BGPC differential case. Returns `Err` with a diagnosis
/// when any oracle check fails.
pub fn run_bgpc_case(d: &mut impl Draw) -> Result<(), String> {
    // Instance: a small random bipartite matrix (rows = nets, cols = the
    // colored V_A side). Small sizes keep the full battery cheap while
    // still covering empty nets, isolated vertices and dense overlaps.
    let nets = d.usize_in(1..17);
    let verts = d.usize_in(1..17);
    let nnz = d.usize_in(0..nets * verts + 1);
    let mseed = d.u64_any();
    let wide = draw_wide_net(d);
    let mut m = sparse::gen::bipartite_uniform(nets, verts, nnz, mseed);
    if wide > 0 {
        // One more net over vertices 0..wide, widening V_A as needed.
        let mut rows: Vec<Vec<u32>> = (0..m.nrows()).map(|r| m.row(r).to_vec()).collect();
        rows.push((0..wide as u32).collect());
        m = Csr::from_rows(verts.max(wide), &rows);
    }
    let g = BipartiteGraph::from_matrix(&m);
    let order = pick_ordering(d).vertex_order_bgpc(&g);

    // Configuration point.
    let all = Schedule::all();
    let idx = d.usize_in(0..all.len());
    let balance = pick_balance(d);
    let threads = d.usize_in(1..5);
    let schedule = all
        .into_iter()
        .nth(idx)
        .expect("index drawn in range")
        .with_balance(balance);
    let label = format!(
        "bgpc {} x{threads} on {nets}x{verts} nnz={nnz} seed={mseed} wide={wide}",
        schedule.name()
    );

    // Parallel validity.
    let pool = Pool::new(threads);
    let res = bgpc::color_bgpc(&g, &order, &schedule, &pool);
    verify_bgpc(&g, &res.colors).map_err(|e| format!("{label}: invalid coloring: {e}"))?;
    if let Some(reason) = &res.degraded {
        return Err(format!("{label}: unexpectedly degraded: {reason}"));
    }
    if res.num_colors > g.n_vertices() {
        return Err(format!(
            "{label}: {} colors for {} vertices",
            res.num_colors,
            g.n_vertices()
        ));
    }
    if balance == Balance::Unbalanced {
        let bound = max_d2_degree_bgpc(&g) + 1;
        if res.num_colors > bound {
            return Err(format!(
                "{label}: {} colors exceeds greedy bound {bound}",
                res.num_colors
            ));
        }
    }

    // One-thread battery: sequential equivalence, implementation
    // equivalences and determinism. One thread removes speculation (no
    // conflicts can arise), so every run must be bit-identical.
    let pool1 = Pool::new(1);
    let vv = Schedule::v_v();
    let par1 = bgpc::color_bgpc(&g, &order, &vv, &pool1);
    let (seq_colors, seq_k) = bgpc::seq::color_bgpc_seq(&g, &order);
    same_colors(&par1.colors, &seq_colors, &format!("{label}: V-V@1 vs seq"))?;
    let walk = pin_walk(&g, &order);
    same_colors(&par1.colors, &walk, &format!("{label}: V-V@1 vs pin walk"))?;
    same_colors(&seq_colors, &walk, &format!("{label}: seq vs pin walk"))?;
    if par1.num_colors != seq_k {
        return Err(format!(
            "{label}: V-V@1 used {} colors, seq used {seq_k}",
            par1.num_colors
        ));
    }

    let a = bgpc::color_bgpc(&g, &order, &schedule, &pool1);
    let b = bgpc::color_bgpc(&g, &order, &schedule, &pool1);
    same_colors(&a.colors, &b.colors, &format!("{label}: @1 run-twice"))?;

    let opts = RunnerOpts::default();
    let stamp =
        bgpc::color_with_set::<StampSet, _>(&g, &order, &schedule, &pool1, opts.clone());
    let bitstamp =
        bgpc::color_with_set::<BitStampSet, _>(&g, &order, &schedule, &pool1, opts);
    same_colors(
        &stamp.colors,
        &bitstamp.colors,
        &format!("{label}: StampSet vs BitStampSet @1"),
    )?;

    Ok(())
}

/// One randomized D2GC differential case.
pub fn run_d2gc_case(d: &mut impl Draw) -> Result<(), String> {
    let n = d.usize_in(1..21);
    let max_edges = (2 * n).min(n * (n - 1) / 2);
    let nedges = d.usize_in(0..max_edges + 1);
    let mseed = d.u64_any();
    let wide = draw_wide_net(d);
    let mut m = sparse::gen::erdos_renyi(n, nedges, mseed);
    if wide > 0 {
        // A hub, the new last vertex, adjacent to vertices 0..wide-1: its
        // closed neighborhood is a net of `wide` pins.
        let hub = n.max(wide - 1) as u32;
        let mut rows: Vec<Vec<u32>> = (0..=hub as usize)
            .map(|r| if r < n { m.row(r).to_vec() } else { Vec::new() })
            .collect();
        for row in rows.iter_mut().take(wide - 1) {
            row.push(hub);
        }
        rows[hub as usize] = (0..wide as u32 - 1).collect();
        m = Csr::from_rows(hub as usize + 1, &rows);
    }
    let g = Graph::from_symmetric_matrix(&m);
    let order = pick_ordering(d).vertex_order_d2(&g);

    let set = Schedule::all();
    let idx = d.usize_in(0..set.len());
    let balance = pick_balance(d);
    let threads = d.usize_in(1..5);
    let schedule =
        set.into_iter().nth(idx).expect("in range").with_balance(balance);
    let label = format!(
        "d2gc {} x{threads} on n={n} edges={nedges} seed={mseed} wide={wide}",
        schedule.name()
    );

    let pool = Pool::new(threads);
    let res = bgpc::d2gc::color_d2gc(&g, &order, &schedule, &pool);
    verify_d2gc(&g, &res.colors).map_err(|e| format!("{label}: invalid coloring: {e}"))?;
    if let Some(reason) = &res.degraded {
        return Err(format!("{label}: unexpectedly degraded: {reason}"));
    }
    if res.num_colors > g.n_vertices() {
        return Err(format!(
            "{label}: {} colors for {} vertices",
            res.num_colors,
            g.n_vertices()
        ));
    }
    if balance == Balance::Unbalanced {
        let bound = max_d2_degree_graph(&g) + 1;
        if res.num_colors > bound {
            return Err(format!(
                "{label}: {} colors exceeds greedy bound {bound}",
                res.num_colors
            ));
        }
    }

    // One-thread battery.
    let pool1 = Pool::new(1);
    let base = Schedule::v_v_64d();
    let par1 = bgpc::d2gc::color_d2gc(&g, &order, &base, &pool1);
    let (seq_colors, seq_k) = bgpc::seq::color_d2gc_seq(&g, &order);
    same_colors(
        &par1.colors,
        &seq_colors,
        &format!("{label}: V-V-64D@1 vs seq"),
    )?;
    let walk = pin_walk(&g, &order);
    same_colors(&par1.colors, &walk, &format!("{label}: V-V-64D@1 vs pin walk"))?;
    same_colors(&seq_colors, &walk, &format!("{label}: seq vs pin walk"))?;
    if par1.num_colors != seq_k {
        return Err(format!(
            "{label}: V-V-64D@1 used {} colors, seq used {seq_k}",
            par1.num_colors
        ));
    }

    let a = bgpc::d2gc::color_d2gc(&g, &order, &schedule, &pool1);
    let b = bgpc::d2gc::color_d2gc(&g, &order, &schedule, &pool1);
    same_colors(&a.colors, &b.colors, &format!("{label}: @1 run-twice"))?;

    let opts = RunnerOpts::default();
    let stamp = bgpc::color_with_set::<StampSet, _>(
        &g, &order, &schedule, &pool1, opts.clone(),
    );
    let bitstamp = bgpc::color_with_set::<BitStampSet, _>(
        &g, &order, &schedule, &pool1, opts,
    );
    same_colors(
        &stamp.colors,
        &bitstamp.colors,
        &format!("{label}: StampSet vs BitStampSet @1"),
    )?;

    Ok(())
}

/// A differential-oracle failure with everything needed to replay it.
#[derive(Debug)]
pub struct OracleFailure {
    /// Zero-based index of the failing case within the sweep.
    pub case: usize,
    /// Sub-seed of the failing case; feed to [`run_case_from_seed`].
    pub case_seed: u64,
    /// The oracle's diagnosis.
    pub message: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (case {}, replay case seed {})",
            self.message, self.case, self.case_seed
        )
    }
}

/// Replays a single case (BGPC then D2GC) from its sub-seed.
pub fn run_case_from_seed(case_seed: u64) -> Result<(), String> {
    let mut d = PcgDraw(Pcg32::seed_from_u64(case_seed));
    run_bgpc_case(&mut d)?;
    run_d2gc_case(&mut d)
}

/// Runs `cases` differential cases from the base `seed`. Case `i` uses
/// sub-seed `split_mix64(seed + i)` so any failure replays standalone.
/// Returns the number of cases run on success.
pub fn run_oracle_sweep(seed: u64, cases: usize) -> Result<usize, OracleFailure> {
    for case in 0..cases {
        let case_seed = split_mix64(seed.wrapping_add(case as u64));
        if let Err(message) = run_case_from_seed(case_seed) {
            return Err(OracleFailure {
                case,
                case_seed,
                message,
            });
        }
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_sweep_is_clean() {
        let n = run_oracle_sweep(0xD1FF, 20).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(n, 20);
    }

    #[test]
    fn sweeps_are_deterministic() {
        // Same seed twice: identical outcome (and the cases themselves
        // re-run identically, which run_case_from_seed exercises).
        assert!(run_oracle_sweep(42, 5).is_ok());
        assert!(run_oracle_sweep(42, 5).is_ok());
        let case_seed = split_mix64(42);
        run_case_from_seed(case_seed).expect("single-case replay is clean");
    }
}
