//! The delta oracle: incremental recoloring against full recoloring.
//!
//! Each *case* draws a randomized base instance and a configuration point
//! (schedule × balancer × thread count × ordering)
//! exactly like [`crate::oracle`], colors the base graph, then draws a
//! random **mutation batch** — insertions of absent edges and
//! deletions of present edges — applies it through
//! [`bgpc::apply_delta`], and recolors incrementally with
//! [`bgpc::recolor_incremental`] seeded from the base coloring and
//! the delta's dirty set. The oracle then checks:
//!
//! * **Validity on the mutated graph** — the incremental coloring must
//!   pass [`bgpc::verify::verify_bgpc`] / [`bgpc::verify::verify_d2gc`]
//!   against the *mutated* pattern, and must not be degraded. A full
//!   recolor of the mutated graph must also verify (differential
//!   sanity for the mutation machinery itself).
//! * **Dirty-set exactness** — the touched rows/columns reported by
//!   [`bgpc::apply_delta`] must be exactly the distinct endpoints of the
//!   batch, and the mutated pattern must contain precisely the base
//!   edges plus insertions minus deletions.
//! * **Bounded quality regression** — for [`bgpc::Balance::Unbalanced`]
//!   (first-fit), the incremental color count must not exceed
//!   `max(k_base, Δ₂(G′) + 1)`: stable vertices keep their base colors
//!   and every re-colored vertex first-fits below its distance-2 degree
//!   in the mutated graph. Balanced heuristics trade that bound for
//!   balance, so there only `k ≤ n` is asserted (as in the main oracle).
//! * **Empty-delta identity** — applying the empty batch and recoloring
//!   returns the base coloring bit-identically in zero rounds.
//! * **One-thread equivalences** — at one thread the incremental path
//!   must be deterministic (run-twice identical) and agree across the
//!   two forbidden-set representations, mirroring the main oracle's
//!   battery.
//!
//! Driven by `check_smoke --delta` (seeded sweep, standalone stage for
//! `scripts/verify.sh`) and by the in-crate tests.

use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::incremental::recolor_incremental_with_set;
use bgpc::{
    apply_delta, recolor_incremental, Balance, BitStampSet, Color,
    CsrDelta, RunnerOpts, Schedule, StampSet,
};
use graph::{BipartiteGraph, Graph};
use par::Pool;
use rng::{split_mix64, Pcg32};
use sparse::Csr;

use crate::oracle::{
    max_d2_degree_bgpc, max_d2_degree_graph, pick_balance, pick_ordering, Draw,
    OracleFailure, PcgDraw,
};

/// Draws up to `want` distinct edges *absent* from `m` (and from
/// `avoid`), by bounded rejection sampling — a dense pattern may simply
/// not have `want` absent cells, in which case fewer are returned.
fn draw_absent_edges(
    d: &mut impl Draw,
    m: &Csr,
    want: usize,
    avoid: &[(u32, u32)],
) -> Vec<(u32, u32)> {
    let (nrows, ncols) = (m.nrows(), m.ncols());
    let mut out: Vec<(u32, u32)> = Vec::new();
    if nrows == 0 || ncols == 0 {
        return out;
    }
    let mut attempts = 4 * want + 8;
    while out.len() < want && attempts > 0 {
        attempts -= 1;
        let r = d.usize_in(0..nrows) as u32;
        let c = d.usize_in(0..ncols) as u32;
        if m.contains(r as usize, c) || out.contains(&(r, c)) || avoid.contains(&(r, c)) {
            continue;
        }
        out.push((r, c));
    }
    out
}

/// Draws `want` distinct edges *present* in `m` (fewer when the pattern
/// has fewer), sampling without replacement from an edge census.
fn draw_present_edges(d: &mut impl Draw, m: &Csr, want: usize) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m.nnz());
    for r in 0..m.nrows() {
        for &c in m.row(r) {
            edges.push((r as u32, c));
        }
    }
    let take = want.min(edges.len());
    let mut out = Vec::with_capacity(take);
    for _ in 0..take {
        let i = d.usize_in(0..edges.len());
        out.push(edges.swap_remove(i));
    }
    out
}

fn same_colors(a: &[Color], b: &[Color], what: &str) -> Result<(), String> {
    if a != b {
        return Err(format!("{what}: colorings diverge ({a:?} vs {b:?})"));
    }
    Ok(())
}

/// Checks that the mutated pattern is exactly base + insertions −
/// deletions and that the reported touched sets are exactly the batch's
/// distinct endpoints.
fn check_mutation_exact(
    m: &Csr,
    delta: &CsrDelta,
    applied: &bgpc::DeltaApplied,
    label: &str,
) -> Result<(), String> {
    let m2 = &applied.matrix;
    if m2.nrows() != m.nrows() || m2.ncols() != m.ncols() {
        return Err(format!("{label}: mutation changed the pattern dimensions"));
    }
    for &(r, c) in delta.insertions() {
        if !m2.contains(r as usize, c) {
            return Err(format!("{label}: inserted edge ({r},{c}) is missing"));
        }
    }
    for &(r, c) in delta.deletions() {
        if m2.contains(r as usize, c) {
            return Err(format!("{label}: deleted edge ({r},{c}) survived"));
        }
    }
    for r in 0..m.nrows() {
        for &c in m.row(r) {
            let deleted = delta.deletions().contains(&(r as u32, c));
            if m2.contains(r, c) == deleted {
                return Err(format!("{label}: base edge ({r},{c}) mishandled"));
            }
        }
    }
    let expected_nnz = m.nnz() + delta.insertions().len() - delta.deletions().len();
    if m2.nnz() != expected_nnz {
        return Err(format!(
            "{label}: mutated nnz {} != expected {expected_nnz}",
            m2.nnz()
        ));
    }
    let mut rows: Vec<u32> = delta
        .insertions()
        .iter()
        .chain(delta.deletions())
        .map(|&(r, _)| r)
        .collect();
    rows.sort_unstable();
    rows.dedup();
    if applied.touched_rows() != rows.as_slice() {
        return Err(format!(
            "{label}: touched rows {:?} != batch endpoints {rows:?}",
            applied.touched_rows()
        ));
    }
    let mut cols: Vec<u32> = delta
        .insertions()
        .iter()
        .chain(delta.deletions())
        .map(|&(_, c)| c)
        .collect();
    cols.sort_unstable();
    cols.dedup();
    if applied.touched_cols() != cols.as_slice() {
        return Err(format!(
            "{label}: touched cols {:?} != batch endpoints {cols:?}",
            applied.touched_cols()
        ));
    }
    Ok(())
}

/// One randomized BGPC delta case. Returns `Err` with a diagnosis when
/// any oracle check fails.
pub fn run_delta_bgpc_case(d: &mut impl Draw) -> Result<(), String> {
    // Base instance and configuration point, drawn like the main oracle.
    let nets = d.usize_in(1..17);
    let verts = d.usize_in(1..17);
    let nnz = d.usize_in(0..nets * verts + 1);
    let mseed = d.u64_any();
    let m = sparse::gen::bipartite_uniform(nets, verts, nnz, mseed);
    let g = BipartiteGraph::from_matrix(&m);
    let ordering = pick_ordering(d);
    let order = ordering.vertex_order_bgpc(&g);

    let all = Schedule::all();
    let idx = d.usize_in(0..all.len());
    let balance = pick_balance(d);
    let threads = d.usize_in(1..5);
    let schedule = all
        .into_iter()
        .nth(idx)
        .expect("index drawn in range")
        .with_balance(balance);

    // The mutation batch: up to 8 insertions of absent cells, up to 8
    // deletions of present edges (fewer when the pattern is full/empty).
    let want_ins = d.usize_in(0..9);
    let want_del = d.usize_in(0..9);
    let deletions = draw_present_edges(d, &m, want_del);
    let insertions = draw_absent_edges(d, &m, want_ins, &[]);
    let label = format!(
        "delta bgpc {} x{threads} on {nets}x{verts} nnz={nnz} seed={mseed} +{}/-{}",
        schedule.name(),
        insertions.len(),
        deletions.len()
    );
    let delta = CsrDelta::try_new(insertions, deletions)
        .map_err(|e| format!("{label}: delta construction rejected: {e}"))?;

    // Base coloring at the drawn configuration.
    let pool = Pool::new(threads);
    let base = bgpc::color_bgpc(&g, &order, &schedule, &pool);
    verify_bgpc(&g, &base.colors).map_err(|e| format!("{label}: invalid base coloring: {e}"))?;

    // Apply the batch and check it is structurally exact.
    let applied = apply_delta(&m, &delta).map_err(|e| format!("{label}: apply_delta: {e}"))?;
    applied
        .matrix
        .validate()
        .map_err(|e| format!("{label}: mutated pattern invalid: {e}"))?;
    check_mutation_exact(&m, &delta, &applied, &label)?;

    let g2 = BipartiteGraph::from_matrix(&applied.matrix);
    let order2 = ordering.vertex_order_bgpc(&g2);
    let dirty = applied.dirty_bgpc();

    // Incremental recolor: valid on the mutated graph, not degraded,
    // bounded regression for first-fit.
    let inc = recolor_incremental(
        &g2,
        &base.colors,
        dirty,
        &order2,
        &schedule,
        &pool,
        RunnerOpts::default(),
    );
    verify_bgpc(&g2, &inc.colors)
        .map_err(|e| format!("{label}: incremental coloring invalid on mutated graph: {e}"))?;
    if let Some(reason) = &inc.degraded {
        return Err(format!("{label}: incremental run degraded: {reason}"));
    }
    if inc.num_colors > g2.n_vertices() {
        return Err(format!(
            "{label}: {} colors for {} vertices",
            inc.num_colors,
            g2.n_vertices()
        ));
    }
    // Full recolor of the mutated graph: differential sanity, and the
    // reference point the bench crate measures the crossover against.
    let full = bgpc::color_bgpc(&g2, &order2, &schedule, &pool);
    verify_bgpc(&g2, &full.colors)
        .map_err(|e| format!("{label}: full recolor invalid on mutated graph: {e}"))?;
    if balance == Balance::Unbalanced {
        let bound = base.num_colors.max(max_d2_degree_bgpc(&g2) + 1);
        if inc.num_colors > bound {
            return Err(format!(
                "{label}: incremental used {} colors, regression bound is {bound} \
                 (base {}, full recolor {})",
                inc.num_colors, base.num_colors, full.num_colors
            ));
        }
    }

    // Empty-delta identity: straight back to the base coloring, no work.
    let noop = apply_delta(&m, &CsrDelta::empty())
        .map_err(|e| format!("{label}: empty delta rejected: {e}"))?;
    if !noop.dirty_bgpc().is_empty() || noop.matrix != m {
        return Err(format!("{label}: empty delta is not a no-op"));
    }
    let id = recolor_incremental(
        &g,
        &base.colors,
        noop.dirty_bgpc(),
        &order,
        &schedule,
        &pool,
        RunnerOpts::default(),
    );
    same_colors(&id.colors, &base.colors, &format!("{label}: empty-delta identity"))?;
    if id.rounds() != 0 {
        return Err(format!(
            "{label}: empty-delta recolor took {} rounds",
            id.rounds()
        ));
    }

    // One-thread battery on the incremental path: determinism and the two
    // forbidden-set representations.
    let pool1 = Pool::new(1);
    let base1 = bgpc::color_bgpc(&g, &order, &schedule, &pool1);
    let opts = RunnerOpts::default();
    let a = recolor_incremental(
        &g2, &base1.colors, dirty, &order2, &schedule, &pool1, opts.clone(),
    );
    let b = recolor_incremental(
        &g2, &base1.colors, dirty, &order2, &schedule, &pool1, opts.clone(),
    );
    same_colors(&a.colors, &b.colors, &format!("{label}: @1 run-twice"))?;

    let stamp = recolor_incremental_with_set::<StampSet, _>(
        &g2, &base1.colors, dirty, &order2, &schedule, &pool1, opts.clone(),
    );
    let bitstamp = recolor_incremental_with_set::<BitStampSet, _>(
        &g2, &base1.colors, dirty, &order2, &schedule, &pool1, opts,
    );
    same_colors(
        &stamp.colors,
        &bitstamp.colors,
        &format!("{label}: StampSet vs BitStampSet @1"),
    )?;

    Ok(())
}

/// One randomized D2GC delta case: the unipartite twin, mutating with a
/// symmetrized batch so the adjacency pattern stays symmetric.
pub fn run_delta_d2gc_case(d: &mut impl Draw) -> Result<(), String> {
    let n = d.usize_in(1..21);
    let max_edges = (2 * n).min(n * (n - 1) / 2);
    let nedges = d.usize_in(0..max_edges + 1);
    let mseed = d.u64_any();
    let m = sparse::gen::erdos_renyi(n, nedges, mseed);
    let g = Graph::from_symmetric_matrix(&m);
    let ordering = pick_ordering(d);
    let order = ordering.vertex_order_d2(&g);

    let set = Schedule::d2gc_set();
    let idx = d.usize_in(0..set.len());
    let balance = pick_balance(d);
    let threads = d.usize_in(1..5);
    let schedule =
        set.into_iter().nth(idx).expect("in range").with_balance(balance);

    // Draw *undirected* mutations — one direction each, no self loops —
    // then mirror through `symmetrized()` so both triangles move.
    let want_del = d.usize_in(0..5);
    let mut deletions = Vec::new();
    for (u, v) in draw_present_edges(d, &m, 2 * want_del) {
        if u < v && deletions.len() < want_del {
            deletions.push((u, v));
        }
    }
    let want_ins = d.usize_in(0..5);
    let mut insertions = Vec::new();
    if n > 1 {
        let mut attempts = 4 * want_ins + 8;
        while insertions.len() < want_ins && attempts > 0 {
            attempts -= 1;
            let u = d.usize_in(0..n) as u32;
            let v = d.usize_in(0..n) as u32;
            let (u, v) = (u.min(v), u.max(v));
            if u == v || m.contains(u as usize, v) || insertions.contains(&(u, v)) {
                continue;
            }
            insertions.push((u, v));
        }
    }
    let label = format!(
        "delta d2gc {} x{threads} on n={n} edges={nedges} seed={mseed} +{}/-{}",
        schedule.name(),
        insertions.len(),
        deletions.len()
    );
    let delta = CsrDelta::try_new(insertions, deletions)
        .map_err(|e| format!("{label}: delta construction rejected: {e}"))?
        .symmetrized()
        .map_err(|e| format!("{label}: symmetrization rejected: {e}"))?;

    let pool = Pool::new(threads);
    let base = bgpc::d2gc::color_d2gc(&g, &order, &schedule, &pool);
    verify_d2gc(&g, &base.colors).map_err(|e| format!("{label}: invalid base coloring: {e}"))?;

    let applied = apply_delta(&m, &delta).map_err(|e| format!("{label}: apply_delta: {e}"))?;
    applied
        .matrix
        .validate()
        .map_err(|e| format!("{label}: mutated pattern invalid: {e}"))?;
    if !applied.matrix.is_structurally_symmetric() {
        return Err(format!("{label}: symmetrized delta broke symmetry"));
    }
    check_mutation_exact(&m, &delta, &applied, &label)?;

    let g2 = Graph::from_symmetric_matrix(&applied.matrix);
    let order2 = ordering.vertex_order_d2(&g2);
    let dirty = applied.dirty_d2gc();

    let inc = recolor_incremental(
        &g2,
        &base.colors,
        &dirty,
        &order2,
        &schedule,
        &pool,
        RunnerOpts::default(),
    );
    verify_d2gc(&g2, &inc.colors)
        .map_err(|e| format!("{label}: incremental coloring invalid on mutated graph: {e}"))?;
    if let Some(reason) = &inc.degraded {
        return Err(format!("{label}: incremental run degraded: {reason}"));
    }
    if inc.num_colors > g2.n_vertices() {
        return Err(format!(
            "{label}: {} colors for {} vertices",
            inc.num_colors,
            g2.n_vertices()
        ));
    }
    let full = bgpc::d2gc::color_d2gc(&g2, &order2, &schedule, &pool);
    verify_d2gc(&g2, &full.colors)
        .map_err(|e| format!("{label}: full recolor invalid on mutated graph: {e}"))?;
    if balance == Balance::Unbalanced {
        let bound = base.num_colors.max(max_d2_degree_graph(&g2) + 1);
        if inc.num_colors > bound {
            return Err(format!(
                "{label}: incremental used {} colors, regression bound is {bound} \
                 (base {}, full recolor {})",
                inc.num_colors, base.num_colors, full.num_colors
            ));
        }
    }

    // Empty-delta identity.
    let noop = apply_delta(&m, &CsrDelta::empty())
        .map_err(|e| format!("{label}: empty delta rejected: {e}"))?;
    let id = recolor_incremental(
        &g,
        &base.colors,
        &noop.dirty_d2gc(),
        &order,
        &schedule,
        &pool,
        RunnerOpts::default(),
    );
    same_colors(&id.colors, &base.colors, &format!("{label}: empty-delta identity"))?;
    if id.rounds() != 0 {
        return Err(format!(
            "{label}: empty-delta recolor took {} rounds",
            id.rounds()
        ));
    }

    // One-thread battery.
    let pool1 = Pool::new(1);
    let base1 = bgpc::d2gc::color_d2gc(&g, &order, &schedule, &pool1);
    let opts = RunnerOpts::default();
    let a = recolor_incremental(
        &g2, &base1.colors, &dirty, &order2, &schedule, &pool1, opts.clone(),
    );
    let b = recolor_incremental(
        &g2, &base1.colors, &dirty, &order2, &schedule, &pool1, opts.clone(),
    );
    same_colors(&a.colors, &b.colors, &format!("{label}: @1 run-twice"))?;

    let stamp = recolor_incremental_with_set::<StampSet, _>(
        &g2, &base1.colors, &dirty, &order2, &schedule, &pool1, opts.clone(),
    );
    let bitstamp = recolor_incremental_with_set::<BitStampSet, _>(
        &g2, &base1.colors, &dirty, &order2, &schedule, &pool1, opts,
    );
    same_colors(
        &stamp.colors,
        &bitstamp.colors,
        &format!("{label}: StampSet vs BitStampSet @1"),
    )?;

    Ok(())
}

/// Replays a single delta case (BGPC then D2GC) from its sub-seed.
pub fn run_delta_case_from_seed(case_seed: u64) -> Result<(), String> {
    let mut d = PcgDraw(Pcg32::seed_from_u64(case_seed));
    run_delta_bgpc_case(&mut d)?;
    run_delta_d2gc_case(&mut d)
}

/// Runs `cases` randomized mutation cases from the base `seed`. Case `i`
/// uses sub-seed `split_mix64(seed + i)` so any failure replays
/// standalone via `check_smoke --delta --replay-case`.
pub fn run_delta_sweep(seed: u64, cases: usize) -> Result<usize, OracleFailure> {
    for case in 0..cases {
        let case_seed = split_mix64(seed.wrapping_add(case as u64));
        if let Err(message) = run_delta_case_from_seed(case_seed) {
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
    fn a_short_delta_sweep_is_clean() {
        let n = run_delta_sweep(0xDE17A, 20).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(n, 20);
    }

    #[test]
    fn delta_sweeps_are_deterministic() {
        assert!(run_delta_sweep(42, 5).is_ok());
        assert!(run_delta_sweep(42, 5).is_ok());
        let case_seed = split_mix64(42);
        run_delta_case_from_seed(case_seed).expect("single-case replay is clean");
    }
}
