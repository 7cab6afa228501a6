//! Incremental-update sweep (`repro delta`): batches of edge mutations
//! against the power-law analogue, answered two ways — incrementally
//! (`apply_delta` plus a dirty-set recolor seeded from the base coloring)
//! and by a from-scratch recolor of the mutated graph. Small batches must
//! favour the incremental path; the batch size where the two meet is the
//! crossover EXPERIMENTS.md reports.

use std::time::Instant;

use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{Color, ColoringResult, CsrDelta, DeltaApplied, Neighborhood, RunnerOpts, Schedule};
use graph::{BipartiteGraph, Graph};
use par::Pool;
use sparse::{Csr, Dataset};

use crate::report::{f2, TextTable};
use crate::ReproConfig;

/// Batch sizes the sweep covers, in touched edges.
const BATCHES: [usize; 4] = [1, 10, 100, 1000];

/// A coloring problem an update cell runs: how it reads a pattern, which
/// schedule colors it, and which vertices a delta dirties.
trait DeltaProblem: Neighborhood + Sized {
    /// Problem label in records.
    const NAME: &'static str;
    /// Whether the pattern is a symmetric adjacency, so deltas are drawn
    /// as `row < col` edges and mirrored.
    const SYMMETRIC: bool;
    /// The instance view of a pattern.
    fn build(m: &Csr) -> Self;
    /// The schedule both answers use.
    fn schedule() -> Schedule;
    /// The vertices an applied delta dirties.
    fn dirty(applied: &DeltaApplied) -> Vec<u32>;
    /// Checks a coloring of this instance.
    fn verify(&self, colors: &[Color]) -> Result<(), String>;
}

impl DeltaProblem for BipartiteGraph {
    const NAME: &'static str = "BGPC";
    const SYMMETRIC: bool = false;
    fn build(m: &Csr) -> Self {
        BipartiteGraph::from_matrix(m)
    }
    fn schedule() -> Schedule {
        Schedule::n1_n2()
    }
    fn dirty(applied: &DeltaApplied) -> Vec<u32> {
        applied.dirty_bgpc().to_vec()
    }
    fn verify(&self, colors: &[Color]) -> Result<(), String> {
        verify_bgpc(self, colors)
    }
}

impl DeltaProblem for Graph {
    const NAME: &'static str = "D2GC";
    const SYMMETRIC: bool = true;
    fn build(m: &Csr) -> Self {
        Graph::from_symmetric_matrix(m)
    }
    fn schedule() -> Schedule {
        Schedule::v_v_64d()
    }
    fn dirty(applied: &DeltaApplied) -> Vec<u32> {
        applied.dirty_d2gc()
    }
    fn verify(&self, colors: &[Color]) -> Result<(), String> {
        verify_d2gc(self, colors)
    }
}

/// One measured cell: the fastest of `reps` answers each way.
struct DeltaCell {
    /// The dirty set the batch produced (the seeded work queue).
    dirty: Vec<u32>,
    /// `apply_delta` + seeded dirty-set recolor, ms.
    update_ms: f64,
    /// The incremental coloring of the mutated graph.
    update: ColoringResult,
    /// From-scratch recolor of the mutated graph, ms.
    full_ms: f64,
    /// The from-scratch coloring of the mutated graph.
    full: ColoringResult,
}

/// Measures one cell: `delta` against base pattern `m`, answered
/// incrementally and from scratch, `reps` times each (minimum kept). The
/// base coloring and the mutated graph are built outside the timed
/// regions. Panics if either answer fails to verify on the mutated graph.
fn delta_cell<P: DeltaProblem>(m: &Csr, delta: &CsrDelta, pool: &Pool, reps: usize) -> DeltaCell {
    let schedule = P::schedule();
    let g = P::build(m);
    let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let base = bgpc::color_with_opts(&g, &order, &schedule, pool, RunnerOpts::default());
    let applied = bgpc::apply_delta(m, delta).expect("delta applies to its own base");
    let g2 = P::build(&applied.matrix);
    let mut best: Option<DeltaCell> = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let a = bgpc::apply_delta(m, delta).expect("delta applies");
        let dirty = P::dirty(&a);
        let update = bgpc::recolor_incremental(
            &g2,
            &base.colors,
            &dirty,
            &order,
            &schedule,
            pool,
            RunnerOpts::default(),
        );
        let update_ms = t.elapsed().as_secs_f64() * 1e3;
        g2.verify(&update.colors)
            .unwrap_or_else(|e| panic!("invalid incremental {} coloring: {e}", P::NAME));
        let t = Instant::now();
        let full = bgpc::color_with_opts(&g2, &order, &schedule, pool, RunnerOpts::default());
        let full_ms = t.elapsed().as_secs_f64() * 1e3;
        g2.verify(&full.colors)
            .unwrap_or_else(|e| panic!("invalid full {} recolor: {e}", P::NAME));
        match &mut best {
            None => best = Some(DeltaCell { dirty, update_ms, update, full_ms, full }),
            Some(cell) => {
                if update_ms < cell.update_ms {
                    (cell.update_ms, cell.update) = (update_ms, update);
                }
                if full_ms < cell.full_ms {
                    (cell.full_ms, cell.full) = (full_ms, full);
                }
            }
        }
    }
    best.expect("at least one repetition")
}

/// Draws a batch of `batch` mutations against `m` (half deletions of
/// present edges, half insertions of absent ones), mirrored for symmetric
/// patterns. `None` when the pattern is too small to draw the batch.
fn draw_delta(m: &Csr, batch: usize, symmetric: bool, seed: u64) -> Option<CsrDelta> {
    let mut rng = rng::Pcg32::seed_from_u64(seed);
    let deletions = draw_present(m, batch / 2, symmetric, &mut rng);
    let insertions = draw_absent(m, batch - deletions.len(), symmetric, &mut rng);
    if insertions.len() + deletions.len() < batch {
        return None;
    }
    let delta = CsrDelta::try_new(insertions, deletions).expect("drawn edges form a valid delta");
    Some(if symmetric {
        delta.symmetrized().expect("non-loop undirected draws symmetrize")
    } else {
        delta
    })
}

/// Draws `want` edges absent from `m` (no duplicates) by rejection
/// sampling; `undirected` restricts draws to `row < col` non-loop pairs.
/// Returns fewer than `want` edges when the pattern is too dense.
fn draw_absent(m: &Csr, want: usize, undirected: bool, rng: &mut rng::Pcg32) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(want);
    let mut attempts = 0usize;
    while out.len() < want && attempts < 20 * want + 100 {
        attempts += 1;
        let r = rng.bounded_u64(m.nrows() as u64) as u32;
        let c = rng.bounded_u64(m.ncols() as u64) as u32;
        let (r, c) = if undirected {
            if r == c {
                continue;
            }
            (r.min(c), r.max(c))
        } else {
            (r, c)
        };
        if m.contains(r as usize, c) || out.contains(&(r, c)) {
            continue;
        }
        out.push((r, c));
    }
    out
}

/// Samples `want` distinct edges present in `m` (partial Fisher–Yates over
/// the edge census); `undirected` keeps only the `row < col` orientation.
fn draw_present(m: &Csr, want: usize, undirected: bool, rng: &mut rng::Pcg32) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..m.nrows() {
        for &c in m.row(i) {
            if !undirected || (i as u32) < c {
                edges.push((i as u32, c));
            }
        }
    }
    let want = want.min(edges.len());
    for k in 0..want {
        let j = k + rng.bounded_u64((edges.len() - k) as u64) as usize;
        edges.swap(k, j);
    }
    edges.truncate(want);
    edges
}

/// One row of `results/delta.json`.
#[derive(Clone, Debug)]
pub struct DeltaRow {
    /// `BGPC` or `D2GC`.
    pub problem: String,
    /// Dataset name.
    pub dataset: String,
    /// Thread count.
    pub threads: usize,
    /// Edge mutations in the batch (D2GC counts undirected edges, each
    /// applied in both orientations).
    pub batch: usize,
    /// Dirty vertices the batch produced.
    pub dirty: usize,
    /// `apply_delta` + seeded dirty-set recolor, minimum over reps, ms.
    pub update_ms: f64,
    /// From-scratch recolor of the mutated graph, minimum over reps, ms.
    pub full_ms: f64,
    /// `full_ms / update_ms` — above 1 the incremental path wins.
    pub speedup: f64,
    /// Colors of the incremental coloring.
    pub update_colors: usize,
    /// Colors of the from-scratch coloring.
    pub full_colors: usize,
}

/// The sweep: every configured thread count × {BGPC with `N1-N2`, D2GC
/// with `V-V-64D`} × batches of 1/10/100/1000 edges on the coPapersDBLP
/// analogue (heavy-tailed and structurally symmetric, so it serves both
/// problems).
pub fn delta_sweep(cfg: &ReproConfig) -> (String, Vec<DeltaRow>) {
    let m = Dataset::CoPapersDblp.build(cfg.scale, cfg.seed).matrix;
    let mut rows = Vec::new();
    for &t in &cfg.threads {
        let pool = Pool::new(t);
        problem_rows::<BipartiteGraph>(&m, 0, &pool, cfg, &mut rows);
        problem_rows::<Graph>(&m, 1, &pool, cfg, &mut rows);
    }
    let mut table = TextTable::new(&[
        "Problem", "t", "batch", "dirty", "update ms", "full ms", "full/update", "#colors upd",
        "#colors full",
    ]);
    for row in &rows {
        table.row(vec![
            row.problem.clone(),
            row.threads.to_string(),
            row.batch.to_string(),
            row.dirty.to_string(),
            f2(row.update_ms),
            f2(row.full_ms),
            f2(row.speedup),
            row.update_colors.to_string(),
            row.full_colors.to_string(),
        ]);
    }
    (table.render(), rows)
}

/// Appends problem `P`'s row for every batch size at the pool's thread
/// count; `stream` separates the two problems' delta draws.
fn problem_rows<P: DeltaProblem>(
    m: &Csr,
    stream: u64,
    pool: &Pool,
    cfg: &ReproConfig,
    rows: &mut Vec<DeltaRow>,
) {
    for (bi, batch) in BATCHES.into_iter().enumerate() {
        let seed = cfg.seed ^ (stream << 32) ^ (bi as u64 + 1);
        let Some(delta) = draw_delta(m, batch, P::SYMMETRIC, seed) else {
            eprintln!("delta: pattern too small for a batch of {batch}, skipped");
            continue;
        };
        let cell = delta_cell::<P>(m, &delta, pool, cfg.reps);
        rows.push(DeltaRow {
            problem: P::NAME.to_string(),
            dataset: Dataset::CoPapersDblp.name().to_string(),
            threads: pool.threads(),
            batch,
            dirty: cell.dirty.len(),
            update_ms: cell.update_ms,
            full_ms: cell.full_ms,
            speedup: cell.full_ms / cell.update_ms,
            update_colors: cell.update.num_colors,
            full_colors: cell.full.num_colors,
        });
    }
}

crate::to_json_struct!(DeltaRow { problem, dataset, threads, batch, dirty, update_ms, full_ms, speedup, update_colors, full_colors });

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cell<P: DeltaProblem>(m: &Csr) {
        let delta = draw_delta(m, 10, P::SYMMETRIC, 7).expect("the batch fits");
        let pool = Pool::new(2);
        let cell = delta_cell::<P>(m, &delta, &pool, 2);
        let applied = bgpc::apply_delta(m, &delta).unwrap();
        assert_eq!(cell.dirty, P::dirty(&applied), "{}", P::NAME);
        assert!(!cell.dirty.is_empty());
        let g2 = P::build(&applied.matrix);
        g2.verify(&cell.update.colors).unwrap();
        g2.verify(&cell.full.colors).unwrap();
    }

    #[test]
    fn delta_cell_verifies_both_answers_for_both_problems() {
        let m = Dataset::CoPapersDblp.build(0.002, 3).matrix;
        check_cell::<BipartiteGraph>(&m);
        check_cell::<Graph>(&m);
    }

    #[test]
    fn symmetric_draws_mirror_each_edge() {
        let m = sparse::gen::erdos_renyi(60, 200, 4);
        let delta = draw_delta(&m, 10, true, 9).unwrap();
        assert_eq!(delta.len(), 20);
        assert_eq!(draw_delta(&m, 10, false, 9).unwrap().len(), 10);
    }
}
