//! Oracle axis for the auto-tuning engine.
//!
//! The differential oracle in [`crate::oracle`] checks hand-picked
//! configurations; this module checks the configurations the *engine*
//! picks. Each case draws a random instance, asks the engine for a
//! config, and then holds the selection to the same standard as any
//! explicit one:
//!
//! * **Selection determinism** — selecting twice on the same instance
//!   yields an identical config and provenance. The table is fixed and
//!   feature extraction is a pure pass over the CSR, so any divergence
//!   is a bug (e.g. iteration-order dependence in nearest-point search).
//! * **Name round-trip** — the chosen schedule's `name()` parses back
//!   through [`bgpc::Schedule::from_name`] to the same name, so the
//!   config string recorded in benchmark JSON and the serve cache can
//!   reconstruct the schedule.
//! * **End-to-end validity** — the config is run the way real callers
//!   run it: the relabeling applied to the matrix, the graph built at
//!   the chosen index width, the online tuner enabled, at a drawn
//!   thread count (1–4). The coloring is unpermuted back to original
//!   vertex ids and must verify on the *original* graph, must not be
//!   degraded, and must respect the greedy color bound whenever the
//!   chosen schedule is unbalanced.
//!
//! The sweep shares [`crate::oracle`]'s seeding discipline: case `i`
//! runs from sub-seed `split_mix64(seed + i)` and any failure replays
//! standalone via `check_smoke --autotune --replay-case SEED`.

use bgpc::engine::color_with_config;
use bgpc::runner::RunnerOpts;
use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{Balance, Color, Engine, EngineChoice, OnlineTuner, Schedule};
use graph::{BipartiteGraph, Graph};
use par::Pool;
use rng::{split_mix64, Pcg32};
use sparse::{Csr, IndexWidth};

use crate::oracle::{
    max_d2_degree_bgpc, max_d2_degree_graph, pick_ordering, Draw, OracleFailure, PcgDraw,
};

/// Checks selection determinism and the schedule-name round-trip, shared
/// by both problem kinds. Returns the (single) choice on success.
fn check_choice(
    label: &str,
    first: EngineChoice,
    second: EngineChoice,
) -> Result<EngineChoice, String> {
    if first != second {
        return Err(format!(
            "{label}: selection not deterministic ({} [{}] vs {} [{}])",
            first.config.describe(),
            first.matched,
            second.config.describe(),
            second.matched,
        ));
    }
    let name = first.config.schedule.name();
    match Schedule::from_name(&name) {
        Some(s) if s.name() == name => {}
        Some(s) => {
            return Err(format!(
                "{label}: schedule name `{name}` round-trips to `{}`",
                s.name()
            ));
        }
        None => {
            return Err(format!(
                "{label}: engine chose schedule `{name}` that from_name cannot parse"
            ));
        }
    }
    Ok(first)
}

/// Shared validity battery on an unpermuted result.
fn check_result(
    label: &str,
    res: &bgpc::ColoringResult,
    colors: &[Color],
    n: usize,
    balance: Balance,
    d2_bound: impl FnOnce() -> usize,
    verify: impl FnOnce(&[Color]) -> Result<(), String>,
) -> Result<(), String> {
    verify(colors).map_err(|e| format!("{label}: invalid coloring: {e}"))?;
    if let Some(reason) = &res.degraded {
        return Err(format!("{label}: unexpectedly degraded: {reason}"));
    }
    if res.num_colors > n {
        return Err(format!("{label}: {} colors for {n} vertices", res.num_colors));
    }
    if balance == Balance::Unbalanced {
        let bound = d2_bound() + 1;
        if res.num_colors > bound {
            return Err(format!(
                "{label}: {} colors exceeds greedy bound {bound}",
                res.num_colors
            ));
        }
    }
    Ok(())
}

/// One randomized engine-selection case on a BGPC instance.
pub fn run_autotune_bgpc_case(d: &mut impl Draw, engine: &Engine) -> Result<(), String> {
    let nets = d.usize_in(1..17);
    let verts = d.usize_in(1..17);
    let nnz = d.usize_in(0..nets * verts + 1);
    let mseed = d.u64_any();
    let threads = d.usize_in(1..5);
    let m = sparse::gen::bipartite_uniform(nets, verts, nnz, mseed);
    let g = BipartiteGraph::from_matrix(&m);

    let choice = check_choice(
        &format!("autotune bgpc {nets}x{verts} nnz={nnz} seed={mseed}"),
        engine.select_bgpc(&g),
        engine.select_bgpc(&g),
    )?;
    let cfg = &choice.config;
    let label = format!(
        "autotune bgpc [{} via {}] x{threads} on {nets}x{verts} nnz={nnz} seed={mseed}",
        cfg.describe(),
        choice.matched
    );

    // Run it the way real callers do: relabel, then build at the chosen
    // width, then drive with the online tuner enabled.
    let (mp, perm) = cfg.relabel.apply_columns(&m);
    let pool = Pool::new(threads);
    let opts = RunnerOpts {
        online: Some(OnlineTuner::default()),
        ..RunnerOpts::default()
    };
    let res = match cfg.index_width {
        IndexWidth::U32 => {
            let gp = BipartiteGraph::from_matrix(&mp);
            let order = pick_ordering(d).vertex_order_bgpc(&gp);
            color_with_config(&gp, &order, cfg, &pool, opts)
        }
        IndexWidth::U64 => {
            let mp64: Csr<u64> = mp.to_index::<u64>();
            let gp = BipartiteGraph::from_matrix(&mp64);
            let order = pick_ordering(d).vertex_order_bgpc(&gp);
            color_with_config(&gp, &order, cfg, &pool, opts)
        }
    };
    let colors = match &perm {
        Some(p) => sparse::unpermute(&res.colors, p),
        None => res.colors.clone(),
    };
    check_result(
        &label,
        &res,
        &colors,
        g.n_vertices(),
        cfg.schedule.balance,
        || max_d2_degree_bgpc(&g),
        |c| verify_bgpc(&g, c).map_err(|e| e.to_string()),
    )
}

/// One randomized engine-selection case on a D2GC instance.
pub fn run_autotune_d2gc_case(d: &mut impl Draw, engine: &Engine) -> Result<(), String> {
    let n = d.usize_in(1..21);
    let max_edges = (2 * n).min(n * (n - 1) / 2);
    let nedges = d.usize_in(0..max_edges + 1);
    let mseed = d.u64_any();
    let threads = d.usize_in(1..5);
    let m = sparse::gen::erdos_renyi(n, nedges, mseed);
    let g = Graph::from_symmetric_matrix(&m);

    let choice = check_choice(
        &format!("autotune d2gc n={n} edges={nedges} seed={mseed}"),
        engine.select_d2gc(&g),
        engine.select_d2gc(&g),
    )?;
    let cfg = &choice.config;
    let label = format!(
        "autotune d2gc [{} via {}] x{threads} on n={n} edges={nedges} seed={mseed}",
        cfg.describe(),
        choice.matched
    );

    let (mp, perm) = cfg.relabel.apply_symmetric(&m);
    let pool = Pool::new(threads);
    let opts = RunnerOpts {
        online: Some(OnlineTuner::default()),
        ..RunnerOpts::default()
    };
    let res = match cfg.index_width {
        IndexWidth::U32 => {
            let gp = Graph::from_symmetric_matrix(&mp);
            let order = pick_ordering(d).vertex_order_d2(&gp);
            color_with_config(&gp, &order, cfg, &pool, opts)
        }
        IndexWidth::U64 => {
            let mp64: Csr<u64> = mp.to_index::<u64>();
            let gp = Graph::from_symmetric_matrix(&mp64);
            let order = pick_ordering(d).vertex_order_d2(&gp);
            color_with_config(&gp, &order, cfg, &pool, opts)
        }
    };
    let colors = match &perm {
        Some(p) => sparse::unpermute(&res.colors, p),
        None => res.colors.clone(),
    };
    check_result(
        &label,
        &res,
        &colors,
        g.n_vertices(),
        cfg.schedule.balance,
        || max_d2_degree_graph(&g),
        |c| verify_d2gc(&g, c).map_err(|e| e.to_string()),
    )
}

/// Replays a single autotune case (BGPC then D2GC) from its sub-seed,
/// over the shipped default table.
pub fn run_autotune_case_from_seed(case_seed: u64) -> Result<(), String> {
    let engine = Engine::with_default_table();
    let mut d = PcgDraw(Pcg32::seed_from_u64(case_seed));
    run_autotune_bgpc_case(&mut d, &engine)?;
    run_autotune_d2gc_case(&mut d, &engine)
}

/// Runs `cases` engine-selection cases from the base `seed`, over the
/// shipped default table (parsed once). Case `i` uses sub-seed
/// `split_mix64(seed + i)` so any failure replays standalone.
pub fn run_autotune_sweep(seed: u64, cases: usize) -> Result<usize, OracleFailure> {
    let engine = Engine::with_default_table();
    for case in 0..cases {
        let case_seed = split_mix64(seed.wrapping_add(case as u64));
        let mut d = PcgDraw(Pcg32::seed_from_u64(case_seed));
        let outcome = run_autotune_bgpc_case(&mut d, &engine)
            .and_then(|()| run_autotune_d2gc_case(&mut d, &engine));
        if let Err(message) = outcome {
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
    fn a_short_autotune_sweep_is_clean() {
        let n = run_autotune_sweep(0xA7_70, 15).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(n, 15);
    }

    #[test]
    fn autotune_sweeps_are_deterministic_and_replayable() {
        assert!(run_autotune_sweep(7, 4).is_ok());
        assert!(run_autotune_sweep(7, 4).is_ok());
        run_autotune_case_from_seed(split_mix64(7)).expect("single-case replay is clean");
    }
}
