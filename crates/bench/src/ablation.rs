//! Ablation sweeps beyond the paper's own grid — the design-choice
//! experiments DESIGN.md commits to: dynamic chunk size, conflict-queue
//! strategy, net-coloring variant, the recoloring post-pass, and the
//! forbidden-set representation.

use bgpc::net::NetColoringVariant;
use bgpc::{BitStampSet, ForbiddenKind, ForbiddenSet, Neighborhood, RunnerOpts, Schedule, StampSet};
use graph::{BipartiteGraph, Ordering};
use par::Pool;
use sparse::Dataset;

use crate::report::{f2, TextTable};
use crate::sweep::{bgpc_graph, bgpc_order, geomean, run_bgpc_once};
use crate::ReproConfig;

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which knob / value, e.g. `chunk=64`.
    pub variant: String,
    /// Geo-mean time across datasets, normalized to the first variant.
    pub time_ratio: f64,
    /// Geo-mean color ratio across datasets, normalized to the first
    /// variant.
    pub colors_ratio: f64,
}

fn sweep<S>(
    cfg: &ReproConfig,
    variants: &[(String, S)],
    run: impl Fn(&S, &BipartiteGraph, &[u32], usize) -> (f64, usize),
) -> (String, Vec<AblationRow>) {
    let t = cfg.max_threads();
    let mut times = vec![Vec::new(); variants.len()];
    let mut colors = vec![Vec::new(); variants.len()];
    for &dataset in &cfg.datasets {
        let inst = dataset.build(cfg.scale, cfg.seed);
        let g = bgpc_graph(&inst);
        let order = bgpc_order(&g, Ordering::Natural);
        let mut base: Option<(f64, usize)> = None;
        for (vi, (_, spec)) in variants.iter().enumerate() {
            let (ms, k) = run(spec, &g, &order, t);
            if vi == 0 {
                base = Some((ms, k));
            }
            let (bms, bk) = base.unwrap();
            times[vi].push(ms / bms.max(1e-9));
            colors[vi].push(k as f64 / (bk as f64).max(1.0));
        }
    }
    let mut table = TextTable::new(&["Variant", "time ratio", "#colors ratio"]);
    let mut rows = Vec::new();
    for (vi, (name, _)) in variants.iter().enumerate() {
        let row = AblationRow {
            variant: name.clone(),
            time_ratio: geomean(&times[vi]),
            colors_ratio: geomean(&colors[vi]),
        };
        table.row(vec![row.variant.clone(), f2(row.time_ratio), f2(row.colors_ratio)]);
        rows.push(row);
    }
    (table.render(), rows)
}

/// Chunk-size sweep on the `V-V-64D` family (1 = OpenMP default dynamic).
pub fn chunk_sweep(cfg: &ReproConfig) -> (String, Vec<AblationRow>) {
    let variants: Vec<(String, usize)> = [1usize, 16, 64, 256]
        .iter()
        .map(|&c| (format!("chunk={c}"), c))
        .collect();
    sweep(cfg, &variants, |&chunk, g, order, t| {
        let mut schedule = Schedule::v_v_64d();
        schedule.chunk = chunk;
        let (rec, _) = run_bgpc_once(
            Dataset::CoPapersDblp, // dataset label unused in ratios
            g,
            order,
            "natural",
            &schedule,
            t,
            cfg.reps,
        );
        (rec.time_ms, rec.colors)
    })
}

/// Eager vs lazy conflict-queue construction (the 64 → 64D step).
pub fn queue_sweep(cfg: &ReproConfig) -> (String, Vec<AblationRow>) {
    let variants = vec![
        ("eager shared queue (V-V-64)".to_string(), false),
        ("lazy private queues (V-V-64D)".to_string(), true),
    ];
    sweep(cfg, &variants, |&lazy, g, order, t| {
        let schedule = if lazy {
            Schedule::v_v_64d()
        } else {
            Schedule::v_v_64()
        };
        let (rec, _) = run_bgpc_once(
            Dataset::CoPapersDblp,
            g,
            order,
            "natural",
            &schedule,
            t,
            cfg.reps,
        );
        (rec.time_ms, rec.colors)
    })
}

/// Net-coloring variant sweep inside `N1-N2` (Table I's axis, end to end).
pub fn net_variant_sweep(cfg: &ReproConfig) -> (String, Vec<AblationRow>) {
    let variants = vec![
        ("Alg. 8 two-pass reverse".to_string(), NetColoringVariant::TwoPassReverse),
        ("Alg. 6 single-pass first-fit".to_string(), NetColoringVariant::SinglePassFirstFit),
        ("Alg. 6 + reverse".to_string(), NetColoringVariant::SinglePassReverse),
    ];
    sweep(cfg, &variants, |&variant, g, order, t| {
        let schedule = Schedule::n1_n2().with_net_variant(variant);
        let (rec, _) = run_bgpc_once(
            Dataset::CoPapersDblp,
            g,
            order,
            "natural",
            &schedule,
            t,
            cfg.reps,
        );
        (rec.time_ms, rec.colors)
    })
}

/// Effect of the iterative-recoloring post-pass on color counts.
#[derive(Clone, Debug)]
pub struct RecolorRow {
    /// Dataset name.
    pub dataset: String,
    /// Colors straight out of `N1-N2`.
    pub colors_before: usize,
    /// Colors after one sequential descending-class pass.
    pub colors_after_seq: usize,
    /// Colors after one parallel speculative pass.
    pub colors_after_par: usize,
    /// Post-pass wall time (ms, parallel pass).
    pub recolor_ms: f64,
}

/// Recoloring post-pass ablation across the configured datasets.
pub fn recolor_sweep(cfg: &ReproConfig) -> (String, Vec<RecolorRow>) {
    let t = cfg.max_threads();
    let pool = Pool::new(t);
    let mut table = TextTable::new(&["Matrix", "N1-N2", "+seq pass", "+par pass", "ms"]);
    let mut rows = Vec::new();
    for &dataset in &cfg.datasets {
        let inst = dataset.build(cfg.scale, cfg.seed);
        let g = bgpc_graph(&inst);
        let order = bgpc_order(&g, Ordering::Natural);
        let r = bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
        let before = r.num_colors;

        let mut seq_colors = r.colors.clone();
        let after_seq = bgpc::recolor::reduce_colors_seq(&g, &mut seq_colors);
        bgpc::verify::verify_bgpc(&g, &seq_colors).unwrap();

        let mut par_colors = r.colors.clone();
        let t0 = std::time::Instant::now();
        let after_par = bgpc::recolor::reduce_colors(&g, &mut par_colors, &pool);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        bgpc::verify::verify_bgpc(&g, &par_colors).unwrap();

        table.row(vec![
            dataset.name().to_string(),
            before.to_string(),
            after_seq.to_string(),
            after_par.to_string(),
            f2(ms),
        ]);
        rows.push(RecolorRow {
            dataset: dataset.name().to_string(),
            colors_before: before,
            colors_after_seq: after_seq,
            colors_after_par: after_par,
            recolor_ms: ms,
        });
    }
    (table.render(), rows)
}

/// Jones–Plassmann vs the speculative framework.
#[derive(Clone, Debug)]
pub struct JpRow {
    /// Dataset name.
    pub dataset: String,
    /// JP rounds to convergence.
    pub jp_rounds: usize,
    /// JP colors.
    pub jp_colors: usize,
    /// JP wall time (ms).
    pub jp_ms: f64,
    /// Speculative N1-N2 rounds.
    pub spec_rounds: usize,
    /// Speculative N1-N2 colors.
    pub spec_colors: usize,
    /// Speculative N1-N2 wall time (ms).
    pub spec_ms: f64,
}

/// Contrast the MIS-based Jones–Plassmann baseline (the paper's related
/// work \[23\]–\[25\]) with the paper's speculative `N1-N2` on identical
/// inputs.
pub fn jp_sweep(cfg: &ReproConfig) -> (String, Vec<JpRow>) {
    let t = cfg.max_threads();
    let pool = Pool::new(t);
    let mut table = TextTable::new(&[
        "Matrix", "JP rounds", "JP #colors", "JP ms", "N1-N2 rounds", "N1-N2 #colors",
        "N1-N2 ms",
    ]);
    let mut rows = Vec::new();
    for &dataset in &cfg.datasets {
        let inst = dataset.build(cfg.scale, cfg.seed);
        let g = bgpc_graph(&inst);
        let order = bgpc_order(&g, Ordering::Natural);

        let t0 = std::time::Instant::now();
        let jp = bgpc::jp::color_jp(&g, &pool, cfg.seed);
        let jp_ms = t0.elapsed().as_secs_f64() * 1e3;
        bgpc::verify::verify_bgpc(&g, &jp.colors).unwrap();

        let (rec, res) =
            run_bgpc_once(dataset, &g, &order, "natural", &Schedule::n1_n2(), t, cfg.reps);

        table.row(vec![
            dataset.name().to_string(),
            jp.rounds.to_string(),
            jp.num_colors.to_string(),
            f2(jp_ms),
            res.rounds().to_string(),
            rec.colors.to_string(),
            f2(rec.time_ms),
        ]);
        rows.push(JpRow {
            dataset: dataset.name().to_string(),
            jp_rounds: jp.rounds,
            jp_colors: jp.num_colors,
            jp_ms,
            spec_rounds: res.rounds(),
            spec_colors: rec.colors,
            spec_ms: rec.time_ms,
        });
    }
    (table.render(), rows)
}

/// End-to-end forbidden-set comparison on one dataset and schedule: the
/// evidence for [`bgpc::forbidden::DENSE_FORBIDDEN_CUTOFF`].
#[derive(Clone, Debug)]
pub struct ForbiddenRow {
    /// Dataset name.
    pub dataset: String,
    /// [`Neighborhood::max_neighborhood`] (max net size).
    pub max_neighborhood: usize,
    /// The representation [`ForbiddenKind::auto_for`] picks for it.
    pub auto: String,
    /// Schedule name.
    pub schedule: String,
    /// Wall time with [`StampSet`] forced, minimum over reps, ms.
    pub stamp_ms: f64,
    /// Wall time with [`BitStampSet`] forced, minimum over reps, ms.
    pub bitstamp_ms: f64,
}

/// Colors every configured dataset with `V-V` and `N1-N2`, once with each
/// forbidden-set representation forced, verifying every run.
pub fn forbidden_sweep(cfg: &ReproConfig) -> (String, Vec<ForbiddenRow>) {
    let pool = Pool::new(cfg.max_threads());
    let mut table = TextTable::new(&[
        "Matrix", "max nbhd", "auto", "Schedule", "StampSet ms", "BitStampSet ms", "Stamp/Bit",
    ]);
    let mut rows = Vec::new();
    for &dataset in &cfg.datasets {
        let inst = dataset.build(cfg.scale, cfg.seed);
        let g = bgpc_graph(&inst);
        let order = bgpc_order(&g, Ordering::Natural);
        let max_neighborhood = g.max_neighborhood();
        let auto = format!("{:?}", ForbiddenKind::auto_for(max_neighborhood));
        for schedule in [Schedule::v_v(), Schedule::n1_n2()] {
            let row = ForbiddenRow {
                dataset: dataset.name().to_string(),
                max_neighborhood,
                auto: auto.clone(),
                schedule: schedule.name(),
                stamp_ms: best_ms_with::<StampSet>(&g, &order, &schedule, &pool, cfg.reps),
                bitstamp_ms: best_ms_with::<BitStampSet>(&g, &order, &schedule, &pool, cfg.reps),
            };
            table.row(vec![
                row.dataset.clone(),
                max_neighborhood.to_string(),
                auto.clone(),
                row.schedule.clone(),
                f2(row.stamp_ms),
                f2(row.bitstamp_ms),
                f2(row.stamp_ms / row.bitstamp_ms),
            ]);
            rows.push(row);
        }
    }
    (table.render(), rows)
}

/// Best wall time of `reps` verified runs with representation `F` forced.
fn best_ms_with<F: ForbiddenSet>(
    g: &BipartiteGraph,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    reps: usize,
) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let r = bgpc::color_with_set::<F, _>(g, order, schedule, pool, RunnerOpts::default());
            bgpc::verify::verify_bgpc(g, &r.colors).unwrap();
            r.total_time.as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

crate::to_json_struct!(AblationRow { variant, time_ratio, colors_ratio });
crate::to_json_struct!(ForbiddenRow { dataset, max_neighborhood, auto, schedule, stamp_ms, bitstamp_ms });
crate::to_json_struct!(RecolorRow { dataset, colors_before, colors_after_seq, colors_after_par, recolor_ms });
crate::to_json_struct!(JpRow { dataset, jp_rounds, jp_colors, jp_ms, spec_rounds, spec_colors, spec_ms });

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ReproConfig {
        ReproConfig {
            scale: 0.002,
            seed: 1,
            threads: vec![2],
            datasets: vec![Dataset::CoPapersDblp],
            reps: 1,
        }
    }

    #[test]
    fn chunk_sweep_normalizes_to_first() {
        let (text, rows) = chunk_sweep(&tiny_cfg());
        assert_eq!(rows.len(), 4);
        assert!((rows[0].time_ratio - 1.0).abs() < 1e-9);
        assert!(text.contains("chunk=64"));
    }

    #[test]
    fn queue_and_net_sweeps_run() {
        let (_, rows) = queue_sweep(&tiny_cfg());
        assert_eq!(rows.len(), 2);
        let (_, rows) = net_variant_sweep(&tiny_cfg());
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn jp_sweep_reports_more_rounds_fewer_conflicts() {
        let (_, rows) = jp_sweep(&tiny_cfg());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        // JP needs at least max-net-size rounds; speculative needs a
        // handful. On any nontrivial instance JP uses more rounds.
        assert!(row.jp_rounds > row.spec_rounds, "{row:?}");
        assert!(row.jp_colors > 0 && row.spec_colors > 0);
    }

    #[test]
    fn forbidden_sweep_reports_the_dispatch() {
        let (text, rows) = forbidden_sweep(&tiny_cfg());
        assert_eq!(rows.len(), 2);
        let want = format!("{:?}", ForbiddenKind::auto_for(rows[0].max_neighborhood));
        assert!(rows.iter().all(|r| r.auto == want && r.stamp_ms > 0.0 && r.bitstamp_ms > 0.0));
        assert!(text.contains("N1-N2"));
    }

    #[test]
    fn recolor_sweep_never_increases_colors() {
        let (_, rows) = recolor_sweep(&tiny_cfg());
        for row in rows {
            assert!(row.colors_after_seq <= row.colors_before, "{row:?}");
            assert!(row.colors_after_par <= row.colors_before, "{row:?}");
        }
    }
}
