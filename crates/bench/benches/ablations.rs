//! Ablation benches for the design choices DESIGN.md calls out:
//! dynamic chunk size, eager vs lazy conflict queues, the three net-based
//! coloring variants, balancing heuristics, and the stamp-marked forbidden
//! set versus a reset-per-vertex alternative. Plain timing loops on the
//! in-repo harness (`bench::timing`).

use bench::timing::Group;
use bgpc::net::NetColoringVariant;
use bgpc::{Balance, Schedule};
use graph::{BipartiteGraph, Ordering};
use par::Pool;
use sparse::Dataset;

const SCALE: f64 = 0.004;
const SEED: u64 = 42;
const SAMPLES: usize = 10;

fn instance() -> (BipartiteGraph, Vec<u32>) {
    let inst = Dataset::CoPapersDblp.build(SCALE, SEED);
    let g = BipartiteGraph::from_matrix(&inst.matrix);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    (g, order)
}

/// V-V vs V-V-64: the dynamic-chunk knob (paper's first optimization).
fn chunk_size() {
    let (g, order) = instance();
    let pool = Pool::new(4);
    let group = Group::new("ablation_chunk_size", SAMPLES);
    for chunk in [1usize, 16, 64, 256] {
        let mut schedule = Schedule::v_v_64d();
        schedule.chunk = chunk;
        group.bench(&chunk.to_string(), || {
            bgpc::color_bgpc(&g, &order, &schedule, &pool).num_colors
        });
    }
}

/// Eager shared queue vs lazy thread-private queues (the 64 → 64D step).
fn queue_strategy() {
    let (g, order) = instance();
    let pool = Pool::new(4);
    let group = Group::new("ablation_conflict_queue", SAMPLES);
    group.bench("eager (V-V-64)", || {
        bgpc::color_bgpc(&g, &order, &Schedule::v_v_64(), &pool).num_colors
    });
    group.bench("lazy (V-V-64D)", || {
        bgpc::color_bgpc(&g, &order, &Schedule::v_v_64d(), &pool).num_colors
    });
}

/// Algorithm 6 vs Algorithm 6 + reverse vs Algorithm 8 (Table I's axis).
fn net_variants() {
    let (g, order) = instance();
    let pool = Pool::new(4);
    let group = Group::new("ablation_net_variant", SAMPLES);
    for (name, variant) in [
        ("alg6_first_fit", NetColoringVariant::SinglePassFirstFit),
        ("alg6_reverse", NetColoringVariant::SinglePassReverse),
        ("alg8_two_pass", NetColoringVariant::TwoPassReverse),
    ] {
        let schedule = Schedule::n1_n2().with_net_variant(variant);
        group.bench(name, || {
            bgpc::color_bgpc(&g, &order, &schedule, &pool).num_colors
        });
    }
}

/// U vs B1 vs B2 on the headline schedule ("costless" claim of Table VI).
fn balancing() {
    let (g, order) = instance();
    let pool = Pool::new(4);
    let group = Group::new("ablation_balance", SAMPLES);
    for balance in [Balance::Unbalanced, Balance::B1, Balance::B2] {
        let schedule = Schedule::n1_n2().with_balance(balance);
        group.bench(balance.label(), || {
            bgpc::color_bgpc(&g, &order, &schedule, &pool).num_colors
        });
    }
}

/// Stamp-marked forbidden set vs a clear-per-vertex boolean set — the
/// "never reset" implementation detail of §III.
fn forbidden_set() {
    let (g, order) = instance();
    let group = Group::new("ablation_forbidden_set", SAMPLES);

    group.bench("stamp_set", || bgpc::seq::color_bgpc_seq(&g, &order).1);
    group.bench("clear_per_vertex", || {
        // identical traversal, but resets a bool array per vertex
        let n = g.n_vertices();
        let mut colors = vec![-1i32; n];
        let mut forbidden = vec![false; g.max_net_size() + n + 1];
        let mut touched: Vec<usize> = Vec::new();
        for &w in &order {
            let wu = w as usize;
            for &v in g.nets(wu) {
                for &u in g.vtxs(v as usize) {
                    if u != w {
                        let cu = colors[u as usize];
                        if cu >= 0 && !forbidden[cu as usize] {
                            forbidden[cu as usize] = true;
                            touched.push(cu as usize);
                        }
                    }
                }
            }
            let mut col = 0usize;
            while forbidden[col] {
                col += 1;
            }
            colors[wu] = col as i32;
            for &t in &touched {
                forbidden[t] = false;
            }
            touched.clear();
        }
        colors[0]
    });
}

/// Ordering construction cost: natural is free, smallest-last pays the
/// quadratic-in-net-size pass (paper excludes it from coloring time).
fn ordering_cost() {
    let (g, _) = instance();
    let group = Group::new("ablation_ordering_cost", SAMPLES);
    for ordering in [Ordering::Natural, Ordering::LargestFirst, Ordering::SmallestLast] {
        group.bench(ordering.label(), || ordering.vertex_order_bgpc(&g).len());
    }
}

/// Jones–Plassmann vs the speculative framework (related work [23]–[25]).
fn jp_vs_speculative() {
    let (g, order) = instance();
    let pool = Pool::new(4);
    let group = Group::new("ablation_jp_vs_speculative", SAMPLES);
    group.bench("jones_plassmann", || {
        bgpc::jp::color_jp(&g, &pool, SEED).num_colors
    });
    group.bench("speculative_n1n2", || {
        bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool).num_colors
    });
}

/// Cost of the iterative-recoloring post-pass relative to the coloring.
fn recolor_pass() {
    let (g, order) = instance();
    let pool = Pool::new(4);
    let base = bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
    let group = Group::new("ablation_recolor_pass", SAMPLES);
    group.bench("seq_pass", || {
        let mut colors = base.colors.clone();
        bgpc::recolor::reduce_colors_seq(&g, &mut colors)
    });
    group.bench("par_pass", || {
        let mut colors = base.colors.clone();
        bgpc::recolor::reduce_colors(&g, &mut colors, &pool)
    });
}

/// BSP distributed baseline across rank counts.
fn distributed_bsp() {
    let (g, _) = instance();
    let group = Group::new("ablation_distributed_bsp", SAMPLES);
    for ranks in [1usize, 4, 16] {
        group.bench(&ranks.to_string(), || {
            let runner =
                dist::DistRunner::new(&g, dist::Partition::block(g.n_vertices(), ranks));
            runner.run().num_colors
        });
    }
}

fn main() {
    chunk_size();
    queue_strategy();
    net_variants();
    balancing();
    forbidden_set();
    ordering_cost();
    jp_vs_speculative();
    recolor_pass();
    distributed_bsp();
}
