//! Multicolor Gauss–Seidel — the textbook PDE application of graph
//! coloring (paper §I: a valid coloring yields "lock-free processing of
//! the colored tasks … without expensive synchronization").
//!
//! Gauss–Seidel sweeps are inherently sequential (each update reads the
//! *latest* neighbor values), but a distance-1 coloring of the mesh makes
//! same-color unknowns mutually independent: the sweep becomes a short
//! sequence of barrier-separated, embarrassingly-parallel batches — one
//! per color — with identical numerics to *some* sequential ordering.
//!
//! This example solves a 2-D Poisson problem on a 5-point stencil with
//! (a) plain sequential Gauss–Seidel and (b) the coloring-scheduled
//! parallel version, and checks both converge to the same solution.
//!
//! ```text
//! cargo run --release --example multicolor_gauss_seidel
//! ```

use std::cell::UnsafeCell;

use bgpc_suite::bgpc;
use bgpc_suite::compress::ColorClasses;
use bgpc_suite::graph::Graph;
use bgpc_suite::par::Pool;

const NX: usize = 32;
const NY: usize = 32;
const MAX_SWEEPS: usize = 20_000;
const TOL: f64 = 1e-10;

/// Unknowns written without locks; the coloring certifies disjointness
/// within each batch.
struct Solution {
    x: Vec<UnsafeCell<f64>>,
}
// SAFETY: each color batch touches pairwise non-adjacent unknowns, and an
// update writes only its own unknown; batches are separated by pool
// barriers.
unsafe impl Sync for Solution {}

impl Solution {
    fn new(n: usize) -> Self {
        Self {
            x: (0..n).map(|_| UnsafeCell::new(0.0)).collect(),
        }
    }
    fn get(&self, i: usize) -> f64 {
        // SAFETY: reads of neighbors race only with writes of *other*
        // unknowns in the same batch (never the same index).
        unsafe { *self.x[i].get() }
    }
    /// # Safety
    /// Only one thread may write index `i` per batch — guaranteed by the
    /// coloring.
    unsafe fn set(&self, i: usize, v: f64) {
        *self.x[i].get() = v;
    }
    fn to_vec(&self) -> Vec<f64> {
        (0..self.x.len()).map(|i| self.get(i)).collect()
    }
}

fn main() {
    // 5-point Laplacian on an NX × NY grid: A = 4I - adjacency.
    let mesh = bgpc_suite::sparse::gen::grid3d_select(NX, NY, 1, 1, |dx, dy, _| {
        dx.abs() + dy.abs() == 1
    });
    let g = Graph::from_symmetric_matrix(&mesh);
    let n = g.n_vertices();
    let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) / 17.0).collect();
    println!("Poisson {NX}x{NY}: {n} unknowns, {} edges", g.n_edges());

    let gs_update = |x_of: &dyn Fn(usize) -> f64, i: usize| -> f64 {
        let sigma: f64 = g.nbor(i).iter().map(|&j| x_of(j as usize)).sum();
        (b[i] + sigma) / 4.0
    };

    let residual = |x: &dyn Fn(usize) -> f64| -> f64 {
        (0..n)
            .map(|i| {
                let sigma: f64 = g.nbor(i).iter().map(|&j| x(j as usize)).sum();
                (4.0 * x(i) - sigma - b[i]).abs()
            })
            .fold(0.0f64, f64::max)
    };

    // (a) sequential Gauss-Seidel, natural order, to residual TOL.
    let t0 = std::time::Instant::now();
    let mut x_seq = vec![0.0f64; n];
    let mut seq_sweeps = 0;
    for sweep in 1..=MAX_SWEEPS {
        for i in 0..n {
            let sigma: f64 = g.nbor(i).iter().map(|&j| x_seq[j as usize]).sum();
            x_seq[i] = (b[i] + sigma) / 4.0;
        }
        seq_sweeps = sweep;
        if sweep % 16 == 0 && residual(&|j| x_seq[j]) < TOL {
            break;
        }
    }
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;

    // (b) multicolor Gauss-Seidel: D1-color the mesh (2 colors for a
    // bipartite 5-point grid — the classic red-black ordering falls out
    // automatically), then sweep color by color.
    let order: Vec<u32> = (0..n as u32).collect();
    let pool = Pool::new(4);
    let bgpc::ColoringResult { colors, num_colors: k, .. } =
        bgpc::d1gc::color_d1gc(&g, &order, &bgpc::Schedule::v_v_64d(), &pool);
    bgpc::d1gc::verify_d1gc(&g, &colors).expect("valid D1 coloring");
    println!("mesh colored with {k} colors (red-black = 2 expected)");

    let classes = ColorClasses::from_colors(&colors);
    let x_par = Solution::new(n);
    let t0 = std::time::Instant::now();
    let mut par_sweeps = 0;
    for sweep in 1..=MAX_SWEEPS {
        classes.for_each_parallel(&pool, 64, |i| {
            let i = i as usize;
            let v = gs_update(&|j| x_par.get(j), i);
            // SAFETY: same-color unknowns are non-adjacent.
            unsafe { x_par.set(i, v) };
        });
        par_sweeps = sweep;
        if sweep % 16 == 0 && residual(&|j| x_par.get(j)) < TOL {
            break;
        }
    }
    let par_ms = t0.elapsed().as_secs_f64() * 1e3;
    let x_par = x_par.to_vec();

    // Both iterations converge to the unique solution of A x = b, so the
    // solutions must agree to ~TOL even though the sweep orders differ.
    let diff = x_seq
        .iter()
        .zip(&x_par)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "sequential GS: {seq_sweeps} sweeps, {seq_ms:.1} ms; \
         multicolor GS ({k} barriers/sweep): {par_sweeps} sweeps, {par_ms:.1} ms"
    );
    println!("max |x_seq - x_multicolor| = {diff:.3e}");
    assert!(diff < 1e-6, "both schedules must reach the same solution");
    println!("solutions agree — coloring preserved Gauss-Seidel semantics");
}
