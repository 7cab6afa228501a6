//! End-to-end Matrix Market pipeline: write a pattern to `.mtx`, read it
//! back (the same path a real SuiteSparse download takes), color it, and
//! reduce the color count with the recoloring post-pass.
//!
//! ```text
//! cargo run --release --example suitesparse_io
//! ```

use bgpc_suite::bgpc::{self, Schedule};
use bgpc_suite::graph::{BipartiteGraph, Ordering};
use bgpc_suite::par::Pool;
use bgpc_suite::sparse::{mm, Dataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pretend this came from suitesparse.com: generate an analogue and
    // serialize it as a Matrix Market file.
    let inst = Dataset::Bone010.build(0.005, 1);
    let path = std::env::temp_dir().join("bone010_analogue.mtx");
    mm::write_pattern_file(&path, &inst.matrix)?;
    println!(
        "wrote {} ({} x {}, {} nnz)",
        path.display(),
        inst.matrix.nrows(),
        inst.matrix.ncols(),
        inst.matrix.nnz()
    );

    // Read it back exactly like a downloaded matrix.
    let matrix = mm::read_pattern_file(&path)?;
    assert_eq!(matrix, inst.matrix, "roundtrip must be lossless");

    // Color the columns.
    let g = BipartiteGraph::from_matrix(&matrix);
    let order = Ordering::SmallestLast.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    let result = bgpc::color_bgpc(&g, &order, &Schedule::v_n(2), &pool);
    bgpc::verify::verify_bgpc(&g, &result.colors)?;
    println!(
        "V-N2 + smallest-last: {} colors (lower bound {})",
        result.num_colors,
        g.max_net_size()
    );

    // One recoloring post-pass often shaves a few more colors.
    let mut colors = result.colors;
    let reduced = bgpc::recolor::reduce_colors(&g, &mut colors, &pool);
    bgpc::verify::verify_bgpc(&g, &colors)?;
    println!("after recoloring post-pass: {reduced} colors");

    std::fs::remove_file(&path).ok();
    Ok(())
}
