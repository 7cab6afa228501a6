//! Symmetry-breaking guard for the shard recolour pick.
//!
//! Under a cyclic partition, neighbouring vertices of a banded matrix
//! live on different shards, so every round a conflict loser is
//! recoloured against the same remote view as its neighbours. If every
//! recolour were first-fit, the losers of one round would pick the same
//! colours again and collide again: measured on `banded(2000, 3, 1.0, 1)`
//! at 4 and 8 shards, the run climbs from 5 rounds to the
//! `MAX_SUPERSTEPS` cap plus the repair round (513). The jitter window of
//! `serve::shard::pick_color` breaks that symmetry; these runs finish in
//! at most 8 rounds with it.

use bgpc::verify::verify_bgpc;
use dist::{DistRunner, Partition};
use graph::BipartiteGraph;

/// Rounds a banded cyclic run may take. Today's runs take 5–8; the
/// first-fit pick takes 118–513.
const ROUND_BOUND: usize = 16;

#[test]
fn banded_cyclic_runs_converge_in_few_rounds() {
    for half_bw in [3, 17] {
        let g = BipartiteGraph::from_matrix(&sparse::gen::banded(2000, half_bw, 1.0, 1));
        for shards in [4, 8] {
            let label = format!("banded(2000,{half_bw},1.0,1) cyclic p={shards}");
            let r = DistRunner::new(&g, Partition::cyclic(g.n_vertices(), shards)).run();
            verify_bgpc(&g, &r.colors).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(r.degraded.is_none(), "{label}: degraded");
            assert!(
                r.rounds() <= ROUND_BOUND,
                "{label}: {} rounds, more than {ROUND_BOUND}",
                r.rounds()
            );
        }
    }
}
