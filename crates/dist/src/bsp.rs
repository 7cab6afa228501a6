//! The in-memory transport: [`DistRunner`] runs one
//! [`ShardWorker`] per rank in this process through the coordinator's
//! round loop, so rounds, conflicts and message volume can be studied
//! on one machine without daemons.

use std::sync::Arc;

use graph::BipartiteGraph;
use serve::shard::InterestedRanks;
use serve::ShardWorker;

use crate::coord::run_rounds;
use crate::{Partition, ShardOutcome, MAX_SUPERSTEPS};

/// A deterministic BSP run of distributed speculative BGPC, in memory.
///
/// ```
/// use dist::{DistRunner, Partition};
/// use graph::BipartiteGraph;
/// let m = sparse::gen::bipartite_uniform(30, 40, 300, 1);
/// let g = BipartiteGraph::from_matrix(&m);
/// let runner = DistRunner::new(&g, Partition::block(g.n_vertices(), 4));
/// let result = runner.run();
/// bgpc::verify::verify_bgpc(&g, &result.colors).unwrap();
/// assert!(result.rounds() >= 1);
/// ```
pub struct DistRunner<'g> {
    graph: &'g BipartiteGraph,
    partition: Partition,
    /// Per vertex, the ranks other than the owner that must learn its
    /// color (owners of its distance-2 neighbors).
    interested: InterestedRanks,
    /// Round bound before the sequential repair (see
    /// [`DistRunner::with_max_supersteps`]).
    max_supersteps: usize,
}

impl<'g> DistRunner<'g> {
    /// Prepares a runner: lists, per vertex, the remote ranks owning
    /// any of its distance-2 neighbors.
    pub fn new(graph: &'g BipartiteGraph, partition: Partition) -> Self {
        assert_eq!(partition.len(), graph.n_vertices());
        let interested = InterestedRanks::build(graph, partition.owners(), None);
        Self {
            graph,
            partition,
            interested,
            max_supersteps: MAX_SUPERSTEPS,
        }
    }

    /// Overrides the round bound before the sequential repair (default
    /// [`MAX_SUPERSTEPS`]). Primarily a test hook: a tiny bound forces
    /// the repair on instances that would otherwise converge.
    pub fn with_max_supersteps(mut self, cap: usize) -> Self {
        self.max_supersteps = cap.max(1);
        self
    }

    /// One full boundary exchange's message volume: the sum over all
    /// vertices of their interested remote-rank counts. This is what a
    /// flush of every boundary vertex costs, and what the sequential
    /// repair of a capped run charges for its implicit all-to-all merge.
    pub fn boundary_volume(&self) -> usize {
        self.interested.total()
    }

    /// Fraction of vertices with at least one interested remote rank —
    /// the boundary ratio of the partition.
    pub fn boundary_fraction(&self) -> f64 {
        let n = self.graph.n_vertices();
        if n == 0 {
            return 0.0;
        }
        self.interested.n_boundary() as f64 / n as f64
    }

    /// Runs the speculative BSP loop to a valid coloring: one
    /// [`ShardWorker`] per rank, sharing one copy of the graph, driven
    /// through the same round loop as [`crate::Coordinator`] with
    /// messages routed in memory. The outcome equals a healthy sharded
    /// run's on the same partition and round cap, supersteps included,
    /// and is never degraded.
    pub fn run(&self) -> ShardOutcome {
        let p = self.partition.n_ranks() as u32;
        let graph = Arc::new(self.graph.clone());
        let mut workers: Vec<ShardWorker> = (0..p)
            .map(|r| {
                ShardWorker::new(r, p, self.partition.owners().to_vec(), Arc::clone(&graph))
                    .expect("the partition covers the graph")
            })
            .collect();
        run_rounds(self.graph, &self.partition, self.max_supersteps, |reqs| {
            workers
                .iter_mut()
                .zip(&reqs)
                .map(|(w, req)| {
                    let flush = w.superstep(req)?;
                    w.finish_deferred();
                    Ok(flush)
                })
                .collect()
        })
        .unwrap_or_else(|e| panic!("in-memory shard run failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpc::verify::verify_bgpc;
    use graph::Ordering;

    fn instance() -> BipartiteGraph {
        BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(60, 80, 900, 5))
    }

    #[test]
    fn single_rank_matches_sequential() {
        let g = instance();
        let runner = DistRunner::new(&g, Partition::block(g.n_vertices(), 1));
        let r = runner.run();
        verify_bgpc(&g, &r.colors).unwrap();
        assert_eq!(r.rounds(), 1, "one rank cannot conflict");
        assert_eq!(r.total_messages(), 0);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let (seq, k) = bgpc::seq::color_bgpc_seq(&g, &order);
        assert_eq!(r.colors, seq);
        assert_eq!(r.num_colors, k);
    }

    #[test]
    fn multi_rank_converges_and_is_valid() {
        let g = instance();
        for p in [2, 4, 8] {
            for partition in [
                Partition::block(g.n_vertices(), p),
                Partition::cyclic(g.n_vertices(), p),
                Partition::random(g.n_vertices(), p, 3),
            ] {
                let runner = DistRunner::new(&g, partition);
                let r = runner.run();
                verify_bgpc(&g, &r.colors).unwrap();
                assert!(r.num_colors >= g.max_net_size());
            }
        }
    }

    #[test]
    fn conflicts_only_on_boundary() {
        // Two disjoint halves: nets {0..4} touch vertices 0..10, nets
        // {5..9} touch vertices 10..20, block partition splits exactly
        // between them → no boundary, no conflicts, one superstep.
        let mut rows = Vec::new();
        for i in 0..5 {
            rows.push(vec![2 * i as u32, 2 * i as u32 + 1]);
        }
        for i in 0..5 {
            rows.push(vec![10 + 2 * i as u32, 10 + 2 * i as u32 + 1]);
        }
        let m = sparse::Csr::from_rows(20, &rows);
        let g = BipartiteGraph::from_matrix(&m);
        let runner = DistRunner::new(&g, Partition::block(20, 2));
        assert_eq!(runner.boundary_fraction(), 0.0);
        let r = runner.run();
        assert_eq!(r.rounds(), 1);
        assert_eq!(r.supersteps[0].conflicts, 0);
        verify_bgpc(&g, &r.colors).unwrap();
    }

    #[test]
    fn cyclic_partition_has_larger_boundary_than_block() {
        let m = sparse::gen::banded(200, 3, 1.0, 1);
        let g = BipartiteGraph::from_matrix(&m);
        let block = DistRunner::new(&g, Partition::block(200, 4));
        let cyclic = DistRunner::new(&g, Partition::cyclic(200, 4));
        assert!(
            cyclic.boundary_fraction() > block.boundary_fraction(),
            "cyclic {} vs block {}",
            cyclic.boundary_fraction(),
            block.boundary_fraction()
        );
        // and correspondingly more messages
        let rb = block.run();
        let rc = cyclic.run();
        verify_bgpc(&g, &rb.colors).unwrap();
        verify_bgpc(&g, &rc.colors).unwrap();
        assert!(rc.total_messages() > rb.total_messages());
    }

    #[test]
    fn superstep_queue_shrinks_monotonically_in_colored() {
        let g = instance();
        let runner = DistRunner::new(&g, Partition::cyclic(g.n_vertices(), 8));
        let r = runner.run();
        for w in r.supersteps.windows(2) {
            assert!(
                w[1].colored <= w[0].colored,
                "queue should shrink: {:?}",
                r.supersteps
            );
        }
        // conflicts of step i == colored of step i+1
        for w in r.supersteps.windows(2) {
            assert_eq!(w[0].conflicts, w[1].colored);
        }
        assert_eq!(r.supersteps.last().unwrap().conflicts, 0);
    }

    #[test]
    fn forced_fallback_charges_boundary_volume() {
        // A tiny round bound forces the sequential repair on a
        // conflict-heavy cyclic partition. The repair merges every
        // owner's view — an implicit all-to-all — so its superstep must
        // charge one full boundary exchange, not zero.
        let g = instance();
        let runner = DistRunner::new(&g, Partition::cyclic(g.n_vertices(), 8))
            .with_max_supersteps(1);
        let volume = runner.boundary_volume();
        assert!(volume > 0, "cyclic partition of a dense instance has boundary");
        let r = runner.run();
        verify_bgpc(&g, &r.colors).unwrap();
        assert_eq!(r.rounds(), 2, "one speculative round + the repair round");
        let repair = r.supersteps.last().unwrap();
        assert_eq!(repair.messages, volume, "merge charged as one boundary exchange");
        assert!(repair.colored > 0, "the bound only trips with stragglers left");
        assert_eq!(repair.conflicts, 0, "the sequential repair is conflict-free");
        // And the charge is visible in the aggregate.
        assert!(r.total_messages() > r.supersteps[0].messages);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_matrix(&sparse::Csr::empty(0, 0));
        let runner = DistRunner::new(&g, Partition::block(0, 4));
        let r = runner.run();
        assert!(r.colors.is_empty());
        assert_eq!(r.rounds(), 0);
    }
}
