//! The shard state machine of multi-process sharded coloring.
//!
//! [`ShardWorker`] is the only implementation of one rank's share of the
//! speculative color, detect and re-queue loop. The `dist` crate's
//! coordinator drives it with [`SuperstepRequest`]s, either over TCP (a
//! `Shard` frame installs one worker per daemon connection) or in memory
//! (`dist::DistRunner` holds one worker per rank). The worker owns the
//! vertices the owner array assigns to its shard id; conflict detection
//! runs one round behind the coloring, because the remote colors it
//! needs arrive with the next request:
//!
//! * **Round 1** speculatively colors every owned *boundary* vertex
//!   (first-fit against the local view) and flushes the results; owned
//!   *interior* vertices — whole distance-2 neighborhood on this shard —
//!   are colored *after* the Flush frame is written, so they overlap
//!   with the coordinator routing boundary messages (the
//!   interior/boundary overlap of the distributed frameworks).
//! * **Round s > 1** first applies the routed remote colors, then
//!   re-detects conflicts for the vertices colored last round under the
//!   id-ordered rule (the larger vertex of a conflicting pair loses),
//!   and re-colors exactly the losers with a jittered color draw
//!   (`k`-th available, window widening with the round up to
//!   [`JITTER_WINDOW_MAX`]) to break the symmetry that makes replicas of
//!   a large net collide forever.
//! * A **harvest** round returns the shard's owned `(vertex, color)`
//!   assignment instead of coloring.
//!
//! Conflict detection is sound because every color a remote distance-2
//! neighbor has ever taken was flushed to this shard before the round in
//! which it matters: a vertex re-colored in round `s` can conflict only
//! with a vertex colored concurrently in round `s`, which round `s + 1`
//! detects — so a quiescent round (nothing re-colored anywhere) proves
//! the global coloring valid.

use std::sync::Arc;

use bgpc::{Color, StampSet, UNCOLORED};
use graph::BipartiteGraph;

use crate::protocol::{FlushReply, ShardRequest, SuperstepRequest};

/// The widest jitter window: a re-coloring in round `s > 1` takes the
/// `k`-th available color with `k < min(4·s, JITTER_WINDOW_MAX)`, so no
/// pick lands more than this far past first-fit.
pub const JITTER_WINDOW_MAX: usize = 64;

/// splitmix64-style hash for the jittered color draw.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(b)
        .wrapping_add(0x85EBCA6B);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Which available color vertex `w` takes in round `superstep`: the
/// first (`0`) in round 1, else a per-vertex draw from the round's
/// jitter window.
fn jitter(w: u32, superstep: u32) -> usize {
    if superstep <= 1 {
        return 0;
    }
    let window = (superstep as usize * 4).min(JITTER_WINDOW_MAX);
    (mix(w as u64, superstep as u64) % window as u64) as usize
}

/// The `k`-th smallest color that no distance-2 neighbor of `w` holds in
/// `view` (`k = 0` is first-fit). `fb` is scratch.
pub fn pick_color(
    g: &BipartiteGraph,
    view: &[Color],
    w: u32,
    fb: &mut StampSet,
    k: usize,
) -> Color {
    fb.advance();
    for &net in g.nets(w as usize) {
        for &u in g.vtxs(net as usize) {
            let cu = view[u as usize];
            if u != w && cu != UNCOLORED {
                fb.insert(cu);
            }
        }
    }
    let mut col = fb.first_fit_from(0);
    for _ in 0..k {
        col = fb.first_fit_from(col + 1);
    }
    col
}

/// Whether `w` loses an id-ordered conflict in `view`: a smaller
/// distance-2 neighbor holds the same color.
pub fn loses_conflict(g: &BipartiteGraph, view: &[Color], w: u32) -> bool {
    let cw = view[w as usize];
    g.nets(w as usize).iter().any(|&net| {
        g.vtxs(net as usize)
            .iter()
            .any(|&u| u < w && view[u as usize] == cw)
    })
}

/// Pushes onto `out` each shard other than `v`'s owner that owns a
/// distance-2 neighbor of `v` — the shards that must learn `v`'s color.
/// `mark` holds one slot per shard, none of them `v` on entry.
pub fn remote_shards(
    g: &BipartiteGraph,
    owners: &[u32],
    v: usize,
    mark: &mut [usize],
    out: &mut Vec<u32>,
) {
    for &net in g.nets(v) {
        for &u in g.vtxs(net as usize) {
            let r = owners[u as usize];
            if r != owners[v] && mark[r as usize] != v {
                mark[r as usize] = v;
                out.push(r);
            }
        }
    }
}

/// One rank of a sharded coloring run.
pub struct ShardWorker {
    shard: u32,
    graph: Arc<BipartiteGraph>,
    owners: Vec<u32>,
    /// This shard's knowledge of every vertex's color (authoritative for
    /// owned vertices, last-flushed for remote ones).
    view: Vec<Color>,
    /// Owned vertices colored in the previous round, conflict status
    /// unknown until the next round's updates arrive.
    pending: Vec<u32>,
    /// Owned vertices whose whole distance-2 neighborhood is owned —
    /// they can never conflict and are colored once, after round 1's
    /// flush is on the wire.
    interior: Vec<u32>,
    /// Owned vertices with at least one remote distance-2 neighbor.
    boundary: Vec<u32>,
    /// For each owned vertex, the remote shards that must learn its
    /// color (empty for interior and non-owned vertices).
    interested: Vec<Vec<u32>>,
    fb: StampSet,
    /// Interior coloring deferred until after round 1's reply is
    /// written; see [`ShardWorker::finish_deferred`].
    interior_deferred: bool,
}

impl ShardWorker {
    /// Builds shard `shard` of `n_shards` over an already-built graph
    /// (shared, so in-memory ranks need not copy it): validates the
    /// owner array against the graph and precomputes the
    /// interior/boundary split. Every owner id must be `< n_shards`.
    pub fn new(
        shard: u32,
        n_shards: u32,
        owners: Vec<u32>,
        graph: Arc<BipartiteGraph>,
    ) -> Result<ShardWorker, String> {
        let n = graph.n_vertices();
        if owners.len() != n {
            return Err(format!(
                "owner array has {} entries for a {}-vertex graph",
                owners.len(),
                n
            ));
        }
        let mut interested = vec![Vec::new(); n];
        let mut interior = Vec::new();
        let mut boundary = Vec::new();
        let mut mark = vec![usize::MAX; n_shards as usize];
        for (v, shards) in interested.iter_mut().enumerate() {
            if owners[v] != shard {
                continue;
            }
            remote_shards(&graph, &owners, v, &mut mark, shards);
            if shards.is_empty() {
                interior.push(v as u32);
            } else {
                boundary.push(v as u32);
            }
        }
        let fb = StampSet::with_capacity(graph.max_net_size() + 16);
        Ok(ShardWorker {
            shard,
            graph,
            owners,
            view: vec![UNCOLORED; n],
            pending: Vec::new(),
            interior,
            boundary,
            interested,
            fb,
            interior_deferred: false,
        })
    }

    /// Builds a worker from an install request: decodes the checksummed
    /// graph bytes and hands them to [`ShardWorker::new`].
    pub fn install(req: ShardRequest) -> Result<ShardWorker, String> {
        let matrix = sparse::bin_io::read_bin(req.graph_bytes.as_slice())
            .map_err(|e| format!("shard graph bytes: {e}"))?;
        let graph = BipartiteGraph::try_from_matrix_owned(matrix).map_err(|e| e.to_string())?;
        ShardWorker::new(req.shard, req.n_shards, req.owners, Arc::new(graph))
    }

    /// Runs one superstep and builds the Flush reply. The caller must
    /// write the reply to the wire and then call
    /// [`ShardWorker::finish_deferred`] — that ordering is the
    /// interior/boundary overlap.
    pub fn superstep(&mut self, req: &SuperstepRequest) -> FlushReply {
        if req.harvest {
            // Owned assignment, tagged with our own shard id.
            let messages = self
                .owners
                .iter()
                .enumerate()
                .filter(|&(_, &o)| o == self.shard)
                .map(|(v, _)| (self.shard, v as u32, self.view[v]))
                .collect();
            return FlushReply { colored: 0, conflicts: 0, messages };
        }

        // Deliver the routed remote colors first: conflict detection for
        // last round's coloring needs them.
        for &(v, c) in &req.updates {
            if let Some(slot) = self.view.get_mut(v as usize) {
                *slot = c;
            }
        }

        // Re-queue last round's losers under the id-ordered rule.
        let g = &self.graph;
        let mut queue: Vec<u32> =
            self.pending.iter().copied().filter(|&w| loses_conflict(g, &self.view, w)).collect();
        let conflicts = queue.len() as u32;
        if req.superstep <= 1 {
            queue = self.boundary.clone();
            self.interior_deferred = true;
        }

        // Color the queue with the jittered draw: plain first-fit would
        // make every shard's copy of a large net collide on the same
        // small colors forever.
        let mut messages = Vec::new();
        for &w in &queue {
            let col = pick_color(g, &self.view, w, &mut self.fb, jitter(w, req.superstep));
            self.view[w as usize] = col;
            for &dest in &self.interested[w as usize] {
                messages.push((dest, w, col));
            }
        }
        let colored = queue.len() + if req.superstep <= 1 { self.interior.len() } else { 0 };
        self.pending = queue;
        FlushReply { colored: colored as u32, conflicts, messages }
    }

    /// Colors the interior vertices deferred by round 1 — called after
    /// the Flush frame is written, so interior work overlaps with the
    /// coordinator routing boundary messages (the next Superstep frame
    /// simply waits in the socket buffer). Interior vertices only ever
    /// see owned colors, so plain first-fit is conflict-free.
    pub fn finish_deferred(&mut self) {
        if !self.interior_deferred {
            return;
        }
        self.interior_deferred = false;
        for &w in &self.interior {
            self.view[w as usize] = pick_color(&self.graph, &self.view, w, &mut self.fb, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ShardRequest;

    fn graph_bytes(m: &sparse::Csr) -> Vec<u8> {
        let mut buf = Vec::new();
        sparse::bin_io::write_bin(&mut buf, m).unwrap();
        buf
    }

    fn install(m: &sparse::Csr, owners: Vec<u32>, shard: u32, n_shards: u32) -> ShardWorker {
        ShardWorker::install(ShardRequest {
            shard,
            n_shards,
            owners,
            graph_bytes: graph_bytes(m),
        })
        .unwrap()
    }

    /// Drives a full sharded run in-process over `n_shards` workers and
    /// returns the assembled coloring plus the number of rounds.
    fn drive(m: &sparse::Csr, owners: &[u32], n_shards: u32) -> (Vec<i32>, usize) {
        let mut workers: Vec<ShardWorker> = (0..n_shards)
            .map(|s| install(m, owners.to_vec(), s, n_shards))
            .collect();
        let mut inbox: Vec<Vec<(u32, i32)>> = vec![Vec::new(); n_shards as usize];
        let mut rounds = 0usize;
        for s in 1..200u32 {
            let mut colored = 0u32;
            let mut next: Vec<Vec<(u32, i32)>> = vec![Vec::new(); n_shards as usize];
            for (r, w) in workers.iter_mut().enumerate() {
                let req = SuperstepRequest {
                    superstep: s,
                    harvest: false,
                    updates: std::mem::take(&mut inbox[r]),
                };
                let reply = w.superstep(&req);
                w.finish_deferred();
                colored += reply.colored;
                for (dest, v, c) in reply.messages {
                    next[dest as usize].push((v, c));
                }
            }
            inbox = next;
            if colored == 0 {
                break;
            }
            rounds += 1;
        }
        let n = m.ncols();
        let mut colors = vec![UNCOLORED; n];
        for w in workers.iter_mut() {
            let reply = w.superstep(&SuperstepRequest {
                superstep: 0,
                harvest: true,
                updates: vec![],
            });
            for (_, v, c) in reply.messages {
                colors[v as usize] = c;
            }
        }
        (colors, rounds)
    }

    #[test]
    fn install_rejects_wrong_owner_length_and_bad_bytes() {
        let m = sparse::gen::bipartite_uniform(10, 12, 40, 1);
        let bad = ShardWorker::install(ShardRequest {
            shard: 0,
            n_shards: 2,
            owners: vec![0; 5],
            graph_bytes: graph_bytes(&m),
        });
        assert!(bad.err().unwrap().contains("owner array"));
        let bad = ShardWorker::install(ShardRequest {
            shard: 0,
            n_shards: 2,
            owners: vec![0; 12],
            graph_bytes: vec![1, 2, 3],
        });
        assert!(bad.err().unwrap().contains("graph bytes"));
        let g = Arc::new(BipartiteGraph::from_matrix(&m));
        let bad = ShardWorker::new(0, 2, vec![0; 5], g);
        assert!(bad.err().unwrap().contains("owner array"));
    }

    #[test]
    fn single_shard_colors_everything_in_one_round() {
        let m = sparse::gen::bipartite_uniform(30, 40, 300, 1);
        let g = BipartiteGraph::from_matrix(&m);
        let owners = vec![0u32; g.n_vertices()];
        let (colors, rounds) = drive(&m, &owners, 1);
        bgpc::verify::verify_bgpc(&g, &colors).unwrap();
        assert_eq!(rounds, 1, "one shard cannot conflict");
    }

    #[test]
    fn multi_shard_run_converges_to_a_valid_coloring() {
        let m = sparse::gen::bipartite_uniform(60, 80, 900, 5);
        let g = BipartiteGraph::from_matrix(&m);
        for shards in [2u32, 4, 8] {
            let owners: Vec<u32> = (0..g.n_vertices() as u32).map(|v| v % shards).collect();
            let (colors, _rounds) = drive(&m, &owners, shards);
            bgpc::verify::verify_bgpc(&g, &colors).unwrap();
        }
    }

    #[test]
    fn interior_is_deferred_until_after_the_flush() {
        // Two disjoint halves split exactly by the partition: every
        // vertex is interior, so round 1 flushes colored == n with no
        // messages, and the view fills only after finish_deferred.
        let mut rows = Vec::new();
        for i in 0..5 {
            rows.push(vec![2 * i as u32, 2 * i as u32 + 1]);
        }
        for i in 0..5 {
            rows.push(vec![10 + 2 * i as u32, 10 + 2 * i as u32 + 1]);
        }
        let m = sparse::Csr::from_rows(20, &rows);
        let owners: Vec<u32> = (0..20).map(|v| u32::from(v >= 10)).collect();
        let mut w = install(&m, owners, 0, 2);
        let reply = w.superstep(&SuperstepRequest { superstep: 1, harvest: false, updates: vec![] });
        assert_eq!(reply.colored, 10, "all owned vertices count as colored");
        assert!(reply.messages.is_empty(), "no boundary, no messages");
        assert!(w.view[..10].iter().all(|&c| c == UNCOLORED), "interior not yet colored");
        w.finish_deferred();
        assert!(w.view[..10].iter().all(|&c| c != UNCOLORED), "interior colored after flush");
    }
}
