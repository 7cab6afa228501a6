//! The shard state machine of multi-process sharded coloring.
//!
//! [`ShardWorker`] is the only implementation of one rank's share of the
//! speculative color, detect and re-queue loop. The `dist` crate's
//! coordinator drives it with [`SuperstepRequest`]s, either over TCP (a
//! `Shard` frame installs one worker per daemon connection, and one
//! without graph bytes re-installs it over the graph it holds, see
//! [`ShardWorker::reinstall`]) or in memory (`dist::DistRunner` holds
//! one worker per rank). The worker owns the vertices the owner array
//! assigns to its shard id; conflict detection runs one round behind the
//! coloring, because the remote colors it needs arrive with the next
//! request:
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
//! Every pick goes through the core's vertex kernel
//! ([`bgpc::vertex::VertexPicker`]): the same distance-2 gather as the
//! shared-memory coloring phase, then the `k`-th available color. From
//! the start of round 1 until the interior is colored, the view starts
//! fresh and colors are only added, each by a pick of an uncolored
//! vertex, so the gather reads each net's colors from its summary, a
//! few words kept up to date by every pick, instead of walking its pins;
//! the picks are the pin walk's. The summaries are dropped once
//! [`ShardWorker::finish_deferred`] returns. Later rounds walk pins:
//! there a routed update can replace a remote color, and a loser gives
//! up its stale color when it is re-colored (until then, the losers
//! picked before it avoid that color). A summary only ever gains
//! colors, so it could drop neither.
//!
//! Both conflict-side distance-2 passes are net-based, one read per pin
//! rather than a walk of every vertex's distance-2 neighborhood: the
//! install lists the ranks interested in each owned vertex from per-net
//! rank lists ([`InterestedRanks`]), and each round's detection scans
//! every net touched by a pending vertex once ([`ConflictScan`]). Both
//! give exactly what the per-vertex rules give, in the same order, so
//! colorings, rounds and messages do not depend on it.
//!
//! Conflict detection is sound because every color a remote distance-2
//! neighbor has ever taken was flushed to this shard before the round in
//! which it matters: a vertex re-colored in round `s` can conflict only
//! with a vertex colored concurrently in round `s`, which round `s + 1`
//! detects — so a quiescent round (nothing re-colored anywhere) proves
//! the global coloring valid.

use std::sync::Arc;

use bgpc::vertex::{VertexPicker, PREFETCH_AHEAD};
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

/// Per vertex, the ranks other than its owner that own a distance-2
/// neighbor — the shards that must learn the vertex's color — as one
/// flat CSR.
///
/// Built net-based: one pass over the pins gives each net's distinct
/// owner ranks in first-pin order, and a vertex's list is the
/// first-occurrence merge of its nets' lists. That is the order a walk
/// of `nets(v)` then `vtxs(net)` meets the ranks in, so the `Flush`
/// message order does not depend on which way the lists are built.
pub struct InterestedRanks {
    /// Row `v` is `ranks[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    ranks: Vec<u32>,
}

impl InterestedRanks {
    /// Builds the lists of every vertex, or with `only = Some(shard)`
    /// of the vertices `shard` owns (the other rows stay empty).
    ///
    /// The rank-indexed scratch is sized by the largest owner id plus
    /// one while that is at most the vertex count; owner ids beyond it
    /// are compacted to their sorted distinct values first, so the
    /// scratch never outgrows the graph whatever ids the owner array
    /// carries.
    pub fn build(g: &BipartiteGraph, owners: &[u32], only: Option<u32>) -> InterestedRanks {
        let n = g.n_vertices();
        assert_eq!(owners.len(), n, "one owner per vertex");
        let compact = compact_ranks(owners);
        let slots = compact.as_ref().map_or(owners, |(slots, _)| slots.as_slice());
        let rank_of = |s: u32| compact.as_ref().map_or(s, |(_, ids)| ids[s as usize]);
        let n_slots = slots.iter().max().map_or(0, |&m| m as usize + 1);

        // Each net's distinct owner slots, in first-pin order.
        let mut mark = vec![usize::MAX; n_slots];
        let mut net_offsets = Vec::with_capacity(g.n_nets() + 1);
        let mut net_slots = Vec::new();
        net_offsets.push(0);
        for net in 0..g.n_nets() {
            for &u in g.vtxs(net) {
                let s = slots[u as usize];
                if mark[s as usize] != net {
                    mark[s as usize] = net;
                    net_slots.push(s);
                }
            }
            net_offsets.push(net_slots.len());
        }

        // Each vertex's list: its nets' lists merged at first occurrence.
        mark.fill(usize::MAX);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut ranks = Vec::new();
        offsets.push(0);
        for v in 0..n {
            if only.is_none_or(|shard| owners[v] == shard) {
                let own = slots[v];
                for &net in g.nets(v) {
                    let net = net as usize;
                    for &s in &net_slots[net_offsets[net]..net_offsets[net + 1]] {
                        if s != own && mark[s as usize] != v {
                            mark[s as usize] = v;
                            ranks.push(rank_of(s));
                        }
                    }
                }
            }
            offsets.push(ranks.len());
        }
        InterestedRanks { offsets, ranks }
    }

    /// The ranks that must learn `v`'s color, in first-occurrence order.
    #[inline]
    pub fn of(&self, v: usize) -> &[u32] {
        &self.ranks[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Sum of the list lengths: one message per (vertex, interested
    /// rank) pair, the volume of a flush of every listed vertex.
    pub fn total(&self) -> usize {
        self.ranks.len()
    }

    /// Number of vertices with a non-empty list.
    pub fn n_boundary(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[1] > w[0]).count()
    }
}

/// Scratch slots for owner ids at or past the vertex count: each
/// vertex's slot among the sorted distinct owner ids, and those ids.
/// `None` while every owner id is below the vertex count, where each
/// rank is its own slot.
fn compact_ranks(owners: &[u32]) -> Option<(Vec<u32>, Vec<u32>)> {
    if owners.iter().all(|&o| (o as usize) < owners.len()) {
        return None;
    }
    let mut ids = owners.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let slots = owners
        .iter()
        .map(|o| ids.binary_search(o).expect("every owner is listed") as u32)
        .collect();
    Some((slots, ids))
}

/// Net-based id-ordered conflict detection: scratch for a pass that
/// flags every vertex of a pending set that a smaller distance-2
/// neighbor holds the same color as.
///
/// [`ConflictScan::detect`] marks the pending vertices, then scans each
/// net touched by one of them once, pins in ascending order, keeping
/// the colors seen so far in the net. A pending pin whose color is
/// already in the set shares the net with a smaller vertex of that
/// color, so it loses; a loser is only flagged, never uncolored, so
/// later pins still see its color and every verdict is the one the
/// per-vertex rule (some smaller distance-2 neighbor has the same
/// color) gives. The pass reads each pin of a touched net once instead
/// of walking every pending vertex's distance-2 neighborhood.
pub struct ConflictScan {
    /// Per vertex: `2·round` while pending in this round's pass,
    /// `2·round + 1` once flagged as a loser.
    vtx: Vec<u32>,
    /// Per net: the last round whose pass scanned it.
    net: Vec<u32>,
    round: u32,
    /// Non-negative colors seen so far in the net being scanned.
    seen: StampSet,
    /// Negative colors (`UNCOLORED`) seen so far in that net.
    seen_neg: Vec<Color>,
}

impl ConflictScan {
    /// Scratch for passes over `g`.
    pub fn new(g: &BipartiteGraph) -> ConflictScan {
        ConflictScan {
            vtx: vec![0; g.n_vertices()],
            net: vec![0; g.n_nets()],
            round: 0,
            seen: StampSet::with_capacity(g.max_net_size() + 16),
            seen_neg: Vec::new(),
        }
    }

    /// Flags the vertices of `pending` that lose an
    /// id-ordered conflict in `view`; read the verdicts with
    /// [`ConflictScan::lost`] until the next pass.
    pub fn detect(&mut self, g: &BipartiteGraph, view: &[Color], pending: &[u32]) {
        if self.round == u32::MAX / 2 {
            self.vtx.fill(0);
            self.net.fill(0);
            self.round = 0;
        }
        self.round += 1;
        let round = self.round;
        let (is_pending, is_loser) = (2 * round, 2 * round + 1);
        for &w in pending {
            self.vtx[w as usize] = is_pending;
        }
        for &w in pending {
            for &net in g.nets(w as usize) {
                if self.net[net as usize] == round {
                    continue;
                }
                self.net[net as usize] = round;
                self.seen.advance();
                self.seen_neg.clear();
                for &u in g.vtxs(net as usize) {
                    let c = view[u as usize];
                    let repeat = if c >= 0 {
                        let repeat = self.seen.contains(c);
                        self.seen.insert(c);
                        repeat
                    } else {
                        let repeat = self.seen_neg.contains(&c);
                        if !repeat {
                            self.seen_neg.push(c);
                        }
                        repeat
                    };
                    if repeat && self.vtx[u as usize] == is_pending {
                        self.vtx[u as usize] = is_loser;
                    }
                }
            }
        }
    }

    /// Whether `w` was pending in the last pass and lost.
    #[inline]
    pub fn lost(&self, w: u32) -> bool {
        self.vtx[w as usize] == 2 * self.round + 1
    }
}

/// The state one run of the round loop builds up on a worker; an
/// install or a re-install starts it afresh.
struct RunState {
    /// This shard's knowledge of every vertex's color (authoritative for
    /// owned vertices, last-flushed for remote ones).
    view: Vec<Color>,
    /// Owned vertices colored in the previous round, conflict status
    /// unknown until the next round's updates arrive.
    pending: Vec<u32>,
    /// The core's distance-2 gather and pick; it holds net summaries
    /// from the start of round 1 until the deferred interior is colored.
    picker: VertexPicker,
    /// Interior coloring deferred until after round 1's reply is
    /// written; see [`ShardWorker::finish_deferred`].
    interior_deferred: bool,
    /// The number of the last non-harvest superstep run, `None` until
    /// the first.
    last_superstep: Option<u32>,
}

impl RunState {
    fn fresh(graph: &BipartiteGraph) -> RunState {
        RunState {
            view: vec![UNCOLORED; graph.n_vertices()],
            pending: Vec::new(),
            picker: VertexPicker::new(graph),
            interior_deferred: false,
            last_superstep: None,
        }
    }
}

/// Rejects an owner id `>= n_shards`.
fn check_owner_ids(owners: &[u32], n_shards: u32) -> Result<(), String> {
    match owners.iter().find(|&&o| o >= n_shards) {
        Some(&bad) => Err(format!("owner id {bad} out of range for {n_shards} shards")),
        None => Ok(()),
    }
}

/// One rank of a sharded coloring run.
pub struct ShardWorker {
    shard: u32,
    graph: Arc<BipartiteGraph>,
    owners: Vec<u32>,
    /// Owned vertices whose whole distance-2 neighborhood is owned —
    /// they can never conflict and are colored once, after round 1's
    /// flush is on the wire.
    interior: Vec<u32>,
    /// Owned vertices with at least one remote distance-2 neighbor.
    boundary: Vec<u32>,
    /// For each owned vertex, the remote shards that must learn its
    /// color (empty for interior and non-owned vertices).
    interested: InterestedRanks,
    /// Scratch of the net-based conflict detection. Its round stamps
    /// only ever grow, so it carries over from one run to the next.
    scan: ConflictScan,
    run: RunState,
}

impl ShardWorker {
    /// Builds shard `shard` of `n_shards` over an already-built graph
    /// (shared, so in-memory ranks need not copy it): validates the
    /// owner array against the graph and precomputes the
    /// interior/boundary split. Rejects an owner id `>= n_shards`; no
    /// scratch is sized by `n_shards`, so a huge shard count read off the
    /// wire costs nothing.
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
        check_owner_ids(&owners, n_shards)?;
        let interested = InterestedRanks::build(&graph, &owners, Some(shard));
        let (boundary, interior): (Vec<u32>, Vec<u32>) = (0..n as u32)
            .filter(|&v| owners[v as usize] == shard)
            .partition(|&v| !interested.of(v as usize).is_empty());
        let scan = ConflictScan::new(&graph);
        let run = RunState::fresh(&graph);
        Ok(ShardWorker { shard, graph, owners, interior, boundary, interested, scan, run })
    }

    /// Builds a worker from an install request: decodes the checksummed
    /// graph bytes and hands them to [`ShardWorker::new`].
    pub fn install(req: ShardRequest) -> Result<ShardWorker, String> {
        let ShardRequest { shard, n_shards, owners, graph_bytes } = req;
        let matrix = sparse::bin_io::read_bin(graph_bytes.as_slice())
            .map_err(|e| format!("shard graph bytes: {e}"))?;
        drop(graph_bytes);
        let graph = BipartiteGraph::try_from_matrix_owned(matrix).map_err(|e| e.to_string())?;
        ShardWorker::new(shard, n_shards, owners, Arc::new(graph))
    }

    /// Makes this worker what [`ShardWorker::new`] would build for
    /// `shard` of `n_shards` under `owners` over the graph it already
    /// holds, whatever part of a run it has been through. Under the same
    /// shard id and owner array only the run state starts afresh; under
    /// another partition the worker is rebuilt over the same shared
    /// graph. A rejected request leaves the worker as it was.
    pub fn reinstall(&mut self, shard: u32, n_shards: u32, owners: Vec<u32>) -> Result<(), String> {
        if shard == self.shard && owners == self.owners {
            check_owner_ids(&owners, n_shards)?;
            self.run = RunState::fresh(&self.graph);
        } else {
            *self = ShardWorker::new(shard, n_shards, owners, Arc::clone(&self.graph))?;
        }
        Ok(())
    }

    /// Runs one superstep and builds the Flush reply. The caller must
    /// write the reply to the wire and then call
    /// [`ShardWorker::finish_deferred`] — that ordering is the
    /// interior/boundary overlap.
    ///
    /// Refuses, before touching the view, a request the round loop never
    /// sends: an update color outside `UNCOLORED..n + JITTER_WINDOW_MAX`
    /// (`n` vertices; no pick can produce one, and the forbidden set
    /// would grow to it), an update naming a vertex this shard owns, a
    /// superstep number that does not increase, and a superstep numbered
    /// 0 or 1 after the first. Round 1 colors through net summaries,
    /// which hold only while colors are only added to a fresh view.
    pub fn superstep(&mut self, req: &SuperstepRequest) -> Result<FlushReply, String> {
        if req.harvest {
            // Owned assignment, tagged with our own shard id.
            let messages = self
                .owners
                .iter()
                .enumerate()
                .filter(|&(_, &o)| o == self.shard)
                .map(|(v, _)| (self.shard, v as u32, self.run.view[v]))
                .collect();
            return Ok(FlushReply { colored: 0, conflicts: 0, messages });
        }

        let limit = self.run.view.len() as i64 + JITTER_WINDOW_MAX as i64;
        if let Some(&(v, c)) =
            req.updates.iter().find(|&&(_, c)| c < UNCOLORED || c as i64 >= limit)
        {
            return Err(format!(
                "update color {c} for vertex {v} outside {UNCOLORED}..{limit}"
            ));
        }
        let s = req.superstep;
        if let Some(last) = self.run.last_superstep {
            if s <= last || s <= 1 {
                return Err(format!("superstep {s} after superstep {last}"));
            }
        }
        if let Some(&(v, _)) =
            req.updates.iter().find(|&&(v, _)| self.owners.get(v as usize) == Some(&self.shard))
        {
            return Err(format!("update for vertex {v}, which shard {} owns", self.shard));
        }
        self.run.last_superstep = Some(s);

        // Deliver the routed remote colors first: conflict detection for
        // last round's coloring needs them. They may overwrite colors, so
        // the summaries go first.
        self.run.picker.walk_pins();
        for &(v, c) in &req.updates {
            if let Some(slot) = self.run.view.get_mut(v as usize) {
                *slot = c;
            }
        }

        // Re-queue last round's losers under the id-ordered rule.
        let g = &*self.graph;
        self.scan.detect(g, &self.run.view, &self.run.pending);
        let mut queue: Vec<u32> =
            self.run.pending.iter().copied().filter(|&w| self.scan.lost(w)).collect();
        let conflicts = queue.len() as u32;
        if s <= 1 {
            queue = self.boundary.clone();
            self.run.interior_deferred = true;
            self.run.picker.summarize(g, &self.run.view);
        }

        // Color the queue with the jittered draw: plain first-fit would
        // make every shard's copy of a large net collide on the same
        // small colors forever.
        let mut messages = Vec::new();
        for (k, &w) in queue.iter().enumerate() {
            if let Some(&next) = queue.get(k + PREFETCH_AHEAD) {
                g.prefetch_nets(next as usize);
            }
            let col = self.run.picker.pick(g, &mut self.run.view, w, jitter(w, s));
            for &dest in self.interested.of(w as usize) {
                messages.push((dest, w, col));
            }
        }
        let colored = queue.len() + if s <= 1 { self.interior.len() } else { 0 };
        self.run.pending = queue;
        Ok(FlushReply { colored: colored as u32, conflicts, messages })
    }

    /// Colors the interior vertices deferred by round 1 — called after
    /// the Flush frame is written, so interior work overlaps with the
    /// coordinator routing boundary messages (the next Superstep frame
    /// simply waits in the socket buffer). Interior vertices only ever
    /// see owned colors, so plain first-fit is conflict-free. No update
    /// has arrived since round 1 began, so the interior is colored
    /// through round 1's summaries, which are dropped afterwards.
    pub fn finish_deferred(&mut self) {
        if !self.run.interior_deferred {
            return;
        }
        self.run.interior_deferred = false;
        let g = &*self.graph;
        for (k, &w) in self.interior.iter().enumerate() {
            if let Some(&next) = self.interior.get(k + PREFETCH_AHEAD) {
                g.prefetch_nets(next as usize);
            }
            self.run.picker.pick(g, &mut self.run.view, w, 0);
        }
        self.run.picker.walk_pins();
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
                let reply = w.superstep(&req).unwrap();
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
            let reply = w
                .superstep(&SuperstepRequest { superstep: 0, harvest: true, updates: vec![] })
                .unwrap();
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
        let bad = ShardWorker::new(0, 2, vec![0; 5], Arc::clone(&g));
        assert!(bad.err().unwrap().contains("owner array"));
        let bad = ShardWorker::new(0, 2, vec![2; 12], g);
        assert!(bad.err().unwrap().contains("out of range"));
    }

    #[test]
    fn a_reinstall_under_the_same_owners_still_checks_the_shard_count() {
        let m = sparse::gen::bipartite_uniform(10, 12, 40, 1);
        let owners: Vec<u32> = (0..12).map(|v| v % 2).collect();
        let mut w = install(&m, owners.clone(), 0, 2);
        let round1 = SuperstepRequest { superstep: 1, harvest: false, updates: vec![] };
        w.superstep(&round1).unwrap();
        let bad = w.reinstall(0, 1, owners.clone());
        assert!(bad.err().unwrap().contains("out of range"));
        assert!(w.superstep(&round1).is_err(), "a refused re-install keeps the run state");
        w.reinstall(0, 2, owners).unwrap();
        w.superstep(&round1).unwrap();
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
        let reply = w
            .superstep(&SuperstepRequest { superstep: 1, harvest: false, updates: vec![] })
            .unwrap();
        assert_eq!(reply.colored, 10, "all owned vertices count as colored");
        assert!(reply.messages.is_empty(), "no boundary, no messages");
        assert!(w.run.view[..10].iter().all(|&c| c == UNCOLORED), "interior not yet colored");
        w.finish_deferred();
        assert!(w.run.view[..10].iter().all(|&c| c != UNCOLORED), "interior colored after flush");
    }
}
