//! The shard coordinator: the round loop of sharded coloring, driven
//! over TCP or in memory.
//!
//! [`Coordinator`] turns N `serve` daemons into the ranks of a real
//! scale-out run: it connects over TCP and installs one shard per worker
//! ([`serve::ShardRequest`], owner-computes via [`Partition`]), shipping
//! the graph once per pattern: a repeat run on the same pattern only
//! re-installs the shards over the graph the workers hold.
//! [`DistRunner`] holds the same [`ShardWorker`](serve::ShardWorker)s
//! in memory. Both then run the one round loop: supersteps
//! ([`serve::SuperstepRequest`] / [`serve::FlushReply`]) until a round
//! re-colors nothing, a harvest of the owned assignments, and
//! verification in original vertex ids.
//! Detection runs one round behind the coloring, so round `s`'s
//! conflicts close the superstep recorded for round `s - 1`:
//! `conflicts[i] == colored[i + 1]` and the final round reports none.
//!
//! Rounds are bounded: past the cap the loop harvests the speculative
//! state, repairs the remaining conflicts sequentially, and charges the
//! merge one full boundary exchange. A repair that finds nothing to
//! re-color records no round.
//!
//! **Degradation, never absence:** a worker failing mid-run (I/O error,
//! protocol violation, invalid harvest) aborts the sharded attempt, and
//! the coordinator re-runs the instance in memory. The result is the
//! coloring a healthy fleet would have returned, tagged with a
//! [`ShardOutcome::degraded`] reason. A failed attempt may leave replies
//! unread on the other connections, so the next run reconnects every
//! worker before it installs.

use std::net::TcpStream;

use bgpc::vertex::VertexPicker;
use bgpc::{Color, UNCOLORED};
use graph::BipartiteGraph;
use serve::protocol::{
    read_frame, write_frame, FlushReply, FrameKind, ShardRequest, SuperstepRequest,
    DEFAULT_MAX_FRAME,
};
use serve::shard::ConflictScan;

use crate::{DistRunner, Partition};

/// Round bound before the sequential repair. Real frameworks also bound
/// their communication rounds; large distance-2-clique instances (giant
/// nets split across many ranks) can otherwise take
/// `Ω(max net / ranks)` supersteps.
pub const MAX_SUPERSTEPS: usize = 512;

/// Accounting for one superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperstepStats {
    /// Vertices colored this superstep (across ranks).
    pub colored: usize,
    /// Boundary messages sent (one per (vertex, interested rank) pair).
    pub messages: usize,
    /// Conflicts detected after the flush (vertices re-queued).
    pub conflicts: usize,
}

/// Result of a sharded coloring run.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// Final colors (valid, complete, original vertex ids).
    pub colors: Vec<Color>,
    /// Distinct colors used.
    pub num_colors: usize,
    /// Per-superstep statistics.
    pub supersteps: Vec<SuperstepStats>,
    /// Number of shards the run was partitioned across.
    pub n_shards: usize,
    /// `Some(reason)` when a worker failure forced the single-node
    /// fallback; `None` for a clean sharded run.
    pub degraded: Option<String>,
}

impl ShardOutcome {
    /// Number of supersteps (communication rounds) to convergence.
    pub fn rounds(&self) -> usize {
        self.supersteps.len()
    }

    /// Total message volume across rounds.
    pub fn total_messages(&self) -> usize {
        self.supersteps.iter().map(|s| s.messages).sum()
    }
}

/// A coordinator holding one persistent connection per worker daemon.
pub struct Coordinator {
    workers: Vec<Worker>,
    max_frame: u32,
    max_supersteps: usize,
    /// The graph every worker holds after the last clean sharded run;
    /// `None` before one and after any failure. Coloring the same
    /// pattern again re-installs the shards over it instead of shipping
    /// the graph.
    installed: Option<BipartiteGraph>,
    /// Set by a failed run, which may leave replies unread on any
    /// connection: the next run reconnects every worker first.
    reconnect: bool,
}

struct Worker {
    addr: String,
    stream: TcpStream,
}

impl Coordinator {
    /// Connects to every worker address; fails if any is unreachable
    /// (callers wanting partial fleets filter addresses first).
    pub fn connect(addrs: &[String]) -> std::io::Result<Coordinator> {
        let mut workers = Vec::with_capacity(addrs.len());
        for addr in addrs {
            workers.push(Worker { addr: addr.clone(), stream: open(addr)? });
        }
        Ok(Coordinator {
            workers,
            max_frame: DEFAULT_MAX_FRAME,
            max_supersteps: MAX_SUPERSTEPS,
            installed: None,
            reconnect: false,
        })
    }

    /// Number of connected workers.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Overrides the round bound before the sequential-repair path
    /// (default [`MAX_SUPERSTEPS`]); primarily a test hook.
    pub fn with_max_supersteps(mut self, cap: usize) -> Self {
        self.max_supersteps = cap.max(1);
        self
    }

    /// Colors `matrix` across the connected workers under `partition`
    /// (one rank per worker, `partition.n_ranks()` must equal
    /// [`Coordinator::n_workers`]).
    ///
    /// Returns `Err` only when the *instance* is unusable (invalid
    /// pattern). Worker failures degrade instead: the instance is
    /// re-colored in memory and the outcome tagged with the reason.
    ///
    /// The graph is shipped once per pattern: when `matrix` equals the
    /// pattern of the last clean run (exact equality, no fingerprint),
    /// each worker gets a `Shard` frame without graph bytes and keeps
    /// the graph it holds. A failed run forgets the pattern, and the next
    /// call reconnects every worker and installs in full; a worker that
    /// cannot be reached then degrades that call.
    pub fn color(
        &mut self,
        matrix: &sparse::Csr,
        partition: &Partition,
    ) -> Result<ShardOutcome, String> {
        let installed = self.installed.take().filter(|g| g.net_matrix() == matrix);
        let reuse = installed.is_some();
        let g = match installed {
            Some(g) => g,
            None => BipartiteGraph::try_from_matrix(matrix).map_err(|e| e.to_string())?,
        };
        assert_eq!(partition.len(), g.n_vertices(), "partition covers every vertex");
        assert_eq!(
            partition.n_ranks(),
            self.workers.len(),
            "one shard per connected worker"
        );
        match self.try_sharded(&g, reuse, partition) {
            Ok(outcome) => {
                self.installed = Some(g);
                Ok(outcome)
            }
            Err(fail) => {
                self.reconnect = true;
                let mut outcome = DistRunner::new(&g, partition.clone())
                    .with_max_supersteps(self.max_supersteps)
                    .run();
                outcome.degraded = Some(format!("{fail}; recovered with a single-node run"));
                Ok(outcome)
            }
        }
    }

    fn send(&mut self, rank: usize, kind: FrameKind, payload: &[u8]) -> Result<(), String> {
        let w = &mut self.workers[rank];
        write_frame(&mut w.stream, kind, payload, 0)
            .map_err(|e| format!("worker {rank} ({}) write failed: {e}", w.addr))
    }

    fn recv(&mut self, rank: usize, want: FrameKind) -> Result<Vec<u8>, String> {
        let w = &mut self.workers[rank];
        let (kind, payload) = read_frame(&mut w.stream, self.max_frame)
            .map_err(|e| format!("worker {rank} ({}) read failed: {e}", w.addr))?;
        if kind != want {
            // Only the error kinds carry a message; any other payload is
            // a binary frame, named by its length.
            let detail = match kind {
                FrameKind::InvalidJob
                | FrameKind::GraphError
                | FrameKind::ServerError
                | FrameKind::ProtocolError => String::from_utf8_lossy(&payload).into_owned(),
                _ => format!("{} payload bytes", payload.len()),
            };
            return Err(format!(
                "worker {rank} ({}) answered {kind:?} instead of {want:?}: {detail}",
                w.addr
            ));
        }
        Ok(payload)
    }

    /// One full round: write the request to every worker, then collect
    /// every Flush — writes go out before any read so the workers run
    /// their supersteps concurrently.
    fn round(&mut self, reqs: Vec<SuperstepRequest>) -> Result<Vec<FlushReply>, String> {
        for (r, req) in reqs.iter().enumerate() {
            self.send(r, FrameKind::Superstep, &req.encode())?;
        }
        let mut replies = Vec::with_capacity(self.workers.len());
        for r in 0..self.workers.len() {
            let payload = self.recv(r, FrameKind::Flush)?;
            replies.push(FlushReply::decode(&payload).map_err(|e| {
                format!("worker {r} ({}) sent a malformed flush: {e}", self.workers[r].addr)
            })?);
        }
        Ok(replies)
    }

    /// Installs one shard per worker, shipping `g`'s pattern unless the
    /// workers already hold it (`reuse`), then runs the round loop.
    fn try_sharded(
        &mut self,
        g: &BipartiteGraph,
        reuse: bool,
        partition: &Partition,
    ) -> Result<ShardOutcome, String> {
        if self.reconnect {
            for (rank, w) in self.workers.iter_mut().enumerate() {
                w.stream = open(&w.addr)
                    .map_err(|e| format!("worker {rank} ({}) reconnect failed: {e}", w.addr))?;
            }
            self.reconnect = false;
        }
        let p = self.workers.len();
        let mut graph_bytes = Vec::new();
        if !reuse {
            sparse::bin_io::write_bin(&mut graph_bytes, g.net_matrix())
                .map_err(|e| format!("encoding graph bytes failed: {e}"))?;
        }

        // Install one shard per worker; each ack is a Pong.
        for rank in 0..p {
            let req = ShardRequest {
                shard: rank as u32,
                n_shards: p as u32,
                owners: partition.owners().to_vec(),
                graph_bytes: graph_bytes.clone(),
            };
            self.send(rank, FrameKind::Shard, &req.encode())?;
        }
        for rank in 0..p {
            self.recv(rank, FrameKind::Pong)
                .map_err(|e| format!("shard install rejected: {e}"))?;
        }
        run_rounds(g, partition, self.max_supersteps, |reqs| self.round(reqs))
    }
}

/// Opens one worker connection.
fn open(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// The round loop over installed shards, one per rank of `partition`:
/// `round` delivers one request to each shard and returns their replies
/// in rank order. Runs supersteps until a quiescent round or the
/// `max_supersteps` cap, harvests and assembles the coloring in original
/// ids, repairs a capped run sequentially, and verifies the result.
pub(crate) fn run_rounds(
    g: &BipartiteGraph,
    partition: &Partition,
    max_supersteps: usize,
    mut round: impl FnMut(Vec<SuperstepRequest>) -> Result<Vec<FlushReply>, String>,
) -> Result<ShardOutcome, String> {
    let p = partition.n_ranks();
    let n = g.n_vertices();

    // Drive supersteps until a quiescent round. `inbox[r]` holds the
    // boundary colors routed to shard r from the previous round.
    let mut supersteps: Vec<SuperstepStats> = Vec::new();
    let mut inbox: Vec<Vec<(u32, i32)>> = vec![Vec::new(); p];
    let mut s = 1u32;
    let capped = loop {
        if s as usize > max_supersteps {
            break true;
        }
        let reqs: Vec<SuperstepRequest> = inbox
            .iter_mut()
            .map(|up| SuperstepRequest {
                superstep: s,
                harvest: false,
                updates: std::mem::take(up),
            })
            .collect();
        let replies = round(reqs)?;
        let colored: usize = replies.iter().map(|f| f.colored as usize).sum();
        let conflicts: usize = replies.iter().map(|f| f.conflicts as usize).sum();
        let messages: usize = replies.iter().map(|f| f.messages.len()).sum();
        // Round s reports the conflicts of round s-1's coloring, which
        // close the previously recorded superstep.
        if let Some(prev) = supersteps.last_mut() {
            prev.conflicts = conflicts;
        }
        if colored == 0 {
            // Quiescent probe round: every speculative color
            // survived detection; nothing to record.
            break false;
        }
        supersteps.push(SuperstepStats { colored, messages, conflicts: 0 });
        for reply in replies {
            for (dest, v, c) in reply.messages {
                let dest = dest as usize;
                if dest >= p {
                    return Err(format!("flush routed to nonexistent shard {dest}"));
                }
                inbox[dest].push((v, c));
            }
        }
        s += 1;
    };

    // Harvest the owned assignments and assemble in original ids.
    let reqs: Vec<SuperstepRequest> = (0..p)
        .map(|_| SuperstepRequest { superstep: s, harvest: true, updates: Vec::new() })
        .collect();
    let replies = round(reqs)?;
    let mut colors = vec![UNCOLORED; n];
    for (rank, reply) in replies.iter().enumerate() {
        for &(_, v, c) in &reply.messages {
            let vu = v as usize;
            if vu >= n || partition.owner(vu) != rank {
                return Err(format!("worker {rank} harvested a vertex it does not own"));
            }
            colors[vu] = c;
        }
    }
    if let Some(v) = colors.iter().position(|&c| c == UNCOLORED) {
        if !capped {
            return Err(format!("vertex {v} missing from the harvest"));
        }
    }

    if capped {
        // The cap tripped before a quiescent round: repair the
        // stragglers sequentially against the merged views and charge
        // the implicit all-to-all one boundary exchange. A repair that
        // re-colors nothing was a quiescent round in all but name.
        let repaired = repair_conflicts(g, &mut colors);
        if repaired > 0 {
            if let Some(prev) = supersteps.last_mut() {
                prev.conflicts = repaired;
            }
            supersteps.push(SuperstepStats {
                colored: repaired,
                messages: DistRunner::new(g, partition.clone()).boundary_volume(),
                conflicts: 0,
            });
        }
    }

    bgpc::verify::verify_bgpc(g, &colors)
        .map_err(|e| format!("assembled sharded coloring failed verification: {e}"))?;
    let num_colors = bgpc::metrics::count_distinct_colors(&colors);
    Ok(ShardOutcome {
        colors,
        num_colors,
        supersteps,
        n_shards: p,
        degraded: None,
    })
}

/// Sequentially re-colors every id-ordered conflict loser (and any
/// uncolored straggler) first-fit against the merged global state;
/// returns how many vertices were repaired. The losers are uncolored
/// first, so colors are only added and the picks read net summaries.
fn repair_conflicts(g: &BipartiteGraph, colors: &mut [Color]) -> usize {
    let all: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let mut scan = ConflictScan::new(g);
    scan.detect(g, colors, &all);
    let losers: Vec<u32> = all
        .into_iter()
        .filter(|&w| colors[w as usize] == UNCOLORED || scan.lost(w))
        .collect();
    for &w in &losers {
        colors[w as usize] = UNCOLORED;
    }
    let mut picker = VertexPicker::new(g);
    picker.summarize(g, colors);
    for &w in &losers {
        picker.pick(g, colors, w, 0);
    }
    losers.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpc::verify::verify_bgpc;
    use serve::{Daemon, ServeConfig};
    use std::time::Duration;

    fn start_workers(n: usize, tag: &str) -> (Vec<Daemon>, Vec<String>) {
        let mut daemons = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..n {
            let cache = std::env::temp_dir().join(format!(
                "dist-coord-{tag}-{}-{i}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&cache);
            let d = Daemon::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                pool_threads: 1,
                cache_dir: cache,
                read_timeout: Duration::from_secs(10),
                ..ServeConfig::default()
            })
            .expect("worker daemon start");
            addrs.push(d.local_addr().to_string());
            daemons.push(d);
        }
        (daemons, addrs)
    }

    fn instance() -> sparse::Csr {
        sparse::gen::bipartite_uniform(60, 80, 900, 5)
    }

    #[test]
    fn sharded_run_matches_validity_across_partitioners() {
        let m = instance();
        let g = BipartiteGraph::from_matrix(&m);
        let (mut daemons, addrs) = start_workers(4, "valid");
        for partition in [
            Partition::block(g.n_vertices(), 4),
            Partition::cyclic(g.n_vertices(), 4),
            Partition::random(g.n_vertices(), 4, 3),
        ] {
            let mut coord = Coordinator::connect(&addrs).expect("connect");
            let outcome = coord.color(&m, &partition).expect("color");
            assert!(outcome.degraded.is_none(), "clean workers: {:?}", outcome.degraded);
            verify_bgpc(&g, &outcome.colors).unwrap();
            assert!(outcome.rounds() >= 1);
            assert_eq!(outcome.n_shards, 4);
            // The accounting invariant shared with the in-process runner.
            for w in outcome.supersteps.windows(2) {
                assert_eq!(w[0].conflicts, w[1].colored);
            }
            assert_eq!(outcome.supersteps.last().unwrap().conflicts, 0);
        }
        for d in daemons.iter_mut() {
            d.shutdown();
        }
    }

    #[test]
    fn single_worker_has_one_round_and_no_messages() {
        let m = instance();
        let g = BipartiteGraph::from_matrix(&m);
        let (mut daemons, addrs) = start_workers(1, "single");
        let mut coord = Coordinator::connect(&addrs).expect("connect");
        let outcome = coord
            .color(&m, &Partition::block(g.n_vertices(), 1))
            .expect("color");
        assert!(outcome.degraded.is_none());
        verify_bgpc(&g, &outcome.colors).unwrap();
        assert_eq!(outcome.rounds(), 1, "one shard cannot conflict");
        assert_eq!(outcome.total_messages(), 0);
        for d in daemons.iter_mut() {
            d.shutdown();
        }
    }

    #[test]
    fn worker_death_mid_superstep_degrades_to_a_valid_fallback() {
        // A rogue "worker" that accepts the connection, acks the shard
        // install, then hangs up before the first superstep — exactly
        // what a worker dying mid-run looks like to the coordinator.
        let rogue = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let rogue_addr = rogue.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (mut s, _) = rogue.accept().unwrap();
            let _ = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
            write_frame(&mut s, FrameKind::Pong, b"", 0).unwrap();
            // Drop the stream: the coordinator's next read fails.
        });
        let (mut daemons, mut addrs) = start_workers(1, "death");
        addrs.push(rogue_addr);
        let m = instance();
        let g = BipartiteGraph::from_matrix(&m);
        let mut coord = Coordinator::connect(&addrs).expect("connect");
        let outcome = coord
            .color(&m, &Partition::block(g.n_vertices(), 2))
            .expect("color degrades, not errors");
        let reason = outcome.degraded.expect("worker death must tag the outcome");
        assert!(reason.contains("single-node"), "reason: {reason}");
        verify_bgpc(&g, &outcome.colors).unwrap();
        // The fallback returns what a healthy fleet would have returned.
        let healthy = DistRunner::new(&g, Partition::block(g.n_vertices(), 2)).run();
        assert_eq!(outcome.colors, healthy.colors);
        assert_eq!(outcome.supersteps, healthy.supersteps);
        t.join().unwrap();
        for d in daemons.iter_mut() {
            d.shutdown();
        }
    }

    /// A proxy in front of the worker daemon at `upstream` that relays
    /// the frames of each connection it accepts, one after another, over
    /// a fresh upstream connection, until a connection closes without a
    /// frame. It answers a Superstep frame itself, with the InvalidJob
    /// of a worker failing a superstep, when `fail(installs, steps)`
    /// holds: `installs` counts the Shard frames so far and `steps` the
    /// Superstep frames since the last of them. The thread returns the
    /// graph-byte length of every Shard frame.
    fn proxy(
        upstream: String,
        fail: fn(usize, usize) -> bool,
    ) -> (String, std::thread::JoinHandle<Vec<usize>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let mut installs = Vec::new();
            let mut steps = 0;
            for down in listener.incoming() {
                let mut down = down.unwrap();
                let mut up = TcpStream::connect(&upstream).unwrap();
                let mut frames = 0;
                while let Ok((kind, payload)) = read_frame(&mut down, DEFAULT_MAX_FRAME) {
                    frames += 1;
                    if kind == FrameKind::Shard {
                        installs.push(ShardRequest::decode(&payload).unwrap().graph_bytes.len());
                        steps = 0;
                    }
                    if kind == FrameKind::Superstep {
                        let failing = fail(installs.len(), steps);
                        steps += 1;
                        if failing {
                            write_frame(&mut down, FrameKind::InvalidJob, b"superstep failed", 0)
                                .unwrap();
                            continue;
                        }
                    }
                    write_frame(&mut up, kind, &payload, 0).unwrap();
                    let (kind, payload) = read_frame(&mut up, DEFAULT_MAX_FRAME).unwrap();
                    write_frame(&mut down, kind, &payload, 0).unwrap();
                }
                if frames == 0 {
                    break;
                }
            }
            installs
        });
        (addr, t)
    }

    #[test]
    fn a_failed_run_makes_the_next_install_ship_the_graph() {
        // The first superstep after the second install fails.
        let (mut daemons, addrs) = start_workers(1, "memo");
        let (proxy_addr, t) = proxy(addrs[0].clone(), |installs, steps| {
            installs == 2 && steps == 0
        });
        let m = instance();
        let partition = Partition::block(BipartiteGraph::from_matrix(&m).n_vertices(), 1);
        let mut coord = Coordinator::connect(std::slice::from_ref(&proxy_addr)).expect("connect");
        let clean = coord.color(&m, &partition).expect("color");
        assert!(clean.degraded.is_none());
        let failed = coord.color(&m, &partition).expect("color degrades, not errors");
        assert!(failed.degraded.is_some(), "the injected failure must degrade");
        let again = coord.color(&m, &partition).expect("color");
        assert!(again.degraded.is_none(), "{:?}", again.degraded);
        assert_eq!(again.colors, clean.colors);
        drop(coord);
        drop(TcpStream::connect(&proxy_addr).unwrap());
        let installs = t.join().unwrap();
        assert_eq!(installs.len(), 3);
        assert!(installs[0] > 0, "the first run ships the graph");
        assert_eq!(installs[1], 0, "a clean run lets the next one re-install");
        assert_eq!(installs[2], installs[0], "a failed run forgets the installed graph");
        for d in daemons.iter_mut() {
            d.shutdown();
        }
    }

    #[test]
    fn a_failed_run_leaves_no_reply_unread() {
        // Worker 0's first superstep fails after worker 1 was sent its
        // own, so worker 1's Flush is never read in that run.
        let (mut daemons, addrs) = start_workers(2, "resync");
        let (proxy_addr, t) = proxy(addrs[0].clone(), |installs, steps| {
            installs == 1 && steps == 0
        });
        let m = instance();
        let g = BipartiteGraph::from_matrix(&m);
        let partition = Partition::block(g.n_vertices(), 2);
        let mut coord =
            Coordinator::connect(&[proxy_addr.clone(), addrs[1].clone()]).expect("connect");
        let failed = coord.color(&m, &partition).expect("color degrades, not errors");
        assert!(failed.degraded.is_some(), "the injected failure must degrade");
        let mut clean = Coordinator::connect(&addrs).expect("connect");
        let healthy = clean.color(&m, &partition).expect("color");
        assert!(healthy.degraded.is_none());
        for call in 0..2 {
            let next = coord.color(&m, &partition).expect("color");
            assert!(next.degraded.is_none(), "call {call}: {:?}", next.degraded);
            assert_eq!(next.colors, healthy.colors);
        }
        drop(coord);
        drop(TcpStream::connect(&proxy_addr).unwrap());
        assert_eq!(t.join().unwrap().len(), 3);
        for d in daemons.iter_mut() {
            d.shutdown();
        }
    }

    #[test]
    fn a_binary_reply_is_named_by_its_length() {
        // A rogue worker answers the install with a Flush of binary bytes.
        let rogue = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let rogue_addr = rogue.local_addr().unwrap().to_string();
        let flush = FlushReply { colored: 3, conflicts: 0, messages: vec![(0, 1, 2); 10] }.encode();
        let len = flush.len();
        let t = std::thread::spawn(move || {
            let (mut s, _) = rogue.accept().unwrap();
            let _ = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
            write_frame(&mut s, FrameKind::Flush, &flush, 0).unwrap();
        });
        let m = instance();
        let g = BipartiteGraph::from_matrix(&m);
        let mut coord = Coordinator::connect(&[rogue_addr]).expect("connect");
        let outcome = coord
            .color(&m, &Partition::block(g.n_vertices(), 1))
            .expect("color degrades, not errors");
        let reason = outcome.degraded.expect("a stray Flush must degrade");
        assert!(!reason.contains('\0'), "reason: {reason:?}");
        assert!(reason.contains(&format!("{len} payload bytes")), "reason: {reason}");
        verify_bgpc(&g, &outcome.colors).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn capped_rounds_repair_sequentially_and_charge_the_merge() {
        let m = instance();
        let g = BipartiteGraph::from_matrix(&m);
        let partition = Partition::cyclic(g.n_vertices(), 4);
        let volume = DistRunner::new(&g, partition.clone()).boundary_volume();
        let (mut daemons, addrs) = start_workers(4, "capped");
        let mut coord = Coordinator::connect(&addrs).expect("connect").with_max_supersteps(1);
        let outcome = coord.color(&m, &partition).expect("color");
        assert!(outcome.degraded.is_none(), "the cap is policy, not failure");
        verify_bgpc(&g, &outcome.colors).unwrap();
        assert_eq!(outcome.rounds(), 2, "one speculative round + the repair round");
        let repair = outcome.supersteps.last().unwrap();
        assert_eq!(repair.messages, volume, "merge charged one boundary exchange");
        assert_eq!(repair.conflicts, 0);
        for d in daemons.iter_mut() {
            d.shutdown();
        }
    }

    #[test]
    fn a_repair_that_recolors_nothing_records_no_round() {
        let m = instance();
        let g = BipartiteGraph::from_matrix(&m);
        let (mut daemons, addrs) = start_workers(4, "norepair");
        // One shard at cap 1: the cap trips before the quiescent probe
        // round, and the repair finds nothing to re-color.
        let one = Coordinator::connect(&addrs[..1])
            .expect("connect")
            .with_max_supersteps(1)
            .color(&m, &Partition::block(g.n_vertices(), 1))
            .expect("color");
        assert_eq!(one.rounds(), 1, "one shard, one round");
        assert_eq!(one.total_messages(), 0);
        // A cap equal to the natural round count changes nothing.
        let partition = Partition::cyclic(g.n_vertices(), 4);
        let free = Coordinator::connect(&addrs).expect("connect").color(&m, &partition).expect("color");
        assert!(free.rounds() > 1, "cyclic shards conflict on this instance");
        let capped = Coordinator::connect(&addrs)
            .expect("connect")
            .with_max_supersteps(free.rounds())
            .color(&m, &partition)
            .expect("color");
        assert!(capped.degraded.is_none());
        assert_eq!(capped.colors, free.colors);
        assert_eq!(capped.supersteps, free.supersteps);
        for d in daemons.iter_mut() {
            d.shutdown();
        }
    }
}
