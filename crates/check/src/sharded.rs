//! The sharded oracle: multi-process coloring against the in-memory
//! runner.
//!
//! Each *case* draws a randomized bipartite instance, a shard count from
//! {1, 2, 4, 8} and a partitioner (block / cyclic / random), then colors
//! it twice: once through the [`dist::Coordinator`] over real `serve`
//! worker daemons (every superstep crosses TCP), and once through the
//! in-memory [`dist::DistRunner`] on the same partition. The oracle
//! checks:
//!
//! * **Validity in original ids** — the sharded coloring must pass
//!   [`bgpc::verify::verify_bgpc`] against the drawn pattern.
//! * **No degrade on a clean fleet** — the workers are healthy, so a
//!   `degraded` outcome means the coordinator lost a superstep.
//! * **Bounded quality** — speculative re-coloring jitters the color
//!   choice inside a window capped at [`JITTER_WINDOW_MAX`], so the run
//!   must stay within `Δ₂(G) + 1 + JITTER_WINDOW_MAX` colors.
//! * **Superstep accounting** — conflicts recorded for round *i* are
//!   exactly the vertices re-colored in round *i + 1*, the final round
//!   is conflict-free, and a single shard colors everything in one
//!   round with zero boundary messages.
//! * **One state machine** — both paths drive the same shard workers
//!   through the same round loop, so the in-memory run must equal the
//!   sharded one exactly: the same colors and the same supersteps.
//!
//! Worker daemons run in-process (hermetic, no spawned binaries) but
//! speak the real length-prefixed protocol over loopback TCP. The sweep
//! boots one fleet of [`MAX_SHARDS`] workers and reuses it for every
//! case; `check_smoke --dist --replay-case SEED` boots a fresh fleet to
//! replay one case standalone.

use std::time::Duration;

use bgpc::verify::verify_bgpc;
use dist::{Coordinator, DistRunner, Partition};
use graph::BipartiteGraph;
use rng::{split_mix64, Pcg32};
use serve::shard::JITTER_WINDOW_MAX;

use crate::oracle::{max_d2_degree_bgpc, Draw, OracleFailure, PcgDraw};

/// Largest shard count a case can draw; the fleet size.
pub const MAX_SHARDS: usize = 8;

/// A loopback fleet of in-process `serve` worker daemons, shut down on
/// drop.
pub struct WorkerFleet {
    daemons: Vec<serve::Daemon>,
    addrs: Vec<String>,
}

impl WorkerFleet {
    /// Boots `n` workers on OS-assigned loopback ports.
    pub fn start(n: usize) -> Result<WorkerFleet, String> {
        let mut daemons = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..n {
            let cache = std::env::temp_dir().join(format!(
                "check-sharded-{}-{i}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&cache);
            let d = serve::Daemon::start(serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                pool_threads: 1,
                cache_dir: cache,
                read_timeout: Duration::from_secs(30),
                ..serve::ServeConfig::default()
            })
            .map_err(|e| format!("worker {i} failed to start: {e}"))?;
            addrs.push(d.local_addr().to_string());
            daemons.push(d);
        }
        Ok(WorkerFleet { daemons, addrs })
    }

    /// The workers' bound addresses, in boot order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        for d in self.daemons.iter_mut() {
            d.shutdown();
        }
    }
}

fn draw_partition(d: &mut impl Draw, n: usize, p: usize) -> (Partition, &'static str) {
    match d.usize_in(0..3) {
        0 => (Partition::block(n, p), "block"),
        1 => (Partition::cyclic(n, p), "cyclic"),
        _ => {
            let seed = d.u64_any();
            (Partition::random(n, p, seed), "random")
        }
    }
}

/// One randomized sharded case against the fleet at `addrs` (which must
/// hold at least [`MAX_SHARDS`] workers). Returns `Err` with a diagnosis
/// when any oracle check fails.
pub fn run_sharded_case(d: &mut impl Draw, addrs: &[String]) -> Result<(), String> {
    let nets = d.usize_in(1..33);
    let verts = d.usize_in(1..33);
    let nnz = d.usize_in(0..nets * verts + 1);
    let mseed = d.u64_any();
    let shards = [1, 2, 4, 8][d.usize_in(0..4)];

    let m = sparse::gen::bipartite_uniform(nets, verts, nnz, mseed);
    let g = BipartiteGraph::from_matrix(&m);
    let n = g.n_vertices();
    let (partition, pname) = draw_partition(d, n, shards);
    let label =
        format!("sharded bgpc {pname} p={shards} on {nets}x{verts} nnz={nnz} seed={mseed}");

    let mut coord = Coordinator::connect(&addrs[..shards])
        .map_err(|e| format!("{label}: connecting workers: {e}"))?;
    let outcome = coord
        .color(&m, &partition)
        .map_err(|e| format!("{label}: coordinator rejected the instance: {e}"))?;
    if let Some(reason) = &outcome.degraded {
        return Err(format!("{label}: degraded on a healthy fleet: {reason}"));
    }
    verify_bgpc(&g, &outcome.colors)
        .map_err(|e| format!("{label}: sharded coloring invalid in original ids: {e}"))?;

    // Quality: first-fit plus the capped jitter window bounds every pick.
    let bound = max_d2_degree_bgpc(&g) + 1 + JITTER_WINDOW_MAX;
    if outcome.num_colors > bound {
        return Err(format!(
            "{label}: {} colors exceeds the Δ₂+1+{JITTER_WINDOW_MAX} bound of {bound}",
            outcome.num_colors
        ));
    }

    // Superstep accounting: conflicts of round i are re-colored in round
    // i+1, and the run only terminates once a round is conflict-free.
    for (i, w) in outcome.supersteps.windows(2).enumerate() {
        if w[0].conflicts != w[1].colored {
            return Err(format!(
                "{label}: round {} recorded {} conflicts but round {} re-colored {}",
                i + 1,
                w[0].conflicts,
                i + 2,
                w[1].colored
            ));
        }
    }
    if let Some(last) = outcome.supersteps.last() {
        if last.conflicts != 0 {
            return Err(format!(
                "{label}: final round still has {} conflicts",
                last.conflicts
            ));
        }
    }
    if shards == 1 && (outcome.rounds() != 1 || outcome.total_messages() != 0) {
        return Err(format!(
            "{label}: single shard took {} rounds and {} messages",
            outcome.rounds(),
            outcome.total_messages()
        ));
    }

    // Differential baseline: the in-memory runner on the same partition
    // runs the same state machine, so it must match exactly.
    let baseline = DistRunner::new(&g, partition).run();
    if baseline.colors != outcome.colors || baseline.supersteps != outcome.supersteps {
        return Err(format!(
            "{label}: in-memory run ({} colors, supersteps {:?}) differs from sharded \
             ({} colors, supersteps {:?})",
            baseline.num_colors, baseline.supersteps, outcome.num_colors, outcome.supersteps
        ));
    }

    Ok(())
}

/// Replays a single sharded case from its sub-seed, booting a fresh
/// worker fleet for the one case.
pub fn run_sharded_case_from_seed(case_seed: u64) -> Result<(), String> {
    let fleet = WorkerFleet::start(MAX_SHARDS)?;
    let mut d = PcgDraw(Pcg32::seed_from_u64(case_seed));
    run_sharded_case(&mut d, fleet.addrs())
}

/// Runs `cases` randomized sharded cases from the base `seed` against
/// one shared worker fleet. Case `i` uses sub-seed `split_mix64(seed +
/// i)` so any failure replays standalone via `check_smoke --dist
/// --replay-case`.
pub fn run_sharded_sweep(seed: u64, cases: usize) -> Result<usize, OracleFailure> {
    let fleet = WorkerFleet::start(MAX_SHARDS).map_err(|message| OracleFailure {
        case: 0,
        case_seed: seed,
        message,
    })?;
    for case in 0..cases {
        let case_seed = split_mix64(seed.wrapping_add(case as u64));
        let mut d = PcgDraw(Pcg32::seed_from_u64(case_seed));
        if let Err(message) = run_sharded_case(&mut d, fleet.addrs()) {
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
    fn a_short_sharded_sweep_is_clean() {
        let n = run_sharded_sweep(0x5A4D, 8).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(n, 8);
    }

    #[test]
    fn sharded_case_replay_is_deterministic() {
        let case_seed = split_mix64(0x5A4D);
        run_sharded_case_from_seed(case_seed).expect("replay is clean");
        run_sharded_case_from_seed(case_seed).expect("replay twice is clean");
    }
}
