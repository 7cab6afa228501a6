//! Algorithm schedules — the paper's `X-Y` naming scheme.
//!
//! An algorithm `X-Y` applies `X`-based coloring and `Y`-based conflict
//! removal, where `V` is vertex-based and `N` is net-based; a number after
//! `N` bounds how many initial iterations stay net-based before switching
//! to the vertex-based (64D) variant (paper §VI).
//!
//! ```
//! use bgpc::{PhaseKind, Schedule};
//!
//! // Parse a paper label and inspect which traversal each iteration runs.
//! let s = Schedule::from_name("n1-n2").expect("a Table III label");
//! assert_eq!(s.name(), "N1-N2");
//! assert_eq!(s.color_kind(0), PhaseKind::Net); // first iteration: Alg. 8
//! assert_eq!(s.color_kind(1), PhaseKind::Vertex); // then 64D
//! assert_eq!(s.conflict_kind(1), PhaseKind::Net); // net removal twice
//! assert_eq!(s.conflict_kind(2), PhaseKind::Vertex);
//! ```

use crate::net::NetColoringVariant;
use crate::Balance;

/// Which traversal a phase uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Walk `nets(w) → vtxs(v)` from each queued vertex (Algorithms 4/5).
    Vertex,
    /// Walk each net's pin list once (Algorithms 6–8).
    Net,
}

/// The dynamic chunk of a parallel loop over `len` items: at least `min`
/// items, and large enough that each of `threads` threads makes about 64
/// claims.
///
/// Neighbouring nets share pins and neighbouring vertices share nets (on
/// a natural-order mesh, consecutive closed neighbourhoods overlap almost
/// entirely), so threads that claim adjacent small chunks write the same
/// cache lines of the color array and of the vertex coloring's
/// [`NetSummaries`](crate::vertex::NetSummaries). Per-thread chunks keep
/// the runs colored at the same time far apart in id space; 64 claims per
/// thread still balance items of uneven cost. Loops of at most
/// `64 · min · threads` items keep `min`, and a single thread claims
/// items in the same order either way.
pub(crate) fn claim_chunk(len: usize, threads: usize, min: usize) -> usize {
    len.div_ceil(64 * threads).max(min)
}

/// A full schedule: phase choices per iteration plus scheduling knobs.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Paper-style base label (`V-V`, `N1-N2`, …).
    pub label: &'static str,
    /// Iterations (from the first) that use net-based *coloring*.
    pub net_color_iters: usize,
    /// Iterations (from the first) that use net-based *conflict removal*
    /// (`usize::MAX` = every iteration, the `V-N∞` configuration).
    pub net_conflict_iters: usize,
    /// Dynamic chunk size for vertex-based parallel loops. `1` matches
    /// OpenMP's `schedule(dynamic)` default used by plain `V-V`; the tuned
    /// variants use 64. The vertex coloring loop takes it as a floor: it
    /// claims `max(chunk, ⌈|W| / (64 · threads)⌉)` queued vertices at once
    /// (`schedule::claim_chunk`), except that a chunk of 1 stays per-vertex.
    /// The conflict scan claims exactly `chunk`.
    pub chunk: usize,
    /// `true` = thread-private conflict queues merged after the join (the
    /// `64D` lazy construction); `false` = ColPack's eager shared queue.
    pub lazy_queue: bool,
    /// Cardinality-balancing heuristic applied during coloring.
    pub balance: Balance,
    /// Which net-based coloring algorithm the net iterations run
    /// (schedules default to the two-pass Algorithm 8).
    pub net_variant: NetColoringVariant,
}

impl Schedule {
    /// `V-V`: ColPack's default — vertex/vertex, chunk 1, eager queue.
    pub fn v_v() -> Self {
        Self::base("V-V", 0, 0, 1, false)
    }

    /// `V-V-64`: `V-V` with dynamic chunk size 64.
    pub fn v_v_64() -> Self {
        Self::base("V-V-64", 0, 0, 64, false)
    }

    /// `V-V-64D`: chunk 64 plus lazy (thread-private) conflict queues.
    pub fn v_v_64d() -> Self {
        Self::base("V-V-64D", 0, 0, 64, true)
    }

    /// `V-N∞`: vertex coloring (64D), net-based conflict removal at every
    /// iteration.
    pub fn v_n_inf() -> Self {
        Self::base("V-N\u{221e}", 0, usize::MAX, 64, true)
    }

    /// `V-N1` / `V-N2`: net-based conflict removal for the first `n`
    /// iterations, then vertex-based (64D).
    pub fn v_n(n: usize) -> Self {
        let label = match n {
            1 => "V-N1",
            2 => "V-N2",
            _ => "V-Nk",
        };
        Self::base(label, 0, n, 64, true)
    }

    /// `N1-N2`: net coloring in the first iteration, net conflict removal
    /// in the first two, then vertex-based (64D).
    pub fn n1_n2() -> Self {
        Self::base("N1-N2", 1, 2, 64, true)
    }

    /// `N2-N2`: net coloring and net conflict removal in the first two
    /// iterations, then vertex-based (64D).
    pub fn n2_n2() -> Self {
        Self::base("N2-N2", 2, 2, 64, true)
    }

    fn base(
        label: &'static str,
        net_color_iters: usize,
        net_conflict_iters: usize,
        chunk: usize,
        lazy_queue: bool,
    ) -> Self {
        Self {
            label,
            net_color_iters,
            net_conflict_iters,
            chunk,
            lazy_queue,
            balance: Balance::Unbalanced,
            net_variant: NetColoringVariant::TwoPassReverse,
        }
    }

    /// The paper's eight BGPC schedules, in Table III order.
    pub fn all() -> Vec<Schedule> {
        vec![
            Self::v_v(),
            Self::v_v_64(),
            Self::v_v_64d(),
            Self::v_n_inf(),
            Self::v_n(1),
            Self::v_n(2),
            Self::n1_n2(),
            Self::n2_n2(),
        ]
    }

    /// The four schedules the paper carries into the D2GC experiments
    /// (Table V).
    pub fn d2gc_set() -> Vec<Schedule> {
        vec![Self::v_v_64d(), Self::v_n(1), Self::v_n(2), Self::n1_n2()]
    }

    /// Sets the balancing heuristic (builder style).
    pub fn with_balance(mut self, balance: Balance) -> Self {
        self.balance = balance;
        self
    }

    /// Sets the net-coloring variant (builder style; Table I compares
    /// them).
    pub fn with_net_variant(mut self, variant: NetColoringVariant) -> Self {
        self.net_variant = variant;
        self
    }

    /// Parses a paper-style label, case-insensitively. Accepts `V-N8`
    /// (for "infinity") as `v-ninf`/`v-n∞`; an optional `-B1`/`-B2`
    /// suffix sets the balancing heuristic.
    pub fn from_name(name: &str) -> Option<Schedule> {
        let lower = name.to_ascii_lowercase();
        let (base, balance) = if let Some(stripped) = lower.strip_suffix("-b1") {
            (stripped.to_string(), Balance::B1)
        } else if let Some(stripped) = lower.strip_suffix("-b2") {
            (stripped.to_string(), Balance::B2)
        } else {
            (lower, Balance::Unbalanced)
        };
        let schedule = match base.as_str() {
            "v-v" => Self::v_v(),
            "v-v-64" => Self::v_v_64(),
            "v-v-64d" => Self::v_v_64d(),
            "v-ninf" | "v-n\u{221e}" | "v-n8" => Self::v_n_inf(),
            "v-n1" => Self::v_n(1),
            "v-n2" => Self::v_n(2),
            "n1-n2" => Self::n1_n2(),
            "n2-n2" => Self::n2_n2(),
            _ => return None,
        };
        Some(schedule.with_balance(balance))
    }

    /// Full display name including the balance suffix, e.g. `V-N2-B1`.
    pub fn name(&self) -> String {
        match self.balance {
            Balance::Unbalanced => self.label.to_string(),
            b => format!("{}-{}", self.label, b.label()),
        }
    }

    /// Phase kind used for coloring at `iter` (0-based).
    pub fn color_kind(&self, iter: usize) -> PhaseKind {
        if iter < self.net_color_iters {
            PhaseKind::Net
        } else {
            PhaseKind::Vertex
        }
    }

    /// Phase kind used for conflict removal at `iter` (0-based).
    pub fn conflict_kind(&self, iter: usize) -> PhaseKind {
        if iter < self.net_conflict_iters {
            PhaseKind::Net
        } else {
            PhaseKind::Vertex
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_eight() {
        let all = Schedule::all();
        assert_eq!(all.len(), 8);
        let labels: Vec<&str> = all.iter().map(|s| s.label).collect();
        assert_eq!(
            labels,
            vec!["V-V", "V-V-64", "V-V-64D", "V-N\u{221e}", "V-N1", "V-N2", "N1-N2", "N2-N2"]
        );
    }

    #[test]
    fn phase_switching() {
        let s = Schedule::n1_n2();
        assert_eq!(s.color_kind(0), PhaseKind::Net);
        assert_eq!(s.color_kind(1), PhaseKind::Vertex);
        assert_eq!(s.conflict_kind(0), PhaseKind::Net);
        assert_eq!(s.conflict_kind(1), PhaseKind::Net);
        assert_eq!(s.conflict_kind(2), PhaseKind::Vertex);
    }

    #[test]
    fn vn_inf_never_switches_conflict() {
        let s = Schedule::v_n_inf();
        assert_eq!(s.conflict_kind(1_000_000), PhaseKind::Net);
        assert_eq!(s.color_kind(0), PhaseKind::Vertex);
    }

    #[test]
    fn vv_is_all_vertex_chunk1_eager() {
        let s = Schedule::v_v();
        assert_eq!(s.color_kind(0), PhaseKind::Vertex);
        assert_eq!(s.conflict_kind(0), PhaseKind::Vertex);
        assert_eq!(s.chunk, 1);
        assert!(!s.lazy_queue);
    }

    #[test]
    fn names_include_balance_suffix() {
        assert_eq!(Schedule::v_n(2).name(), "V-N2");
        assert_eq!(Schedule::v_n(2).with_balance(Balance::B1).name(), "V-N2-B1");
        assert_eq!(Schedule::n1_n2().with_balance(Balance::B2).name(), "N1-N2-B2");
    }

    #[test]
    fn from_name_roundtrips_all_schedules() {
        for schedule in Schedule::all() {
            let parsed = Schedule::from_name(&schedule.name())
                .unwrap_or_else(|| panic!("cannot parse {}", schedule.name()));
            assert_eq!(parsed.name(), schedule.name());
            assert_eq!(parsed.net_color_iters, schedule.net_color_iters);
            assert_eq!(parsed.net_conflict_iters, schedule.net_conflict_iters);
            assert_eq!(parsed.chunk, schedule.chunk);
            assert_eq!(parsed.lazy_queue, schedule.lazy_queue);
        }
    }

    #[test]
    fn from_name_parses_balance_and_case() {
        let s = Schedule::from_name("n1-n2-b2").unwrap();
        assert_eq!(s.name(), "N1-N2-B2");
        let s = Schedule::from_name("V-NINF").unwrap();
        assert_eq!(s.label, "V-N\u{221e}");
        assert!(Schedule::from_name("bogus").is_none());
    }
}
