//! Per-thread workspace shared by all phases.

use crate::balance::BalancerState;
use crate::forbidden::{BitStampSet, ForbiddenSet};

/// One team thread's reusable buffers.
///
/// Allocated once per coloring run and reused across every parallel region
/// (the paper's "allocated only once … never actually emptied or reset"
/// implementation note): the forbidden set is stamp-marked, the queues are
/// cleared by resetting their length.
///
/// The forbidden-set representation is a type parameter so kernels can be
/// benchmarked against both [`crate::StampSet`] and the word-packed
/// [`BitStampSet`]; production paths use the default ([`BitStampSet`]).
pub struct ThreadCtx<F: ForbiddenSet = BitStampSet> {
    /// Forbidden-color set `F`.
    pub fb: F,
    /// B1/B2 cursors (`colmax`, `colnext`).
    pub balancer: BalancerState,
    /// Lazy (64D) conflict queue for this thread.
    pub local_queue: Vec<u32>,
    /// `W_local` — the two-pass net coloring's to-be-colored buffer,
    /// kept at least as long as the largest net walked: the marking pass
    /// writes every pin and counts only those that need a color.
    pub wlocal: Vec<u32>,
    /// Staging buffer for the eager shared queue: conflicts batch here and
    /// flush with one `fetch_add` per [`crate::workqueue::STAGE_CAPACITY`]
    /// entries instead of one per conflict.
    pub stage: Vec<u32>,
    /// Sticky: set once this thread meets a color ≥ 64 in a
    /// register-word walk, the vertex kernel's distance-2 gather or the
    /// net passes of Algorithms 7 and 8. From then on all three insert
    /// colors one by one instead of collecting the low 64 in a register
    /// word (see [`crate::vertex`] and [`crate::net`]); cleared by
    /// [`Self::reset_for_run`].
    pub wide_palette: bool,
    /// The forbidden set of a vertex coloring phase that reads net color
    /// summaries ([`crate::vertex::NetSummaries`]). Always word-packed,
    /// whatever `F` is: merging a summary is then one OR per word.
    pub summary_fb: BitStampSet,
}

impl<F: ForbiddenSet> ThreadCtx<F> {
    /// Creates a context sized for colors up to `color_capacity` (the
    /// forbidden set grows on demand if exceeded).
    pub fn new(color_capacity: usize) -> Self {
        Self {
            fb: F::with_capacity(color_capacity.max(16)),
            summary_fb: BitStampSet::with_capacity(color_capacity.max(16)),
            balancer: BalancerState::default(),
            local_queue: Vec::new(),
            wlocal: Vec::new(),
            stage: Vec::with_capacity(crate::workqueue::STAGE_CAPACITY),
            wide_palette: false,
        }
    }

    /// Resets the per-run state so the workspace can be reused for a
    /// second coloring call — on the same or a different graph — with
    /// results identical to a fresh workspace.
    ///
    /// The forbidden set needs no reset (its stamp protocol makes stale
    /// marks invisible), but the balancer cursors are per-run state (see
    /// [`BalancerState::reset`]) and the queues/stage must not leak
    /// entries from an aborted previous run. The runners call this
    /// defensively at the start of every run; call it yourself when
    /// driving the `vertex`/`net` kernels directly with a long-lived
    /// scratch set.
    pub fn reset_for_run(&mut self) {
        self.balancer.reset();
        self.local_queue.clear();
        self.wlocal.clear();
        self.stage.clear();
        self.wide_palette = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StampSet;

    #[test]
    fn construction_sizes_forbidden_set() {
        let ctx: ThreadCtx = ThreadCtx::new(100);
        assert!(ctx.fb.capacity() >= 100);
        let tiny: ThreadCtx = ThreadCtx::new(0);
        assert!(tiny.fb.capacity() >= 16);
        assert_eq!(tiny.balancer.colmax, 0);
        assert!(tiny.local_queue.is_empty());
        assert!(tiny.wlocal.is_empty());
        assert!(tiny.stage.is_empty());
        assert!(!tiny.wide_palette);
    }

    #[test]
    fn reset_for_run_clears_the_wide_palette_flag() {
        let mut ctx: ThreadCtx = ThreadCtx::new(8);
        ctx.wide_palette = true;
        ctx.reset_for_run();
        assert!(!ctx.wide_palette);
    }

    #[test]
    fn generic_over_set_representation() {
        let ctx: ThreadCtx<StampSet> = ThreadCtx::new(32);
        assert!(ctx.fb.capacity() >= 32);
    }
}
