//! Vertex-based phases (Algorithms 4 and 5) — the ColPack baseline, for
//! BGPC and D2GC alike.
//!
//! Both phases work *from the queued vertex*: every net of `w`, then every
//! pin of that net (for D2GC: `nbor(w)`, then each `N[u]` — see
//! [`crate::neighborhood`]). Walked pin by pin, a queue touches each net
//! once per queued pin of it, `Θ(Σ_v |vtxs(v)|²)` in the first iteration
//! — the cost the net-based phases of [`crate::net`] attack. The conflict
//! scan still walks that way. A coloring phase whose queue would walk
//! more pins than the instance has reads each net's colors from its
//! [`NetSummaries`] instead: about `W` words per net of a queued vertex,
//! plus one pass over the pins to build them, with pin walks left for
//! the nets of at most `W` pins.
//!
//! The pin walk is written once, in `gather`: the coloring phase runs it
//! for the nets without a summary, `gather_forbidden` runs it over
//! every net for Jones–Plassmann and the parallel recoloring pass
//! ([`crate::recolor::reduce_colors`]), neither of which reads a summary,
//! and [`VertexPicker`] runs it, with or without summaries, for every
//! sequential first-fit: the sequential baseline ([`crate::seq`]) and
//! the degraded-run repair ([`crate::runner`]) with summaries, the
//! sequential recoloring pass ([`crate::recolor::reduce_colors_seq`])
//! without, and the sharded coloring's worker and repair. With a
//! [`BitStampSet`] it collects the
//! colors below 64 in a register word with no data-dependent branch:
//! around a re-queued vertex the pins are a random mix of colored and
//! [`UNCOLORED`], and a per-pin "is it colored?" branch mispredicts on
//! that mix. A thread that meets a color ≥ 64 falls back for the rest of
//! the run to inserting colors one by one (the sticky
//! [`ThreadCtx::wide_palette`] flag, which the net passes of
//! [`crate::net`] share), which is cheaper once most colors miss the
//! register word.
//!
//! [`BitStampSet`]: crate::BitStampSet

use std::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, Ordering};

use par::{Pool, ThreadScratch};

use crate::ctx::ThreadCtx;
use crate::forbidden::{BitStampSet, ForbiddenSet};
use crate::neighborhood::Neighborhood;
use crate::net::NET_CHUNK;
use crate::schedule::claim_chunk;
use crate::workqueue::{merge_local_queues, SharedQueue};
use crate::{Balance, Color, Colors, UNCOLORED};

/// How many queue positions ahead the vertex-based loops hint the cache
/// about the next vertex's adjacency row. The queue entries are random
/// vertex ids, so without the hint every `nets(w)` access is a cold
/// indirect load; four items covers that latency without thrashing L1.
pub const PREFETCH_AHEAD: usize = 4;

/// The summary slot of a net whose pins the coloring phase walks.
const WALK: u32 = u32::MAX;

/// A slot of the color array that the gather and the summary build
/// read: the shared atomic array of the parallel phases, or the plain
/// array of a sequential caller ([`VertexPicker`]).
pub(crate) trait ColorSlot {
    fn color(&self) -> Color;
}

impl ColorSlot for AtomicI32 {
    #[inline(always)]
    fn color(&self) -> Color {
        self.load(Ordering::Relaxed)
    }
}

impl ColorSlot for Color {
    #[inline(always)]
    fn color(&self) -> Color {
        *self
    }
}

/// Per-net color bitmaps ("summaries") read by one vertex coloring phase.
///
/// Every net with more than `W` pins gets `W` words whose bit `c` is set
/// when a pin of the net holds color `c`, for `c < 64·W`; smaller nets
/// are cheaper to walk than to OR. A summary therefore takes fewer words
/// than its net has pins, so all of them fit in one `u64` per pin, which
/// the runner reserves once per run, at its first build.
///
/// The coloring phase ORs a queued vertex's summaries into a per-thread
/// bitmap, then ORs the color it picks into the summary of every net the
/// vertex is a pin of ([`Neighborhood::nets`] plus
/// [`Neighborhood::home_net`]). A color ≥ `64·W` instead switches those
/// nets back to pin walks for the rest of the phase. At one thread the
/// queued vertices start uncolored and colors are only added, so each
/// summary equals what a walk of its pins would gather and colorings are
/// the pin walk's. With more threads the in-phase updates are relaxed
/// loads and stores, so one may be lost to a concurrent one; like any
/// other stale read of the color array, that is a speculative miss the
/// conflict phase (which never reads a summary) repairs.
pub struct NetSummaries {
    /// Words per summary (`W`).
    width: usize,
    /// The fewest colors a complete coloring can use
    /// ([`Neighborhood::max_neighborhood`]).
    least_palette: usize,
    /// Per net: the index of its summary, or [`WALK`].
    slot: Box<[AtomicU32]>,
    /// `width` words per summarized net, in slot order.
    words: Vec<AtomicU64>,
}

impl NetSummaries {
    /// Allocates the per-net slots, all walked, and reserves one word per
    /// pin; a build initializes only the words it uses.
    pub(crate) fn new<G: Neighborhood>(g: &G) -> Self {
        Self {
            width: 0,
            least_palette: g.max_neighborhood(),
            slot: (0..g.n_nets()).map(|_| AtomicU32::new(WALK)).collect(),
            words: Vec::with_capacity(g.n_pins()),
        }
    }

    /// Rebuilds the summaries from the current colors, in one
    /// net-parallel pass.
    pub(crate) fn build<G: Neighborhood>(&mut self, g: &G, colors: &Colors, pool: &Pool) {
        let slots = colors.slots();
        self.lay_out(g, slots);
        let this = &*self;
        let chunk = claim_chunk(g.n_nets(), pool.threads(), NET_CHUNK);
        pool.for_dynamic(g.n_nets(), chunk, |_, range| {
            for v in range {
                this.fill(g, v, slots);
            }
        });
    }

    /// Sizes the summaries for the colors in `slots` and picks the nets
    /// that get one.
    ///
    /// The width is `W = ⌈1.25 · palette / 64⌉` words, at least one,
    /// where the palette is the larger of the colors in use and the
    /// fewest a complete coloring needs: a quarter more, for the colors
    /// the phase adds. (Taking the largest net into account keeps a
    /// first phase, with nothing colored yet, from guessing one word and
    /// switching most nets back to pin walks.) Every net with more than
    /// `W` pins gets a summary; every other net is walked.
    fn lay_out<G: Neighborhood, T: ColorSlot>(&mut self, g: &G, slots: &[T]) {
        let max_color = slots.iter().map(T::color).max();
        let in_use = (max_color.unwrap_or(UNCOLORED) + 1) as usize;
        let width = (in_use.max(self.least_palette) * 5).div_ceil(4 * 64).max(1);
        self.width = width;
        let mut count = 0usize;
        for (v, slot) in self.slot.iter_mut().enumerate() {
            *slot.get_mut() = if g.net_size(v) > width {
                count += 1;
                (count - 1) as u32
            } else {
                WALK
            };
        }
        // Within the reserved capacity: each summarized net has more pins
        // than words.
        if self.words.len() < count * width {
            self.words.resize_with(count * width, || AtomicU64::new(0));
        }
    }

    /// Gathers net `v`'s summary from the colors of its pins; a walked
    /// net has none. The low word is gathered in a register, like the
    /// pin walk's; only colors ≥ 64 touch memory.
    #[inline(always)]
    fn fill<G: Neighborhood, T: ColorSlot>(&self, g: &G, v: usize, slots: &[T]) {
        let Some(sum) = self.summary(v) else { return };
        for word in &sum[1..] {
            word.store(0, Ordering::Relaxed);
        }
        let mut low = 0u64;
        g.for_each_pin(v, |u| {
            let c = slots[u as usize].color() as u32;
            low |= ((c < 64) as u64) << (c & 63);
            if c.wrapping_add(1) > 64 {
                set_bit(&sum[c as usize / 64], c as usize);
            }
        });
        sum[0].store(low, Ordering::Relaxed);
    }

    /// Net `v`'s summary, or `None` when the phase walks its pins.
    #[inline(always)]
    fn summary(&self, v: usize) -> Option<&[AtomicU64]> {
        let k = self.slot[v].load(Ordering::Relaxed);
        (k != WALK).then(|| {
            let at = k as usize * self.width;
            &self.words[at..at + self.width]
        })
    }

    /// Adds vertex `w`'s new color `col` to the summary of every net `w`
    /// is a pin of, or switches those nets back to pin walks when `col`
    /// does not fit.
    #[inline(always)]
    fn record<G: Neighborhood>(&self, g: &G, w: u32, col: Color) {
        let c = col as usize;
        let fits = c < 64 * self.width;
        let note = |v: u32| {
            let slot = &self.slot[v as usize];
            let k = slot.load(Ordering::Relaxed);
            if k != WALK {
                if fits {
                    set_bit(&self.words[k as usize * self.width + c / 64], c);
                } else {
                    slot.store(WALK, Ordering::Relaxed);
                }
            }
        };
        for &v in g.nets(w as usize) {
            note(v);
        }
        if let Some(v) = g.home_net(w as usize) {
            note(v);
        }
    }
}

/// Sets bit `c % 64` of `word` with a relaxed load and store rather than
/// an atomic read-modify-write (see [`NetSummaries`] for why a lost
/// update is harmless).
#[inline(always)]
fn set_bit(word: &AtomicU64, c: usize) {
    word.store(
        word.load(Ordering::Relaxed) | 1 << (c % 64),
        Ordering::Relaxed,
    );
}

/// Algorithm 4 — optimistic coloring of the work queue `w`, vertex-based.
///
/// Every vertex in `w` is assigned a color chosen by `balance` (first-fit
/// for [`Balance::Unbalanced`]) against the colors currently visible in its
/// distance-2 neighborhood: read from `summaries` for the nets they cover
/// and from the pins of every other net (all of them when `summaries` is
/// `None`). Races with concurrent writers are expected and repaired by the
/// following conflict-removal phase.
///
/// `chunk` is the schedule's chunk, taken as a floor: each thread claims
/// about 64 runs of contiguous queue, `max(chunk, ⌈|W| / (64 ·
/// threads)⌉)` vertices each (`schedule::claim_chunk`), so the vertices
/// colored at the same moment sit far apart and the threads do not write
/// each other's color and summary cache lines. A chunk of 1 (`V-V`,
/// ColPack's `schedule(dynamic,1)`) keeps per-vertex claims.
#[allow(clippy::too_many_arguments)]
pub fn color_workqueue_vertex<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    w: &[u32],
    colors: &Colors,
    pool: &Pool,
    chunk: usize,
    balance: Balance,
    summaries: Option<&NetSummaries>,
    scratch: &ThreadScratch<ThreadCtx<F>>,
) {
    let rec = pool.tracer();
    let slots = colors.slots();
    let chunk = if chunk == 1 {
        1
    } else {
        claim_chunk(w.len(), pool.threads(), chunk)
    };
    pool.for_dynamic(w.len(), chunk, |tid, range| {
        par::faults::fire(G::FAULT_COLOR, tid);
        scratch.with(tid, |ctx| {
            let items = &w[range];
            // Counter sinks live in registers and are flushed once per chunk.
            let mut tally = Tally::default();
            for (k, &wv) in items.iter().enumerate() {
                if let Some(&next) = items.get(k + PREFETCH_AHEAD) {
                    g.prefetch_nets(next as usize);
                    tally.prefetches += 1;
                }
                let wide = &mut ctx.wide_palette;
                let col = match summaries {
                    Some(s) => {
                        gather(g, slots, wv, &mut ctx.summary_fb, wide, &mut tally, Some(s));
                        let col = balance.pick(wv, &ctx.summary_fb, &mut ctx.balancer);
                        s.record(g, wv, col);
                        col
                    }
                    None => {
                        gather(g, slots, wv, &mut ctx.fb, wide, &mut tally, None);
                        balance.pick(wv, &ctx.fb, &mut ctx.balancer)
                    }
                };
                colors.set(wv as usize, col);
            }
            if let Some(r) = rec {
                let mut local = trace::CounterSheet::new();
                local.add(trace::Counter::VerticesColored, items.len() as u64);
                local.add(trace::Counter::ForbiddenProbes, tally.probes);
                local.add(trace::Counter::PrefetchIssues, tally.prefetches);
                r.merge(tid, &local);
            }
        });
    });
}

/// Counter sinks of the coloring walk, kept in registers and flushed once
/// per chunk.
#[derive(Default)]
pub(crate) struct Tally {
    /// Colored pins walked plus summary words merged (`ForbiddenProbes`).
    pub(crate) probes: u64,
    /// Pin-list prefetches issued (`PrefetchIssues`).
    pub(crate) prefetches: u64,
}

/// Algorithm 4's distance-2 gather by pin walk: starts a fresh forbidden
/// set in `ctx.fb` holding every color on the pins of `wv`'s nets except
/// `wv`'s own (a stale self color from a lost conflict included).
#[inline(always)]
pub(crate) fn gather_forbidden<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    slots: &[AtomicI32],
    wv: u32,
    ctx: &mut ThreadCtx<F>,
    tally: &mut Tally,
) {
    gather(
        g,
        slots,
        wv,
        &mut ctx.fb,
        &mut ctx.wide_palette,
        tally,
        None,
    );
}

/// The distance-2 gather of `wv` into a fresh set `fb`: each net's colors
/// come from its summary when `summaries` holds one, else from its pins.
///
/// When `S` merges a word in one OR ([`ForbiddenSet::LOW_WORD`]) and the
/// thread has not yet seen a wide palette, each walked pin costs a load,
/// a shift and an OR: the color is read as `u32` with the self pin and
/// [`UNCOLORED`] both mapped to `u32::MAX`, colors below 64 land in a
/// register word, and only colors ≥ 64 take the one branch (never taken
/// while the palette fits in 64 colors) to [`ForbiddenSet::insert`],
/// setting the sticky `wide` flag ([`ThreadCtx::wide_palette`]). The
/// register word is merged once, so the set is the same as one-by-one
/// inserts would build. A summary is merged word by word; it holds `wv`'s
/// own color if `wv` has one, so the set equals the pin walk's for
/// uncolored vertices.
#[inline(always)]
fn gather<S: ForbiddenSet, G: Neighborhood, T: ColorSlot>(
    g: &G,
    slots: &[T],
    wv: u32,
    fb: &mut S,
    wide: &mut bool,
    tally: &mut Tally,
    summaries: Option<&NetSummaries>,
) {
    fb.advance();
    let word = S::LOW_WORD && !*wide;
    let mut low = 0u64;
    let nets = g.nets(wv as usize);
    for (j, &v) in nets.iter().enumerate() {
        if G::PREFETCH_PINS {
            if let Some(&vnext) = nets.get(j + 1) {
                g.prefetch_pins(vnext as usize);
                tally.prefetches += 1;
            }
        }
        if let Some(sum) = summaries.and_then(|s| s.summary(v as usize)) {
            for (i, bits) in sum.iter().enumerate() {
                fb.merge_word(i, bits.load(Ordering::Relaxed));
            }
            tally.probes += sum.len() as u64;
        } else if word {
            g.for_each_pin(v as usize, |u| {
                let self_pin = ((u == wv) as u32).wrapping_neg();
                let c = slots[u as usize].color() as u32 | self_pin;
                low |= ((c < 64) as u64) << (c & 63);
                tally.probes += (c != u32::MAX) as u64;
                if c.wrapping_add(1) > 64 {
                    fb.insert(c as Color);
                    *wide = true;
                }
            });
        } else {
            g.for_each_pin(v as usize, |u| {
                if u != wv {
                    let cu = slots[u as usize].color();
                    if cu != UNCOLORED {
                        fb.insert(cu);
                        tally.probes += 1;
                    }
                }
            });
        }
    }
    if word {
        fb.merge_word(0, low);
    }
}

/// The coloring phase's gather and pick for a sequential caller that
/// colors one vertex at a time in a plain color array: the sequential
/// baseline, the degraded-run repair, the sequential recoloring pass,
/// the shard worker of the `serve` crate and the sharded coordinator's
/// repair.
///
/// [`VertexPicker::pick`] gathers a vertex's distance-2 colors with
/// `gather`, from the summaries when the picker holds them and else by
/// pin walk, takes the `k`-th available color and records it. A summary
/// holds every color its pins have had since it was built, so a pick
/// through the summaries is the pin walk's only while colors are only
/// added, each by a pick, and every picked vertex is uncolored. Build
/// them with [`VertexPicker::summarize`] at the start of such a stretch,
/// and drop them with [`VertexPicker::walk_pins`] before a color is
/// overwritten any other way.
pub struct VertexPicker {
    fb: BitStampSet,
    /// The gather's sticky wide-palette flag ([`ThreadCtx::wide_palette`]).
    wide: bool,
    summaries: Option<NetSummaries>,
}

impl VertexPicker {
    /// A picker for `g` that walks pins.
    pub fn new<G: Neighborhood>(g: &G) -> Self {
        Self {
            fb: BitStampSet::with_capacity(g.seq_capacity()),
            wide: false,
            summaries: None,
        }
    }

    /// Builds the net summaries of `g` from `colors`; later picks read
    /// them until [`VertexPicker::walk_pins`].
    pub fn summarize<G: Neighborhood>(&mut self, g: &G, colors: &[Color]) {
        let mut sums = NetSummaries::new(g);
        sums.lay_out(g, colors);
        // A fresh layout's words are zero, which is every summary while
        // nothing is colored (round 1 of a shard starts so).
        if colors.iter().any(|&c| c != UNCOLORED) {
            for v in 0..g.n_nets() {
                sums.fill(g, v, colors);
            }
        }
        self.summaries = Some(sums);
    }

    /// Drops the summaries: later picks walk pins.
    pub fn walk_pins(&mut self) {
        self.summaries = None;
    }

    /// Colors `w` with the `k`-th smallest color (`k = 0` is first-fit)
    /// that no other pin of its nets holds in `colors`, and returns it.
    pub fn pick<G: Neighborhood>(
        &mut self,
        g: &G,
        colors: &mut [Color],
        w: u32,
        k: usize,
    ) -> Color {
        let sums = self.summaries.as_ref();
        debug_assert!(
            sums.is_none() || colors[w as usize] == UNCOLORED,
            "a summarized pick of a colored vertex"
        );
        let mut tally = Tally::default();
        gather(g, &*colors, w, &mut self.fb, &mut self.wide, &mut tally, sums);
        let mut col = self.fb.first_fit_from(0);
        for _ in 0..k {
            col = self.fb.first_fit_from(col + 1);
        }
        colors[w as usize] = col;
        if let Some(s) = sums {
            s.record(g, w, col);
        }
        col
    }
}

/// Algorithm 5 — vertex-based conflict detection over the work queue.
///
/// For each queued vertex `w`, scans its distance-2 neighborhood; if some
/// neighbor `u` holds the same color and `w > u`, `w` loses and is queued
/// for recoloring (its stale color is left in place, exactly like the
/// original — the next coloring phase overwrites it).
///
/// `eager` selects ColPack's shared-queue construction (staged: one atomic
/// `fetch_add` per 64 conflicts instead of one per conflict); otherwise the
/// 64D lazy strategy collects conflicts in thread-private queues merged
/// after the join. Returns `W_next`.
pub fn remove_conflicts_vertex<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    w: &[u32],
    colors: &Colors,
    pool: &Pool,
    chunk: usize,
    eager: Option<&SharedQueue>,
    scratch: &mut ThreadScratch<ThreadCtx<F>>,
) -> Vec<u32> {
    let scratch_ref: &ThreadScratch<ThreadCtx<F>> = scratch;
    let rec = pool.tracer();
    pool.for_dynamic(w.len(), chunk, |tid, range| {
        par::faults::fire(G::FAULT_CONFLICT, tid);
        scratch_ref.with(tid, |ctx| {
            let items = &w[range];
            let mut conflicts = 0u64;
            let mut prefetches = 0u64;
            for (k, &wv) in items.iter().enumerate() {
                if let Some(&next) = items.get(k + PREFETCH_AHEAD) {
                    g.prefetch_nets(next as usize);
                    prefetches += 1;
                }
                let wu = wv as usize;
                let cw = colors.get(wu);
                debug_assert_ne!(cw, UNCOLORED, "conflict scan on uncolored vertex");
                let lost = g.nets(wu).iter().any(|&v| {
                    g.any_pin(v as usize, |u| u < wv && colors.get(u as usize) == cw)
                });
                if lost {
                    match eager {
                        Some(q) => q.push_staged(&mut ctx.stage, wv),
                        None => ctx.local_queue.push(wv),
                    }
                    conflicts += 1;
                }
            }
            if let Some(r) = rec {
                let mut local = trace::CounterSheet::new();
                local.add(trace::Counter::ConflictsDetected, conflicts);
                local.add(trace::Counter::PrefetchIssues, prefetches);
                r.merge(tid, &local);
            }
        });
    });
    match eager {
        Some(q) => {
            // Flush each thread's residual stage (outside the region — the
            // join ordered all staged writes before this point).
            for ctx in scratch.iter_mut() {
                q.flush(&mut ctx.stage);
            }
            q.drain_to_vec()
        }
        None => merge_local_queues(scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use crate::StampSet;
    use graph::{BipartiteGraph, Graph};
    use sparse::Csr;
    use std::sync::atomic::AtomicUsize;

    fn clique_graph() -> BipartiteGraph {
        // One net containing all 6 vertices: pairwise conflicting.
        BipartiteGraph::from_matrix(&Csr::from_rows(6, &[vec![0, 1, 2, 3, 4, 5]]))
    }

    fn cycle6() -> Graph {
        Graph::from_symmetric_matrix(&Csr::from_rows(
            6,
            &[
                vec![1, 5],
                vec![0, 2],
                vec![1, 3],
                vec![2, 4],
                vec![3, 5],
                vec![0, 4],
            ],
        ))
    }

    fn run_until_valid<G: Neighborhood>(
        g: &G,
        pool: &Pool,
        eager: bool,
    ) -> Vec<i32> {
        let n = g.n_vertices();
        let colors = Colors::new(n);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(16));
        let shared = SharedQueue::new(n);
        let mut w: Vec<u32> = (0..n as u32).collect();
        let mut guard = 0;
        while !w.is_empty() {
            color_workqueue_vertex(g, &w, &colors, pool, 1, Balance::Unbalanced, None, &scratch);
            w = remove_conflicts_vertex(
                g,
                &w,
                &colors,
                pool,
                1,
                eager.then_some(&shared),
                &mut scratch,
            );
            guard += 1;
            assert!(guard < 100, "no convergence");
        }
        colors.snapshot()
    }

    /// How often the summary-gather property met each kind of net.
    #[derive(Default)]
    struct NetKinds {
        summarized: AtomicUsize,
        walked: AtomicUsize,
        switched_back: AtomicUsize,
        multi_word: AtomicUsize,
    }

    /// Draws a partial coloring over a palette of 1 to 399 colors (about
    /// 40% of the vertices uncolored), builds the summaries over it, then
    /// colors some uncolored vertices the way the phase does, some of them
    /// past `64·W` so their nets switch back to pin walks. Every vertex
    /// still uncolored must gather the set the pin walk gathers.
    fn summary_gather_agrees<G: Neighborhood>(
        gen: &mut minicheck::Gen,
        g: &G,
        kinds: &NetKinds,
    ) -> minicheck::PropResult {
        let n = g.n_vertices();
        let palette = gen.u32_in(1..400);
        let colors = Colors::new(n);
        for u in 0..n {
            if !gen.bool_with(0.4) {
                colors.set(u, gen.u32_in(0..palette) as Color);
            }
        }
        let mut sums = NetSummaries::new(g);
        sums.build(g, &colors, &Pool::new(1));
        let width = sums.width;
        let before: Vec<bool> = (0..g.n_nets()).map(|v| sums.summary(v).is_some()).collect();
        for u in 0..n as u32 {
            if colors.get(u as usize) == UNCOLORED && gen.bool_with(0.3) {
                let col = if gen.bool_with(0.2) {
                    (64 * width) as Color + gen.u32_in(0..70) as Color
                } else {
                    gen.u32_in(0..(64 * width) as u32) as Color
                };
                colors.set(u as usize, col);
                sums.record(g, u, col);
            }
        }
        for (v, &was) in before.iter().enumerate() {
            let live = sums.summary(v).is_some();
            let kind = match (was, live) {
                (true, true) => &kinds.summarized,
                (true, false) => &kinds.switched_back,
                _ => &kinds.walked,
            };
            kind.fetch_add(1, Ordering::Relaxed);
        }
        if width > 1 && before.iter().any(|&b| b) {
            kinds.multi_word.fetch_add(1, Ordering::Relaxed);
        }
        let mut walk: ThreadCtx<StampSet> = ThreadCtx::new(16);
        let mut summed: ThreadCtx<StampSet> = ThreadCtx::new(16);
        let mut tally = Tally::default();
        let slots = colors.slots();
        let limit = (64 * width + 140) as Color;
        for w in 0..n as u32 {
            if colors.get(w as usize) != UNCOLORED {
                continue;
            }
            gather_forbidden(g, slots, w, &mut walk, &mut tally);
            let fb = &mut summed.summary_fb;
            gather(
                g,
                slots,
                w,
                fb,
                &mut summed.wide_palette,
                &mut tally,
                Some(&sums),
            );
            for c in 0..limit {
                minicheck::prop_assert!(
                    walk.fb.contains(c) == fb.contains(c),
                    "vertex {w}, color {c}: pin walk {}, summaries {} (W = {width})",
                    walk.fb.contains(c),
                    fb.contains(c)
                );
            }
        }
        Ok(())
    }

    #[test]
    fn summary_gather_matches_pin_walk_on_random_partial_colorings() {
        let kinds = NetKinds::default();
        minicheck::check("summary_gather_bgpc", 96, |gen| {
            let verts = gen.usize_in(2..160);
            let nets = gen.usize_in(1..40);
            let nnz = gen.usize_in(0..nets * verts.min(10) + 1);
            let m = sparse::gen::bipartite_uniform(nets, verts, nnz, gen.u64_in(0..u64::MAX));
            let mut rows: Vec<Vec<u32>> = (0..m.nrows()).map(|r| m.row(r).to_vec()).collect();
            for _ in 0..gen.usize_in(0..3) {
                let p = gen.usize_in(1..10) as f64 / 10.0;
                rows.push((0..verts as u32).filter(|_| gen.bool_with(p)).collect());
            }
            summary_gather_agrees(
                gen,
                &BipartiteGraph::from_matrix(&Csr::from_rows(verts, &rows)),
                &kinds,
            )
        });
        minicheck::check("summary_gather_d2gc", 96, |gen| {
            let n = gen.usize_in(2..120);
            let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
            for _ in 0..gen.usize_in(0..3 * n) {
                let (a, b) = (gen.usize_in(0..n), gen.u32_in(0..n as u32));
                rows[a].push(b);
            }
            // A hub whose closed neighborhood spans several summary words.
            if gen.bool_with(0.5) {
                rows[0].extend((1..n as u32).filter(|_| gen.bool_with(0.7)));
            }
            summary_gather_agrees(
                gen,
                &Graph::from_square_matrix(&Csr::from_rows(n, &rows)),
                &kinds,
            )
        });
        for (name, count) in [
            ("summarized", &kinds.summarized),
            ("walked", &kinds.walked),
            ("switched back", &kinds.switched_back),
            ("multi-word", &kinds.multi_word),
        ] {
            assert!(
                count.load(Ordering::Relaxed) > 0,
                "no case drew a {name} net"
            );
        }
    }

    #[test]
    fn sequential_team_colors_clique_without_conflicts() {
        let g = clique_graph();
        let pool = Pool::new(1);
        // Single thread first-fit on one net: colors are 0..6 in order.
        let colors = run_until_valid(&g, &pool, false);
        verify_bgpc(&g, &colors).unwrap();
        assert_eq!(colors, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn parallel_team_converges_on_clique_lazy() {
        let g = clique_graph();
        let pool = Pool::new(4);
        let colors = run_until_valid(&g, &pool, false);
        verify_bgpc(&g, &colors).unwrap();
    }

    #[test]
    fn parallel_team_converges_on_clique_eager() {
        let g = clique_graph();
        let pool = Pool::new(4);
        let colors = run_until_valid(&g, &pool, true);
        verify_bgpc(&g, &colors).unwrap();
    }

    #[test]
    fn disjoint_nets_need_one_iteration() {
        // nets {0,1}, {2,3}: vertices 0,2 and 1,3 can share colors.
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1], vec![2, 3]]));
        let pool = Pool::new(2);
        let colors = Colors::new(4);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(2, |_| ThreadCtx::new(8));
        let w: Vec<u32> = vec![0, 1, 2, 3];
        color_workqueue_vertex(
            &g,
            &w,
            &colors,
            &pool,
            1,
            Balance::Unbalanced,
            None,
            &scratch,
        );
        let wnext = remove_conflicts_vertex(&g, &w, &colors, &pool, 1, None, &mut scratch);
        // single-net-per-vertex, small graph: any schedule should already
        // be conflict-free or nearly so; loop to completion for safety.
        let mut w = wnext;
        let mut rounds = 0;
        while !w.is_empty() {
            color_workqueue_vertex(
                &g,
                &w,
                &colors,
                &pool,
                1,
                Balance::Unbalanced,
                None,
                &scratch,
            );
            w = remove_conflicts_vertex(&g, &w, &colors, &pool, 1, None, &mut scratch);
            rounds += 1;
            assert!(rounds < 10);
        }
        verify_bgpc(&g, &colors.snapshot()).unwrap();
    }

    #[test]
    fn loser_is_larger_id() {
        // Force a conflict artificially: both vertices of one net get the
        // same color, then run detection on the full queue.
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(2, &[vec![0, 1]]));
        let pool = Pool::new(1);
        let colors = Colors::new(2);
        colors.set(0, 0);
        colors.set(1, 0);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(1, |_| ThreadCtx::new(4));
        let wnext = remove_conflicts_vertex(&g, &[0, 1], &colors, &pool, 1, None, &mut scratch);
        assert_eq!(wnext, vec![1]);
        // Winner keeps its color; loser's stale color remains until the
        // next coloring phase (paper semantics).
        assert_eq!(colors.get(0), 0);
        assert_eq!(colors.get(1), 0);
    }

    #[test]
    fn balanced_policies_still_yield_valid_colorings() {
        let m = sparse::gen::bipartite_uniform(20, 30, 200, 3);
        let g = BipartiteGraph::from_matrix(&m);
        for balance in [Balance::B1, Balance::B2] {
            let pool = Pool::new(3);
            let colors = Colors::new(g.n_vertices());
            let mut scratch: ThreadScratch<ThreadCtx> =
                ThreadScratch::new(3, |_| ThreadCtx::new(32));
            let mut w: Vec<u32> = (0..g.n_vertices() as u32).collect();
            let mut rounds = 0;
            while !w.is_empty() {
                color_workqueue_vertex(&g, &w, &colors, &pool, 4, balance, None, &scratch);
                w = remove_conflicts_vertex(&g, &w, &colors, &pool, 4, None, &mut scratch);
                rounds += 1;
                assert!(rounds < 100);
            }
            verify_bgpc(&g, &colors.snapshot()).unwrap();
        }
    }

    #[test]
    fn d2gc_cycle_single_thread() {
        let g = cycle6();
        let colors = run_until_valid(&g, &Pool::new(1), false);
        verify_d2gc(&g, &colors).unwrap();
        // C6 at distance 2 needs exactly 3 colors.
        assert_eq!(crate::metrics::count_distinct_colors(&colors), 3);
    }

    #[test]
    fn d2gc_cycle_parallel() {
        let g = cycle6();
        let colors = run_until_valid(&g, &Pool::new(4), false);
        verify_d2gc(&g, &colors).unwrap();
    }

    #[test]
    fn d2gc_random_graph_parallel_eager_queue() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(60, 150, 3));
        let colors = run_until_valid(&g, &Pool::new(3), true);
        verify_d2gc(&g, &colors).unwrap();
    }

    /// Chunks claimed by one traced coloring of every vertex of `g`.
    fn vertex_phase_claims(g: &Graph, threads: usize, chunk: usize) -> u64 {
        let mut pool = Pool::new(threads);
        let rec = std::sync::Arc::new(trace::Recorder::new(threads));
        pool.set_tracer(std::sync::Arc::clone(&rec));
        let colors = Colors::new(g.n_vertices());
        let scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(threads, |_| ThreadCtx::new(32));
        let w: Vec<u32> = (0..g.n_vertices() as u32).collect();
        color_workqueue_vertex(g, &w, &colors, &pool, chunk, Balance::Unbalanced, None, &scratch);
        rec.totals().get(trace::Counter::ChunksClaimed)
    }

    #[test]
    fn vertex_coloring_claims_about_64_chunks_per_thread() {
        let t = 2;
        // Above 64 · 64 · threads queued vertices each thread claims
        // about 64 chunks.
        let big = Graph::from_symmetric_matrix(&sparse::gen::grid3d(24, 24, 24, 1));
        assert!(big.n_vertices() > 64 * 64 * t);
        let claims = vertex_phase_claims(&big, t, 64);
        assert!(claims <= (64 * t + t) as u64, "{claims} claims");
        // At or below it the chunk stays at the schedule's 64 vertices,
        // and a chunk of 1 (`V-V`) stays per-vertex at any queue size.
        let small = Graph::from_symmetric_matrix(&sparse::gen::grid3d(16, 16, 16, 1));
        assert!(small.n_vertices() <= 64 * 64 * t);
        let n = small.n_vertices() as u64;
        assert_eq!(vertex_phase_claims(&small, t, 64), n.div_ceil(64));
        assert_eq!(vertex_phase_claims(&small, t, 1), n);
        assert_eq!(vertex_phase_claims(&big, t, 1), big.n_vertices() as u64);
    }
}
