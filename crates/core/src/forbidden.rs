//! Stamp-marked forbidden-color sets.
//!
//! Two representations of the same abstraction — "the set of colors my
//! current net/vertex must avoid" — both cleared in O(1) by bumping a
//! marker instead of touching memory:
//!
//! * [`StampSet`] — the paper's layout: one `u64` stamp *per color*.
//!   Insert and membership are one store/load, but a first-fit scan costs
//!   8 bytes and one branch per color probed.
//! * [`BitStampSet`] — word-packed: one `u64` bitmap word per **64
//!   colors** with one stamp *per word*. Insert is a single OR, and the
//!   first-fit scan inspects 64 colors per word via `trailing_ones`,
//!   densifying the hot scan 64×.
//!
//! The [`ForbiddenSet`] trait lets every kernel (and
//! [`crate::ctx::ThreadCtx`]) be generic over the representation so the
//! two can be compared head-to-head; the kernels default to
//! [`BitStampSet`], and the drivers pick one per instance with
//! [`ForbiddenKind::auto_for`].

use crate::{Color, UNCOLORED};

/// Neighborhood size (max net size for BGPC, max degree for D2GC) above
/// which the drivers prefer the per-color [`StampSet`] over the
/// word-packed [`BitStampSet`]. The greedy bound caps every chosen color
/// by the distance-2 degree, so a vertex's first-fit scan can never probe
/// more colors than its kernels inserted — on giant-net instances the
/// per-edge insert traffic dwarfs any scan savings, and the stamp array's
/// single-store insert wins end to end (see `results/ablation_forbidden.json`,
/// written by `repro ablations`, which times both representations per
/// dataset on `V-V` and `N1-N2`).
///
/// Read only by [`ForbiddenKind::auto_for`], the rule the one
/// per-instance dispatch applies for the speculative drivers (fresh and
/// seeded, BGPC and D2GC).
pub const DENSE_FORBIDDEN_CUTOFF: usize = 128;

/// Forbidden-set representation choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForbiddenKind {
    /// Word-packed [`BitStampSet`] (scan-dominated regime).
    BitStamp,
    /// Per-color [`StampSet`] (insert-dominated regime).
    Stamp,
}

impl ForbiddenKind {
    /// The dispatch rule: bitmap up to [`DENSE_FORBIDDEN_CUTOFF`] colors of
    /// dispatch neighborhood
    /// ([`crate::Neighborhood::max_neighborhood`]: max net size for BGPC,
    /// max degree for D2GC), stamp array above.
    pub fn auto_for(neighborhood: usize) -> ForbiddenKind {
        if neighborhood > DENSE_FORBIDDEN_CUTOFF {
            ForbiddenKind::Stamp
        } else {
            ForbiddenKind::BitStamp
        }
    }
}

/// The shared contract of a forbidden-color set: O(1) logical clear via
/// [`advance`](ForbiddenSet::advance), amortized-O(1) inserts with growth
/// on demand, and first-fit scans in both directions.
///
/// Implementations must agree exactly — a property test drives random
/// operation sequences against [`StampSet`] and [`BitStampSet`] and
/// asserts identical answers.
pub trait ForbiddenSet: Send {
    /// Whether [`merge_word`](ForbiddenSet::merge_word) is a single word
    /// OR, so the vertex kernel's distance-2 gather and the net passes of
    /// Algorithms 7 and 8 may collect colors `0..64` in a register word
    /// instead of inserting them one by one (see [`crate::vertex`] and
    /// [`crate::net`]).
    const LOW_WORD: bool = false;

    /// Creates a set able to hold colors `0..capacity` without growth.
    fn with_capacity(capacity: usize) -> Self
    where
        Self: Sized;

    /// Starts a fresh logical set (O(1); no memory is touched).
    fn advance(&mut self);

    /// Inserts a color, growing the backing storage if needed.
    fn insert(&mut self, color: Color);

    /// Inserts every color `64·wi + b` whose bit `b` is set in `bits`.
    ///
    /// The default inserts bit by bit; [`BitStampSet`] ORs the word into
    /// its entry `wi`.
    fn merge_word(&mut self, wi: usize, mut bits: u64) {
        while bits != 0 {
            self.insert((64 * wi) as Color + bits.trailing_zeros() as Color);
            bits &= bits - 1;
        }
    }

    /// Membership test for the current logical set.
    fn contains(&self, color: Color) -> bool;

    /// Smallest color `≥ from` not in the set (first-fit scan).
    fn first_fit_from(&self, from: Color) -> Color;

    /// Largest color `≤ from` not in the set, or [`UNCOLORED`] if every
    /// color in `0..=from` is forbidden (reverse first-fit scan).
    fn reverse_first_fit_from(&self, from: Color) -> Color;

    /// Current capacity (colors storable without growth).
    fn capacity(&self) -> usize;
}

/// A forbidden-color set that is "emptied" in O(1).
///
/// The paper's implementation detail (§III): each thread allocates one
/// array for its forbidden set `F` and never resets it — a monotonically
/// increasing *marker* distinguishes the current net/vertex's entries from
/// stale ones. [`StampSet::advance`] starts a fresh logical set; a color is
/// a member iff its stamp equals the current marker.
///
/// ```
/// use bgpc::StampSet;
/// let mut f = StampSet::with_capacity(8);
/// f.advance();
/// f.insert(0);
/// f.insert(1);
/// assert_eq!(f.first_fit_from(0), 2);
/// f.advance(); // O(1) "reset"
/// assert_eq!(f.first_fit_from(0), 0);
/// ```
pub struct StampSet {
    stamp: Vec<u64>,
    mark: u64,
}

impl StampSet {
    /// Creates a set able to hold colors `0..capacity` without growth.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            stamp: vec![0; capacity],
            // The marker starts at 1 so the zeroed stamps (including
            // resize padding) are always stale: a fresh set is empty.
            mark: 1,
        }
    }

    /// Starts a fresh logical set (O(1); no memory is touched).
    #[inline]
    pub fn advance(&mut self) {
        // u64 markers cannot realistically wrap (2⁶⁴ advances).
        self.mark += 1;
    }

    /// Inserts a color, growing the backing array if needed.
    #[inline]
    pub fn insert(&mut self, color: Color) {
        debug_assert!(color >= 0, "cannot forbid the UNCOLORED sentinel");
        let idx = color as usize;
        if idx >= self.stamp.len() {
            // Doubling keeps growth amortized O(1); colors are bounded by
            // the graph's degree structure so this settles quickly.
            self.stamp.resize((idx + 1).next_power_of_two(), 0);
        }
        self.stamp[idx] = self.mark;
    }

    /// Membership test for the current logical set.
    #[inline]
    pub fn contains(&self, color: Color) -> bool {
        debug_assert!(color >= 0);
        let idx = color as usize;
        idx < self.stamp.len() && self.stamp[idx] == self.mark
    }

    /// Smallest color `≥ from` not in the set (first-fit scan).
    #[inline]
    pub fn first_fit_from(&self, from: Color) -> Color {
        let mut col = from;
        while self.contains(col) {
            col += 1;
        }
        col
    }

    /// Largest color `≤ from` not in the set, or [`crate::UNCOLORED`] if
    /// every color in `0..=from` is forbidden (reverse first-fit scan).
    #[inline]
    pub fn reverse_first_fit_from(&self, from: Color) -> Color {
        let mut col = from;
        while col >= 0 && self.contains(col) {
            col -= 1;
        }
        col
    }

    /// Current capacity (colors storable without growth).
    pub fn capacity(&self) -> usize {
        self.stamp.len()
    }
}

impl ForbiddenSet for StampSet {
    fn with_capacity(capacity: usize) -> Self {
        StampSet::with_capacity(capacity)
    }

    #[inline]
    fn advance(&mut self) {
        StampSet::advance(self)
    }

    #[inline]
    fn insert(&mut self, color: Color) {
        StampSet::insert(self, color)
    }

    #[inline]
    fn contains(&self, color: Color) -> bool {
        StampSet::contains(self, color)
    }

    #[inline]
    fn first_fit_from(&self, from: Color) -> Color {
        StampSet::first_fit_from(self, from)
    }

    #[inline]
    fn reverse_first_fit_from(&self, from: Color) -> Color {
        StampSet::reverse_first_fit_from(self, from)
    }

    fn capacity(&self) -> usize {
        StampSet::capacity(self)
    }
}

/// Word-packed, epoch-stamped forbidden set: one `u64` bitmap word per 64
/// colors, with one stamp per *word* for the O(1) clear.
///
/// A word is *live* when its stamp equals the current marker; a stale word
/// reads as all-zeros (empty). Insert re-initializes a stale word lazily,
/// so [`advance`](BitStampSet::advance) still touches no memory. The hot
/// first-fit becomes a scan for the first word with a zero bit followed by
/// `trailing_ones` — 64 colors per probe instead of one — and the reverse
/// first-fit needed by the net-based Algorithm 8 is the mirror-image
/// top-down scan via `leading_zeros`.
///
/// ```
/// use bgpc::BitStampSet;
/// let mut f = BitStampSet::with_capacity(128);
/// f.advance();
/// for c in 0..100 {
///     f.insert(c);
/// }
/// assert_eq!(f.first_fit_from(0), 100);
/// assert_eq!(f.reverse_first_fit_from(99), -1);
/// f.advance(); // O(1) "reset"
/// assert_eq!(f.first_fit_from(0), 0);
/// ```
pub struct BitStampSet {
    /// Interleaved `[stamp, bits]` pairs: one 16-byte entry per 64 colors,
    /// so a spill touches a single cache line instead of two parallel
    /// arrays.
    entries: Vec<WordEntry>,
    mark: u64,
}

/// One 16-byte forbidden-set slot covering 64 colors.
#[derive(Clone, Copy)]
struct WordEntry {
    stamp: u64,
    bits: u64,
}

const EMPTY_ENTRY: WordEntry = WordEntry { stamp: 0, bits: 0 };

impl BitStampSet {
    /// Creates a set able to hold colors `0..capacity` without growth.
    pub fn with_capacity(capacity: usize) -> Self {
        let n_words = capacity.div_ceil(64).max(1);
        Self {
            entries: vec![EMPTY_ENTRY; n_words],
            // Marker starts at 1: zeroed stamps (and resize padding) are
            // stale, so a fresh set is empty.
            mark: 1,
        }
    }

    /// The bitmap word covering colors `64*wi .. 64*wi + 64`, reading
    /// stale and out-of-range words as empty.
    #[inline]
    fn live_word(&self, wi: usize) -> u64 {
        match self.entries.get(wi) {
            Some(e) if e.stamp == self.mark => e.bits,
            _ => 0,
        }
    }

    /// Starts a fresh logical set (O(1); no memory is touched).
    #[inline]
    pub fn advance(&mut self) {
        self.mark += 1;
    }

    /// Inserts a color, growing the backing arrays if needed.
    #[inline]
    pub fn insert(&mut self, color: Color) {
        debug_assert!(color >= 0, "cannot forbid the UNCOLORED sentinel");
        let idx = color as usize;
        let wi = idx / 64;
        let bit = 1u64 << (idx % 64);
        let mark = self.mark;
        // One bounds branch via `get_mut`; the stamp compare stays a
        // (near-perfectly predicted) branch so it never joins the
        // load→OR→store dependency chain of the common live-word case.
        match self.entries.get_mut(wi) {
            Some(e) if e.stamp == mark => e.bits |= bit,
            Some(e) => {
                e.stamp = mark;
                e.bits = bit;
            }
            None => self.grow_insert(wi, bit),
        }
    }

    /// ORs `bits` into colors `64·wi .. 64·wi + 64`. Branch-free on a
    /// word in range: the stamp compare selects between the live word and
    /// zero.
    #[inline]
    pub fn merge_word(&mut self, wi: usize, bits: u64) {
        let mark = self.mark;
        match self.entries.get_mut(wi) {
            Some(e) => {
                let live = if e.stamp == mark { e.bits } else { 0 };
                *e = WordEntry {
                    stamp: mark,
                    bits: live | bits,
                };
            }
            None => self.grow_insert(wi, bits),
        }
    }

    /// Insert growth path, out of line to keep the hot path lean.
    #[cold]
    fn grow_insert(&mut self, wi: usize, bits: u64) {
        self.entries.resize((wi + 1).next_power_of_two(), EMPTY_ENTRY);
        self.entries[wi] = WordEntry {
            stamp: self.mark,
            bits,
        };
    }

    /// Membership test for the current logical set.
    #[inline]
    pub fn contains(&self, color: Color) -> bool {
        debug_assert!(color >= 0);
        let idx = color as usize;
        (self.live_word(idx / 64) >> (idx % 64)) & 1 == 1
    }

    /// Smallest color `≥ from` not in the set.
    ///
    /// Branchless per probe: bits below `from` in the first word are
    /// masked in as forbidden, then each word answers "any free color
    /// here?" for 64 colors at once and `trailing_ones` indexes the hit.
    #[inline]
    pub fn first_fit_from(&self, from: Color) -> Color {
        debug_assert!(from >= 0);
        let start = from as usize;
        let mut wi = start / 64;
        let mut forbidden = self.live_word(wi) | ((1u64 << (start % 64)) - 1);
        // Terminates: words past the backing array read as empty.
        while forbidden == u64::MAX {
            wi += 1;
            forbidden = self.live_word(wi);
        }
        (wi * 64 + forbidden.trailing_ones() as usize) as Color
    }

    /// Largest color `≤ from` not in the set, or [`UNCOLORED`] if every
    /// color in `0..=from` is forbidden — the top-down word scan used by
    /// the net-based Algorithm 8's reverse first-fit.
    #[inline]
    pub fn reverse_first_fit_from(&self, from: Color) -> Color {
        if from < 0 {
            return from;
        }
        let start = from as usize;
        let mut wi = start / 64;
        let bit = start % 64;
        // Bits above `from` in the top word are out of range: mask them
        // out of the availability word.
        let mask = if bit == 63 {
            u64::MAX
        } else {
            (1u64 << (bit + 1)) - 1
        };
        let mut avail = !self.live_word(wi) & mask;
        loop {
            if avail != 0 {
                return (wi * 64 + 63 - avail.leading_zeros() as usize) as Color;
            }
            if wi == 0 {
                return UNCOLORED;
            }
            wi -= 1;
            avail = !self.live_word(wi);
        }
    }

    /// Current capacity (colors storable without growth).
    pub fn capacity(&self) -> usize {
        self.entries.len() * 64
    }
}

impl ForbiddenSet for BitStampSet {
    const LOW_WORD: bool = true;

    fn with_capacity(capacity: usize) -> Self {
        BitStampSet::with_capacity(capacity)
    }

    #[inline]
    fn advance(&mut self) {
        BitStampSet::advance(self)
    }

    #[inline]
    fn insert(&mut self, color: Color) {
        BitStampSet::insert(self, color)
    }

    #[inline]
    fn merge_word(&mut self, wi: usize, bits: u64) {
        BitStampSet::merge_word(self, wi, bits)
    }

    #[inline]
    fn contains(&self, color: Color) -> bool {
        BitStampSet::contains(self, color)
    }

    #[inline]
    fn first_fit_from(&self, from: Color) -> Color {
        BitStampSet::first_fit_from(self, from)
    }

    #[inline]
    fn reverse_first_fit_from(&self, from: Color) -> Color {
        BitStampSet::reverse_first_fit_from(self, from)
    }

    fn capacity(&self) -> usize {
        BitStampSet::capacity(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbidden_cutoff_matches_runner_dispatch_boundary() {
        // The degenerate-instance suite exercises real colorings at
        // 128/129; here we pin the constant itself so a drive-by edit
        // cannot silently move the dispatch boundary.
        assert_eq!(DENSE_FORBIDDEN_CUTOFF, 128);
        assert_eq!(ForbiddenKind::auto_for(DENSE_FORBIDDEN_CUTOFF), ForbiddenKind::BitStamp);
        assert_eq!(ForbiddenKind::auto_for(DENSE_FORBIDDEN_CUTOFF + 1), ForbiddenKind::Stamp);
    }

    #[test]
    fn insert_and_contains() {
        let mut s = StampSet::with_capacity(8);
        s.advance();
        s.insert(3);
        assert!(s.contains(3));
        assert!(!s.contains(2));
    }

    #[test]
    fn advance_empties_in_o1() {
        let mut s = StampSet::with_capacity(4);
        s.advance();
        s.insert(0);
        s.insert(1);
        s.advance();
        assert!(!s.contains(0));
        assert!(!s.contains(1));
    }

    #[test]
    fn grows_on_demand() {
        let mut s = StampSet::with_capacity(2);
        s.advance();
        s.insert(100);
        assert!(s.contains(100));
        assert!(s.capacity() >= 101);
        assert!(!s.contains(50));
    }

    #[test]
    fn contains_beyond_capacity_is_false() {
        let s = StampSet::with_capacity(4);
        assert!(!s.contains(1000));
    }

    #[test]
    fn fresh_sets_are_empty_before_first_advance() {
        let s = StampSet::with_capacity(4);
        assert!(!s.contains(0));
        let b = BitStampSet::with_capacity(4);
        assert!(!b.contains(0));
    }

    #[test]
    fn first_fit_skips_forbidden_prefix() {
        let mut s = StampSet::with_capacity(8);
        s.advance();
        s.insert(0);
        s.insert(1);
        s.insert(3);
        assert_eq!(s.first_fit_from(0), 2);
        assert_eq!(s.first_fit_from(3), 4);
    }

    #[test]
    fn reverse_first_fit_descends() {
        let mut s = StampSet::with_capacity(8);
        s.advance();
        s.insert(4);
        s.insert(3);
        assert_eq!(s.reverse_first_fit_from(4), 2);
        // Everything taken: returns -1.
        s.insert(0);
        s.insert(1);
        s.insert(2);
        assert_eq!(s.reverse_first_fit_from(4), -1);
    }

    #[test]
    fn stale_marks_do_not_leak_across_generations() {
        let mut s = StampSet::with_capacity(4);
        for round in 0..100 {
            s.advance();
            s.insert(round % 4);
            for c in 0..4 {
                assert_eq!(s.contains(c), c == round % 4, "round {round}");
            }
        }
    }

    // --- BitStampSet ---

    #[test]
    fn bitstamp_insert_and_contains() {
        let mut s = BitStampSet::with_capacity(8);
        s.advance();
        s.insert(3);
        s.insert(64);
        s.insert(127);
        assert!(s.contains(3));
        assert!(s.contains(64));
        assert!(s.contains(127));
        assert!(!s.contains(2));
        assert!(!s.contains(65));
        assert!(!s.contains(1000));
    }

    #[test]
    fn bitstamp_advance_empties_in_o1() {
        let mut s = BitStampSet::with_capacity(128);
        s.advance();
        s.insert(0);
        s.insert(100);
        s.advance();
        assert!(!s.contains(0));
        assert!(!s.contains(100));
    }

    #[test]
    fn bitstamp_grows_on_demand() {
        let mut s = BitStampSet::with_capacity(2);
        s.advance();
        s.insert(1000);
        assert!(s.contains(1000));
        assert!(s.capacity() >= 1001);
        assert!(!s.contains(999));
    }

    #[test]
    fn bitstamp_first_fit_crosses_word_boundaries() {
        let mut s = BitStampSet::with_capacity(256);
        s.advance();
        for c in 0..130 {
            s.insert(c);
        }
        assert_eq!(s.first_fit_from(0), 130);
        assert_eq!(s.first_fit_from(63), 130);
        assert_eq!(s.first_fit_from(64), 130);
        assert_eq!(s.first_fit_from(131), 131);
    }

    #[test]
    fn bitstamp_first_fit_from_beyond_capacity() {
        let mut s = BitStampSet::with_capacity(64);
        s.advance();
        s.insert(0);
        assert_eq!(s.first_fit_from(500), 500);
    }

    #[test]
    fn bitstamp_first_fit_ignores_bits_below_from() {
        let mut s = BitStampSet::with_capacity(64);
        s.advance();
        s.insert(5);
        // 0..5 are free but below `from`; 5 itself is forbidden.
        assert_eq!(s.first_fit_from(5), 6);
    }

    #[test]
    fn bitstamp_reverse_first_fit_descends_words() {
        let mut s = BitStampSet::with_capacity(256);
        s.advance();
        for c in 64..130 {
            s.insert(c);
        }
        // 129..=64 all forbidden: drops into the first word.
        assert_eq!(s.reverse_first_fit_from(129), 63);
        assert_eq!(s.reverse_first_fit_from(63), 63);
        // Fill word 0 too: everything in 0..=129 taken.
        for c in 0..64 {
            s.insert(c);
        }
        assert_eq!(s.reverse_first_fit_from(129), -1);
        // But above the filled range there is room.
        assert_eq!(s.reverse_first_fit_from(130), 130);
    }

    #[test]
    fn bitstamp_reverse_first_fit_bit63_boundary() {
        let mut s = BitStampSet::with_capacity(64);
        s.advance();
        s.insert(63);
        assert_eq!(s.reverse_first_fit_from(63), 62);
        s.insert(62);
        assert_eq!(s.reverse_first_fit_from(63), 61);
    }

    #[test]
    fn bitstamp_reverse_first_fit_negative_from() {
        let s = BitStampSet::with_capacity(8);
        assert_eq!(s.reverse_first_fit_from(-1), -1);
    }

    #[test]
    fn bitstamp_stale_words_do_not_leak() {
        let mut s = BitStampSet::with_capacity(128);
        for round in 0..100i32 {
            s.advance();
            s.insert(round % 128);
            for c in 0..128 {
                assert_eq!(s.contains(c), c == round % 128, "round {round}");
            }
        }
    }

    #[test]
    fn low_word_merge_matches_bitwise_inserts() {
        fn drive<F: ForbiddenSet>() -> Vec<bool> {
            let mut f = F::with_capacity(16);
            f.advance();
            f.insert(3);
            f.insert(70);
            f.merge_word(0, (1 << 0) | (1 << 5) | (1 << 63));
            // Past the first word and past the capacity: growth.
            f.merge_word(1, 1 << 2);
            f.merge_word(3, (1 << 1) | (1 << 63));
            let mut out: Vec<bool> = (0..260).map(|c| f.contains(c)).collect();
            // A merge after `advance` must not resurrect stale bits.
            f.advance();
            f.merge_word(0, 1 << 1);
            f.merge_word(1, 1 << 4);
            out.extend((0..260).map(|c| f.contains(c)));
            out
        }
        let spec = drive::<StampSet>();
        assert_eq!(spec, drive::<BitStampSet>());
        let live: Vec<usize> = (0..spec.len()).filter(|&i| spec[i]).collect();
        assert_eq!(live, vec![0, 3, 5, 63, 66, 70, 193, 255, 261, 328]);
        const { assert!(BitStampSet::LOW_WORD && !StampSet::LOW_WORD) };
    }

    #[test]
    fn trait_objects_agree_via_generics() {
        fn drive<F: ForbiddenSet>() -> (Color, Color) {
            let mut f = F::with_capacity(70);
            f.advance();
            for c in 0..70 {
                f.insert(c);
            }
            (f.first_fit_from(0), f.reverse_first_fit_from(69))
        }
        assert_eq!(drive::<StampSet>(), drive::<BitStampSet>());
        assert_eq!(drive::<BitStampSet>(), (70, -1));
    }
}
