//! The dense per-round wire representation.
//!
//! A [`RoundFrame`] holds one synchronous round's channel contents for
//! every directed link of a graph: two bit-packed vectors (presence and
//! value) indexed by [`LinkId`]. Setting, getting and clearing a link is
//! O(1); wiping or copying a whole frame is O(m/64); iterating the
//! occupied links is O(m/64 + sends). A [`FrameBatch`] packs many
//! independent rounds lane-major, and [`Sends`] is the borrowed view of
//! one round of either form that the adversary reads.

use netgraph::{Graph, LinkId};

/// One round of wire contents over a fixed link universe, bit-packed.
///
/// A frame is sized to a graph's [`Graph::link_count`] and indexed by
/// [`LinkId`]. Every link is either *silent* (absent) or carries a bit.
///
/// # Examples
///
/// ```
/// use netgraph::topology;
/// use netsim::RoundFrame;
/// let g = topology::ring(4);
/// let mut f = RoundFrame::for_graph(&g);
/// let id = g.link_id(netgraph::DirectedLink { from: 0, to: 1 }).unwrap();
/// f.set(id, true);
/// assert_eq!(f.get(id), Some(true));
/// assert_eq!(f.count_set(), 1);
/// f.clear_all();
/// assert!(f.is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundFrame {
    /// Bit `i` set ⇔ link `i` carries a symbol this round.
    presence: Vec<u64>,
    /// Bit `i` = the carried bit (meaningful only where presence is set).
    value: Vec<u64>,
    links: usize,
}

impl RoundFrame {
    /// An all-silent frame over `links` directed links.
    pub fn new(links: usize) -> RoundFrame {
        let words = links.div_ceil(64);
        RoundFrame {
            presence: vec![0; words],
            value: vec![0; words],
            links,
        }
    }

    /// An all-silent frame sized to `graph`'s directed links.
    pub fn for_graph(graph: &Graph) -> RoundFrame {
        RoundFrame::new(graph.link_count())
    }

    /// Number of directed links the frame covers (silent or not).
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// Puts `bit` on link `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= link_count()`.
    #[inline]
    pub fn set(&mut self, id: LinkId, bit: bool) {
        assert!(id < self.links, "link {id} out of range {}", self.links);
        let (w, b) = (id / 64, id % 64);
        self.presence[w] |= 1 << b;
        if bit {
            self.value[w] |= 1 << b;
        } else {
            self.value[w] &= !(1 << b);
        }
    }

    /// The bit on link `id`, or `None` if the link is silent.
    ///
    /// # Panics
    ///
    /// Panics if `id >= link_count()`.
    #[inline]
    pub fn get(&self, id: LinkId) -> Option<bool> {
        assert!(id < self.links, "link {id} out of range {}", self.links);
        let (w, b) = (id / 64, id % 64);
        if self.presence[w] >> b & 1 == 1 {
            Some(self.value[w] >> b & 1 == 1)
        } else {
            None
        }
    }

    /// Silences link `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= link_count()`.
    #[inline]
    pub fn clear(&mut self, id: LinkId) {
        assert!(id < self.links, "link {id} out of range {}", self.links);
        let (w, b) = (id / 64, id % 64);
        self.presence[w] &= !(1 << b);
        self.value[w] &= !(1 << b);
    }

    /// Silences every link (the frame stays allocated — the buffer-reuse
    /// idiom is `clear_all` + `set` each round).
    pub fn clear_all(&mut self) {
        self.presence.fill(0);
        self.value.fill(0);
    }

    /// Number of links carrying a symbol.
    pub fn count_set(&self) -> usize {
        self.presence.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every link is silent.
    pub fn is_empty(&self) -> bool {
        self.presence.iter().all(|&w| w == 0)
    }

    /// Makes `self` a copy of `other` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the frames cover different link universes.
    pub fn copy_from(&mut self, other: &RoundFrame) {
        assert_eq!(self.links, other.links, "frame size mismatch");
        self.presence.copy_from_slice(&other.presence);
        self.value.copy_from_slice(&other.value);
    }

    /// Iterates `(link, bit)` over the non-silent links in [`LinkId`]
    /// order.
    pub fn iter_set(&self) -> impl Iterator<Item = (LinkId, bool)> + '_ {
        self.presence
            .iter()
            .enumerate()
            .flat_map(move |(wi, &word)| {
                let value = self.value[wi];
                BitIter { word }.map(move |b| (wi * 64 + b, value >> b & 1 == 1))
            })
    }
}

/// A batch of `R` *independent* wire rounds over a fixed link universe,
/// bit-packed **lane-major**: each directed link owns a contiguous lane of
/// `R` presence bits and `R` value bits, one per round.
///
/// This is the word-level counterpart of a sequence of [`RoundFrame`]s.
/// Writing a link's whole multi-round message is one
/// [`FrameBatch::set_bits`] call (a few word stores) instead of `R`
/// scattered [`RoundFrame::set`] calls across `R` frames, and reading it
/// back is a [`FrameBatch::lane`] slice view. The engine consumes a batch
/// through [`crate::Network::step_rounds_into`], which is outcome-identical
/// to stepping the rounds one by one.
///
/// Batches only make sense for rounds with **no data dependency** between
/// them (every round's sends are known up front) — the meeting-points
/// hash exchange and the randomness-exchange prologue of the coding
/// scheme, not the chunk-simulation rounds.
///
/// # Examples
///
/// ```
/// use netgraph::topology;
/// use netsim::FrameBatch;
/// let g = topology::ring(4);
/// let mut b = FrameBatch::for_graph(&g, 32);
/// let id = g.link_id(netgraph::DirectedLink { from: 0, to: 1 }).unwrap();
/// b.set_bits(id, &[0xDEAD_BEEF], 32);
/// assert_eq!(b.get(id, 0), Some(true));
/// assert_eq!(b.get(id, 4), Some(false));
/// assert_eq!(b.count_set(), 32);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameBatch {
    /// Lane-major presence bits: lane `i` occupies words
    /// `[i·wpl, (i+1)·wpl)`; bit `r` of the lane ⇔ link `i` speaks in
    /// round `r` of the batch.
    presence: Vec<u64>,
    /// Lane-major value bits (meaningful only where presence is set).
    value: Vec<u64>,
    links: usize,
    rounds: usize,
    /// Words per lane = `ceil(rounds / 64)`.
    wpl: usize,
}

impl FrameBatch {
    /// An all-silent batch of `rounds` rounds over `links` directed links.
    pub fn new(links: usize, rounds: usize) -> FrameBatch {
        let wpl = rounds.div_ceil(64).max(1);
        FrameBatch {
            presence: vec![0; links * wpl],
            value: vec![0; links * wpl],
            links,
            rounds,
            wpl,
        }
    }

    /// An all-silent batch sized to `graph`'s directed links.
    pub fn for_graph(graph: &Graph, rounds: usize) -> FrameBatch {
        FrameBatch::new(graph.link_count(), rounds)
    }

    /// Number of directed links each round covers.
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// Number of rounds in the batch.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Words per link lane.
    pub fn words_per_lane(&self) -> usize {
        self.wpl
    }

    #[inline]
    fn check(&self, id: LinkId, round: usize) {
        assert!(id < self.links, "link {id} out of range {}", self.links);
        assert!(
            round < self.rounds,
            "round {round} out of batch range {}",
            self.rounds
        );
    }

    /// Writes link `id`'s whole lane: the link speaks in rounds
    /// `0..nbits` with the bits of `words` (little-endian, bit `r` of the
    /// message in bit `r % 64` of `words[r / 64]`) and is silent in rounds
    /// `nbits..rounds`. Overwrites any previous lane content.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, `nbits > rounds()`, or `words` has
    /// fewer than `ceil(nbits / 64)` words.
    pub fn set_bits(&mut self, id: LinkId, words: &[u64], nbits: usize) {
        assert!(id < self.links, "link {id} out of range {}", self.links);
        assert!(
            nbits <= self.rounds,
            "nbits {nbits} exceeds batch rounds {}",
            self.rounds
        );
        let need = nbits.div_ceil(64);
        assert!(words.len() >= need, "need {need} words for {nbits} bits");
        let lane = id * self.wpl;
        self.presence[lane..lane + self.wpl].fill(0);
        self.value[lane..lane + self.wpl].fill(0);
        for (w, &word) in words[..need].iter().enumerate() {
            let full = (w + 1) * 64 <= nbits;
            let mask = if full {
                u64::MAX
            } else {
                (1u64 << (nbits % 64)) - 1
            };
            self.presence[lane + w] = mask;
            self.value[lane + w] = word & mask;
        }
    }

    /// Copies link `id`'s first `nbits` rounds into caller-owned word
    /// buffers: value bits into `value` and presence bits into `presence`
    /// (same packing as [`FrameBatch::set_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, `nbits > rounds()`, or either
    /// buffer has fewer than `ceil(nbits / 64)` words.
    pub fn get_bits(&self, id: LinkId, value: &mut [u64], presence: &mut [u64], nbits: usize) {
        assert!(id < self.links, "link {id} out of range {}", self.links);
        assert!(
            nbits <= self.rounds,
            "nbits {nbits} exceeds batch rounds {}",
            self.rounds
        );
        let need = nbits.div_ceil(64);
        assert!(
            value.len() >= need && presence.len() >= need,
            "word buffers too short"
        );
        let lane = id * self.wpl;
        for w in 0..need {
            let full = (w + 1) * 64 <= nbits;
            let mask = if full {
                u64::MAX
            } else {
                (1u64 << (nbits % 64)) - 1
            };
            value[w] = self.value[lane + w] & mask;
            presence[w] = self.presence[lane + w] & mask;
        }
    }

    /// Borrow of link `id`'s lane as `(value words, presence words)` —
    /// the zero-copy form of [`FrameBatch::get_bits`].
    ///
    /// # Panics
    ///
    /// Panics if `id >= link_count()`.
    pub fn lane(&self, id: LinkId) -> (&[u64], &[u64]) {
        assert!(id < self.links, "link {id} out of range {}", self.links);
        let lane = id * self.wpl;
        (
            &self.value[lane..lane + self.wpl],
            &self.presence[lane..lane + self.wpl],
        )
    }

    /// Puts `bit` on link `id` in round `round` of the batch.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `round` is out of range.
    #[inline]
    pub fn set(&mut self, id: LinkId, round: usize, bit: bool) {
        self.check(id, round);
        let (w, b) = (id * self.wpl + round / 64, round % 64);
        self.presence[w] |= 1 << b;
        if bit {
            self.value[w] |= 1 << b;
        } else {
            self.value[w] &= !(1 << b);
        }
    }

    /// The bit on link `id` in round `round`, or `None` if silent.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `round` is out of range.
    #[inline]
    pub fn get(&self, id: LinkId, round: usize) -> Option<bool> {
        self.check(id, round);
        let (w, b) = (id * self.wpl + round / 64, round % 64);
        if self.presence[w] >> b & 1 == 1 {
            Some(self.value[w] >> b & 1 == 1)
        } else {
            None
        }
    }

    /// Silences link `id` in round `round`.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `round` is out of range.
    #[inline]
    pub fn clear(&mut self, id: LinkId, round: usize) {
        self.check(id, round);
        let (w, b) = (id * self.wpl + round / 64, round % 64);
        self.presence[w] &= !(1 << b);
        self.value[w] &= !(1 << b);
    }

    /// Silences every link in every round (the buffer stays allocated).
    pub fn clear_all(&mut self) {
        self.presence.fill(0);
        self.value.fill(0);
    }

    /// Total transmissions in the batch (the sum of every round's
    /// [`RoundFrame::count_set`]).
    pub fn count_set(&self) -> usize {
        self.presence.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Makes `self` a copy of `other` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the batches differ in link universe or round count.
    pub fn copy_from(&mut self, other: &FrameBatch) {
        assert_eq!(self.links, other.links, "batch link mismatch");
        assert_eq!(self.rounds, other.rounds, "batch round mismatch");
        self.presence.copy_from_slice(&other.presence);
        self.value.copy_from_slice(&other.value);
    }

    /// Extracts round `round` of the batch into `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `round` is out of range or `frame` covers a different
    /// link universe.
    pub fn round_into(&self, round: usize, frame: &mut RoundFrame) {
        assert!(
            round < self.rounds,
            "round {round} out of batch range {}",
            self.rounds
        );
        assert_eq!(frame.link_count(), self.links, "frame size mismatch");
        let (w, b) = (round / 64, round % 64);
        frame.presence.fill(0);
        frame.value.fill(0);
        for id in 0..self.links {
            let lane = id * self.wpl + w;
            if self.presence[lane] >> b & 1 == 1 {
                frame.presence[id / 64] |= 1 << (id % 64);
                if self.value[lane] >> b & 1 == 1 {
                    frame.value[id / 64] |= 1 << (id % 64);
                }
            }
        }
    }

    /// Writes `frame` in as round `round` of the batch (overwriting that
    /// round on every link).
    ///
    /// # Panics
    ///
    /// Panics if `round` is out of range or `frame` covers a different
    /// link universe.
    pub fn set_round(&mut self, round: usize, frame: &RoundFrame) {
        assert!(
            round < self.rounds,
            "round {round} out of batch range {}",
            self.rounds
        );
        assert_eq!(frame.link_count(), self.links, "frame size mismatch");
        let (w, b) = (round / 64, round % 64);
        for id in 0..self.links {
            let lane = id * self.wpl + w;
            match frame.get(id) {
                Some(bit) => {
                    self.presence[lane] |= 1 << b;
                    if bit {
                        self.value[lane] |= 1 << b;
                    } else {
                        self.value[lane] &= !(1 << b);
                    }
                }
                None => {
                    self.presence[lane] &= !(1 << b);
                    self.value[lane] &= !(1 << b);
                }
            }
        }
    }
}

/// A borrowed view of one round's honest sends: a whole [`RoundFrame`]
/// (the bit-serial path, [`crate::Network::step_into`]) or one round of
/// a [`FrameBatch`] (the batched path,
/// [`crate::Network::step_rounds_into`]). This is what
/// [`crate::Adversary::corrupt`] reads, so an adversary sees the same
/// round on either path without the engine copying it out of the batch.
#[derive(Clone, Copy, Debug)]
pub enum Sends<'a> {
    /// A single round held as a frame.
    Frame(&'a RoundFrame),
    /// Round `.1` of a batch.
    Batch(&'a FrameBatch, usize),
}

impl<'a> Sends<'a> {
    /// The bit on link `id` this round, or `None` if the link is silent.
    ///
    /// # Panics
    ///
    /// Panics if `id` (or a batch view's round) is out of range.
    #[inline]
    pub fn get(self, id: LinkId) -> Option<bool> {
        match self {
            Sends::Frame(f) => f.get(id),
            Sends::Batch(b, r) => b.get(id, r),
        }
    }

    /// Iterates `(link, bit)` over this round's non-silent links in
    /// [`LinkId`] order.
    pub fn iter_set(self) -> impl Iterator<Item = (LinkId, bool)> + 'a {
        let (frame, batch) = match self {
            Sends::Frame(f) => (Some(f), None),
            Sends::Batch(b, r) => (None, Some((b, r))),
        };
        let batch_round = batch.into_iter().flat_map(|(b, r)| {
            (0..b.links).filter_map(move |id| b.get(id, r).map(|bit| (id, bit)))
        });
        frame
            .into_iter()
            .flat_map(RoundFrame::iter_set)
            .chain(batch_round)
    }
}

/// Iterator over the set bit positions of one word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::topology;

    #[test]
    fn set_get_clear() {
        let mut f = RoundFrame::new(130);
        assert_eq!(f.get(0), None);
        f.set(0, true);
        f.set(64, false);
        f.set(129, true);
        assert_eq!(f.get(0), Some(true));
        assert_eq!(f.get(64), Some(false));
        assert_eq!(f.get(129), Some(true));
        assert_eq!(f.count_set(), 3);
        f.set(0, false); // overwrite clears the value bit
        assert_eq!(f.get(0), Some(false));
        f.clear(0);
        assert_eq!(f.get(0), None);
        assert_eq!(f.count_set(), 2);
        f.clear_all();
        assert!(f.is_empty());
        assert_eq!(f.count_set(), 0);
    }

    #[test]
    fn iter_set_in_order() {
        let mut f = RoundFrame::new(200);
        for &(i, b) in &[(3usize, true), (63, false), (64, true), (199, false)] {
            f.set(i, b);
        }
        let got: Vec<(usize, bool)> = f.iter_set().collect();
        assert_eq!(got, vec![(3, true), (63, false), (64, true), (199, false)]);
        // Random rounds over real topologies, through the frame and both
        // `Sends` views: exactly the set links, each once, in ascending
        // `LinkId` order.
        let graphs = [
            topology::ring(5),
            topology::line(6),
            topology::clique(5),
            topology::grid(2, 3),
            topology::random_connected(7, 11, 3),
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for g in &graphs {
            for _ in 0..8 {
                let mut f = RoundFrame::for_graph(g);
                let mut b = FrameBatch::for_graph(g, 3);
                let mut want = Vec::new();
                for id in 0..g.link_count() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 3 != 0 {
                        let bit = x % 3 == 2;
                        f.set(id, bit);
                        b.set(id, 1, bit);
                        want.push((id, bit));
                    }
                }
                assert_eq!(f.iter_set().collect::<Vec<_>>(), want);
                assert_eq!(Sends::Frame(&f).iter_set().collect::<Vec<_>>(), want);
                assert_eq!(Sends::Batch(&b, 1).iter_set().collect::<Vec<_>>(), want);
                assert_eq!(Sends::Batch(&b, 0).iter_set().count(), 0);
                for id in 0..g.link_count() {
                    assert_eq!(Sends::Batch(&b, 1).get(id), f.get(id));
                }
            }
        }
    }

    #[test]
    fn copy_from_reuses_buffer() {
        let g = topology::line(4);
        let mut a = RoundFrame::for_graph(&g);
        a.set(1, true);
        let mut b = RoundFrame::for_graph(&g);
        b.set(4, false);
        b.copy_from(&a);
        assert_eq!(b, a);
        assert_eq!(b.get(4), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_out_of_range() {
        let mut f = RoundFrame::new(4);
        f.set(4, true);
    }

    #[test]
    fn batch_set_bits_lane_roundtrip() {
        let mut b = FrameBatch::new(3, 100);
        assert_eq!(b.words_per_lane(), 2);
        let msg = [0xABCD_EF01_2345_6789u64, 0x3FF];
        b.set_bits(1, &msg, 74);
        for r in 0..74 {
            let want = msg[r / 64] >> (r % 64) & 1 == 1;
            assert_eq!(b.get(1, r), Some(want), "round {r}");
        }
        for r in 74..100 {
            assert_eq!(b.get(1, r), None);
        }
        assert_eq!(b.count_set(), 74);
        let (mut v, mut p) = ([0u64; 2], [0u64; 2]);
        b.get_bits(1, &mut v, &mut p, 74);
        assert_eq!(v, [msg[0], msg[1] & ((1 << 10) - 1)]);
        assert_eq!(p, [u64::MAX, (1 << 10) - 1]);
        let (lv, lp) = b.lane(1);
        assert_eq!(lv, &v);
        assert_eq!(lp, &p);
        // Other lanes untouched.
        assert_eq!(b.lane(0), (&[0u64; 2][..], &[0u64; 2][..]));
        // Overwriting shortens the lane.
        b.set_bits(1, &[0b101], 3);
        assert_eq!(b.count_set(), 3);
        assert_eq!(b.get(1, 2), Some(true));
        assert_eq!(b.get(1, 3), None);
    }

    #[test]
    fn batch_per_round_ops_and_round_frames() {
        let g = topology::ring(4);
        let mut b = FrameBatch::for_graph(&g, 5);
        b.set(0, 0, true);
        b.set(3, 4, false);
        b.set(7, 2, true);
        assert_eq!(b.get(0, 0), Some(true));
        b.clear(0, 0);
        assert_eq!(b.get(0, 0), None);
        let mut f = RoundFrame::for_graph(&g);
        b.round_into(4, &mut f);
        assert_eq!(f.count_set(), 1);
        assert_eq!(f.get(3), Some(false));
        // set_round writes a whole frame back in.
        let mut f2 = RoundFrame::for_graph(&g);
        f2.set(1, true);
        f2.set(3, true);
        b.set_round(4, &f2);
        b.round_into(4, &mut f);
        assert_eq!(f, f2);
        // clear_all wipes everything.
        b.clear_all();
        assert_eq!(b.count_set(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds batch rounds")]
    fn batch_rejects_oversized_message() {
        let mut b = FrameBatch::new(2, 8);
        b.set_bits(0, &[0], 9);
    }

    #[test]
    #[should_panic(expected = "out of batch range")]
    fn batch_rejects_round_out_of_range() {
        let b = FrameBatch::new(2, 8);
        let _ = b.get(0, 8);
    }
}
