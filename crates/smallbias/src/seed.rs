//! Seed sources: where hash-seed bits come from.
//!
//! The coding scheme addresses randomness by [`SeedLabel`] — the iteration
//! number, a channel id (we use the undirected edge id), and a slot (which
//! of the per-iteration hashes). Two implementations:
//!
//! * [`CrsSource`] — a uniform common random string, realized as a keyed
//!   PRG stream per label. This models the CRS assumption of Theorem 1.1;
//!   the oblivious adversary never reads it.
//! * [`DeltaBiasedSource`] — the paper §5 replacement: a single long
//!   δ-biased string generated by an AGHP seed (128 bits), carved into
//!   disjoint fixed-size regions, one per label. Both endpoints of a link
//!   derive the same region layout, so after exchanging the 128-bit seed
//!   (Algorithm 5) they agree on every hash seed.

use crate::aghp::AghpGenerator;
use crate::rng::{splitmix64, Xoshiro256};

/// Addresses one hash's seed stretch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeedLabel {
    /// Iteration number of the outer simulation (0-based).
    pub iteration: u64,
    /// Channel id; the coding scheme uses the undirected edge id.
    pub channel: u64,
    /// Which hash within the iteration (meeting-points sends several).
    pub slot: u32,
}

/// A lazy stream of seed words.
///
/// Streams are `Send` so a worker thread can open and drain one; every
/// implementation is plain PRG/field state with no shared interior.
pub trait SeedBits: Send {
    /// The next 64 seed bits.
    fn next_word(&mut self) -> u64;

    /// Fills `out` with the next `out.len()` words of the stream.
    ///
    /// Semantically identical to calling [`SeedBits::next_word`] in a
    /// loop; implementations override it to amortize per-word dispatch on
    /// the hashing hot path.
    fn fill_words(&mut self, out: &mut [u64]) {
        for w in out {
            *w = self.next_word();
        }
    }

    /// Advances the stream past its next `n` words.
    ///
    /// Semantically identical to `n` calls of [`SeedBits::next_word`]
    /// with the results discarded; streams with random access override
    /// it to jump instead of generating the skipped words.
    fn skip_words(&mut self, n: usize) {
        let mut sink = [0u64; 64];
        let mut left = n;
        while left > 0 {
            let take = left.min(sink.len());
            self.fill_words(&mut sink[..take]);
            left -= take;
        }
    }
}

/// A source of per-label seed streams shared by two (or all) parties.
///
/// Sources are `Send + Sync`: [`SeedSource::stream`] takes `&self` and is
/// pure per call (same label → same stream), so one source can be shared
/// across the intra-trial worker threads behind an `Arc` with no locking.
pub trait SeedSource: Send + Sync {
    /// Opens the seed stream for `label`. Streams for different labels are
    /// disjoint (independent for the CRS; disjoint regions for δ-biased).
    fn stream(&self, label: SeedLabel) -> Box<dyn SeedBits>;
}

/// Uniform common-random-string source: an independent PRG stream per
/// label, keyed by a master seed.
///
/// # Examples
///
/// ```
/// use smallbias::{CrsSource, SeedLabel, SeedSource};
/// let crs = CrsSource::new(42);
/// let l = SeedLabel { iteration: 0, channel: 3, slot: 1 };
/// let a = crs.stream(l).next_word();
/// let b = crs.stream(l).next_word();
/// assert_eq!(a, b); // same label → same stream
/// ```
#[derive(Clone, Debug)]
pub struct CrsSource {
    master: u64,
}

impl CrsSource {
    /// Creates a CRS keyed by `master`.
    pub fn new(master: u64) -> Self {
        CrsSource { master }
    }
}

struct PrgStream(Xoshiro256);

impl SeedBits for PrgStream {
    fn next_word(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn fill_words(&mut self, out: &mut [u64]) {
        // One virtual call per batch; the PRG state stays in registers.
        self.0.fill(out);
    }
}

impl SeedSource for CrsSource {
    fn stream(&self, label: SeedLabel) -> Box<dyn SeedBits> {
        // Mix the label into a unique 64-bit key.
        let mut s = self.master;
        let a = splitmix64(&mut s);
        let mut k = a ^ label.iteration.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        k = splitmix64(&mut k) ^ label.channel.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        k = splitmix64(&mut k) ^ u64::from(label.slot).wrapping_mul(0x1656_67b1_9e37_79f9);
        Box::new(PrgStream(Xoshiro256::seeded(splitmix64(&mut k))))
    }
}

/// δ-biased source over one long AGHP string, carved into disjoint regions
/// per label.
///
/// Layout: region index `r(label) = (iteration · channels + channel) ·
/// slots + slot`, each region `region_words` words long. The total logical
/// string length is whatever the largest label addresses; with GF(2^64)
/// behind it, the bias stays ≤ ℓ·2^{-64} (see [`AghpGenerator`]).
///
/// Cloning is cheap; the generator state is four field elements.
#[derive(Clone, Debug)]
pub struct DeltaBiasedSource {
    gen: AghpGenerator,
    channels: u64,
    slots: u64,
    region_words: u64,
}

impl DeltaBiasedSource {
    /// Builds a source from the 128-bit AGHP seed `(x, y)` and the label
    /// geometry: `channels` channel ids, `slots` slots per channel per
    /// iteration, `region_words` words of seed available per label.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero.
    pub fn new(x: u64, y: u64, channels: u64, slots: u64, region_words: u64) -> Self {
        assert!(channels > 0 && slots > 0 && region_words > 0);
        DeltaBiasedSource {
            gen: AghpGenerator::from_seed(x, y),
            channels,
            slots,
            region_words,
        }
    }

    /// Words of seed available per label. [`SeedBits::next_word`] panics
    /// past this limit (it would otherwise silently reuse another label's
    /// region and break the disjointness that §5's analysis requires).
    pub fn region_words(&self) -> u64 {
        self.region_words
    }
}

struct AghpStream {
    gen: AghpGenerator,
    next_bit: u64,
    end_bit: u64,
}

impl SeedBits for AghpStream {
    fn next_word(&mut self) -> u64 {
        assert!(
            self.next_bit + 64 <= self.end_bit,
            "label exhausted its δ-biased region; increase region_words"
        );
        let w = self.gen.word_at(self.next_bit);
        self.next_bit += 64;
        w
    }

    /// Positional jump: generating a skipped word costs 64 GF(2^64)
    /// multiplications, the jump one `pow` on the next read.
    fn skip_words(&mut self, n: usize) {
        let bits = 64 * n as u64;
        assert!(
            self.next_bit + bits <= self.end_bit,
            "label exhausted its δ-biased region; increase region_words"
        );
        self.next_bit += bits;
    }
}

impl SeedSource for DeltaBiasedSource {
    fn stream(&self, label: SeedLabel) -> Box<dyn SeedBits> {
        assert!(label.channel < self.channels, "channel out of range");
        assert!(u64::from(label.slot) < self.slots, "slot out of range");
        let region =
            (label.iteration * self.channels + label.channel) * self.slots + u64::from(label.slot);
        let start = region * self.region_words * 64;
        Box::new(AghpStream {
            gen: self.gen.clone(),
            next_bit: start,
            end_bit: start + self.region_words * 64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: SeedLabel = SeedLabel {
        iteration: 2,
        channel: 1,
        slot: 3,
    };

    #[test]
    fn crs_streams_reproducible_and_label_sensitive() {
        let crs = CrsSource::new(7);
        assert_eq!(crs.stream(L).next_word(), crs.stream(L).next_word());
        let other = SeedLabel { slot: 4, ..L };
        assert_ne!(crs.stream(L).next_word(), crs.stream(other).next_word());
        let other_iter = SeedLabel { iteration: 3, ..L };
        assert_ne!(
            crs.stream(L).next_word(),
            crs.stream(other_iter).next_word()
        );
    }

    #[test]
    fn crs_differs_by_master() {
        let a = CrsSource::new(1);
        let b = CrsSource::new(2);
        assert_ne!(a.stream(L).next_word(), b.stream(L).next_word());
    }

    #[test]
    fn delta_biased_reproducible() {
        let src = DeltaBiasedSource::new(0xAA, 0xBB, 4, 8, 16);
        let mut s1 = src.stream(L);
        let mut s2 = src.stream(L);
        for _ in 0..16 {
            assert_eq!(s1.next_word(), s2.next_word());
        }
    }

    #[test]
    fn delta_biased_regions_disjoint() {
        // Words from different labels come from different string offsets;
        // check the streams are not identical.
        let src = DeltaBiasedSource::new(0xAA, 0xBB, 4, 8, 4);
        let w_a: Vec<u64> = {
            let mut s = src.stream(L);
            (0..4).map(|_| s.next_word()).collect()
        };
        let w_b: Vec<u64> = {
            let mut s = src.stream(SeedLabel { channel: 2, ..L });
            (0..4).map(|_| s.next_word()).collect()
        };
        assert_ne!(w_a, w_b);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn delta_biased_region_overflow_panics() {
        let src = DeltaBiasedSource::new(1, 2, 2, 2, 2);
        let mut s = src.stream(SeedLabel {
            iteration: 0,
            channel: 0,
            slot: 0,
        });
        for _ in 0..3 {
            s.next_word();
        }
    }

    #[test]
    fn same_aghp_seed_same_string() {
        let a = DeltaBiasedSource::new(9, 10, 2, 2, 8);
        let b = DeltaBiasedSource::new(9, 10, 2, 2, 8);
        let l = SeedLabel {
            iteration: 5,
            channel: 0,
            slot: 1,
        };
        assert_eq!(a.stream(l).next_word(), b.stream(l).next_word());
    }
}
