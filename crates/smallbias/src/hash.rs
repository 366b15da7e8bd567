//! The inner-product hash function of Definition 2.2, plus the packed
//! [`BitString`] buffer it operates on.
//!
//! `h(x, s)` is the concatenation of τ inner products between the input
//! bits `x` and τ disjoint stretches of the seed `s` (one stretch of
//! `|x|` bits per output bit). Seeds are consumed lazily from a
//! [`crate::SeedBits`] stream, so neither party ever materializes the
//! Θ(τ·|x|)-bit seed.
//!
//! Two properties the coding scheme relies on (Lemma 2.3):
//! * for a uniform seed and any fixed `x ≠ y`, `Pr[h(x) = h(y)] = 2^{-τ}`;
//! * the hash is GF(2)-linear in its input for a fixed seed.
//!
//! Note the paper's footnote 11: `h(x)` and `h(x ∘ 0)` agree on the first
//! output bit, so inputs must embed their own length/position information —
//! our transcripts embed chunk indices for exactly this reason.
//!
//! # Cost model of the transcript sketch
//!
//! The coding scheme's hot kernel is [`PrefixHasher`], the incremental
//! form of [`sketch_prefix`]. Its seed layout is word-interleaved: input
//! word `j` is folded against one *seed block*, the τ words
//! `τ·j .. τ·j + τ` of the label's stream. A hasher therefore keeps one
//! block (the one serving the input word in progress) and the one open
//! stream, and loads the next block sequentially when a word completes —
//! `O(τ)` memory per link however long the run. Appends are word-level
//! shift-ors; [`PrefixHasher::mark`] fixes the checkpoint's digest once,
//! so [`PrefixHasher::digest_at`] is a lookup. Only a rewind into an
//! earlier input word (or a clone) reopens the stream, jumping to the
//! block with [`SeedBits::skip_words`]. Folding a word against its block
//! is a 6-level butterfly parity ([`fold_word`]), not τ popcounts.

use crate::seed::SeedBits;

/// A growable, packed bit string (little-endian within each 64-bit word).
///
/// Bits beyond `len` are guaranteed zero, so word-level operations need no
/// masking.
///
/// # Examples
///
/// ```
/// use smallbias::BitString;
/// let mut b = BitString::new();
/// b.push_bit(true);
/// b.push_bits(0b101, 3);
/// assert_eq!(b.len(), 4);
/// assert_eq!(b.bit(0), true);
/// assert_eq!(b.bit(2), false);
/// assert_eq!(b.bit(3), true);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    /// Exactly `len.div_ceil(64)` words.
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// An empty bit string.
    pub fn new() -> Self {
        BitString::default()
    }

    /// An empty bit string with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitString {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Appends the low `count` bits of `value`, lowest bit first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn push_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64);
        if count == 0 {
            return;
        }
        let value = value & low_bits(count);
        let off = self.len % 64;
        if off == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("a partial word is open") |= value << off;
            if off + count as usize > 64 {
                self.words.push(value >> (64 - off));
            }
        }
        self.len += count as usize;
    }

    /// Appends all bits of `other`.
    pub fn extend_from(&mut self, other: &BitString) {
        for i in 0..other.len {
            self.push_bit(other.bit(i));
        }
    }

    /// The `i`-th bit.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The packed words (unused high bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Shortens the string to `len` bits (no-op if already shorter).
    /// Bits beyond the new length are zeroed so word-level invariants hold.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.words.truncate(len.div_ceil(64));
        if len % 64 != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << (len % 64)) - 1;
        }
        self.len = len;
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut b = BitString::new();
        for bit in iter {
            b.push_bit(bit);
        }
        b
    }
}

/// The low `count` bits set (`1 ≤ count ≤ 64`).
#[inline]
fn low_bits(count: u32) -> u64 {
    u64::MAX >> (64 - count)
}

/// Inner-product hash of `input` with `tau` output bits, consuming
/// `tau · ⌈|input|/64⌉` words from the seed stream.
///
/// Returns the output packed into the low `tau` bits of a `u64`.
/// Hashing the empty string returns 0 (and consumes no seed), matching the
/// convention that `h(ε) = 0^τ`.
///
/// # Panics
///
/// Panics if `tau > 64` or `tau == 0`.
pub fn hash_bits(input: &BitString, tau: u32, seed: &mut dyn SeedBits) -> u64 {
    hash_prefix(input, input.len(), tau, seed)
}

/// Inner-product hash of the first `prefix_len` bits of `input`.
///
/// Equivalent to hashing the truncated string, without materializing it;
/// this is what the meeting-points mechanism uses for its `T[..mpc]`
/// prefix hashes.
///
/// The fold exploits GF(2)-linearity of parity: instead of one popcount
/// per word we XOR-accumulate `word & seed_word` and take a single parity
/// at the end of each stretch, with seed words pulled in batches through
/// [`SeedBits::fill_words`]. Seed consumption and outputs are identical
/// to the word-at-a-time formulation.
///
/// # Panics
///
/// Panics if `tau` is not in `1..=64` or `prefix_len > input.len()`.
pub fn hash_prefix(input: &BitString, prefix_len: usize, tau: u32, seed: &mut dyn SeedBits) -> u64 {
    assert!((1..=64).contains(&tau), "tau must be in 1..=64");
    assert!(prefix_len <= input.len(), "prefix longer than input");
    if prefix_len == 0 {
        return 0;
    }
    let full_words = prefix_len / 64;
    let tail_bits = prefix_len % 64;
    let tail_mask = if tail_bits == 0 {
        0
    } else {
        (1u64 << tail_bits) - 1
    };
    let words = input.words();
    let mut buf = [0u64; SEED_BATCH];
    let mut out = 0u64;
    for t in 0..tau {
        let mut acc = 0u64;
        let mut j = 0usize;
        while j < full_words {
            let take = (full_words - j).min(SEED_BATCH);
            seed.fill_words(&mut buf[..take]);
            for (w, s) in words[j..j + take].iter().zip(&buf[..take]) {
                acc ^= w & s;
            }
            j += take;
        }
        if tail_bits != 0 {
            acc ^= words[full_words] & tail_mask & seed.next_word();
        }
        out |= u64::from(acc.count_ones() & 1) << t;
    }
    out
}

/// Seed words pulled per [`SeedBits::fill_words`] batch on the hash hot
/// paths (512 B of stack).
const SEED_BATCH: usize = 64;

/// Inner-product hash of a short input given directly as packed words —
/// the no-allocation form of [`hash_prefix`] for inputs that never live in
/// a [`BitString`] (iteration counters, sketch digests).
///
/// Produces exactly `hash_prefix` of the equivalent bit string: bits
/// beyond `len_bits` in the last word must be zero. For inputs of at most
/// two words the whole `τ·⌈len_bits/64⌉`-word seed is drawn in one
/// [`SeedBits::fill_words`] call and folded by [`hash_words_seeded`].
///
/// # Panics
///
/// Panics if `tau` is not in `1..=64`, `len_bits > 64 · words.len()` or
/// the input is longer than `2 · SEED_BATCH` words.
pub fn hash_words(words: &[u64], len_bits: usize, tau: u32, seed: &mut dyn SeedBits) -> u64 {
    assert!((1..=64).contains(&tau), "tau must be in 1..=64");
    assert!(len_bits <= 64 * words.len(), "len_bits beyond input");
    if len_bits == 0 {
        return 0;
    }
    let words = &words[..len_bits.div_ceil(64)];
    let mut buf = [0u64; 2 * SEED_BATCH];
    assert!(words.len() <= buf.len(), "hash_words is for short inputs");
    // Whole stretches per fill: every τ ≤ 64 at inputs of ≤ 2 words.
    let per_fill = buf.len() / words.len();
    let mut out = 0u64;
    for t in (0..tau as usize).step_by(per_fill) {
        let seed_words = per_fill.min(tau as usize - t) * words.len();
        seed.fill_words(&mut buf[..seed_words]);
        out |= hash_words_seeded(words, &buf[..seed_words]) << t;
    }
    out
}

/// [`hash_words`] of all of `words` against seed words already drawn:
/// output bit `t` is the parity of `words · seed[t·n .. t·n + n]` for
/// `n = words.len()`, one bit per whole stretch of `seed`. Lets a caller
/// that hashes several inputs under one seed label draw the seed once.
///
/// # Panics
///
/// Panics if `words` is empty or `seed` holds more than 64 stretches.
pub fn hash_words_seeded(words: &[u64], seed: &[u64]) -> u64 {
    assert!(!words.is_empty(), "empty input");
    assert!(seed.len() / words.len() <= 64, "at most 64 output bits");
    let mut out = 0u64;
    for (t, stretch) in seed.chunks_exact(words.len()).enumerate() {
        let acc = words.iter().zip(stretch).fold(0, |a, (w, s)| a ^ (w & s));
        out |= u64::from(acc.count_ones() & 1) << t;
    }
    out
}

/// Reference implementation of the incremental transcript sketch: an
/// inner-product hash with a **word-interleaved** seed layout.
///
/// Where [`hash_prefix`] lays the seed out stretch-major (stretch `t`
/// occupies `⌈P/64⌉` consecutive words, so the word serving `(t, j)` moves
/// whenever the prefix length `P` does), the sketch interleaves: input
/// word `j` is folded against seed words `τ·j .. τ·j + τ`, one per output
/// bit. The seed word serving a given `(t, j)` is therefore independent of
/// the input length — exactly the property that lets [`PrefixHasher`]
/// extend its fold as the input grows instead of rehashing `O(P)` bits
/// per evaluation.
///
/// For inputs of at most 64 bits the two layouts coincide, so
/// `sketch_prefix(x, p, τ, s) == hash_prefix(x, p, τ, s)` whenever
/// `p ≤ 64` — the anchor tying the sketch back to Definition 2.2.
///
/// Like `hash_prefix` this is GF(2)-linear in the input for a fixed seed,
/// and distinct inputs collide with probability `2^{-τ}` over a uniform
/// seed.
///
/// # Panics
///
/// Panics if `tau` is not in `1..=64` or `prefix_len > input.len()`.
pub fn sketch_prefix(
    input: &BitString,
    prefix_len: usize,
    tau: u32,
    seed: &mut dyn SeedBits,
) -> u64 {
    assert!((1..=64).contains(&tau), "tau must be in 1..=64");
    assert!(prefix_len <= input.len(), "prefix longer than input");
    let tau = tau as usize;
    let full_words = prefix_len / 64;
    let tail_bits = prefix_len % 64;
    let words = input.words();
    // Words past τ stay zero, as `fold_word` requires.
    let mut block = [0u64; 64];
    let mut acc = 0u64;
    for &w in &words[..full_words] {
        seed.fill_words(&mut block[..tau]);
        acc ^= fold_word(w, &block);
    }
    if tail_bits != 0 {
        seed.fill_words(&mut block[..tau]);
        let tail = words[full_words] & ((1u64 << tail_bits) - 1);
        acc ^= fold_word(tail, &block);
    }
    acc
}

/// Folds one input word against its seed block: bit `t` of the result is
/// `parity(word & block[t])`. Block words past the hash width τ must be
/// zero, which leaves result bits `≥ τ` zero.
///
/// A 6-level butterfly instead of 64 popcounts: level `ℓ` halves the
/// number of words by packing two words' `2^{6-ℓ}`-bit lanes into one,
/// each lane XOR-folded to half its width (which preserves its parity).
/// After six levels lane `t` is the single bit `parity(word & block[t])`.
/// Every step is a shift, mask or XOR, so the loops vectorize on baseline
/// x86-64, which has no popcount instruction.
#[inline]
fn fold_word(word: u64, block: &[u64; 64]) -> u64 {
    let mut x = [0u64; 64];
    for (xt, &s) in x.iter_mut().zip(block) {
        *xt = word & s;
    }
    fold_level(&mut x, 32, 0x0000_0000_ffff_ffff);
    fold_level(&mut x, 16, 0x0000_ffff_0000_ffff);
    fold_level(&mut x, 8, 0x00ff_00ff_00ff_00ff);
    fold_level(&mut x, 4, 0x0f0f_0f0f_0f0f_0f0f);
    fold_level(&mut x, 2, 0x3333_3333_3333_3333);
    fold_level(&mut x, 1, 0x5555_5555_5555_5555);
    x[0]
}

/// One butterfly level over the first `2·half` words of `x`: word `t`
/// keeps its low lanes (mask `lo`, lanes `half` bits wide after folding)
/// and takes word `t + half`'s lanes into the high halves.
#[inline(always)]
fn fold_level(x: &mut [u64; 64], half: usize, lo: u64) {
    let sh = half as u32;
    for t in 0..half {
        let (a, b) = (x[t], x[t + half]);
        x[t] = ((a ^ (a >> sh)) & lo) | ((b ^ (b << sh)) & !lo);
    }
}

/// The seed "column" at one input bit position: bit `t` of the result is
/// the seed bit that position contributes to sketch output bit `t` (bit
/// `pos % 64` of interleaved seed word `τ·(pos/64) + t`).
///
/// By GF(2)-linearity, flipping input bit `pos` XORs exactly this column
/// into the sketch — the quantity the §6.1 seed-aware oracle needs to
/// predict the damage of a corruption. `seed` must be a fresh stream for
/// the label; the scan consumes `τ·(pos/64 + 1)` words.
pub fn sketch_column(pos: usize, tau: u32, seed: &mut dyn SeedBits) -> u64 {
    sketch_column_pair(pos, tau, seed).0
}

/// The seed columns at input bit positions `pos` and `pos + 1`, from one
/// sequential scan of the stream (the §6.1 oracle's candidate corruptions
/// are 2-bit symbol deltas at adjacent positions, so it needs both).
pub fn sketch_column_pair(pos: usize, tau: u32, seed: &mut dyn SeedBits) -> (u64, u64) {
    assert!((1..=64).contains(&tau), "tau must be in 1..=64");
    let tau = tau as usize;
    let mut buf = [0u64; 64];
    seed.skip_words(tau * (pos / 64));
    seed.fill_words(&mut buf[..tau]);
    let off = pos % 64;
    let mut first = 0u64;
    let mut second = 0u64;
    for (t, &s) in buf[..tau].iter().enumerate() {
        first |= ((s >> off) & 1) << t;
        if off < 63 {
            second |= ((s >> (off + 1)) & 1) << t;
        }
    }
    if off == 63 {
        // `pos + 1` starts the next input word: one more batch.
        seed.fill_words(&mut buf[..tau]);
        for (t, &s) in buf[..tau].iter().enumerate() {
            second |= (s & 1) << t;
        }
    }
    (first, second)
}

/// Incremental prefix hasher over the word-interleaved sketch layout of
/// [`sketch_prefix`].
///
/// Feed it the same bits as the reference and it produces the same digest
/// at every prefix length — but appending `Δ` bits costs `O(Δ·τ/64)`
/// amortized instead of `O(P·τ/64)` per evaluation, turning the coding
/// scheme's per-iteration transcript hashing from `O(T²)` over a run into
/// `O(T)`.
///
/// The hasher holds one seed block — the τ words serving the input word
/// in progress — and the label's open stream, positioned just past that
/// block, so the stream is read once, in order, as the input grows.
/// `mark()` records a checkpoint (the transcript layer marks every chunk
/// boundary) together with its digest, so `digest_at` is `O(1)`;
/// `truncate_to_mark` rewinds the fold in `O(1)`. The first append after
/// a rewind into an earlier input word reopens the stream and skips to
/// that word's block ([`SeedBits::skip_words`]); a clone does the same
/// on its first block load.
///
/// # Examples
///
/// ```
/// use smallbias::{sketch_prefix, BitString, CrsSource, PrefixHasher, SeedLabel, SeedSource};
/// use std::sync::Arc;
/// let src: Arc<dyn SeedSource> = Arc::new(CrsSource::new(7));
/// let label = SeedLabel { iteration: 0, channel: 0, slot: 2 };
/// let mut h = PrefixHasher::new(Arc::clone(&src), label, 64);
/// let bits: BitString = (0..100).map(|i| i % 3 == 0).collect();
/// for i in 0..bits.len() {
///     h.push_bit(bits.bit(i));
/// }
/// assert_eq!(h.digest(), sketch_prefix(&bits, 100, 64, &mut *src.stream(label)));
/// ```
pub struct PrefixHasher {
    src: std::sync::Arc<dyn crate::seed::SeedSource>,
    label: crate::seed::SeedLabel,
    tau: u32,
    /// Open seed stream, having yielded `stream_pos` words. `None` until
    /// the first block load and after a clone.
    stream: Option<Box<dyn SeedBits>>,
    stream_pos: usize,
    /// Seed block of input word `block_word`: its τ interleaved seed
    /// words, then zeros (as [`fold_word`] requires). Boxed so the
    /// transcripts embedding a hasher stay compact.
    block: Box<[u64; 64]>,
    block_word: Option<usize>,
    /// Fold over completed input words.
    acc: u64,
    /// Bits of the in-progress input word (high bits zero).
    partial: u64,
    /// Total bits pushed.
    len: usize,
    marks: Vec<Mark>,
}

#[derive(Clone, Copy, Debug)]
struct Mark {
    len: usize,
    acc: u64,
    partial: u64,
    digest: u64,
}

impl PrefixHasher {
    /// A fresh hasher with `tau` output bits drawing seed words from
    /// `src` under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not in `1..=64`.
    pub fn new(
        src: std::sync::Arc<dyn crate::seed::SeedSource>,
        label: crate::seed::SeedLabel,
        tau: u32,
    ) -> Self {
        assert!((1..=64).contains(&tau), "tau must be in 1..=64");
        PrefixHasher {
            src,
            label,
            tau,
            stream: None,
            stream_pos: 0,
            block: Box::new([0; 64]),
            block_word: None,
            acc: 0,
            partial: 0,
            len: 0,
            marks: Vec::new(),
        }
    }

    /// Output width τ.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Bits pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one input bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Appends the low `count` bits of `value`, lowest bit first
    /// (mirroring [`BitString::push_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn push_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64);
        if count == 0 {
            return;
        }
        let value = value & low_bits(count);
        let off = self.len % 64;
        self.partial |= value << off;
        self.len += count as usize;
        if off + count as usize >= 64 {
            // Input word `len/64 - 1` is complete; any spill opens the next.
            let spill = if off == 0 { 0 } else { value >> (64 - off) };
            let word = std::mem::replace(&mut self.partial, spill);
            self.acc ^= self.fold(self.len / 64 - 1, word);
        }
    }

    /// Digest of everything pushed so far (equals [`sketch_prefix`] of the
    /// same bits under the same label).
    pub fn digest(&mut self) -> u64 {
        if self.partial == 0 {
            return self.acc;
        }
        self.acc ^ self.fold(self.len / 64, self.partial)
    }

    /// Records a checkpoint at the current length, fixing its digest, and
    /// returns its index.
    pub fn mark(&mut self) -> usize {
        let digest = self.digest();
        self.marks.push(Mark {
            len: self.len,
            acc: self.acc,
            partial: self.partial,
            digest,
        });
        self.marks.len() - 1
    }

    /// Number of recorded checkpoints.
    pub fn marks(&self) -> usize {
        self.marks.len()
    }

    /// Digest and bit length at checkpoint `idx` (`O(1)`: the digest was
    /// fixed by [`PrefixHasher::mark`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.marks()`.
    pub fn digest_at(&mut self, idx: usize) -> (u64, usize) {
        let m = self.marks[idx];
        (m.digest, m.len)
    }

    /// Rewinds the hasher to the state at checkpoint `count - 1` (or to
    /// empty for `count == 0`), keeping the first `count` checkpoints.
    /// No-op if fewer than `count` checkpoints exist.
    pub fn truncate_to_mark(&mut self, count: usize) {
        if count > self.marks.len() {
            return;
        }
        let m = if count == 0 {
            Mark {
                len: 0,
                acc: 0,
                partial: 0,
                digest: 0,
            }
        } else {
            self.marks[count - 1]
        };
        self.marks.truncate(count);
        self.len = m.len;
        self.acc = m.acc;
        self.partial = m.partial;
    }

    /// `word` folded against the seed block of input word `j`.
    fn fold(&mut self, j: usize, word: u64) -> u64 {
        self.load_block(j);
        fold_word(word, &self.block)
    }

    /// Makes `block` hold the seed of input word `j`: read on from the
    /// open stream when `j` lies ahead of it, else reopen and skip.
    fn load_block(&mut self, j: usize) {
        if self.block_word == Some(j) {
            return;
        }
        let tau = self.tau as usize;
        let start = j * tau;
        if self.stream.is_none() || self.stream_pos > start {
            self.stream = Some(self.src.stream(self.label));
            self.stream_pos = 0;
        }
        let stream = self.stream.as_mut().expect("opened above");
        stream.skip_words(start - self.stream_pos);
        stream.fill_words(&mut self.block[..tau]);
        self.stream_pos = start + tau;
        self.block_word = Some(j);
    }
}

impl Clone for PrefixHasher {
    fn clone(&self) -> Self {
        PrefixHasher {
            src: std::sync::Arc::clone(&self.src),
            label: self.label,
            tau: self.tau,
            stream: None,
            stream_pos: 0,
            block: self.block.clone(),
            block_word: self.block_word,
            acc: self.acc,
            partial: self.partial,
            len: self.len,
            marks: self.marks.clone(),
        }
    }
}

impl std::fmt::Debug for PrefixHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixHasher")
            .field("tau", &self.tau)
            .field("len", &self.len)
            .field("marks", &self.marks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::{CrsSource, SeedLabel, SeedSource};

    fn label(slot: u32) -> SeedLabel {
        SeedLabel {
            iteration: 3,
            channel: 1,
            slot,
        }
    }

    fn bits(v: &[bool]) -> BitString {
        v.iter().copied().collect()
    }

    #[test]
    fn bitstring_roundtrip() {
        let mut b = BitString::new();
        let pattern: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        for &bit in &pattern {
            b.push_bit(bit);
        }
        assert_eq!(b.len(), 130);
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(b.bit(i), bit, "bit {i}");
        }
        // High bits of the last word must be zero.
        assert_eq!(b.words()[2] >> 2, 0);
    }

    #[test]
    fn push_bits_order() {
        let mut b = BitString::new();
        b.push_bits(0b1101, 4);
        assert_eq!(
            (b.bit(0), b.bit(1), b.bit(2), b.bit(3)),
            (true, false, true, true)
        );
    }

    #[test]
    fn hash_deterministic_for_same_seed() {
        let src = CrsSource::new(99);
        let x = bits(&[true, false, true, true, false]);
        let a = hash_bits(&x, 16, &mut *src.stream(label(0)));
        let b = hash_bits(&x, 16, &mut *src.stream(label(0)));
        assert_eq!(a, b);
    }

    #[test]
    fn hash_differs_across_slots() {
        let src = CrsSource::new(99);
        let x = bits(&[true, false, true]);
        let a = hash_bits(&x, 32, &mut *src.stream(label(0)));
        let b = hash_bits(&x, 32, &mut *src.stream(label(1)));
        assert_ne!(a, b);
    }

    #[test]
    fn hash_is_linear_in_input() {
        // h(x ⊕ y) = h(x) ⊕ h(y) for equal-length inputs and equal seed.
        let src = CrsSource::new(5);
        let x = bits(&[true, false, true, true, false, false, true]);
        let y = bits(&[false, false, true, false, true, false, true]);
        let xy: BitString = (0..7).map(|i| x.bit(i) ^ y.bit(i)).collect();
        let hx = hash_bits(&x, 24, &mut *src.stream(label(2)));
        let hy = hash_bits(&y, 24, &mut *src.stream(label(2)));
        let hxy = hash_bits(&xy, 24, &mut *src.stream(label(2)));
        assert_eq!(hx ^ hy, hxy);
    }

    #[test]
    fn empty_hashes_to_zero() {
        let src = CrsSource::new(1);
        assert_eq!(
            hash_bits(&BitString::new(), 8, &mut *src.stream(label(0))),
            0
        );
    }

    #[test]
    fn collision_rate_matches_two_to_minus_tau() {
        // Distinct inputs, fresh uniform seed per trial: collision
        // probability should be ≈ 2^-4 for tau = 4.
        let x = bits(&[true, false, true, false, true, true]);
        let y = bits(&[true, true, false, false, true, true]);
        let mut collisions = 0;
        let trials = 4_000;
        for t in 0..trials {
            let src = CrsSource::new(t);
            let hx = hash_bits(&x, 4, &mut *src.stream(label(0)));
            let hy = hash_bits(&y, 4, &mut *src.stream(label(0)));
            collisions += usize::from(hx == hy);
        }
        let rate = collisions as f64 / trials as f64;
        assert!(
            (rate - 1.0 / 16.0).abs() < 0.02,
            "collision rate {rate} far from 1/16"
        );
    }

    #[test]
    fn prefix_hash_equals_truncated_hash() {
        let src = CrsSource::new(31);
        let full: BitString = (0..200).map(|i| i % 5 < 2).collect();
        for plen in [0usize, 1, 63, 64, 65, 128, 199, 200] {
            let mut truncated = full.clone();
            truncated.truncate(plen);
            let a = hash_prefix(&full, plen, 12, &mut *src.stream(label(0)));
            let b = hash_bits(&truncated, 12, &mut *src.stream(label(0)));
            assert_eq!(a, b, "prefix {plen}");
        }
    }

    #[test]
    fn truncate_zeroes_high_bits() {
        let mut b: BitString = (0..100).map(|_| true).collect();
        b.truncate(65);
        assert_eq!(b.len(), 65);
        assert_eq!(b.words().len(), 2);
        assert_eq!(b.words()[1], 1);
        b.truncate(64);
        assert_eq!(b.words().len(), 1);
        b.truncate(200); // no-op
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn hash_words_matches_hash_prefix() {
        let src = CrsSource::new(55);
        for (words, len) in [
            (vec![0xdead_beef_u64], 37usize),
            (vec![0x0123_4567_89ab_cdef], 64),
            (vec![u64::MAX, 0xffff_ffff], 96),
            // Three words at τ = 64 take two seed fills.
            (vec![0x5555_aaaa_0f0f_f0f0, 7, 0x3f_ffff], 150),
            (vec![0, 0], 0),
        ] {
            let mut bits = BitString::new();
            for (j, &w) in words.iter().enumerate() {
                let take = (len.saturating_sub(64 * j)).min(64);
                bits.push_bits(w, take as u32);
            }
            for tau in [1u32, 8, 64] {
                let a = hash_words(&words, len, tau, &mut *src.stream(label(tau)));
                let b = hash_prefix(&bits, len, tau, &mut *src.stream(label(tau)));
                assert_eq!(a, b, "len {len} tau {tau}");
            }
        }
    }

    #[test]
    fn sketch_matches_hash_prefix_on_short_inputs() {
        // For inputs ≤ 64 bits the stretch-major and interleaved layouts
        // coincide — the anchor tying the sketch to Definition 2.2.
        let src = CrsSource::new(77);
        let full: BitString = (0..64).map(|i| i % 7 < 3).collect();
        for plen in [1usize, 13, 63, 64] {
            for tau in [1u32, 5, 16, 64] {
                let a = sketch_prefix(&full, plen, tau, &mut *src.stream(label(tau)));
                let b = hash_prefix(&full, plen, tau, &mut *src.stream(label(tau)));
                assert_eq!(a, b, "plen {plen} tau {tau}");
            }
        }
    }

    #[test]
    fn prefix_hasher_matches_reference_at_every_prefix() {
        let src: std::sync::Arc<dyn SeedSource> = std::sync::Arc::new(CrsSource::new(91));
        let bits: BitString = (0..300).map(|i| i % 5 < 2).collect();
        for tau in [1u32, 7, 64] {
            let l = label(tau);
            let mut h = PrefixHasher::new(std::sync::Arc::clone(&src), l, tau);
            for i in 0..=bits.len() {
                assert_eq!(
                    h.digest(),
                    sketch_prefix(&bits, i, tau, &mut *src.stream(l)),
                    "prefix {i} tau {tau}"
                );
                if i < bits.len() {
                    h.push_bit(bits.bit(i));
                }
            }
        }
    }

    #[test]
    fn prefix_hasher_marks_and_truncation() {
        let src: std::sync::Arc<dyn SeedSource> = std::sync::Arc::new(CrsSource::new(17));
        let l = label(0);
        let bits: BitString = (0..190).map(|i| i % 3 != 0).collect();
        let mut h = PrefixHasher::new(std::sync::Arc::clone(&src), l, 64);
        let mut boundaries = Vec::new();
        for i in 0..bits.len() {
            h.push_bit(bits.bit(i));
            if (i + 1) % 38 == 0 {
                h.mark();
                boundaries.push(i + 1);
            }
        }
        for (k, &b) in boundaries.iter().enumerate() {
            let (d, len) = h.digest_at(k);
            assert_eq!(len, b);
            assert_eq!(
                d,
                sketch_prefix(&bits, b, 64, &mut *src.stream(l)),
                "mark {k}"
            );
        }
        // Rewind to the second mark, then re-push different bits.
        h.truncate_to_mark(2);
        assert_eq!(h.len(), 76);
        assert_eq!(h.marks(), 2);
        let mut alt = BitString::new();
        for i in 0..76 {
            alt.push_bit(bits.bit(i));
        }
        for i in 0..30 {
            let bit = i % 2 == 0;
            h.push_bit(bit);
            alt.push_bit(bit);
        }
        assert_eq!(
            h.digest(),
            sketch_prefix(&alt, 106, 64, &mut *src.stream(l))
        );
        // Rewind to empty.
        h.truncate_to_mark(0);
        assert_eq!(h.digest(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn prefix_hasher_clone_reopens_stream() {
        let src: std::sync::Arc<dyn SeedSource> = std::sync::Arc::new(CrsSource::new(29));
        let l = label(3);
        let mut h = PrefixHasher::new(std::sync::Arc::clone(&src), l, 32);
        for i in 0..100 {
            h.push_bit(i % 4 == 1);
        }
        let mut c = h.clone();
        for i in 100..170 {
            h.push_bit(i % 4 == 1);
            c.push_bit(i % 4 == 1);
        }
        assert_eq!(h.digest(), c.digest());
    }

    #[test]
    fn sketch_column_predicts_single_bit_flips() {
        let src = CrsSource::new(41);
        let l = label(9);
        let bits: BitString = (0..150).map(|i| i % 11 < 4).collect();
        for pos in [0usize, 5, 63, 64, 127, 149] {
            let flipped: BitString = (0..150).map(|i| bits.bit(i) ^ (i == pos)).collect();
            let a = sketch_prefix(&bits, 150, 64, &mut *src.stream(l));
            let b = sketch_prefix(&flipped, 150, 64, &mut *src.stream(l));
            let col = sketch_column(pos, 64, &mut *src.stream(l));
            assert_eq!(a ^ b, col, "pos {pos}");
        }
    }

    #[test]
    fn sketch_column_pair_matches_single_columns() {
        // Including pos % 64 == 63, where the pair spans two input words.
        let src = CrsSource::new(43);
        let l = label(9);
        for tau in [1u32, 8, 64] {
            for pos in [0usize, 30, 62, 63, 64, 127] {
                let (c0, c1) = sketch_column_pair(pos, tau, &mut *src.stream(l));
                assert_eq!(
                    c0,
                    sketch_column(pos, tau, &mut *src.stream(l)),
                    "pos {pos}"
                );
                assert_eq!(
                    c1,
                    sketch_column(pos + 1, tau, &mut *src.stream(l)),
                    "pos {}",
                    pos + 1
                );
            }
        }
    }

    #[test]
    fn output_confined_to_tau_bits() {
        let src = CrsSource::new(7);
        let x = bits(&[true; 100]);
        for tau in [1u32, 3, 7, 33, 64] {
            let h = hash_bits(&x, tau, &mut *src.stream(label(tau)));
            if tau < 64 {
                assert_eq!(h >> tau, 0, "tau={tau}");
            }
        }
    }

    /// The popcount form of [`fold_word`]: the oracle for the butterfly.
    fn fold_word_popcount(word: u64, block: &[u64; 64]) -> u64 {
        let mut acc = 0u64;
        for (t, &s) in block.iter().enumerate() {
            acc |= u64::from((word & s).count_ones() & 1) << t;
        }
        acc
    }

    /// `n` splitmix64 words from `seed`.
    fn words_from(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n).map(|_| crate::splitmix64(&mut s)).collect()
    }

    /// Both seed-source kinds, keyed by `master`, with δ-biased regions
    /// wide enough for `max_words` words per label.
    fn sources(master: u64, max_words: u64) -> [std::sync::Arc<dyn SeedSource>; 2] {
        [
            std::sync::Arc::new(CrsSource::new(master)),
            std::sync::Arc::new(crate::DeltaBiasedSource::new(
                master | 1,
                master.rotate_left(32) ^ 0x5eed,
                4,
                16,
                max_words,
            )),
        ]
    }

    #[test]
    fn bitstrings_equal_across_append_splits() {
        let mut a = BitString::new();
        a.push_bits(0xabcd, 16);
        a.push_bits(0x1234_5678_9abc, 48);
        a.push_bits(0b101, 3);
        // The same 67 bits re-read and appended in 17/35/15-bit pieces.
        let mut b = BitString::new();
        let mut at = 0;
        for count in [17usize, 35, 15] {
            let value = (0..count).fold(0u64, |v, j| v | u64::from(a.bit(at + j)) << j);
            b.push_bits(value, count as u32);
            at += count;
        }
        assert_eq!(b, a);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The butterfly fold equals the popcount form, at every width τ
        /// (block words past τ zero).
        #[test]
        fn butterfly_fold_matches_popcount(word: u64, seed: u64, tau in 1usize..=64) {
            let mut block = [0u64; 64];
            block[..tau].copy_from_slice(&words_from(seed, tau));
            let got = fold_word(word, &block);
            proptest::prop_assert_eq!(got, fold_word_popcount(word, &block));
            if tau < 64 {
                proptest::prop_assert_eq!(got >> tau, 0);
            }
        }

        /// `skip_words(n)` leaves a stream where `n` `next_word` calls
        /// would, on both seed sources.
        #[test]
        fn skip_words_equals_next_word_calls(n in 0usize..300, master in 0u64..1000) {
            for src in sources(master, 310) {
                let mut skipped = src.stream(label(1));
                let mut stepped = src.stream(label(1));
                skipped.skip_words(n);
                for _ in 0..n {
                    stepped.next_word();
                }
                let mut a = [0u64; 8];
                let mut b = [0u64; 8];
                skipped.fill_words(&mut a);
                stepped.fill_words(&mut b);
                proptest::prop_assert_eq!(a, b);
            }
        }

        /// Word-level `BitString::push_bits` equals pushing the same bits
        /// one at a time (counts 0..=64, so appends cross and fill words).
        #[test]
        fn push_bits_matches_per_bit_pushes(ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..40)) {
            let mut b = BitString::new();
            let mut want = Vec::new();
            for &op in &ops {
                let count = (op % 65) as u32;
                let value = op.rotate_left(17) ^ op;
                b.push_bits(value, count);
                want.extend((0..count).map(|j| value >> j & 1 == 1));
            }
            proptest::prop_assert_eq!(b.len(), want.len());
            proptest::prop_assert_eq!(b.words().len(), want.len().div_ceil(64));
            for (i, &bit) in want.iter().enumerate() {
                proptest::prop_assert_eq!(b.bit(i), bit);
            }
            if want.len() % 64 != 0 {
                proptest::prop_assert_eq!(b.words()[want.len() / 64] >> (want.len() % 64), 0);
            }
        }

        /// A `PrefixHasher` driven by random appends (counts 0..=64,
        /// word-crossing and exactly-64), marks, rewinds (also into earlier
        /// words) and clones equals `sketch_prefix` at every mark, under a
        /// CRS and a δ-biased source.
        #[test]
        fn prefix_hasher_matches_reference_under_random_ops(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..48),
            tau in 1u32..=64,
            master in 0u64..1000,
        ) {
            for src in sources(master, 64 * 50) {
                let l = label(5);
                let mut h = PrefixHasher::new(std::sync::Arc::clone(&src), l, tau);
                let mut bits = BitString::new();
                let mut marks: Vec<usize> = Vec::new();
                for &op in &ops {
                    match op % 8 {
                        0..=3 => {
                            let count = match (op >> 3) % 4 {
                                0 => 64,
                                _ => ((op >> 5) % 65) as u32,
                            };
                            let value = op.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                            h.push_bits(value, count);
                            bits.push_bits(value, count);
                        }
                        4 | 5 => {
                            proptest::prop_assert_eq!(h.mark(), marks.len());
                            marks.push(bits.len());
                            let reference = sketch_prefix(&bits, bits.len(), tau, &mut *src.stream(l));
                            proptest::prop_assert_eq!(h.digest_at(marks.len() - 1), (reference, bits.len()));
                        }
                        6 => {
                            let keep = (op >> 3) as usize % (marks.len() + 1);
                            h.truncate_to_mark(keep);
                            marks.truncate(keep);
                            bits.truncate(marks.last().copied().unwrap_or(0));
                        }
                        _ => h = h.clone(),
                    }
                    proptest::prop_assert_eq!(h.len(), bits.len());
                }
                for (k, &len) in marks.iter().enumerate() {
                    let reference = sketch_prefix(&bits, len, tau, &mut *src.stream(l));
                    proptest::prop_assert_eq!(h.digest_at(k), (reference, len));
                }
                proptest::prop_assert_eq!(
                    h.digest(),
                    sketch_prefix(&bits, bits.len(), tau, &mut *src.stream(l))
                );
            }
        }
    }
}
