//! Pairwise link transcripts `T_{u,v}` with incremental serialization
//! **and incremental hashing**.
//!
//! A transcript is the sequence of [`ChunkRecord`]s a party has recorded on
//! one link (§3.2): per chunk, the observed symbols in slot order plus the
//! chunk number. The serialization hashed by the meeting-points mechanism
//! is `[chunk id: 32 bits][symbols: 2 bits each]` per chunk — the embedded
//! chunk ids are what make prefix hashes length-binding (footnote 11).
//!
//! The per-iteration transcript hashes are **two-level**: a persistent
//! per-link GF(2)-linear *sketch* ([`smallbias::PrefixHasher`],
//! [`SKETCH_BITS`] wide, fixed seed per link) is extended as chunks are
//! appended, and each iteration transmits a fresh τ-bit outer hash of
//! `sketch ∥ bit-length` (see [`crate::MpState::prepare`]). The sketch
//! backend is attached per run via [`LinkTranscript::attach_hasher`] —
//! either incremental (the production path) or a recompute-from-scratch
//! reference ([`TranscriptHasher::reference`]) that produces bit-identical
//! digests, used to cross-check the incremental machinery.
//!
//! Cost model of the incremental path, per link:
//! * [`LinkTranscript::push`] packs the chunk id and up to 32 symbols per
//!   word and appends whole words to both the serialization and the
//!   sketch; the sketch holds one seed block (the τ seed words of the
//!   input word in progress), so its memory stays `O(τ)` however long the
//!   run, and each block is drawn once from the link's open seed stream;
//! * every chunk boundary is a sketch checkpoint whose digest is fixed
//!   when the chunk is pushed, so [`LinkTranscript::sketch_at`] is an
//!   `O(1)` lookup;
//! * [`LinkTranscript::same_as`] compares chunk boundaries and packed
//!   serialization words, not records.

use std::sync::Arc;

use protocol::{ChunkRecord, Sym};
use smallbias::{sketch_prefix, BitString, PrefixHasher, SeedLabel, SeedSource};

/// Width of the persistent per-link transcript sketch, in bits.
///
/// Two *distinct* transcripts collide in the sketch with probability
/// `2^{-64}` over the per-link seed — once per link pair, not per
/// iteration, so 64 bits keeps the union bound over a whole run
/// negligible. Per-iteration collision behavior (the `2^{-τ}` of
/// Lemma 2.3 that the meeting-points analysis consumes) comes from the
/// fresh outer hash, whose width is the scheme's `hash_bits`.
pub const SKETCH_BITS: u32 = 64;

/// The sketch backend attached to a [`LinkTranscript`] for one run.
#[derive(Clone)]
pub enum TranscriptHasher {
    /// The production path: an incremental fold, `O(Δ)` per append and
    /// `O(1)` per prefix read.
    Incremental(PrefixHasher),
    /// The reference path: recompute [`sketch_prefix`] from scratch on
    /// every query. Bit-identical digests, `O(|T|)` per query.
    Reference {
        /// Seed source shared by the link's endpoints.
        src: Arc<dyn SeedSource>,
        /// Label of the link's persistent sketch seed.
        label: SeedLabel,
    },
}

impl TranscriptHasher {
    /// The incremental backend over `src`/`label`.
    pub fn incremental(src: Arc<dyn SeedSource>, label: SeedLabel) -> Self {
        TranscriptHasher::Incremental(PrefixHasher::new(src, label, SKETCH_BITS))
    }

    /// The recompute-from-scratch reference backend over `src`/`label`.
    pub fn reference(src: Arc<dyn SeedSource>, label: SeedLabel) -> Self {
        TranscriptHasher::Reference { src, label }
    }
}

impl std::fmt::Debug for TranscriptHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranscriptHasher::Incremental(h) => write!(f, "Incremental({h:?})"),
            TranscriptHasher::Reference { label, .. } => write!(f, "Reference({label:?})"),
        }
    }
}

/// One party's transcript of one link.
///
/// # Examples
///
/// ```
/// use mpic::LinkTranscript;
/// use protocol::{ChunkRecord, Sym};
/// let mut t = LinkTranscript::new();
/// t.push(ChunkRecord { chunk: 0, syms: vec![Sym::Zero, Sym::One] });
/// t.push(ChunkRecord { chunk: 1, syms: vec![Sym::Star] });
/// assert_eq!(t.chunks(), 2);
/// t.truncate(1);
/// assert_eq!(t.chunks(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LinkTranscript {
    records: Vec<ChunkRecord>,
    bits: BitString,
    /// Serialized bit length after each chunk (prefix boundaries).
    boundaries: Vec<usize>,
    hasher: Option<TranscriptHasher>,
}

impl LinkTranscript {
    /// An empty transcript.
    pub fn new() -> Self {
        LinkTranscript::default()
    }

    /// Number of chunks `|T|`.
    pub fn chunks(&self) -> usize {
        self.records.len()
    }

    /// The recorded chunks.
    pub fn records(&self) -> &[ChunkRecord] {
        &self.records
    }

    /// The full serialization (for hashing).
    pub fn bits(&self) -> &BitString {
        &self.bits
    }

    /// Serialized bit length of the first `chunks` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunks > self.chunks()`.
    pub fn prefix_bit_len(&self, chunks: usize) -> usize {
        if chunks == 0 {
            0
        } else {
            self.boundaries[chunks - 1]
        }
    }

    /// Attaches the sketch backend for a run. An incremental backend is
    /// synchronized with any chunks already recorded, so attachment order
    /// does not matter.
    pub fn attach_hasher(&mut self, hasher: TranscriptHasher) {
        let mut hasher = hasher;
        if let TranscriptHasher::Incremental(h) = &mut hasher {
            debug_assert!(h.is_empty(), "attach expects a fresh hasher");
            for rec in &self.records {
                serialize(rec, |value, count| h.push_bits(value, count));
                h.mark();
            }
        }
        self.hasher = Some(hasher);
    }

    /// True if a sketch backend is attached.
    pub fn has_hasher(&self) -> bool {
        self.hasher.is_some()
    }

    /// Sketch digest and serialized bit length of the first `chunks`
    /// chunks — the input of the outer per-iteration hash.
    ///
    /// # Panics
    ///
    /// Panics if no backend is attached or `chunks > self.chunks()`.
    pub fn sketch_at(&mut self, chunks: usize) -> (u64, usize) {
        assert!(chunks <= self.records.len(), "prefix beyond transcript");
        match self.hasher.as_mut().expect("no sketch backend attached") {
            TranscriptHasher::Incremental(h) => {
                if chunks == 0 {
                    (0, 0)
                } else {
                    h.digest_at(chunks - 1)
                }
            }
            TranscriptHasher::Reference { src, label } => {
                let len = if chunks == 0 {
                    0
                } else {
                    self.boundaries[chunks - 1]
                };
                let d = sketch_prefix(&self.bits, len, SKETCH_BITS, &mut *src.stream(*label));
                (d, len)
            }
        }
    }

    /// Appends a chunk record.
    pub fn push(&mut self, rec: ChunkRecord) {
        // Ids past 32 bits would serialize ambiguously, and `same_as`
        // relies on the serialization determining the records.
        debug_assert!(rec.chunk >> 32 == 0, "chunk id exceeds 32 bits");
        let mut hasher = match &mut self.hasher {
            Some(TranscriptHasher::Incremental(h)) => Some(h),
            _ => None,
        };
        serialize(&rec, |value, count| {
            self.bits.push_bits(value, count);
            if let Some(h) = hasher.as_mut() {
                h.push_bits(value, count);
            }
        });
        if let Some(h) = hasher {
            h.mark();
        }
        self.boundaries.push(self.bits.len());
        self.records.push(rec);
    }

    /// Keeps only the first `chunks` chunks.
    pub fn truncate(&mut self, chunks: usize) {
        if chunks >= self.records.len() {
            return;
        }
        self.records.truncate(chunks);
        self.boundaries.truncate(chunks);
        self.bits.truncate(self.prefix_bit_len(chunks));
        if let Some(TranscriptHasher::Incremental(h)) = &mut self.hasher {
            h.truncate_to_mark(chunks);
        }
    }

    /// [`LinkTranscript::truncate`], recycling the dropped chunks' symbol
    /// vectors into `pool` for reuse (the runner's per-chunk arena).
    pub fn truncate_into(&mut self, chunks: usize, pool: &mut Vec<Vec<Sym>>) {
        if chunks >= self.records.len() {
            return;
        }
        pool.extend(self.records.drain(chunks..).map(|r| r.syms));
        self.boundaries.truncate(chunks);
        self.bits.truncate(self.prefix_bit_len(chunks));
        if let Some(TranscriptHasher::Incremental(h)) = &mut self.hasher {
            h.truncate_to_mark(chunks);
        }
    }

    /// Length (in chunks) of the longest common prefix with `other` — the
    /// quantity `G_{u,v}` of the analysis (Eq. 1).
    pub fn common_prefix_chunks(&self, other: &LinkTranscript) -> usize {
        let mut g = 0;
        for (a, b) in self.records.iter().zip(&other.records) {
            if a == b {
                g += 1;
            } else {
                break;
            }
        }
        g
    }

    /// True if both transcripts hold the same records.
    ///
    /// Compares chunk boundaries and packed serialization words: equal
    /// boundaries give every chunk the same symbol count, and within a
    /// chunk the 32-bit id and the 2-bit symbol codes are then read off
    /// fixed positions, so equal words mean equal records.
    pub fn same_as(&self, other: &LinkTranscript) -> bool {
        self.boundaries == other.boundaries && self.bits == other.bits
    }

    /// Checks agreement with a reference edge transcript on its first
    /// `chunks` chunks.
    pub fn matches_reference(&self, reference: &[ChunkRecord], chunks: usize) -> bool {
        if self.records.len() < chunks || reference.len() < chunks {
            return false;
        }
        self.records[..chunks] == reference[..chunks]
    }
}

/// Emits `rec`'s serialization as word-level appends: the 32-bit chunk id,
/// then the 2-bit symbol codes packed 32 per word.
fn serialize(rec: &ChunkRecord, mut emit: impl FnMut(u64, u32)) {
    emit(rec.chunk, 32);
    for group in rec.syms.chunks(32) {
        let packed = group
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, s)| w | s.code() << (2 * i));
        emit(packed, 2 * group.len() as u32);
    }
}

/// Serialized position of a symbol inside a transcript's bit string:
/// `prefix(chunks before) + 32 (chunk id) + 2·sym_index`. Used by the
/// seed-aware collision oracle to locate the bits a corruption would flip.
pub fn symbol_bit_position(transcript: &LinkTranscript, sym_index: usize) -> usize {
    transcript.bits.len() + 32 + 2 * sym_index
}

/// Encodes the 2-bit XOR difference between observing `a` and observing
/// `b` at the same slot.
pub fn sym_delta(a: Sym, b: Sym) -> u64 {
    a.code() ^ b.code()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallbias::{hash_bits, CrsSource, SeedLabel, SeedSource};

    fn rec(chunk: u64, syms: &[Sym]) -> ChunkRecord {
        ChunkRecord {
            chunk,
            syms: syms.to_vec(),
        }
    }

    fn sketch_label() -> SeedLabel {
        SeedLabel {
            iteration: 0,
            channel: 0,
            slot: 2,
        }
    }

    #[test]
    fn serialization_lengths() {
        let mut t = LinkTranscript::new();
        t.push(rec(0, &[Sym::Zero, Sym::One, Sym::Star]));
        assert_eq!(t.bits().len(), 32 + 6);
        t.push(rec(1, &[Sym::One]));
        assert_eq!(t.bits().len(), 38 + 34);
        assert_eq!(t.prefix_bit_len(1), 38);
        assert_eq!(t.prefix_bit_len(2), 72);
        assert_eq!(t.prefix_bit_len(0), 0);
    }

    #[test]
    fn truncate_restores_exact_prefix_bits() {
        let mut a = LinkTranscript::new();
        a.push(rec(0, &[Sym::One, Sym::Star]));
        let snapshot = a.bits().clone();
        a.push(rec(1, &[Sym::Zero]));
        a.truncate(1);
        assert_eq!(a.bits(), &snapshot);
        assert_eq!(a.chunks(), 1);
        // Truncating beyond length is a no-op.
        a.truncate(5);
        assert_eq!(a.chunks(), 1);
    }

    #[test]
    fn truncate_into_recycles_symbol_vectors() {
        let mut a = LinkTranscript::new();
        for c in 0..4 {
            a.push(rec(c, &[Sym::Zero, Sym::One]));
        }
        let mut pool = Vec::new();
        a.truncate_into(1, &mut pool);
        assert_eq!(a.chunks(), 1);
        assert_eq!(pool.len(), 3);
        assert!(pool.iter().all(|v| v.len() == 2));
        // No-op beyond length.
        a.truncate_into(5, &mut pool);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn common_prefix() {
        let mut a = LinkTranscript::new();
        let mut b = LinkTranscript::new();
        for c in 0..4 {
            a.push(rec(c, &[Sym::Zero]));
            b.push(rec(c, &[if c == 2 { Sym::One } else { Sym::Zero }]));
        }
        assert_eq!(a.common_prefix_chunks(&b), 2);
        assert!(!a.same_as(&b));
        assert!(a.same_as(&a.clone()));
    }

    #[test]
    fn chunk_ids_bind_length() {
        // Transcripts differing only in *amount* of trailing content hash
        // differently because chunk ids are embedded: compare hash of
        // prefix lengths directly.
        let mut a = LinkTranscript::new();
        a.push(rec(0, &[Sym::Zero, Sym::Zero]));
        let mut b = a.clone();
        b.push(rec(1, &[Sym::Zero, Sym::Zero]));
        let src = CrsSource::new(3);
        let label = SeedLabel {
            iteration: 0,
            channel: 0,
            slot: 1,
        };
        let ha = hash_bits(a.bits(), 16, &mut *src.stream(label));
        let hb = hash_bits(b.bits(), 16, &mut *src.stream(label));
        assert_ne!(ha, hb);
    }

    #[test]
    fn incremental_and_reference_sketches_agree() {
        let src: Arc<dyn SeedSource> = Arc::new(CrsSource::new(99));
        let mut inc = LinkTranscript::new();
        inc.attach_hasher(TranscriptHasher::incremental(
            Arc::clone(&src),
            sketch_label(),
        ));
        let mut reference = LinkTranscript::new();
        reference.attach_hasher(TranscriptHasher::reference(
            Arc::clone(&src),
            sketch_label(),
        ));
        let syms = [Sym::Zero, Sym::One, Sym::Star, Sym::One];
        for c in 0..5u64 {
            inc.push(rec(c, &syms));
            reference.push(rec(c, &syms));
        }
        for chunks in 0..=5usize {
            assert_eq!(
                inc.sketch_at(chunks),
                reference.sketch_at(chunks),
                "chunks {chunks}"
            );
        }
        // Through truncation and regrowth too.
        inc.truncate(2);
        reference.truncate(2);
        inc.push(rec(2, &[Sym::Star]));
        reference.push(rec(2, &[Sym::Star]));
        for chunks in 0..=3usize {
            assert_eq!(inc.sketch_at(chunks), reference.sketch_at(chunks));
        }
    }

    #[test]
    fn late_attachment_syncs_existing_chunks() {
        let src: Arc<dyn SeedSource> = Arc::new(CrsSource::new(7));
        let mut t = LinkTranscript::new();
        for c in 0..3u64 {
            t.push(rec(c, &[Sym::One, Sym::Zero]));
        }
        let mut late = t.clone();
        late.attach_hasher(TranscriptHasher::incremental(
            Arc::clone(&src),
            sketch_label(),
        ));
        let mut early = LinkTranscript::new();
        early.attach_hasher(TranscriptHasher::incremental(
            Arc::clone(&src),
            sketch_label(),
        ));
        for c in 0..3u64 {
            early.push(rec(c, &[Sym::One, Sym::Zero]));
        }
        for chunks in 0..=3usize {
            assert_eq!(late.sketch_at(chunks), early.sketch_at(chunks));
        }
    }

    #[test]
    fn matches_reference_prefix() {
        let reference = vec![rec(0, &[Sym::One]), rec(1, &[Sym::Zero])];
        let mut t = LinkTranscript::new();
        t.push(rec(0, &[Sym::One]));
        assert!(t.matches_reference(&reference, 1));
        assert!(!t.matches_reference(&reference, 2));
        t.push(rec(1, &[Sym::Star]));
        assert!(!t.matches_reference(&reference, 2));
    }

    #[test]
    fn symbol_positions() {
        let mut t = LinkTranscript::new();
        t.push(rec(0, &[Sym::Zero, Sym::Zero]));
        // Next chunk's symbol 3 sits after 36 existing bits + 32-bit id.
        assert_eq!(symbol_bit_position(&t, 3), 36 + 32 + 6);
        assert_eq!(sym_delta(Sym::Zero, Sym::One), 0b01);
        assert_eq!(sym_delta(Sym::Zero, Sym::Star), 0b10);
        assert_eq!(sym_delta(Sym::One, Sym::Star), 0b11);
    }

    #[test]
    fn serialization_is_id_then_two_bit_codes() {
        // The word-packed push must lay bits out exactly as appending the
        // 32-bit id and then each 2-bit code would, across word edges.
        let syms: Vec<Sym> = (0..45)
            .map(|i| [Sym::Zero, Sym::One, Sym::Star][i % 3])
            .collect();
        let mut t = LinkTranscript::new();
        t.push(rec(7, &syms[..3]));
        t.push(rec(0xdead_beef, &syms));
        let mut want = BitString::new();
        for (id, part) in [(7u64, &syms[..3]), (0xdead_beef, &syms[..])] {
            want.push_bits(id, 32);
            for s in part {
                want.push_bits(s.code(), 2);
            }
        }
        assert_eq!(t.bits(), &want);
    }

    #[test]
    fn same_as_needs_boundaries_not_just_bits() {
        // 16 symbols of chunk 0 serialize to the same 64 bits as an empty
        // chunk 0 followed by an empty chunk whose id is their packing.
        let syms: Vec<Sym> = (0..16).map(|i| [Sym::One, Sym::Star][i % 2]).collect();
        let packed = syms
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, s)| w | s.code() << (2 * i));
        let mut a = LinkTranscript::new();
        a.push(rec(0, &syms));
        let mut b = LinkTranscript::new();
        b.push(rec(0, &[]));
        b.push(rec(packed, &[]));
        assert_eq!(a.bits(), b.bits());
        assert!(!a.same_as(&b));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The word-level `same_as` is record equality, for a transcript
        /// and a randomly edited copy (symbol flips, id changes, moved
        /// chunk boundaries, dropped or extra chunks, truncations).
        #[test]
        fn same_as_is_record_equality(
            codes in proptest::collection::vec(0u64..3, 0..120),
            cuts in proptest::collection::vec(0usize..40, 0..8),
            edit in 0u64..7,
            at: u64,
        ) {
            let sym = |c: u64| [Sym::Zero, Sym::One, Sym::Star][c as usize];
            let syms: Vec<Sym> = codes.iter().map(|&c| sym(c)).collect();
            // Chunk the symbols at the cut points (possibly empty chunks).
            let mut records = Vec::new();
            let mut from = 0;
            for (k, &cut) in cuts.iter().enumerate() {
                let to = (from + cut).min(syms.len());
                records.push(rec(k as u64, &syms[from..to]));
                from = to;
            }
            records.push(rec(cuts.len() as u64, &syms[from..]));
            let mut edited = records.clone();
            let r = at as usize % edited.len();
            match edit {
                0 => {}
                1 => {
                    if let Some(s) = edited[r].syms.get_mut(at as usize % 64) {
                        *s = sym((s.code() + 1 + (at >> 8) % 2) % 3);
                    }
                }
                2 => edited[r].chunk ^= 1 << (at % 32),
                3 => {
                    // Move one symbol across a chunk boundary.
                    if r + 1 < edited.len() {
                        if let Some(s) = edited[r].syms.pop() {
                            edited[r + 1].syms.insert(0, s);
                        }
                    }
                }
                4 => { edited.pop(); }
                5 => edited.push(rec(99, &[Sym::One])),
                _ => edited.truncate(r),
            }
            let build = |recs: &[ChunkRecord]| {
                let mut t = LinkTranscript::new();
                for x in recs {
                    t.push(x.clone());
                }
                t
            };
            let (a, b) = (build(&records), build(&edited));
            proptest::prop_assert_eq!(a.same_as(&b), records == edited);
            proptest::prop_assert_eq!(b.same_as(&a), records == edited);
            // Also after a truncation brings the two back into agreement.
            let g = a.common_prefix_chunks(&b);
            let (mut a2, mut b2) = (a.clone(), b.clone());
            a2.truncate(g);
            b2.truncate(g);
            proptest::prop_assert!(a2.same_as(&b2));
        }
    }
}
