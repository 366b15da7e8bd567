//! The meeting-points mechanism (paper §3.1(ii), Appendix A).
//!
//! Reconstructed from the paper's description and from Haeupler'14
//! (Algorithm 3), since Appendix A's pseudocode is not in our copy of the
//! text. Per link, per iteration, each party sends four τ-bit hashes:
//! `h(k)`, `h(T)`, `h(T[..mpc1])`, `h(T[..mpc2])`, where `k` counts
//! consecutive meeting-points iterations, `k̃ = 2^⌊log₂ k⌋`, and
//! `mpc1 = k̃·⌊|T|/k̃⌋`, `mpc2 = mpc1 − k̃` are the two *meeting points* at
//! scale `k̃`.
//!
//! The three transcript hashes are **two-level**: each is the fresh
//! per-iteration inner-product hash ([`transcript_hash`]) of the
//! transcript's persistent incremental *sketch* at the relevant prefix
//! (see [`crate::transcript`]). The sketch digest at every chunk boundary
//! is fixed when the chunk is appended, so reading it is a lookup, and
//! the three outer hashes share one draw of the iteration's `2τ` outer
//! seed words (all three hash under the same label, so they consume the
//! same words): preparing a message costs one `h(k)` hash, one `2τ`-word
//! seed fill and three `O(τ)` folds, independent of `|T|`. Two prefixes
//! hash equal iff their `sketch ∥ length` inputs
//! agree (up to a `2^{-64}` per-pair sketch collision), and for distinct
//! inputs the fresh outer seed gives the `2^{-τ}` per-iteration collision
//! probability the analysis consumes — the sketch also hashes the prefix
//! *length*, which strengthens footnote 11's length binding (an all-zero
//! serialization no longer collides with the empty transcript).
//!
//! Outcome rules (per received message):
//! * corrupted or mismatching `h(k)` → reset `k, E` and stay in
//!   meeting-points state (the reset resynchronizes the two counters — a
//!   desync would otherwise deadlock, because an idle network freezes the
//!   transcripts the full-hash comparison needs to recover);
//! * matching `h(T)` → transcripts agree: status `Simulate`, reset;
//! * otherwise gather mismatch evidence `E`; once `2E ≥ k`, roll the
//!   transcript back to the largest own meeting point whose hash matches
//!   either of the peer's meeting-point hashes.
//!
//! Properties the outer scheme relies on (verified by the tests below and
//! the integration suite): agreement is confirmed in one iteration when
//! transcripts match; a divergence of `B` chunks is repaired within `O(B)`
//! noiseless iterations; each iteration truncates at most once; and a
//! single corrupted exchange causes only bounded damage.

use crate::transcript::LinkTranscript;
use smallbias::{hash_words, hash_words_seeded, SeedBits};

/// The per-iteration outer transcript hash: a fresh τ-bit inner-product
/// hash of the 96-bit input `sketch (64 bits) ∥ prefix bit length (32
/// bits)`. GF(2)-linear in `sketch` for a fixed seed — the property the
/// §6.1 seed-aware oracle exploits to predict collisions.
pub fn transcript_hash(sketch: u64, len_bits: usize, tau: u32, seed: &mut dyn SeedBits) -> u64 {
    hash_words(&outer_input(sketch, len_bits), 96, tau, seed)
}

/// The outer hash's input words, `sketch ∥ len_bits`.
fn outer_input(sketch: u64, len_bits: usize) -> [u64; 2] {
    debug_assert!(len_bits < (1usize << 32), "transcript length overflow");
    [sketch, len_bits as u64]
}

/// Per-link simulate/repair status (the paper's `status_{u,v}`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkStatus {
    /// Transcripts believed consistent; simulation may proceed.
    #[default]
    Simulate,
    /// Inconsistency suspected; the link is mid-meeting-points.
    MeetingPoints,
}

/// The four hash values exchanged per iteration, plus the local meeting
/// points they refer to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MpMessage {
    /// τ-bit hash of the iteration counter `k`.
    pub h_k: u64,
    /// τ-bit hash of the full transcript.
    pub h_full: u64,
    /// τ-bit hash of `T[..mpc1]`.
    pub h_mpc1: u64,
    /// τ-bit hash of `T[..mpc2]`.
    pub h_mpc2: u64,
    /// Local `mpc1` (chunks), not transmitted.
    pub mpc1: usize,
    /// Local `mpc2` (chunks), not transmitted.
    pub mpc2: usize,
}

impl MpMessage {
    /// Packs the four hashes into `4τ` wire bits, low bit first.
    pub fn to_bits(&self, tau: u32) -> Vec<bool> {
        (0..4 * tau as usize)
            .map(|o| self.wire_bit(o, tau))
            .collect()
    }

    /// Wire bit `o` of the `4τ`-bit message (the allocation-free form of
    /// [`MpMessage::to_bits`] the per-round send loop uses).
    ///
    /// # Panics
    ///
    /// Panics if `o >= 4τ`.
    pub fn wire_bit(&self, o: usize, tau: u32) -> bool {
        let tau = tau as usize;
        let h = match o / tau {
            0 => self.h_k,
            1 => self.h_full,
            2 => self.h_mpc1,
            3 => self.h_mpc2,
            _ => panic!("wire bit index out of range"),
        };
        (h >> (o % tau)) & 1 == 1
    }

    /// Number of words [`MpMessage::to_words`] fills for hash length `tau`
    /// (`4τ ≤ 240` bits for `τ ≤ 60`, so at most 4).
    pub fn wire_words(tau: u32) -> usize {
        (4 * tau as usize).div_ceil(64)
    }

    /// Packs the `4τ` wire bits into `out` words (bit `o` of the message
    /// in bit `o % 64` of `out[o / 64]` — the lane layout of
    /// `netsim::FrameBatch::set_bits`). Exactly the bit sequence of
    /// [`MpMessage::wire_bit`], marshalled once per message instead of
    /// once per round. Returns the bit count `4τ`.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer than [`MpMessage::wire_words`] words.
    pub fn to_words(&self, tau: u32, out: &mut [u64]) -> usize {
        let tau = tau as usize;
        let nbits = 4 * tau;
        let words = nbits.div_ceil(64);
        assert!(
            out.len() >= words,
            "need {words} words for 4τ = {nbits} bits"
        );
        out[..words].fill(0);
        for (f, h) in [self.h_k, self.h_full, self.h_mpc1, self.h_mpc2]
            .into_iter()
            .enumerate()
        {
            let masked = h & mask_tau(tau);
            let start = f * tau;
            let (w, b) = (start / 64, start % 64);
            out[w] |= masked << b;
            if b + tau > 64 {
                out[w + 1] |= masked >> (64 - b);
            }
        }
        nbits
    }
}

/// Low `tau` bits set (`tau ≤ 60`).
fn mask_tau(tau: usize) -> u64 {
    (1u64 << tau) - 1
}

/// Extracts `tau` bits starting at bit `start` from little-endian words.
fn extract_bits(words: &[u64], start: usize, tau: usize) -> u64 {
    let (w, b) = (start / 64, start % 64);
    let mut v = words[w] >> b;
    if b + tau > 64 {
        v |= words[w + 1] << (64 - b);
    }
    v & mask_tau(tau)
}

/// A received message: each field is `None` if any of its bits was deleted.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecvMpMessage {
    /// Received `h(k)`, if intact.
    pub h_k: Option<u64>,
    /// Received `h(T)`, if intact.
    pub h_full: Option<u64>,
    /// Received `h(T[..mpc1])`, if intact.
    pub h_mpc1: Option<u64>,
    /// Received `h(T[..mpc2])`, if intact.
    pub h_mpc2: Option<u64>,
}

impl RecvMpMessage {
    /// Reassembles a message from `4τ` received wire bits (`None` =
    /// deleted bit).
    pub fn from_bits(bits: &[Option<bool>], tau: u32) -> Self {
        let tau = tau as usize;
        assert_eq!(bits.len(), 4 * tau, "wire length mismatch");
        let field = |i: usize| -> Option<u64> {
            let mut v = 0u64;
            for t in 0..tau {
                v |= u64::from(bits[i * tau + t]?) << t;
            }
            Some(v)
        };
        RecvMpMessage {
            h_k: field(0),
            h_full: field(1),
            h_mpc1: field(2),
            h_mpc2: field(3),
        }
    }

    /// Reassembles a message from a received word lane (`value` bits plus
    /// a `presence` mask, the layout of `netsim::FrameBatch::lane`): a
    /// field survives iff **all** of its `τ` presence bits are set, else it
    /// reads as deleted — exactly [`RecvMpMessage::from_bits`] on the
    /// equivalent `Option<bool>` sequence.
    ///
    /// # Panics
    ///
    /// Panics if the lanes are shorter than `ceil(4τ / 64)` words.
    pub fn from_words(value: &[u64], presence: &[u64], tau: u32) -> Self {
        let tau = tau as usize;
        let field = |i: usize| -> Option<u64> {
            let start = i * tau;
            if extract_bits(presence, start, tau) != mask_tau(tau) {
                return None;
            }
            Some(extract_bits(value, start, tau))
        };
        RecvMpMessage {
            h_k: field(0),
            h_full: field(1),
            h_mpc1: field(2),
            h_mpc2: field(3),
        }
    }
}

/// What the party should do after processing an exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MpDecision {
    /// The new link status.
    pub status: LinkStatus,
    /// If `Some(g)`, the transcript was rolled back to `g` chunks.
    pub truncated_to: Option<usize>,
    /// The `k, E` counters were reset because the peer's `h(k)` was
    /// corrupted or mismatched — the repair loop restarted from scratch
    /// (the stall event phase-aware attacks try to maximize; counted by
    /// the runner's instrumentation).
    pub reset: bool,
}

/// Per-link meeting-points state (`k_{u,v}`, `E_{u,v}` of Algorithm 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct MpState {
    /// Consecutive meeting-points iterations.
    pub k: u64,
    /// Mismatch evidence counter.
    pub e: u64,
    /// Current status of the link.
    pub status: LinkStatus,
}

/// Largest power of two ≤ `k` (`k ≥ 1`).
fn scale(k: u64) -> u64 {
    1u64 << (63 - k.leading_zeros())
}

impl MpState {
    /// Fresh state (status `Simulate`).
    pub fn new() -> Self {
        MpState::default()
    }

    /// Start-of-phase step: advance `k`, compute the meeting points and the
    /// outgoing message. `seed_k` is a fresh stream seeding the `h(k)`
    /// hash; `seed_t` is a fresh stream seeding the three outer transcript
    /// hashes. Each of the three is [`transcript_hash`] on the stream's
    /// first `2τ` words — the same seed for every prefix, so cross-party
    /// prefix comparisons are meaningful — so the words are drawn once.
    /// The transcript must have a sketch backend attached; each prefix
    /// evaluation reads the sketch instead of rehashing the serialization.
    ///
    /// # Panics
    ///
    /// Panics if `transcript` has no sketch backend attached.
    pub fn prepare(
        &mut self,
        transcript: &mut LinkTranscript,
        tau: u32,
        seed_k: &mut dyn SeedBits,
        seed_t: &mut dyn SeedBits,
    ) -> MpMessage {
        self.k += 1;
        let ell = transcript.chunks();
        let kt = scale(self.k) as usize;
        let mpc1 = kt * (ell / kt);
        let mpc2 = mpc1.saturating_sub(kt);
        let h_k = hash_words(&[self.k], 64, tau, seed_k);
        let mut outer_seed = [0u64; 128];
        let outer_seed = &mut outer_seed[..2 * tau as usize];
        seed_t.fill_words(outer_seed);
        let outer =
            |(sketch, len): (u64, usize)| hash_words_seeded(&outer_input(sketch, len), outer_seed);
        let h_full = outer(transcript.sketch_at(ell));
        let h_mpc1 = outer(transcript.sketch_at(mpc1));
        let h_mpc2 = outer(transcript.sketch_at(mpc2));
        MpMessage {
            h_k,
            h_full,
            h_mpc1,
            h_mpc2,
            mpc1,
            mpc2,
        }
    }

    /// End-of-phase step: compare with the peer's (possibly corrupted)
    /// message, decide the new status, and apply any rollback to
    /// `transcript`.
    pub fn process(
        &mut self,
        ours: &MpMessage,
        theirs: &RecvMpMessage,
        transcript: &mut LinkTranscript,
    ) -> MpDecision {
        // Corrupted or mismatching k: resynchronize counters.
        if theirs.h_k != Some(ours.h_k) {
            self.k = 0;
            self.e = 0;
            self.status = LinkStatus::MeetingPoints;
            return MpDecision {
                status: self.status,
                truncated_to: None,
                reset: true,
            };
        }
        // Full transcripts agree: back to simulation.
        if theirs.h_full == Some(ours.h_full) {
            self.k = 0;
            self.e = 0;
            self.status = LinkStatus::Simulate;
            return MpDecision {
                status: self.status,
                truncated_to: None,
                reset: false,
            };
        }
        // Confirmed mismatch.
        self.e += 1;
        if 2 * self.e >= self.k {
            let matches = |h: u64| theirs.h_mpc1 == Some(h) || theirs.h_mpc2 == Some(h);
            let target = if matches(ours.h_mpc1) {
                Some(ours.mpc1)
            } else if matches(ours.h_mpc2) {
                Some(ours.mpc2)
            } else {
                None
            };
            if let Some(g) = target {
                transcript.truncate(g);
                self.k = 0;
                self.e = 0;
                self.status = LinkStatus::Simulate;
                return MpDecision {
                    status: self.status,
                    truncated_to: Some(g),
                    reset: false,
                };
            }
        }
        self.status = LinkStatus::MeetingPoints;
        MpDecision {
            status: self.status,
            truncated_to: None,
            reset: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcript::TranscriptHasher;
    use protocol::{ChunkRecord, Sym};
    use smallbias::{CrsSource, SeedLabel, SeedSource};
    use std::sync::Arc;

    fn rec(chunk: u64, val: Sym) -> ChunkRecord {
        ChunkRecord {
            chunk,
            syms: vec![val, val],
        }
    }

    /// Attaches the shared persistent sketch backend both endpoints of the
    /// test link use (iteration-independent label, slot 2).
    fn attach(t: &mut LinkTranscript) {
        let src: Arc<dyn smallbias::SeedSource> = Arc::new(CrsSource::new(0xbeef));
        t.attach_hasher(TranscriptHasher::incremental(
            src,
            SeedLabel {
                iteration: 0,
                channel: 0,
                slot: 2,
            },
        ));
    }

    /// Simulates a noiseless meeting-points conversation between two
    /// parties until both return to `Simulate`; returns iterations taken.
    fn converge(a: &mut LinkTranscript, b: &mut LinkTranscript, max_iters: usize) -> usize {
        let src = CrsSource::new(0xbeef);
        let mut sa = MpState::new();
        let mut sb = MpState::new();
        if !a.has_hasher() {
            attach(a);
        }
        if !b.has_hasher() {
            attach(b);
        }
        for it in 0..max_iters {
            let lbl = |slot| SeedLabel {
                iteration: it as u64,
                channel: 0,
                slot,
            };
            let ma = sa.prepare(a, 16, &mut *src.stream(lbl(0)), &mut *src.stream(lbl(1)));
            let mb = sb.prepare(b, 16, &mut *src.stream(lbl(0)), &mut *src.stream(lbl(1)));
            let ra = RecvMpMessage {
                h_k: Some(mb.h_k),
                h_full: Some(mb.h_full),
                h_mpc1: Some(mb.h_mpc1),
                h_mpc2: Some(mb.h_mpc2),
            };
            let rb = RecvMpMessage {
                h_k: Some(ma.h_k),
                h_full: Some(ma.h_full),
                h_mpc1: Some(ma.h_mpc1),
                h_mpc2: Some(ma.h_mpc2),
            };
            let da = sa.process(&ma, &ra, a);
            let db = sb.process(&mb, &rb, b);
            if da.status == LinkStatus::Simulate
                && db.status == LinkStatus::Simulate
                && a.same_as(b)
            {
                return it + 1;
            }
        }
        panic!("did not converge in {max_iters} iterations");
    }

    fn transcript(vals: &[Sym]) -> LinkTranscript {
        let mut t = LinkTranscript::new();
        attach(&mut t);
        for (c, &v) in vals.iter().enumerate() {
            t.push(rec(c as u64, v));
        }
        t
    }

    #[test]
    fn equal_transcripts_confirm_in_one_iteration() {
        let mut a = transcript(&[Sym::Zero; 10]);
        let mut b = transcript(&[Sym::Zero; 10]);
        assert_eq!(converge(&mut a, &mut b, 5), 1);
        assert_eq!(a.chunks(), 10);
    }

    #[test]
    fn single_chunk_divergence_repairs_quickly() {
        let mut a = transcript(&[Sym::Zero; 10]);
        let mut b = transcript(&[Sym::Zero; 9]);
        b.push(rec(9, Sym::One)); // diverges at the last chunk
        let iters = converge(&mut a, &mut b, 20);
        assert!(iters <= 4, "took {iters}");
        assert!(a.same_as(&b));
        assert!(a.chunks() >= 8, "over-truncated to {}", a.chunks());
    }

    #[test]
    fn deep_divergence_converges_linearly() {
        for b_depth in [2usize, 4, 7, 12] {
            let len = 20;
            let mut a = transcript(&[Sym::Zero; 20]);
            let mut vals = vec![Sym::Zero; len - b_depth];
            vals.extend(std::iter::repeat(Sym::One).take(b_depth));
            let mut b = transcript(&vals);
            let iters = converge(&mut a, &mut b, 200);
            assert!(
                iters <= 6 * b_depth + 8,
                "B={b_depth} took {iters} iterations"
            );
            assert!(a.same_as(&b));
            // Not truncated unboundedly below the divergence point.
            assert!(
                a.chunks() + 4 * b_depth + 4 >= len - b_depth,
                "B={b_depth}: kept only {} chunks",
                a.chunks()
            );
        }
    }

    #[test]
    fn length_gap_divergence_repairs() {
        let mut a = transcript(&[Sym::Zero; 12]);
        let mut b = transcript(&[Sym::Zero; 10]);
        let iters = converge(&mut a, &mut b, 100);
        assert!(a.same_as(&b));
        assert!(iters <= 20, "took {iters}");
        assert!(a.chunks() >= 6);
    }

    #[test]
    fn corrupted_k_hash_resets_and_recovers() {
        let src = CrsSource::new(7);
        let mut a = transcript(&[Sym::Zero; 5]);
        let mut sa = MpState::new();
        let lbl = |slot| SeedLabel {
            iteration: 0,
            channel: 0,
            slot,
        };
        let ma = sa.prepare(
            &mut a,
            16,
            &mut *src.stream(lbl(0)),
            &mut *src.stream(lbl(1)),
        );
        // Peer's k-hash arrives corrupted.
        let r = RecvMpMessage {
            h_k: Some(ma.h_k ^ 1),
            h_full: Some(ma.h_full),
            h_mpc1: Some(ma.h_mpc1),
            h_mpc2: Some(ma.h_mpc2),
        };
        let d = sa.process(&ma, &r, &mut a);
        assert_eq!(d.status, LinkStatus::MeetingPoints);
        assert_eq!(d.truncated_to, None);
        assert_eq!(sa.k, 0, "counter resets for resync");
        assert_eq!(a.chunks(), 5, "no truncation on k mismatch");
    }

    #[test]
    fn deleted_message_is_treated_as_mismatch() {
        let src = CrsSource::new(9);
        let mut a = transcript(&[Sym::Zero; 5]);
        let mut sa = MpState::new();
        let lbl = |slot| SeedLabel {
            iteration: 0,
            channel: 0,
            slot,
        };
        let ma = sa.prepare(
            &mut a,
            8,
            &mut *src.stream(lbl(0)),
            &mut *src.stream(lbl(1)),
        );
        let d = sa.process(&ma, &RecvMpMessage::default(), &mut a);
        assert_eq!(d.status, LinkStatus::MeetingPoints);
        assert_eq!(a.chunks(), 5);
    }

    #[test]
    fn prepare_outer_hashes_equal_fresh_stream_transcript_hashes() {
        // One shared draw of the outer seed gives what three fresh streams
        // of the same label would.
        let src = CrsSource::new(21);
        let lbl = |slot| SeedLabel {
            iteration: 4,
            channel: 0,
            slot,
        };
        for tau in [1u32, 8, 33, 60] {
            let mut t = transcript(&[Sym::One; 11]);
            let mut st = MpState {
                k: 3,
                ..MpState::new()
            };
            let m = st.prepare(
                &mut t,
                tau,
                &mut *src.stream(lbl(0)),
                &mut *src.stream(lbl(1)),
            );
            assert_eq!((m.mpc1, m.mpc2), (8, 4));
            for (chunks, got) in [(11, m.h_full), (m.mpc1, m.h_mpc1), (m.mpc2, m.h_mpc2)] {
                let (sketch, len) = t.sketch_at(chunks);
                let want = transcript_hash(sketch, len, tau, &mut *src.stream(lbl(1)));
                assert_eq!(got, want, "tau {tau} prefix {chunks}");
            }
            let want_k = hash_words(&[4], 64, tau, &mut *src.stream(lbl(0)));
            assert_eq!(m.h_k, want_k);
        }
    }

    #[test]
    fn wire_roundtrip() {
        let msg = MpMessage {
            h_k: 0xAB,
            h_full: 0xCD,
            h_mpc1: 0x12,
            h_mpc2: 0x34,
            mpc1: 8,
            mpc2: 4,
        };
        let bits: Vec<Option<bool>> = msg.to_bits(8).into_iter().map(Some).collect();
        let r = RecvMpMessage::from_bits(&bits, 8);
        assert_eq!(r.h_k, Some(0xAB));
        assert_eq!(r.h_full, Some(0xCD));
        assert_eq!(r.h_mpc1, Some(0x12));
        assert_eq!(r.h_mpc2, Some(0x34));
        // A single deleted bit invalidates only its field.
        let mut bits2 = bits.clone();
        bits2[8] = None; // first bit of h_full
        let r2 = RecvMpMessage::from_bits(&bits2, 8);
        assert_eq!(r2.h_k, Some(0xAB));
        assert_eq!(r2.h_full, None);
        assert_eq!(r2.h_mpc1, Some(0x12));
    }

    #[test]
    fn empty_transcripts_agree() {
        let mut a = LinkTranscript::new();
        let mut b = LinkTranscript::new();
        assert_eq!(converge(&mut a, &mut b, 3), 1);
    }

    #[test]
    fn word_marshalling_matches_wire_bits() {
        let msg = MpMessage {
            h_k: 0x0ABC_DEF9_8765_4321,
            h_full: 0x0123_4567_89AB_CDEF,
            h_mpc1: 0x0F0F_F0F0_AA55_33CC,
            h_mpc2: 0x0313_3700_C0FF_EE42,
            mpc1: 8,
            mpc2: 4,
        };
        for tau in [1u32, 7, 8, 16, 17, 31, 32, 33, 48, 60] {
            let mut words = [0u64; 4];
            let nbits = msg.to_words(tau, &mut words);
            assert_eq!(nbits, 4 * tau as usize);
            assert_eq!(MpMessage::wire_words(tau), nbits.div_ceil(64));
            for o in 0..nbits {
                assert_eq!(
                    words[o / 64] >> (o % 64) & 1 == 1,
                    msg.wire_bit(o, tau),
                    "tau {tau} bit {o}"
                );
            }
            // Full-presence lanes decode to the same fields as from_bits.
            let presence = {
                let mut p = [0u64; 4];
                for o in 0..nbits {
                    p[o / 64] |= 1 << (o % 64);
                }
                p
            };
            let r = RecvMpMessage::from_words(&words, &presence, tau);
            let bits: Vec<Option<bool>> = msg.to_bits(tau).into_iter().map(Some).collect();
            let want = RecvMpMessage::from_bits(&bits, tau);
            assert_eq!(r.h_k, want.h_k, "tau {tau}");
            assert_eq!(r.h_full, want.h_full);
            assert_eq!(r.h_mpc1, want.h_mpc1);
            assert_eq!(r.h_mpc2, want.h_mpc2);
            // One deleted bit kills exactly its field.
            let mut p2 = presence;
            let dead = tau as usize; // first bit of h_full
            p2[dead / 64] &= !(1 << (dead % 64));
            let r2 = RecvMpMessage::from_words(&words, &p2, tau);
            assert_eq!(r2.h_k, want.h_k);
            assert_eq!(r2.h_full, None);
            assert_eq!(r2.h_mpc1, want.h_mpc1);
            assert_eq!(r2.h_mpc2, want.h_mpc2);
        }
    }
}
