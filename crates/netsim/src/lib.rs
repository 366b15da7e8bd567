//! Synchronous noisy-network engine and adversaries.
//!
//! Model (paper §2.1): rounds are synchronous; each link carries at most
//! one symbol per round per direction; the channel alphabet is
//! `Σ ∪ {*}` = {0, 1, silence}. The adversary may **substitute** a bit,
//! **delete** a transmission (bit → silence), or **insert** one (silence →
//! bit); each such change counts as one corruption, and the noise budget is
//! a fraction of the *actual* communication of the instance.
//!
//! # The wire representation
//!
//! One round's channel contents are a [`RoundFrame`]: two bit-packed
//! vectors (presence + value) indexed by the graph's dense
//! [`netgraph::LinkId`]. Probing a link is O(1), wiping or copying a
//! frame is O(m/64), and a frame never allocates after construction.
//!
//! The [`Network`] engine is driven round-by-round by the coding-scheme
//! runner through [`Network::step_into`]: the runner owns a sends frame
//! and a receptions frame, fills the former, and the engine consults the
//! [`Adversary`], enforces the corruption budget, counts communication,
//! and writes what each receiver observes into the latter — both buffers
//! reused every round.
//!
//! # Batched wire rounds
//!
//! Phases whose rounds carry **no data dependency** (every round's sends
//! are known up front — the coding scheme's 4τ-round meeting-points hash
//! exchange and its randomness-exchange prologue) go through the
//! word-level batch path instead: a [`FrameBatch`] packs `R` rounds
//! **lane-major** (each link owns `R` contiguous presence/value bits), so
//! a link's whole multi-round message is written with one
//! [`FrameBatch::set_bits`] word store and read back as a
//! [`FrameBatch::lane`] slice. [`Network::step_rounds_into`] consumes a
//! batch in one call: one bulk copy, then one [`Adversary::corrupt`]
//! consultation per round through a borrowed [`Sends::Batch`] view, with
//! the contract that receptions, [`NetStats`] and adversary state end up
//! byte-identical to stepping the rounds one at a time.
//!
//! # Adversaries
//!
//! An adversary has one decision procedure, [`Adversary::corrupt`],
//! asked once per round on both paths with a [`Sends`] view of that
//! round's honest symbols and the exact remaining budget; attacks resolve
//! their target links to ids at construction (constructors take
//! `&Graph`).
//!
//! Adversaries come in two flavors mirroring the paper:
//! * **oblivious** ([`Adversary::is_oblivious`] = true) — their decisions
//!   depend only on `(round, link)` and private randomness fixed up front
//!   (the additive adversary of §2.1);
//! * **non-oblivious** — they may inspect an [`AdaptiveView`] of the live
//!   execution, including a seed-aware hash-collision oracle (the §6.1
//!   attack surface).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
mod engine;
mod fault;
mod frame;
mod phase;

pub use engine::{
    AdaptiveView, Adversary, Corruption, EdgeMpView, FlagView, MpSideView, NetStats, Network,
};
pub use fault::{FaultSchedule, FaultStats};
pub use frame::{FrameBatch, RoundFrame, Sends};
pub use phase::{PhaseGeometry, PhaseKind, PhasePos};
