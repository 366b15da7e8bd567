//! Hashing and shared-randomness substrate: the inner-product hash
//! (Definition 2.2 of the paper), δ-biased strings à la Naor–Naor /
//! Alon–Goldreich–Håstad–Peralta (Lemma 2.5), and deterministic seed
//! sources.
//!
//! The coding schemes consume *seed bits* for every hash they compute. A
//! uniform-CRS deployment draws those bits from a shared PRG stream keyed
//! by `(iteration, link, slot)`; the CRS-free deployment (paper §5) draws
//! them from a long δ-biased string expanded from a short exchanged seed.
//! Both are exposed behind the [`SeedSource`] trait so the coding scheme is
//! agnostic to which one it runs over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aghp;
mod hash;
mod rng;
mod seed;

pub use aghp::AghpGenerator;
pub use hash::{
    hash_bits, hash_prefix, hash_words, hash_words_seeded, sketch_column, sketch_column_pair,
    sketch_prefix, BitString, PrefixHasher,
};
pub use rng::{splitmix64, Xoshiro256};
pub use seed::{CrsSource, DeltaBiasedSource, SeedBits, SeedLabel, SeedSource};
