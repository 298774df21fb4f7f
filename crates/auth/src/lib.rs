//! # ba-auth — the paper's authenticated protocols (§8)
//!
//! Implements the authenticated half of *Byzantine Agreement with
//! Predictions*:
//!
//! * [`chains`] — committee certificates (Definition 1) and message
//!   chains (Definition 2), the cryptographic objects of §8.1;
//! * [`bb_committee`] — **Algorithm 6**, Byzantine Broadcast with an
//!   Implicit Committee: a Dolev–Strong-style broadcast truncated to
//!   `k + 1` rounds, correct whenever at most `k` committee members are
//!   faulty, plus the batched parallel driver used to run `n` instances
//!   side by side;
//! * [`ba_classification`] — **Algorithm 7**, the authenticated
//!   conditional Byzantine agreement: classification-driven committee
//!   election (first `2k+1` priorities get votes; `t+1` votes make a
//!   certificate), `n` parallel broadcasts among committee members, and a
//!   final certified-plurality round. `k + 3` rounds total.
//!
//! The conditional contract (Theorem 6): if `k` bounds the number of
//! misclassified processes, `2k + 1 ≤ n − t − k`, and `t < n/2`, then
//! Algorithm 7 satisfies Agreement and Strong Unanimity with `O(nk²)`
//! messages; unconditionally it finishes in `k + 3` rounds with `O(n²)`
//! messages sent per process.

#![forbid(unsafe_code)]

pub mod ba_classification;
pub mod bb_committee;
pub mod chains;

pub use ba_classification::{Alg7Msg, AuthBaWithClassification};
pub use bb_committee::{BbConfig, BbInstance, CommitteeMode, ParallelBroadcast};
pub use chains::{chain_link_bytes, committee_bytes, ChainLink, CommitteeCert, MessageChain};
