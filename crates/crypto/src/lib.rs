//! # ba-crypto — cryptographic substrate for the authenticated protocols
//!
//! The paper's authenticated algorithms (§8) assume a public-key
//! infrastructure with unforgeable signatures: committee certificates
//! (Definition 1) and message chains (Definition 2) are built from them.
//!
//! Real asymmetric signatures are outside the sanctioned offline dependency
//! set, so this crate implements the closest synthetic equivalent — MAC
//! tags under per-process keys that only a PKI oracle holds:
//!
//! * [`mod@sha256`] — SHA-256 implemented from scratch and validated
//!   against the NIST FIPS 180-4 test vectors; its block compression
//!   runs on the x86-64 SHA extensions when the CPU has them, the one
//!   `unsafe` module in the workspace;
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against RFC 4231;
//!   [`hmac::HmacKey`] keeps a key's two padded-block SHA-256 states, so
//!   a short message costs two compressions instead of four;
//! * [`sign`] — a *simulated PKI*: a [`sign::Pki`] oracle privately
//!   holds one MAC key per process; a process signs with its own
//!   [`sign::SigningKey`] and anyone verifies through the
//!   oracle. Unforgeability holds by construction inside the simulation:
//!   the Byzantine adversary receives keys only for corrupted identifiers,
//!   and Rust privacy prevents key extraction from the oracle. The
//!   oracle memoises successful verifications, keyed on the exact message
//!   bytes plus `(signer, tag)`, so a repeated check of one certificate
//!   signature skips its MAC; failures are never stored, so a forgery is
//!   recomputed and rejected on every call. Verification stays a pure
//!   function, so no protocol outcome depends on the memo. A caller
//!   checking many signatures on one message resolves it once with
//!   [`sign::Pki::statement`]: the [`sign::Statement`] remembers the
//!   message's memo slot once it has one, so later checks through
//!   [`sign::Pki::verify_statement`] neither re-encode nor re-hash the
//!   bytes. A statement is bound to the `Pki` that resolved it; any
//!   other `Pki` checks it through its bytes. A [`sign::SealedSig`]
//!   shared by the recipients of one broadcast records where it verified
//!   ([`sign::SealedChecks::verify`]), so only its first recipient pays
//!   for the check; one signed through [`sign::Pki::sign_statement`] is
//!   sealed as it is signed, so not even the first recipient pays;
//! * [`encode`] — a small deterministic, domain-separated byte encoder so
//!   that every signed protocol message has a canonical serialization.
//! * [`signed`] — the reusable [`signed::Signed`] envelope (canonical
//!   encoding + signature + verify-on-receive), the building block of
//!   the signed protocol variants (`CommEffSigned`, `ResilientSigned`).
//!
//! Everything the protocols need from signatures — authentication,
//! transferability along message chains, and equivocation evidence — is
//! preserved. The test suites include active forgery attempts that must
//! fail.

#![deny(unsafe_code)]

pub mod encode;
pub mod hmac;
pub mod sha256;
pub mod sign;
pub mod signed;

pub use encode::{Encodable, Encoder};
pub use hmac::{hmac_sha256, HmacKey};
pub use sha256::{sha256, Sha256};
pub use sign::{
    Pki, SealedChecks, SealedSig, Signature, SignerId, SigningKey, Statement, VerifyCounts,
};
pub use signed::Signed;
