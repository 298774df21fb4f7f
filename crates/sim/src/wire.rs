//! Wire-size accounting: how many bytes a message costs on the network.
//!
//! The paper family measures two complexities: rounds and
//! *communication*. Message counts alone hide a real asymmetry — a
//! phase-king vote is one `Value`, while a Dolev–Strong batch carries
//! `O(n)` signature chains — so the runner also charges each message its
//! serialized size. [`WireSize`] defines that size: a deterministic,
//! implementation-independent byte count mirroring the obvious
//! length-prefixed binary encoding (fixed-width integers, a 4-byte
//! length prefix per collection, a 1-byte discriminant per enum).
//!
//! Every [`crate::Process::Msg`] type must implement it; compound
//! messages compose the impls of their parts, so the accounting stays
//! consistent across protocol layers (a wrapped sub-protocol payload
//! costs its inner size plus the wrapper's framing).
//!
//! ## The signature byte model
//!
//! Authenticated traffic follows the same composition rule. A
//! signature (`ba_crypto::Signature`) costs a fixed **20 bytes** — a
//! 4-byte signer id plus the 16-byte truncated MAC tag — and a signed
//! envelope (`ba_crypto::Signed<M>`) costs its body plus those 20
//! bytes, nothing more. Consequently every signed pipeline message is
//! *exactly* its unsigned counterpart plus 20 bytes per carried
//! signature (asserted by the conformance suite), and
//! certificate-carrying messages price each embedded acknowledgement
//! at body + 20 — which is why the signed certify echo costs
//! `O(n³)` bytes: `n` broadcasts to `n` recipients of an `(n − t)`-signature proof.

use crate::id::{ProcessId, Value};
use std::rc::Rc;

/// The serialized size of a message, in bytes.
///
/// Sizes are a *model* of a canonical binary encoding, not of Rust's
/// in-memory layout: `Rc<M>` costs what `M` costs (the network copies
/// the body, not the pointer), a `Vec` adds a 4-byte length prefix, an
/// enum adds a 1-byte discriminant.
pub trait WireSize {
    /// Serialized size in bytes.
    fn wire_bytes(&self) -> u64;
}

impl WireSize for () {
    fn wire_bytes(&self) -> u64 {
        0
    }
}

impl WireSize for bool {
    fn wire_bytes(&self) -> u64 {
        1
    }
}

impl WireSize for u8 {
    fn wire_bytes(&self) -> u64 {
        1
    }
}

impl WireSize for u16 {
    fn wire_bytes(&self) -> u64 {
        2
    }
}

impl WireSize for u32 {
    fn wire_bytes(&self) -> u64 {
        4
    }
}

impl WireSize for u64 {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

impl WireSize for Value {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

impl WireSize for ProcessId {
    fn wire_bytes(&self) -> u64 {
        4
    }
}

impl WireSize for String {
    fn wire_bytes(&self) -> u64 {
        4 + self.len() as u64
    }
}

/// One presence byte plus the payload when present.
impl<T: WireSize> WireSize for Option<T> {
    fn wire_bytes(&self) -> u64 {
        1 + self.as_ref().map_or(0, WireSize::wire_bytes)
    }
}

/// A 4-byte length prefix plus the elements.
impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bytes(&self) -> u64 {
        4 + self.iter().map(WireSize::wire_bytes).sum::<u64>()
    }
}

/// Shared bodies serialize like owned ones.
impl<T: WireSize> WireSize for Rc<T> {
    fn wire_bytes(&self) -> u64 {
        (**self).wire_bytes()
    }
}

impl<T: WireSize> WireSize for Box<T> {
    fn wire_bytes(&self) -> u64 {
        (**self).wire_bytes()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes() + self.2.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_fixed_widths() {
        assert_eq!(().wire_bytes(), 0);
        assert_eq!(true.wire_bytes(), 1);
        assert_eq!(7u16.wire_bytes(), 2);
        assert_eq!(7u32.wire_bytes(), 4);
        assert_eq!(7u64.wire_bytes(), 8);
        assert_eq!(Value(9).wire_bytes(), 8);
        assert_eq!(ProcessId(3).wire_bytes(), 4);
    }

    #[test]
    fn collections_add_length_prefixes() {
        assert_eq!(Vec::<Value>::new().wire_bytes(), 4);
        assert_eq!(vec![Value(1), Value(2)].wire_bytes(), 4 + 16);
        assert_eq!("abc".to_string().wire_bytes(), 7);
    }

    #[test]
    fn options_cost_a_presence_byte() {
        assert_eq!(None::<Value>.wire_bytes(), 1);
        assert_eq!(Some(Value(1)).wire_bytes(), 9);
    }

    #[test]
    fn smart_pointers_are_transparent() {
        assert_eq!(Rc::new(Value(1)).wire_bytes(), 8);
        assert_eq!(Box::new(vec![1u32]).wire_bytes(), 8);
    }

    #[test]
    fn tuples_sum_their_parts() {
        assert_eq!((1u32, Value(2)).wire_bytes(), 12);
        assert_eq!((1u8, 2u16, Value(3)).wire_bytes(), 11);
    }
}
