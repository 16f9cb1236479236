//! Messages exchanged between modules.

use crate::{Packet, PacketBox, PacketPool};
use std::any::Any;

/// PCIe flow-control credit class.
///
/// Matches the three PCIe virtual-channel credit pools; modules that do not
/// model PCIe can ignore the distinction.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CreditClass {
    /// Posted requests (memory writes).
    Posted,
    /// Non-posted requests (memory reads).
    NonPosted,
    /// Completions.
    Completion,
}

impl CreditClass {
    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            CreditClass::Posted => 0,
            CreditClass::NonPosted => 1,
            CreditClass::Completion => 2,
        }
    }

    /// All classes, in [`CreditClass::index`] order.
    pub const ALL: [CreditClass; 3] = [
        CreditClass::Posted,
        CreditClass::NonPosted,
        CreditClass::Completion,
    ];
}

/// A flow-control credit return: `bytes` of buffer space for one
/// [`CreditClass`] pool, packed into a single word so that every [`Msg`]
/// payload is one scalar (see the enum-level note).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Credit(u64);

impl Credit {
    /// Return `bytes` of buffer space to the `class` pool.
    pub fn new(class: CreditClass, bytes: u32) -> Self {
        Credit(u64::from(bytes) << 8 | class.index() as u64)
    }

    /// Credit pool being replenished.
    pub fn class(self) -> CreditClass {
        match self.0 & 0xFF {
            0 => CreditClass::Posted,
            1 => CreditClass::NonPosted,
            _ => CreditClass::Completion,
        }
    }

    /// Bytes returned to the pool.
    pub fn bytes(self) -> u32 {
        (self.0 >> 8) as u32
    }
}

impl std::fmt::Debug for Credit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Credit")
            .field("class", &self.class())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// A message delivered to a [`crate::Module`].
///
/// `Msg` values are the payload of every event-queue node, so the enum is
/// exactly two machine words: a word-sized tag and a one-word payload.
/// The large [`Packet`] body lives behind a pooled box ([`PacketBox`]),
/// which keeps queue operations from memcpying ~100-byte packets on every
/// sift. Forwarding modules move the box through unchanged, so a packet is
/// allocated once per lifetime at most — and [`Msg::packet`] recycles
/// storage through the [`PacketPool`], so steady state allocates nothing
/// at all.
///
/// The layout is deliberate. The `u64` tag and the single one-word scalar
/// in every variant give the enum a two-scalar ABI: a `Msg` is passed to
/// [`crate::Module::handle`] and through every send in two registers,
/// not through a stack copy. Narrower pieces (a one-byte tag, a credit
/// as two fields) force the message through memory, where writing it as
/// words and reading it back as one wider load stalls on store
/// forwarding — on the dispatch of every event.
#[derive(Debug)]
#[repr(u64)]
pub enum Msg {
    /// A memory transaction or PCIe TLP (the hot path). Boxed so event
    /// nodes stay small; see [`Msg::packet`].
    Packet(PacketBox),
    /// Flow-control credit return (see [`Credit`]).
    Credit(Credit),
    /// Self-scheduled wakeup carrying an opaque tag.
    Timer(u64),
    /// Control-plane message (DMA descriptors, job doorbells, interrupts).
    ///
    /// Rare by construction, so the allocation does not affect the hot
    /// path. The trait object is boxed twice so the variant stays one
    /// (thin) word wide. Build it with [`Msg::custom`]; receivers downcast
    /// with [`Msg::into_custom`].
    Custom(Box<Box<dyn Any + Send>>),
}

// Compile-time regression guard: event-queue nodes carry `Msg` inline,
// so any growth here multiplies across every queue operation. Two words:
// the tag and one payload word.
const _: () = assert!(
    std::mem::size_of::<Msg>() == 16,
    "Msg is no longer 16 bytes"
);

impl Msg {
    /// Wrap a packet (boxing it through the [`PacketPool`]; see the
    /// enum-level note on node size).
    pub fn packet(pkt: Packet) -> Self {
        Msg::Packet(PacketPool::alloc(pkt))
    }

    /// A credit return of `bytes` to the `class` pool.
    pub fn credit(class: CreditClass, bytes: u32) -> Self {
        Msg::Credit(Credit::new(class, bytes))
    }

    /// Wrap a control-plane value.
    pub fn custom<T: Any + Send>(value: T) -> Self {
        Msg::Custom(Box::new(Box::new(value)))
    }

    /// Downcast a [`Msg::Custom`] payload, consuming the message.
    ///
    /// Returns `Err(self)` unchanged when the message is not `Custom` or
    /// holds a different type, so callers can keep dispatching.
    pub fn into_custom<T: Any + Send>(self) -> Result<T, Msg> {
        match self {
            Msg::Custom(b) => match (*b).downcast::<T>() {
                Ok(v) => Ok(*v),
                Err(b) => Err(Msg::Custom(Box::new(b))),
            },
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Doorbell(u32);

    #[test]
    fn custom_roundtrip() {
        let msg = Msg::custom(Doorbell(7));
        match msg.into_custom::<Doorbell>() {
            Ok(d) => assert_eq!(d, Doorbell(7)),
            Err(_) => panic!("downcast failed"),
        }
    }

    #[test]
    fn custom_wrong_type_returns_message() {
        let msg = Msg::custom(Doorbell(7));
        let back = msg.into_custom::<String>().unwrap_err();
        assert!(back.into_custom::<Doorbell>().is_ok());
    }

    #[test]
    fn credit_round_trips_class_and_bytes() {
        for class in CreditClass::ALL {
            for bytes in [0, 1, 280, u32::MAX] {
                let c = Credit::new(class, bytes);
                assert_eq!((c.class(), c.bytes()), (class, bytes));
            }
        }
    }

    #[test]
    fn credit_class_indices_are_distinct() {
        let mut seen = [false; 3];
        for c in CreditClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
    }
}
