//! Eager-ring packet format.
//!
//! Every packet RDMA-written into a peer's ring slot is
//! `header ‖ payload ‖ tail`, sent as three SGEs exactly like the paper's
//! EAGER packet ("an EAGER header SGE, the data SGE and a tail SGE").
//! InfiniBand delivers SGEs in order, so the receiver polls the slot tail:
//! once the tail carries the slot's expected sequence number the whole
//! packet is in place.

use crate::types::{Rank, Tag};

/// Packet kinds flowing through the eager rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Small-message data (one-copy eager protocol).
    Eager = 1,
    /// Rendezvous sender-first: "here is my registered send buffer".
    Rts = 2,
    /// Rendezvous receiver-first: "here is my registered receive buffer".
    Rtr = 3,
    /// Rendezvous completion: the *receiver* finished its RDMA READ
    /// (sender-first protocol) — completes the peer's send. `seq` is in
    /// the sender's (peer's) transmit stream.
    Done = 4,
    /// Ring flow control: consumed-slot count piggyback.
    Credit = 5,
    /// Rendezvous completion: the *sender* finished its RDMA WRITE
    /// (receiver-first protocol) — completes the peer's receive. `seq` is
    /// in this sender's transmit stream (= the peer's receive stream).
    /// Distinct from [`PacketKind::Done`] because both flow between the
    /// same pair with independent sequence counters.
    DoneWrite = 6,
    /// Transport abort, sender → receiver: the EAGER or RTS packet that
    /// was to carry data sequence `seq` failed permanently. Rewritten into
    /// the dead packet's ring slot so the stream stays consumable; the
    /// receiver fails the matching receive instead of waiting forever.
    NackSend = 7,
    /// Transport abort, receiver → sender: answers an RTS negatively (the
    /// receiver's RDMA READ failed, or its matching receive is dead) —
    /// the error-path twin of [`PacketKind::Done`].
    Nack = 8,
    /// Transport abort, sender → receiver: answers an RTR negatively (the
    /// sender's RDMA WRITE failed) — the error-path twin of
    /// [`PacketKind::DoneWrite`].
    NackWrite = 9,
}

impl PacketKind {
    fn from_u8(v: u8) -> Option<PacketKind> {
        Some(match v {
            1 => PacketKind::Eager,
            2 => PacketKind::Rts,
            3 => PacketKind::Rtr,
            4 => PacketKind::Done,
            5 => PacketKind::Credit,
            6 => PacketKind::DoneWrite,
            7 => PacketKind::NackSend,
            8 => PacketKind::Nack,
            9 => PacketKind::NackWrite,
            _ => return None,
        })
    }
}

/// Fixed-size packet header (one ring slot holds header + payload + tail).
/// All-scalar and `Copy`: headers are stashed, queued and replayed on the
/// engine's hot path, and none of that should touch the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    pub kind: PacketKind,
    pub src_rank: Rank,
    pub tag: Tag,
    /// Pair sequence id (paper §IV-B3): unique per MPI process pair; a
    /// send and its matching receive hold the same id.
    ///
    /// Together with the pair's direction this is the message's stable
    /// **MsgId** `(src, dst, seq)` used by lifecycle tracing: data-bearing
    /// kinds (`Eager`/`Rts`/`NackSend`/`DoneWrite`/`NackWrite`) travel
    /// src → dst, replies (`Rtr`/`Done`/`Nack`) travel dst → src, and every
    /// packet of one message carries the same `seq`, so any rank can
    /// recover the MsgId from `(kind, wire peer, seq)` without widening
    /// the header.
    pub seq: u64,
    /// Eager: payload length. RTS/RTR: full message length.
    /// Credit: consumed-slot count. Done: echo of the rendezvous length.
    pub len: u64,
    /// RTS/RTR: registered buffer address.
    pub addr: u64,
    /// RTS/RTR: rkey of the registered buffer.
    pub rkey: u32,
}

/// Encoded header size in bytes.
pub const HEADER_LEN: u64 = 1 + 4 + 4 + 8 + 8 + 8 + 4;

/// [`HEADER_LEN`] as a `usize`, for sizing stack buffers.
pub const HEADER_BYTES: usize = HEADER_LEN as usize;

/// Tail size in bytes (slot sequence number, written last).
pub const TAIL_LEN: u64 = 8;

/// Ring overhead per slot beyond the payload.
pub const SLOT_OVERHEAD: u64 = HEADER_LEN + TAIL_LEN;

impl PacketHeader {
    /// A data-less control header.
    pub const fn control(kind: PacketKind, src_rank: Rank, tag: Tag, seq: u64, len: u64) -> Self {
        PacketHeader {
            kind,
            src_rank,
            tag,
            seq,
            len,
            addr: 0,
            rkey: 0,
        }
    }

    #[cfg(test)]
    pub fn encode(&self) -> Vec<u8> {
        let mut b = [0u8; HEADER_BYTES];
        self.encode_into(&mut b);
        b.to_vec()
    }

    /// Allocation-free encode into a caller-provided (stack) buffer.
    pub fn encode_into(&self, b: &mut [u8; HEADER_BYTES]) {
        b[0] = self.kind as u8;
        b[1..5].copy_from_slice(&(self.src_rank as u32).to_le_bytes());
        b[5..9].copy_from_slice(&self.tag.to_le_bytes());
        b[9..17].copy_from_slice(&self.seq.to_le_bytes());
        b[17..25].copy_from_slice(&self.len.to_le_bytes());
        b[25..33].copy_from_slice(&self.addr.to_le_bytes());
        b[33..37].copy_from_slice(&self.rkey.to_le_bytes());
    }

    pub fn decode(data: &[u8]) -> Option<PacketHeader> {
        if data.len() < HEADER_LEN as usize {
            return None;
        }
        let kind = PacketKind::from_u8(data[0])?;
        let src_rank = u32::from_le_bytes(data[1..5].try_into().unwrap()) as Rank;
        let tag = u32::from_le_bytes(data[5..9].try_into().unwrap());
        let seq = u64::from_le_bytes(data[9..17].try_into().unwrap());
        let len = u64::from_le_bytes(data[17..25].try_into().unwrap());
        let addr = u64::from_le_bytes(data[25..33].try_into().unwrap());
        let rkey = u32::from_le_bytes(data[33..37].try_into().unwrap());
        Some(PacketHeader {
            kind,
            src_rank,
            tag,
            seq,
            len,
            addr,
            rkey,
        })
    }
}

/// The tail word for ring slot sequence `slot_seq`: nonzero by construction
/// so a zeroed (free) slot never looks full.
pub fn tail_word(slot_seq: u64) -> u64 {
    slot_seq | 0x8000_0000_0000_0000
}

/// Inverse of [`tail_word`]: `Some(slot_seq)` if the tail marks a full slot.
pub fn tail_seq(word: u64) -> Option<u64> {
    (word & 0x8000_0000_0000_0000 != 0).then_some(word & !0x8000_0000_0000_0000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = PacketHeader {
            kind: PacketKind::Rts,
            src_rank: 5,
            tag: 77,
            seq: 123456789,
            len: 1 << 20,
            addr: 0xABCD_EF01,
            rkey: 42,
        };
        assert_eq!(PacketHeader::decode(&h.encode()), Some(h));
    }

    #[test]
    fn done_write_roundtrips() {
        let h = PacketHeader::control(PacketKind::DoneWrite, 2, 9, 17, 4096);
        assert_eq!(PacketHeader::decode(&h.encode()), Some(h));
    }

    #[test]
    fn control_header_roundtrip() {
        let h = PacketHeader::control(PacketKind::Credit, 3, 0, 0, 160);
        let enc = h.encode();
        assert_eq!(enc.len() as u64, HEADER_LEN);
        assert_eq!(PacketHeader::decode(&enc), Some(h));
    }

    #[test]
    fn nack_kinds_roundtrip() {
        for kind in [
            PacketKind::NackSend,
            PacketKind::Nack,
            PacketKind::NackWrite,
        ] {
            let h = PacketHeader::control(kind, 1, 4, 9, 0);
            assert_eq!(PacketHeader::decode(&h.encode()), Some(h));
        }
    }

    #[test]
    fn short_and_garbage_rejected() {
        assert_eq!(PacketHeader::decode(&[]), None);
        assert_eq!(PacketHeader::decode(&[0u8; 10]), None);
        let mut bad = PacketHeader::control(PacketKind::Done, 0, 0, 1, 0).encode();
        bad[0] = 99;
        assert_eq!(PacketHeader::decode(&bad), None);
    }

    #[test]
    fn tail_word_never_zero() {
        for seq in [0u64, 1, 63, 1 << 40] {
            let w = tail_word(seq);
            assert_ne!(w, 0);
            assert_eq!(tail_seq(w), Some(seq));
        }
        assert_eq!(tail_seq(0), None);
    }
}
