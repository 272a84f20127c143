//! Wire-level types of the Verbs-style API: scatter/gather elements, work
//! requests, work completions and errors.

use std::fmt;

use fabric::NodeId;

/// Queue-pair number, unique across the simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpNum(pub u32);

impl fmt::Display for QpNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// Memory-region key. The simulation uses one key namespace for local and
/// remote access (lkey == rkey), as many real stacks effectively do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MrKey(pub u32);

/// A scatter/gather element: a range of registered memory, addressed with
/// the same domain-local addresses the application sees.
#[derive(Debug, Clone, Copy)]
pub struct Sge {
    pub addr: u64,
    pub len: u64,
    pub lkey: MrKey,
}

/// An inline gather list: up to [`SgeList::MAX`] SGEs without a heap
/// allocation. Work requests are posted on the hot path of every eager
/// packet, so the gather list lives inside the WR (making [`SendWr`]
/// `Copy`) instead of in a per-post `Vec` — the paper's EAGER packet
/// needs at most three SGEs (header ‖ payload ‖ tail).
#[derive(Debug, Clone, Copy)]
pub struct SgeList {
    sges: [Sge; Self::MAX],
    len: u8,
}

impl SgeList {
    /// Maximum gather entries (header, payload, tail).
    pub const MAX: usize = 3;

    const EMPTY: Sge = Sge {
        addr: 0,
        len: 0,
        lkey: MrKey(0),
    };

    pub fn new() -> Self {
        SgeList {
            sges: [Self::EMPTY; Self::MAX],
            len: 0,
        }
    }

    pub fn push(&mut self, sge: Sge) {
        assert!(
            (self.len as usize) < Self::MAX,
            "SgeList overflow: at most {} SGEs",
            Self::MAX
        );
        self.sges[self.len as usize] = sge;
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Sge> {
        self.as_slice().iter()
    }

    pub fn as_slice(&self) -> &[Sge] {
        &self.sges[..self.len as usize]
    }
}

impl Default for SgeList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for SgeList {
    type Target = [Sge];
    fn deref(&self) -> &[Sge] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a SgeList {
    type Item = &'a Sge;
    type IntoIter = std::slice::Iter<'a, Sge>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Sge> for SgeList {
    fn from(sge: Sge) -> Self {
        let mut l = SgeList::new();
        l.push(sge);
        l
    }
}

impl<const N: usize> From<[Sge; N]> for SgeList {
    fn from(sges: [Sge; N]) -> Self {
        let mut l = SgeList::new();
        for s in sges {
            l.push(s);
        }
        l
    }
}

impl From<Vec<Sge>> for SgeList {
    fn from(sges: Vec<Sge>) -> Self {
        let mut l = SgeList::new();
        for s in sges {
            l.push(s);
        }
        l
    }
}

impl From<&[Sge]> for SgeList {
    fn from(sges: &[Sge]) -> Self {
        let mut l = SgeList::new();
        for &s in sges {
            l.push(s);
        }
        l
    }
}

/// Send-queue operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOpcode {
    /// Two-sided send; requires a posted receive at the remote QP.
    Send,
    /// One-sided write into `(remote_addr, rkey)`.
    RdmaWrite,
    /// One-sided read from `(remote_addr, rkey)` into the local SGEs.
    RdmaRead,
    /// Atomic fetch-and-add on an 8-byte remote word; the original value
    /// lands in the (8-byte) local SGE.
    FetchAdd,
    /// Atomic compare-and-swap on an 8-byte remote word; the original
    /// value lands in the local SGE.
    CompareSwap,
}

/// A send work request. `Copy` by design: the engine re-posts WRs on
/// retry and keeps them in an inflight table, and an inline gather list
/// keeps every such move allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct SendWr {
    pub wr_id: u64,
    pub opcode: SendOpcode,
    /// Local gather list (Send/RdmaWrite: source; RdmaRead/atomics:
    /// destination).
    pub sges: SgeList,
    /// Remote address for RDMA operations.
    pub remote_addr: u64,
    /// Remote key for RDMA operations.
    pub rkey: MrKey,
    /// FetchAdd: the addend. CompareSwap: the expected value.
    pub compare_add: u64,
    /// CompareSwap: the replacement value.
    pub swap: u64,
    /// Whether a work completion is generated on success.
    pub signaled: bool,
}

impl SendWr {
    fn base(wr_id: u64, opcode: SendOpcode, sges: SgeList, remote_addr: u64, rkey: MrKey) -> Self {
        SendWr {
            wr_id,
            opcode,
            sges,
            remote_addr,
            rkey,
            compare_add: 0,
            swap: 0,
            signaled: true,
        }
    }

    pub fn send(wr_id: u64, sges: impl Into<SgeList>) -> Self {
        Self::base(wr_id, SendOpcode::Send, sges.into(), 0, MrKey(0))
    }

    pub fn rdma_write(wr_id: u64, sges: impl Into<SgeList>, remote_addr: u64, rkey: MrKey) -> Self {
        Self::base(wr_id, SendOpcode::RdmaWrite, sges.into(), remote_addr, rkey)
    }

    pub fn rdma_read(wr_id: u64, sges: impl Into<SgeList>, remote_addr: u64, rkey: MrKey) -> Self {
        Self::base(wr_id, SendOpcode::RdmaRead, sges.into(), remote_addr, rkey)
    }

    /// Atomic fetch-and-add of `add` on the 8-byte word at
    /// `(remote_addr, rkey)`; `result_sge` (8 bytes) receives the
    /// original value.
    pub fn fetch_add(wr_id: u64, result_sge: Sge, remote_addr: u64, rkey: MrKey, add: u64) -> Self {
        let mut wr = Self::base(
            wr_id,
            SendOpcode::FetchAdd,
            result_sge.into(),
            remote_addr,
            rkey,
        );
        wr.compare_add = add;
        wr
    }

    /// Atomic compare-and-swap: if the remote word equals `compare`,
    /// replace it with `swap`; the original value lands in `result_sge`.
    pub fn compare_swap(
        wr_id: u64,
        result_sge: Sge,
        remote_addr: u64,
        rkey: MrKey,
        compare: u64,
        swap: u64,
    ) -> Self {
        let mut wr = Self::base(
            wr_id,
            SendOpcode::CompareSwap,
            result_sge.into(),
            remote_addr,
            rkey,
        );
        wr.compare_add = compare;
        wr.swap = swap;
        wr
    }

    pub fn unsignaled(mut self) -> Self {
        self.signaled = false;
        self
    }

    /// Total gather length.
    pub fn byte_len(&self) -> u64 {
        self.sges.iter().map(|s| s.len).sum()
    }
}

/// A receive work request (scatter list for an inbound Send), inline like
/// [`SendWr`]'s gather list: reposting a receive allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct RecvWr {
    pub wr_id: u64,
    pub sges: SgeList,
}

impl RecvWr {
    pub fn new(wr_id: u64, sges: impl Into<SgeList>) -> Self {
        RecvWr {
            wr_id,
            sges: sges.into(),
        }
    }

    pub fn byte_len(&self) -> u64 {
        self.sges.iter().map(|s| s.len).sum()
    }
}

/// Work-completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcStatus {
    Success,
    /// Inbound Send larger than the posted receive buffers.
    LocalLengthError,
    /// A receive SGE's `lkey` no longer names a registered region
    /// (IBV_WC_LOC_PROT_ERR): the MR was deregistered between posting the
    /// receive and the Send arriving. Never transient — the receive's
    /// bytes are lost.
    LocalProtectionError,
    /// RDMA access outside the registered remote region / bad key.
    RemoteAccessError,
    /// Receiver-not-ready retry budget exhausted (IBV_WC_RNR_RETRY_EXC_ERR):
    /// the remote QP kept NAKing. Transient — the peer may drain.
    RnrRetryExceeded,
    /// Link-level retransmission budget exhausted
    /// (IBV_WC_RETRY_EXC_ERR): packets lost on the wire. Transient.
    TransportRetryExceeded,
    /// The local or remote QP is in the error state
    /// (IBV_WC_WR_FLUSH_ERR): a fail-stopped peer flushes every posted
    /// and in-flight WR with this status. Never transient — the QP
    /// never leaves the error state.
    WrFlushErr,
}

impl WcStatus {
    /// Whether a failed completion with this status is worth retrying
    /// (RNR / wire-retry exhaustion) as opposed to a permanent protection
    /// or length violation.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            WcStatus::RnrRetryExceeded | WcStatus::TransportRetryExceeded
        )
    }
}

/// Work-completion opcode (which operation finished).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcOpcode {
    Send,
    RdmaWrite,
    RdmaRead,
    FetchAdd,
    CompareSwap,
    Recv,
}

/// A work completion.
#[derive(Debug, Clone)]
pub struct Wc {
    pub wr_id: u64,
    pub status: WcStatus,
    pub opcode: WcOpcode,
    pub byte_len: u64,
    /// For Recv completions: the sending QP.
    pub src: Option<(NodeId, QpNum)>,
}

/// Errors detected synchronously at post time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerbsError {
    QpNotConnected,
    /// Unknown or deregistered local key.
    InvalidLKey(MrKey),
    /// SGE range outside its memory region.
    SgeOutOfRange {
        addr: u64,
        len: u64,
    },
    /// RDMA op without a remote key on an op that needs one.
    MissingRemote,
}

impl fmt::Display for VerbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbsError::QpNotConnected => write!(f, "queue pair is not connected"),
            VerbsError::InvalidLKey(k) => write!(f, "invalid local key {k:?}"),
            VerbsError::SgeOutOfRange { addr, len } => {
                write!(f, "SGE [{addr:#x}, +{len}) outside its memory region")
            }
            VerbsError::MissingRemote => write!(f, "RDMA operation without remote address/key"),
        }
    }
}

impl std::error::Error for VerbsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_wr_builders() {
        let sge = Sge {
            addr: 0x1000,
            len: 64,
            lkey: MrKey(7),
        };
        let wr = SendWr::send(1, vec![sge]);
        assert_eq!(wr.opcode, SendOpcode::Send);
        assert!(wr.signaled);
        assert_eq!(wr.byte_len(), 64);
        let wr = SendWr::rdma_write(2, vec![sge, sge], 0x2000, MrKey(9)).unsignaled();
        assert_eq!(wr.opcode, SendOpcode::RdmaWrite);
        assert!(!wr.signaled);
        assert_eq!(wr.byte_len(), 128);
        assert_eq!(wr.rkey, MrKey(9));
    }

    #[test]
    fn sge_list_conversions() {
        let sge = Sge {
            addr: 0x40,
            len: 8,
            lkey: MrKey(3),
        };
        let from_one: SgeList = sge.into();
        assert_eq!(from_one.len(), 1);
        assert_eq!(from_one[0].addr, 0x40);
        let from_arr: SgeList = [sge, sge, sge].into();
        assert_eq!(from_arr.len(), 3);
        assert_eq!(from_arr.iter().map(|s| s.len).sum::<u64>(), 24);
        let from_vec: SgeList = vec![sge, sge].into();
        assert_eq!(from_vec.as_slice().len(), 2);
        assert!(SgeList::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "SgeList overflow")]
    fn sge_list_overflow_panics() {
        let sge = Sge {
            addr: 0,
            len: 1,
            lkey: MrKey(0),
        };
        let mut l = SgeList::new();
        for _ in 0..=SgeList::MAX {
            l.push(sge);
        }
    }

    #[test]
    fn recv_wr_len() {
        let wr = RecvWr::new(
            3,
            vec![
                Sge {
                    addr: 0,
                    len: 10,
                    lkey: MrKey(1),
                },
                Sge {
                    addr: 16,
                    len: 22,
                    lkey: MrKey(1),
                },
            ],
        );
        assert_eq!(wr.byte_len(), 32);
    }

    #[test]
    fn error_display() {
        let e = VerbsError::SgeOutOfRange { addr: 0x10, len: 4 };
        assert!(e.to_string().contains("outside"));
    }

    #[test]
    fn transient_statuses_classified() {
        assert!(WcStatus::RnrRetryExceeded.is_transient());
        assert!(WcStatus::TransportRetryExceeded.is_transient());
        assert!(!WcStatus::Success.is_transient());
        assert!(!WcStatus::LocalLengthError.is_transient());
        assert!(!WcStatus::LocalProtectionError.is_transient());
        assert!(!WcStatus::RemoteAccessError.is_transient());
        assert!(!WcStatus::WrFlushErr.is_transient());
    }
}
