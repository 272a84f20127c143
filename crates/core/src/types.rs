//! Public MPI-facing types: ranks, tags, sources, statuses, datatypes and
//! reduction operators.

use std::fmt;

/// A rank within a communicator.
pub type Rank = usize;

/// A message tag.
pub type Tag = u32;

/// Receive-source selector (`MPI_ANY_SOURCE` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match a specific rank.
    Rank(Rank),
    /// Match any source. Per the paper's sequence-id design, an
    /// any-source receive locks sequence assignment for later receives
    /// until it is matched (§IV-B3).
    Any,
}

/// Receive-tag selector (`MPI_ANY_TAG` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    Tag(Tag),
    Any,
}

impl Src {
    pub fn matches(self, rank: Rank) -> bool {
        match self {
            Src::Rank(r) => r == rank,
            Src::Any => true,
        }
    }
}

impl TagSel {
    pub fn matches(self, tag: Tag) -> bool {
        match self {
            TagSel::Tag(t) => t == tag,
            TagSel::Any => true,
        }
    }
}

/// Completion status of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// The matched sender.
    pub source: Rank,
    /// The matched tag.
    pub tag: Tag,
    /// Bytes actually received.
    pub len: u64,
}

/// A non-blocking request handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(pub u64);

/// Which transport operation a [`MpiError::Transport`] failure happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportOp {
    /// Eager packet ring write.
    EagerWrite,
    /// Control packet ring write (RTS/RTR/completion traffic).
    CtrlWrite,
    /// Rendezvous sender-first RDMA READ (receiver side).
    RndvRead,
    /// Rendezvous receiver-first RDMA WRITE (sender side).
    RndvWrite,
}

impl fmt::Display for TransportOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportOp::EagerWrite => write!(f, "eager ring write"),
            TransportOp::CtrlWrite => write!(f, "control ring write"),
            TransportOp::RndvRead => write!(f, "rendezvous RDMA read"),
            TransportOp::RndvWrite => write!(f, "rendezvous RDMA write"),
        }
    }
}

/// MPI-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Message longer than the posted receive buffer (truncation). The
    /// paper: "The sending data should be larger than the receiving data
    /// so the receiver will issue an MPI error" (§IV-B3).
    Truncated { got: u64, capacity: u64 },
    /// Rank out of range.
    BadRank(Rank),
    /// Unknown request handle (already completed or never issued).
    BadRequest,
    /// Resource exhaustion (e.g. Phi memory for staging).
    OutOfMemory,
    /// A bounded engine table (requests, inflight WRs) is full. Unlike
    /// [`MpiError::OutOfMemory`] this is backpressure, not a fatal
    /// condition: the caller should drive progress and retry.
    ResourceExhausted,
    /// A transport operation owned by this request failed permanently
    /// (fatal completion status, or transient errors past `retry_limit`).
    /// Only the owning request fails; the rank and all other traffic
    /// stay alive.
    Transport {
        status: verbs::WcStatus,
        op: TransportOp,
        /// Completed post attempts, including the first.
        attempts: u32,
    },
    /// The remote end of this transfer hit a permanent transport fault
    /// (we received its NACK); `peer` is the remote rank and `seq` the
    /// pair sequence id of the dead message.
    RemoteTransport { peer: Rank, seq: u64 },
    /// The peer rank has been detected as failed (heartbeat staleness
    /// past the dead line, or a QP toward it flushed): the operation can
    /// never complete. ULFM `MPI_ERR_PROC_FAILED` analogue.
    PeerFailed(Rank),
    /// The communicator was revoked (`Comm::revoke()`): pending and new
    /// operations drain with this error until `Comm::shrink()` rebuilds
    /// a surviving-ranks world. ULFM `MPI_ERR_REVOKED` analogue.
    Revoked,
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Truncated { got, capacity } => {
                write!(
                    f,
                    "message truncated: {got} bytes into a {capacity}-byte buffer"
                )
            }
            MpiError::BadRank(r) => write!(f, "rank {r} out of range"),
            MpiError::BadRequest => write!(f, "unknown request handle"),
            MpiError::OutOfMemory => write!(f, "out of simulated memory"),
            MpiError::ResourceExhausted => {
                write!(f, "engine table exhausted; progress and retry")
            }
            MpiError::Transport {
                status,
                op,
                attempts,
            } => {
                write!(f, "{op} failed with {status:?} after {attempts} attempt(s)")
            }
            MpiError::RemoteTransport { peer, seq } => {
                write!(
                    f,
                    "remote transport failure at rank {peer} (pair seq {seq})"
                )
            }
            MpiError::PeerFailed(r) => write!(f, "peer rank {r} failed"),
            MpiError::Revoked => write!(f, "communicator revoked"),
        }
    }
}

impl std::error::Error for MpiError {}

/// Element datatypes for collectives with arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datatype {
    U8,
    I32,
    I64,
    F32,
    F64,
}

impl Datatype {
    pub fn size(self) -> u64 {
        match self {
            Datatype::U8 => 1,
            Datatype::I32 | Datatype::F32 => 4,
            Datatype::I64 | Datatype::F64 => 8,
        }
    }
}

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    /// Combine `b` into `a` elementwise, interpreting both as `dtype`.
    pub fn apply(self, dtype: Datatype, a: &mut [u8], b: &[u8]) {
        assert_eq!(a.len(), b.len(), "reduce length mismatch");
        let es = dtype.size() as usize;
        assert_eq!(
            a.len() % es,
            0,
            "reduce buffer not a whole number of elements"
        );
        match dtype {
            Datatype::U8 => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = combine_int(self, u64::from(*x), u64::from(*y)) as u8;
                }
            }
            Datatype::I32 => each_chunk(a, b, 4, |x, y| {
                let xv = i32::from_le_bytes(x.try_into().unwrap());
                let yv = i32::from_le_bytes(y.try_into().unwrap());
                let r = match self {
                    ReduceOp::Sum => xv.wrapping_add(yv),
                    ReduceOp::Min => xv.min(yv),
                    ReduceOp::Max => xv.max(yv),
                };
                x.copy_from_slice(&r.to_le_bytes());
            }),
            Datatype::I64 => each_chunk(a, b, 8, |x, y| {
                let xv = i64::from_le_bytes(x.try_into().unwrap());
                let yv = i64::from_le_bytes(y.try_into().unwrap());
                let r = match self {
                    ReduceOp::Sum => xv.wrapping_add(yv),
                    ReduceOp::Min => xv.min(yv),
                    ReduceOp::Max => xv.max(yv),
                };
                x.copy_from_slice(&r.to_le_bytes());
            }),
            Datatype::F32 => each_chunk(a, b, 4, |x, y| {
                let xv = f32::from_le_bytes(x.try_into().unwrap());
                let yv = f32::from_le_bytes(y.try_into().unwrap());
                let r = match self {
                    ReduceOp::Sum => xv + yv,
                    ReduceOp::Min => xv.min(yv),
                    ReduceOp::Max => xv.max(yv),
                };
                x.copy_from_slice(&r.to_le_bytes());
            }),
            Datatype::F64 => each_chunk(a, b, 8, |x, y| {
                let xv = f64::from_le_bytes(x.try_into().unwrap());
                let yv = f64::from_le_bytes(y.try_into().unwrap());
                let r = match self {
                    ReduceOp::Sum => xv + yv,
                    ReduceOp::Min => xv.min(yv),
                    ReduceOp::Max => xv.max(yv),
                };
                x.copy_from_slice(&r.to_le_bytes());
            }),
        }
    }
}

fn combine_int(op: ReduceOp, a: u64, b: u64) -> u64 {
    match op {
        ReduceOp::Sum => a.wrapping_add(b),
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
    }
}

fn each_chunk(a: &mut [u8], b: &[u8], es: usize, mut f: impl FnMut(&mut [u8], &[u8])) {
    for (x, y) in a.chunks_exact_mut(es).zip(b.chunks_exact(es)) {
        f(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagsel_matching() {
        assert!(TagSel::Any.matches(7));
        assert!(TagSel::Tag(7).matches(7));
        assert!(!TagSel::Tag(7).matches(8));
    }

    #[test]
    fn reduce_f64_sum() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..4 {
            a.extend_from_slice(&(i as f64).to_le_bytes());
            b.extend_from_slice(&(10.0 * i as f64).to_le_bytes());
        }
        ReduceOp::Sum.apply(Datatype::F64, &mut a, &b);
        for i in 0..4 {
            let v = f64::from_le_bytes(a[i * 8..(i + 1) * 8].try_into().unwrap());
            assert_eq!(v, 11.0 * i as f64);
        }
    }

    #[test]
    fn reduce_i32_minmax() {
        let mut a = (5i32).to_le_bytes().to_vec();
        let b = (3i32).to_le_bytes().to_vec();
        ReduceOp::Min.apply(Datatype::I32, &mut a, &b);
        assert_eq!(i32::from_le_bytes(a.clone().try_into().unwrap()), 3);
        ReduceOp::Max.apply(Datatype::I32, &mut a, &b);
        assert_eq!(i32::from_le_bytes(a.try_into().unwrap()), 3);
    }

    #[test]
    fn reduce_u8_sum_wraps() {
        let mut a = vec![250u8];
        ReduceOp::Sum.apply(Datatype::U8, &mut a, &[10u8]);
        assert_eq!(a[0], 4); // wrapping
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(Datatype::U8.size(), 1);
        assert_eq!(Datatype::F32.size(), 4);
        assert_eq!(Datatype::F64.size(), 8);
        assert_eq!(Datatype::I64.size(), 8);
    }
}
