//! Binary codec for the DCFA command channel (Phi CMD client → host CMD
//! server). Commands are small fixed-layout messages: one tag byte followed
//! by little-endian fields, mirroring the paper's "command mechanism ...
//! for offloading these requests to a host delegation process" (§IV-B1).
//!
//! On the wire every command is framed with a client-assigned sequence id
//! and every reply echoes that id plus the daemon's incarnation epoch
//! ([`cmd_frame`]/[`reply_frame`]): sequence ids let the daemon deduplicate
//! retransmissions (a timed-out command is answered from a reply cache,
//! never re-executed), and the epoch lets a client detect that the daemon
//! restarted underneath it and replay its resource journal.
//!
//! Everything encodes in place into a [`Frame`], a fixed buffer on the
//! caller's stack: the largest frame is 29 bytes, and the command channel
//! makes no heap block for one.

use fabric::{Domain, MemRef, NodeId};

/// Sequence id used by unsequenced frames (heartbeats, error replies to
/// undecodable commands). Never dedup-cached.
pub const SEQ_NONE: u32 = u32::MAX;

/// `Cmd::Hello { client }` value asking the daemon to assign a fresh
/// client id (first attach); re-attaching clients send their assigned id.
pub const CLIENT_NONE: u32 = u32::MAX;

/// Commands sent from the Phi-side CMD client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cmd {
    /// Initial handshake after connecting (HCA init / resource setup).
    /// `client` is [`CLIENT_NONE`] on first attach (daemon assigns an id in
    /// [`Reply::Hello`]) or the previously assigned id on re-attach.
    Hello { client: u32 },
    /// Register `len` bytes at `addr` in `mem` as an InfiniBand MR. The
    /// client has already translated virtual→physical (charged separately).
    RegMr { mem: MemRef, addr: u64, len: u64 },
    /// Deregister an MR by key.
    DeregMr { key: u32 },
    /// Allocate QP resources on the host side (timing; structures are
    /// distributed between host and Phi memory).
    CreateQp,
    /// Allocate CQ resources on the host side.
    CreateCq,
    /// Allocate and register a host twin buffer of `len` bytes for the
    /// offloading-send-buffer mode (paper §IV-B4, `reg_offload_mr`).
    RegOffloadMr { len: u64 },
    /// Tear down an offload twin buffer (`dereg_offload_mr`).
    DeregOffloadMr { key: u32 },
    /// Client is going away.
    Bye,
    /// Liveness beacon renewing the client's lease. Fire-and-forget: the
    /// daemon does not reply, so a sidecar heartbeat process can share the
    /// endpoint without stealing command replies.
    Heartbeat,
    /// Journal replay after a daemon respawn: re-adopt the control-plane
    /// metadata for MR `key`, which survived the crash on the HCA (IB
    /// objects live in the kernel driver, not the delegation process).
    AdoptMr { key: u32 },
}

/// Replies from the host CMD server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Ok,
    /// MR registered under `key`.
    MrKey {
        key: u32,
    },
    /// Offload twin registered: host-side key and buffer address.
    Offload {
        key: u32,
        host_addr: u64,
        host_len: u64,
    },
    /// Command failed (e.g. host out of memory).
    Error {
        code: u8,
    },
    /// Handshake accepted: the client id to use from now on (assigned fresh
    /// when the client sent [`CLIENT_NONE`]).
    Hello {
        client: u32,
    },
}

/// Error codes carried by [`Reply::Error`].
pub mod err_code {
    pub const OOM: u8 = 1;
    pub const UNKNOWN_KEY: u8 = 2;
    pub const BAD_REQUEST: u8 = 3;
    /// The client's lease expired and its session was reclaimed (or it
    /// never said Hello); it must re-attach and replay its journal.
    pub const NO_SESSION: u8 = 4;
}

/// Capacity of a [`Frame`]: the largest frame is a reply frame carrying
/// [`Reply::Offload`], 4 + 4 + 1 + 4 + 8 + 8 = 29 bytes.
pub const FRAME_MAX: usize = 32;

/// An encoded command, reply or frame, by value. Reads as its bytes.
#[derive(Clone, Copy)]
pub struct Frame {
    len: usize,
    bytes: [u8; FRAME_MAX],
}

impl Frame {
    fn new() -> Frame {
        Frame {
            len: 0,
            bytes: [0; FRAME_MAX],
        }
    }

    fn put(&mut self, field: &[u8]) {
        self.bytes[self.len..self.len + field.len()].copy_from_slice(field);
        self.len += field.len();
    }

    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let bytes = self.data.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.data.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

fn domain_tag(d: Domain) -> u8 {
    match d {
        Domain::Host => 0,
        Domain::Phi => 1,
    }
}

fn domain_from(tag: u8) -> Option<Domain> {
    match tag {
        0 => Some(Domain::Host),
        1 => Some(Domain::Phi),
        _ => None,
    }
}

impl Cmd {
    pub fn encode(&self) -> Frame {
        let mut b = Frame::new();
        self.encode_into(&mut b);
        b
    }

    fn encode_into(&self, b: &mut Frame) {
        match self {
            Cmd::Hello { client } => {
                b.put_u8(0);
                b.put_u32(*client);
            }
            Cmd::RegMr { mem, addr, len } => {
                b.put_u8(1);
                b.put_u32(mem.node.0 as u32);
                b.put_u8(domain_tag(mem.domain));
                b.put_u64(*addr);
                b.put_u64(*len);
            }
            Cmd::DeregMr { key } => {
                b.put_u8(2);
                b.put_u32(*key);
            }
            Cmd::CreateQp => b.put_u8(3),
            Cmd::CreateCq => b.put_u8(4),
            Cmd::RegOffloadMr { len } => {
                b.put_u8(5);
                b.put_u64(*len);
            }
            Cmd::DeregOffloadMr { key } => {
                b.put_u8(6);
                b.put_u32(*key);
            }
            Cmd::Bye => b.put_u8(7),
            Cmd::Heartbeat => b.put_u8(9),
            Cmd::AdoptMr { key } => {
                b.put_u8(10);
                b.put_u32(*key);
            }
        }
    }

    pub fn decode(data: &[u8]) -> Option<Cmd> {
        let mut r = Reader::new(data);
        let cmd = match r.u8()? {
            0 => Cmd::Hello { client: r.u32()? },
            1 => {
                let node = NodeId(r.u32()? as usize);
                let domain = domain_from(r.u8()?)?;
                Cmd::RegMr {
                    mem: MemRef { node, domain },
                    addr: r.u64()?,
                    len: r.u64()?,
                }
            }
            2 => Cmd::DeregMr { key: r.u32()? },
            3 => Cmd::CreateQp,
            4 => Cmd::CreateCq,
            5 => Cmd::RegOffloadMr { len: r.u64()? },
            6 => Cmd::DeregOffloadMr { key: r.u32()? },
            7 => Cmd::Bye,
            9 => Cmd::Heartbeat,
            10 => Cmd::AdoptMr { key: r.u32()? },
            _ => return None,
        };
        r.done().then_some(cmd)
    }
}

/// Frame a command with its client-assigned sequence id.
pub fn cmd_frame(seq: u32, cmd: &Cmd) -> Frame {
    let mut b = Frame::new();
    b.put_u32(seq);
    cmd.encode_into(&mut b);
    b
}

/// Decode a framed command into `(seq, cmd)`.
pub fn decode_cmd_frame(data: &[u8]) -> Option<(u32, Cmd)> {
    if data.len() < 4 {
        return None;
    }
    let seq = u32::from_le_bytes(data[..4].try_into().unwrap());
    Some((seq, Cmd::decode(&data[4..])?))
}

/// Frame a reply with the sequence id it answers and the daemon's
/// incarnation epoch.
pub fn reply_frame(seq: u32, epoch: u32, reply: &Reply) -> Frame {
    let mut b = Frame::new();
    b.put_u32(seq);
    b.put_u32(epoch);
    reply.encode_into(&mut b);
    b
}

/// Decode a framed reply into `(seq, epoch, reply)`.
pub fn decode_reply_frame(data: &[u8]) -> Option<(u32, u32, Reply)> {
    if data.len() < 8 {
        return None;
    }
    let seq = u32::from_le_bytes(data[..4].try_into().unwrap());
    let epoch = u32::from_le_bytes(data[4..8].try_into().unwrap());
    Some((seq, epoch, Reply::decode(&data[8..])?))
}

impl Reply {
    pub fn encode(&self) -> Frame {
        let mut b = Frame::new();
        self.encode_into(&mut b);
        b
    }

    fn encode_into(&self, b: &mut Frame) {
        match self {
            Reply::Ok => b.put_u8(0),
            Reply::MrKey { key } => {
                b.put_u8(1);
                b.put_u32(*key);
            }
            Reply::Offload {
                key,
                host_addr,
                host_len,
            } => {
                b.put_u8(2);
                b.put_u32(*key);
                b.put_u64(*host_addr);
                b.put_u64(*host_len);
            }
            Reply::Error { code } => {
                b.put_u8(3);
                b.put_u8(*code);
            }
            Reply::Hello { client } => {
                b.put_u8(4);
                b.put_u32(*client);
            }
        }
    }

    pub fn decode(data: &[u8]) -> Option<Reply> {
        let mut r = Reader::new(data);
        let reply = match r.u8()? {
            0 => Reply::Ok,
            1 => Reply::MrKey { key: r.u32()? },
            2 => Reply::Offload {
                key: r.u32()?,
                host_addr: r.u64()?,
                host_len: r.u64()?,
            },
            3 => Reply::Error { code: r.u8()? },
            4 => Reply::Hello { client: r.u32()? },
            _ => return None,
        };
        r.done().then_some(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_cmd(c: Cmd) {
        let enc = c.encode();
        assert_eq!(Cmd::decode(&enc), Some(c));
    }

    fn roundtrip_reply(r: Reply) {
        let enc = r.encode();
        assert_eq!(Reply::decode(&enc), Some(r));
    }

    #[test]
    fn cmd_roundtrips() {
        roundtrip_cmd(Cmd::Hello {
            client: CLIENT_NONE,
        });
        roundtrip_cmd(Cmd::Hello { client: 12 });
        roundtrip_cmd(Cmd::Heartbeat);
        roundtrip_cmd(Cmd::AdoptMr { key: 99 });
        roundtrip_cmd(Cmd::RegMr {
            mem: MemRef {
                node: NodeId(3),
                domain: Domain::Phi,
            },
            addr: 0xDEAD_BEEF,
            len: 1 << 22,
        });
        roundtrip_cmd(Cmd::DeregMr { key: 42 });
        roundtrip_cmd(Cmd::CreateQp);
        roundtrip_cmd(Cmd::CreateCq);
        roundtrip_cmd(Cmd::RegOffloadMr { len: 8192 });
        roundtrip_cmd(Cmd::DeregOffloadMr { key: 17 });
        roundtrip_cmd(Cmd::Bye);
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_reply(Reply::Ok);
        roundtrip_reply(Reply::MrKey { key: 7 });
        roundtrip_reply(Reply::Offload {
            key: 9,
            host_addr: 0x1000,
            host_len: 65536,
        });
        roundtrip_reply(Reply::Error {
            code: err_code::OOM,
        });
        roundtrip_reply(Reply::Error {
            code: err_code::NO_SESSION,
        });
        roundtrip_reply(Reply::Hello { client: 3 });
    }

    #[test]
    fn frames_carry_seq_and_epoch() {
        let cmd = Cmd::RegOffloadMr { len: 4096 };
        let enc = cmd_frame(77, &cmd);
        assert_eq!(decode_cmd_frame(&enc), Some((77, cmd)));

        let reply = Reply::MrKey { key: 5 };
        let enc = reply_frame(77, 3, &reply);
        assert_eq!(decode_reply_frame(&enc), Some((77, 3, reply)));

        // Truncated frames and frames wrapping garbage are rejected.
        assert_eq!(decode_cmd_frame(&[1, 2, 3]), None);
        assert_eq!(decode_cmd_frame(&77u32.to_le_bytes()), None);
        assert_eq!(decode_reply_frame(&[0; 7]), None);
        let mut bad = reply_frame(1, 1, &Reply::Ok).to_vec();
        bad.push(0);
        assert_eq!(decode_reply_frame(&bad), None);
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        assert_eq!(Cmd::decode(&[]), None);
        assert_eq!(Cmd::decode(&[255]), None);
        let mut enc = Cmd::RegMr {
            mem: MemRef {
                node: NodeId(0),
                domain: Domain::Host,
            },
            addr: 1,
            len: 2,
        }
        .encode()
        .to_vec();
        enc.pop();
        assert_eq!(Cmd::decode(&enc), None);
        // Trailing junk rejected too.
        let mut enc = Cmd::Heartbeat.encode().to_vec();
        enc.push(0);
        assert_eq!(Cmd::decode(&enc), None);
        assert_eq!(Reply::decode(&[9, 9]), None);
    }

    #[test]
    fn bad_domain_tag_rejected() {
        let mut b = vec![1u8];
        b.extend_from_slice(&0u32.to_le_bytes());
        b.push(7); // invalid domain
        b.extend_from_slice(&0u64.to_le_bytes());
        b.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(Cmd::decode(&b), None);
    }
}
