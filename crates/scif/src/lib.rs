//! # scif — SCIF-like host↔co-processor communication endpoints
//!
//! The Intel MPSS ships the Symmetric Communication Interface (SCIF) as the
//! "communication backbone between the host processors and the Xeon Phi
//! co-processors" (§III-A). This crate provides the simulated equivalent:
//!
//! * port-based connection establishment between the host and Phi sides of
//!   a node ([`ScifFabric::listen`] / [`ScifFabric::connect`]);
//! * message-oriented [`ScifEndpoint::send`]/[`ScifEndpoint::recv`]
//!   (kernel-mediated ring-buffer messaging — higher latency than the raw
//!   DMA engine, used for control traffic);
//! * registered-window RMA ([`ScifEndpoint::writeto`] /
//!   [`ScifEndpoint::readfrom`]) riding the PCIe DMA engine with real
//!   channel contention.
//!
//! The DCFA command channel and the Intel-MPI-on-Phi proxy path (HCA proxy
//! + host IB proxy daemon) are both built on these endpoints.
//!
//! # Two delivery styles
//!
//! A message is delivered by one scheduler event at its arrival instant.
//! What that event does is the receiver's choice:
//!
//! * **process style** — the receiver is a simulated process: the message
//!   is queued and the process takes it with [`ScifListener::accept`] /
//!   [`ScifEndpoint::recv`] / [`ScifEndpoint::recv_timeout`], parking
//!   until there is one. Code that runs *as a program* on one side (an
//!   MPI rank's command client, a proxy daemon's loop) reads this way.
//! * **sink style** — the receiver is state, not a process: a listener
//!   opened with [`ScifFabric::listen_with`] hands each accepted endpoint
//!   to a callback, and an endpoint given a sink with
//!   [`ScifEndpoint::on_recv`] has the delivery event call it with the
//!   message. A sink charges its own receive work and answers with
//!   [`ScifEndpoint::send_from`]. The DCFA daemon is served this way: a
//!   command costs no coroutine and no hand-off.
//!
//! Either way a message up to [`INLINE_MAX`] bytes travels inside its
//! delivery event; only longer ones take a heap block.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use fabric::{Buffer, Cluster, Domain, MemRef, NodeId, Transfer};
use parking_lot::Mutex;
use simcore::{Ctx, Mailbox, Scheduler, SimDuration, SimTime};

/// A SCIF port number.
pub type Port = u16;

/// Error returned by [`ScifFabric::connect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScifError {
    /// No listener on the requested (node, domain, port).
    ConnectionRefused {
        node: NodeId,
        domain: Domain,
        port: Port,
    },
    /// SCIF endpoints connect the two domains of one node.
    CrossNode,
}

impl std::fmt::Display for ScifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScifError::ConnectionRefused { node, domain, port } => {
                write!(f, "connection refused at {node}/{domain}:{port}")
            }
            ScifError::CrossNode => write!(f, "SCIF endpoints must be on the same node"),
        }
    }
}

impl std::error::Error for ScifError {}

/// Longest message carried inline in its delivery event.
pub const INLINE_MAX: usize = 64;

/// A message in flight or queued: by value when it fits.
enum Msg {
    Inline { len: u8, bytes: [u8; INLINE_MAX] },
    Heap(Vec<u8>),
}

impl Msg {
    fn new(data: &[u8]) -> Msg {
        if data.len() > INLINE_MAX {
            return Msg::Heap(data.to_vec());
        }
        let mut bytes = [0; INLINE_MAX];
        bytes[..data.len()].copy_from_slice(data);
        Msg::Inline {
            len: data.len() as u8,
            bytes,
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Msg::Inline { len, bytes } => &bytes[..*len as usize],
            Msg::Heap(v) => v,
        }
    }

    fn into_vec(self) -> Vec<u8> {
        match self {
            Msg::Heap(v) => v,
            inline => inline.as_slice().to_vec(),
        }
    }
}

/// Called with each endpoint a sink-style listener accepts, at the instant
/// the connection is established.
type AcceptSink = Box<dyn Fn(&Scheduler, ScifEndpoint) + Send + Sync>;

/// Called by the delivery event with the receiving endpoint and the message.
type RecvSink = Box<dyn Fn(&Scheduler, &ScifEndpoint, &[u8]) + Send + Sync>;

/// Where a listener's accepted endpoints go.
enum Accepted {
    Queue(Mailbox<ScifEndpoint>),
    Sink(AcceptSink),
}

struct FabState {
    listeners: HashMap<(NodeId, Domain, Port), Arc<Accepted>>,
}

/// Registry of SCIF listeners across the cluster.
pub struct ScifFabric {
    cluster: Arc<Cluster>,
    state: Mutex<FabState>,
}

impl ScifFabric {
    pub fn new(cluster: Arc<Cluster>) -> Arc<ScifFabric> {
        Arc::new(ScifFabric {
            cluster,
            state: Mutex::new(FabState {
                listeners: HashMap::new(),
            }),
        })
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Open a listening port at `local`, process style: a process takes
    /// the connections with [`ScifListener::accept`].
    pub fn listen(self: &Arc<Self>, local: MemRef, port: Port) -> ScifListener {
        let pending = Mailbox::new();
        self.open(local, port, Accepted::Queue(pending.clone()));
        ScifListener { pending }
    }

    /// Open a listening port at `local`, sink style: `on_accept` is called
    /// with each accepted endpoint at the instant its connect completes
    /// (in the connecting process's context — it must not block).
    pub fn listen_with(
        &self,
        local: MemRef,
        port: Port,
        on_accept: impl Fn(&Scheduler, ScifEndpoint) + Send + Sync + 'static,
    ) {
        self.open(local, port, Accepted::Sink(Box::new(on_accept)));
    }

    fn open(&self, local: MemRef, port: Port, accepted: Accepted) {
        self.state
            .lock()
            .listeners
            .insert((local.node, local.domain, port), Arc::new(accepted));
    }

    /// Close a listening port at `local`: later connects are refused. The
    /// pending queue of an already-accepted listener is unaffected; this
    /// models a daemon process dying while the kernel tears its port down.
    pub fn unlisten(&self, local: MemRef, port: Port) {
        self.state
            .lock()
            .listeners
            .remove(&(local.node, local.domain, port));
    }

    /// Connect from `local` to a listener at the *other* domain of the same
    /// node. Charges one control-message round trip.
    pub fn connect(
        self: &Arc<Self>,
        ctx: &mut Ctx,
        local: MemRef,
        peer_domain: Domain,
        port: Port,
    ) -> Result<ScifEndpoint, ScifError> {
        if peer_domain == local.domain {
            return Err(ScifError::CrossNode);
        }
        let peer = MemRef {
            node: local.node,
            domain: peer_domain,
        };
        let listener = self
            .state
            .lock()
            .listeners
            .get(&(peer.node, peer.domain, port))
            .cloned()
            .ok_or(ScifError::ConnectionRefused {
                node: peer.node,
                domain: peer.domain,
                port,
            })?;

        let conn = Arc::new(Conn {
            cluster: self.cluster.clone(),
            ends: [local, peer],
            lanes: [Lane::default(), Lane::default()],
        });
        let my_end = ScifEndpoint {
            conn: conn.clone(),
            side: 0,
        };
        let their_end = ScifEndpoint { conn, side: 1 };
        // Handshake: one message latency each way.
        let lat = self.cluster.config().cost.scif_msg_latency;
        ctx.sleep(lat * 2);
        let sched = ctx.scheduler();
        match &*listener {
            Accepted::Queue(pending) => pending.send(&sched, their_end),
            Accepted::Sink(on_accept) => on_accept(&sched, their_end),
        }
        Ok(my_end)
    }
}

/// A listening SCIF port whose connections a process accepts.
pub struct ScifListener {
    pending: Mailbox<ScifEndpoint>,
}

impl ScifListener {
    /// Block until a peer connects; returns the accepted endpoint.
    pub fn accept(&self, ctx: &mut Ctx) -> ScifEndpoint {
        self.pending.recv(ctx)
    }
}

/// Messages on their way to one side of a connection: queued for a
/// process, or handed to the side's sink if it installed one.
#[derive(Default)]
struct Lane {
    queue: Mailbox<Msg>,
    sink: OnceLock<RecvSink>,
}

/// An established connection: two ends, one lane toward each.
struct Conn {
    cluster: Arc<Cluster>,
    ends: [MemRef; 2],
    /// `lanes[side]` carries the messages addressed to `ends[side]`.
    lanes: [Lane; 2],
}

/// One side of an established SCIF connection. Cloning yields a second
/// handle onto the *same* connection (shared message lanes) so auxiliary
/// senders — e.g. a heartbeat tick — can send on an endpoint owned by
/// another process.
#[derive(Clone)]
pub struct ScifEndpoint {
    conn: Arc<Conn>,
    side: usize,
}

impl std::fmt::Debug for ScifEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScifEndpoint")
            .field("local", &self.local())
            .field("peer", &self.peer())
            .finish_non_exhaustive()
    }
}

impl ScifEndpoint {
    pub fn local(&self) -> MemRef {
        self.conn.ends[self.side]
    }

    pub fn peer(&self) -> MemRef {
        self.conn.ends[1 - self.side]
    }

    fn cost(&self) -> &fabric::CostModel {
        &self.conn.cluster.config().cost
    }

    /// Send a control message. Delivery is charged the SCIF message latency
    /// plus ring-copy serialization; the *caller* only pays its local copy
    /// into the ring (send returns before delivery, like `scif_send`).
    pub fn send(&self, ctx: &mut Ctx, data: &[u8]) {
        ctx.sleep(self.cost().cpu_op(self.local().domain));
        self.send_from(ctx.now(), data);
    }

    /// [`ScifEndpoint::send`] for a sender that is not a process: the
    /// message leaves this side's ring at `depart` — the caller has
    /// accounted for its own copy into it — and is delivered one message
    /// latency plus ring-copy serialization later.
    pub fn send_from(&self, depart: SimTime, data: &[u8]) {
        let to = ScifEndpoint {
            conn: self.conn.clone(),
            side: 1 - self.side,
        };
        let msg = Msg::new(data);
        self.conn
            .cluster
            .scheduler()
            .call_at(depart + self.message_cost(data.len()), move |s| {
                let lane = &to.conn.lanes[to.side];
                match lane.sink.get() {
                    Some(sink) => sink(s, &to, msg.as_slice()),
                    None => lane.queue.send(s, msg),
                }
            });
    }

    /// Receive sink style from now on: every message that arrives is
    /// passed, with this endpoint, to `sink` by the event that delivers
    /// it; nothing is queued and `recv` must not be used. The sink models
    /// the receive work itself ([`fabric::CostModel::cpu_op`] is what
    /// [`ScifEndpoint::recv`] charges). Install it before the peer can
    /// have sent — at accept.
    ///
    /// # Panics
    /// If this side already has a sink.
    pub fn on_recv(&self, sink: impl Fn(&Scheduler, &ScifEndpoint, &[u8]) + Send + Sync + 'static) {
        let installed = self.conn.lanes[self.side].sink.set(Box::new(sink));
        assert!(installed.is_ok(), "an endpoint has one receive sink");
    }

    /// Take the next message, parking until `deadline` (forever without
    /// one), and charge the receive.
    fn take(&self, ctx: &mut Ctx, deadline: Option<SimTime>) -> Option<Msg> {
        let queue = &self.conn.lanes[self.side].queue;
        let msg = match deadline {
            Some(deadline) => queue.recv_deadline(ctx, deadline)?,
            None => queue.recv(ctx),
        };
        ctx.sleep(self.cost().cpu_op(self.local().domain));
        Some(msg)
    }

    /// Blocking receive of one message.
    pub fn recv(&self, ctx: &mut Ctx) -> Vec<u8> {
        let msg = self.take(ctx, None);
        msg.expect("a receive without a deadline waits").into_vec()
    }

    /// Blocking receive that gives up after `timeout`: returns `None` if no
    /// message arrived by then. The timeout wake and the message wake share
    /// one block epoch, so an abandoned wait can never fire later.
    pub fn recv_timeout(&self, ctx: &mut Ctx, timeout: SimDuration) -> Option<Vec<u8>> {
        self.recv_timeout_with(ctx, timeout, <[u8]>::to_vec)
    }

    /// [`ScifEndpoint::recv_timeout`] that lends the message to `read`
    /// instead of returning it: a short message is read where it arrived,
    /// with no heap block made for it.
    pub fn recv_timeout_with<R>(
        &self,
        ctx: &mut Ctx,
        timeout: SimDuration,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        let deadline = ctx.now() + timeout;
        self.take(ctx, Some(deadline)).map(|m| read(m.as_slice()))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.conn.lanes[self.side]
            .queue
            .try_recv()
            .map(Msg::into_vec)
    }

    /// RMA write: DMA `local_buf` into `remote_buf` (peer domain, same
    /// node) through the PCIe DMA engine. Returns the in-flight transfer.
    pub fn writeto(&self, ctx: &mut Ctx, local_buf: &Buffer, remote_buf: &Buffer) -> Transfer {
        assert_eq!(local_buf.mem, self.local(), "writeto source must be local");
        assert_eq!(
            remote_buf.mem,
            self.peer(),
            "writeto target must be the peer"
        );
        self.conn.cluster.pci_dma(local_buf, remote_buf, ctx.now())
    }

    /// RMA read: DMA `remote_buf` (peer domain) into `local_buf`.
    pub fn readfrom(&self, ctx: &mut Ctx, local_buf: &Buffer, remote_buf: &Buffer) -> Transfer {
        assert_eq!(local_buf.mem, self.local(), "readfrom target must be local");
        assert_eq!(
            remote_buf.mem,
            self.peer(),
            "readfrom source must be the peer"
        );
        self.conn.cluster.pci_dma(remote_buf, local_buf, ctx.now())
    }

    /// Convenience: RMA write and wait for completion. Returns when the
    /// data is visible on the peer.
    pub fn writeto_sync(&self, ctx: &mut Ctx, local_buf: &Buffer, remote_buf: &Buffer) -> SimTime {
        let t = self.writeto(ctx, local_buf, remote_buf);
        ctx.wait_reason(&t.completion, "scif writeto");
        t.end
    }

    /// Convenience: RMA read and wait for completion.
    pub fn readfrom_sync(&self, ctx: &mut Ctx, local_buf: &Buffer, remote_buf: &Buffer) -> SimTime {
        let t = self.readfrom(ctx, local_buf, remote_buf);
        ctx.wait_reason(&t.completion, "scif readfrom");
        t.end
    }

    /// One-way control-message cost for `len` bytes (for modeling layers).
    pub fn message_cost(&self, len: usize) -> SimDuration {
        let cost = self.cost();
        cost.scif_msg_latency + simcore::transfer_time(len as u64, cost.scif_msg_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::ClusterConfig;
    use simcore::Simulation;

    fn setup() -> (Simulation, Arc<ScifFabric>) {
        let sim = Simulation::new();
        let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
        let fabric = ScifFabric::new(cluster);
        (sim, fabric)
    }

    fn host(n: usize) -> MemRef {
        MemRef {
            node: NodeId(n),
            domain: Domain::Host,
        }
    }

    fn phi(n: usize) -> MemRef {
        MemRef {
            node: NodeId(n),
            domain: Domain::Phi,
        }
    }

    #[test]
    fn connect_accept_send_recv() {
        let (mut sim, fabric) = setup();
        let f1 = fabric.clone();
        sim.spawn("host-daemon", move |ctx| {
            let listener = f1.listen(host(0), 1);
            let ep = listener.accept(ctx);
            let msg = ep.recv(ctx);
            assert_eq!(msg, b"reg_mr request");
            ep.send(ctx, b"reg_mr reply");
        });
        let f2 = fabric.clone();
        sim.spawn("phi-client", move |ctx| {
            // Give the listener a chance to be installed at t=0 first.
            ctx.yield_now();
            let ep = f2.connect(ctx, phi(0), Domain::Host, 1).unwrap();
            let t0 = ctx.now();
            ep.send(ctx, b"reg_mr request");
            let reply = ep.recv(ctx);
            assert_eq!(reply, b"reg_mr reply");
            // A round trip costs at least two message latencies.
            let min = f2.cluster().config().cost.scif_msg_latency * 2;
            assert!(ctx.now() - t0 >= min);
        });
        sim.run_expect();
    }

    /// Round-trip time of `msg` through a host-side echo, as the client
    /// sees it on the last of its `ROUNDS` round trips.
    fn echo_rtt(sink_style: bool, msg: &'static [u8]) -> SimDuration {
        const ROUNDS: usize = 3;
        let (mut sim, fabric) = setup();
        if sink_style {
            // The sink pays what the process below pays by sleeping: a
            // `cpu_op` to receive and one to send.
            let work = fabric.cluster().config().cost.cpu_op(Domain::Host) * 2;
            fabric.listen_with(host(0), 1, move |_, ep| {
                ep.on_recv(move |s, ep, msg| ep.send_from(s.now() + work, msg));
            });
        } else {
            let listener = fabric.listen(host(0), 1);
            sim.spawn("echo", move |ctx| {
                let ep = listener.accept(ctx);
                for _ in 0..ROUNDS {
                    let msg = ep.recv(ctx);
                    ep.send(ctx, &msg);
                }
            });
        }
        let rtt = Arc::new(Mutex::new(None));
        let rtt2 = rtt.clone();
        sim.spawn("client", move |ctx| {
            let ep = fabric.connect(ctx, phi(0), Domain::Host, 1).unwrap();
            for _ in 0..ROUNDS {
                let t0 = ctx.now();
                ep.send(ctx, msg);
                let wait = SimDuration::from_millis(1);
                let same = ep.recv_timeout_with(ctx, wait, |reply| reply == msg);
                assert_eq!(same, Some(true), "echoed intact");
                *rtt2.lock() = Some(ctx.now() - t0);
            }
        });
        sim.run_expect();
        let rtt = rtt.lock().expect("the client finished");
        rtt
    }

    #[test]
    fn a_sink_serves_at_the_instants_a_process_would() {
        let short = b"reg_mr request";
        assert_eq!(echo_rtt(true, short), echo_rtt(false, short));
        // Past the inline capacity the message takes a heap block, and
        // nothing else changes.
        const LONG: [u8; 3 * INLINE_MAX] = [0xA5; 3 * INLINE_MAX];
        assert_eq!(echo_rtt(true, &LONG), echo_rtt(false, &LONG));
        assert!(echo_rtt(true, &LONG) > echo_rtt(true, short));
    }

    #[test]
    fn connect_to_missing_port_refused() {
        let (mut sim, fabric) = setup();
        sim.spawn("phi-client", move |ctx| {
            let err = fabric.connect(ctx, phi(0), Domain::Host, 99).unwrap_err();
            assert!(matches!(err, ScifError::ConnectionRefused { .. }));
        });
        sim.run_expect();
    }

    #[test]
    fn same_domain_connect_rejected() {
        let (mut sim, fabric) = setup();
        sim.spawn("p", move |ctx| {
            let err = fabric.connect(ctx, host(0), Domain::Host, 1).unwrap_err();
            assert_eq!(err, ScifError::CrossNode);
        });
        sim.run_expect();
    }

    #[test]
    fn recv_timeout_expires_then_delivers() {
        let (mut sim, fabric) = setup();
        let f1 = fabric.clone();
        sim.spawn("host-daemon", move |ctx| {
            let listener = f1.listen(host(0), 5);
            let ep = listener.accept(ctx);
            // Stay silent past the client's first deadline, then answer.
            ctx.sleep(SimDuration::from_micros(50));
            ep.send(ctx, b"late reply");
            let _ = ep.recv(ctx); // keep endpoint alive until client is done
        });
        let f2 = fabric.clone();
        sim.spawn("phi-client", move |ctx| {
            ctx.yield_now();
            let ep = f2.connect(ctx, phi(0), Domain::Host, 5).unwrap();
            let t0 = ctx.now();
            assert_eq!(ep.recv_timeout(ctx, SimDuration::from_micros(10)), None);
            assert_eq!(ctx.now() - t0, SimDuration::from_micros(10));
            let msg = ep.recv_timeout(ctx, SimDuration::from_micros(100));
            assert_eq!(msg.as_deref(), Some(&b"late reply"[..]));
            ep.send(ctx, b"bye");
        });
        sim.run_expect();
    }

    #[test]
    fn unlisten_refuses_new_connects() {
        let (mut sim, fabric) = setup();
        sim.spawn("p", move |ctx| {
            let listener = fabric.listen(host(0), 9);
            fabric.unlisten(host(0), 9);
            let err = fabric.connect(ctx, phi(0), Domain::Host, 9).unwrap_err();
            assert!(matches!(err, ScifError::ConnectionRefused { .. }));
            // Re-listen restores service on the same port.
            let listener2 = fabric.listen(host(0), 9);
            assert!(fabric.connect(ctx, phi(0), Domain::Host, 9).is_ok());
            let _ = (listener, listener2);
        });
        sim.run_expect();
    }

    #[test]
    fn rma_write_and_read_move_bytes() {
        let (mut sim, fabric) = setup();
        let f1 = fabric.clone();
        sim.spawn("host", move |ctx| {
            let listener = f1.listen(host(0), 7);
            let ep = listener.accept(ctx);
            // Wait for the phi side to tell us the RMA is done.
            let done = ep.recv(ctx);
            assert_eq!(done, b"written");
        });
        let f2 = fabric.clone();
        sim.spawn("phi", move |ctx| {
            ctx.yield_now();
            let cl = f2.cluster().clone();
            let ep = f2.connect(ctx, phi(0), Domain::Host, 7).unwrap();
            let src = cl.alloc_pages(phi(0), 8192).unwrap();
            let dst = cl.alloc_pages(host(0), 8192).unwrap();
            cl.write(&src, 0, &[9u8; 8192]);
            let end = ep.writeto_sync(ctx, &src, &dst);
            assert_eq!(ctx.now(), end);
            assert_eq!(cl.read_vec(&dst), vec![9u8; 8192]);
            // And read back.
            cl.write(&dst, 0, &[4u8; 8192]);
            ep.readfrom_sync(ctx, &src, &dst);
            assert_eq!(cl.read_vec(&src), vec![4u8; 8192]);
            ep.send(ctx, b"written");
        });
        sim.run_expect();
    }

    #[test]
    fn message_cost_scales_with_len() {
        let (mut sim, fabric) = setup();
        sim.spawn("p", move |ctx| {
            let f = fabric.clone();
            let listener = f.listen(host(0), 3);
            let _ = listener;
            let ep = f.connect(ctx, phi(0), Domain::Host, 3);
            // connect succeeded because we listen on the same process.
            let ep = ep.unwrap();
            assert!(ep.message_cost(1 << 20) > ep.message_cost(64));
        });
        sim.run_expect();
    }
}
