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

use std::collections::HashMap;
use std::sync::Arc;

use fabric::{Buffer, Cluster, Domain, MemRef, NodeId, Transfer};
use parking_lot::Mutex;
use simcore::{Ctx, Mailbox, SimDuration, SimTime};

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

struct ListenerInner {
    pending: Mailbox<ScifEndpoint>,
}

struct FabState {
    listeners: HashMap<(NodeId, Domain, Port), Arc<ListenerInner>>,
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

    /// Open a listening port at `local`.
    pub fn listen(self: &Arc<Self>, local: MemRef, port: Port) -> ScifListener {
        let inner = Arc::new(ListenerInner {
            pending: Mailbox::new(),
        });
        self.state
            .lock()
            .listeners
            .insert((local.node, local.domain, port), inner.clone());
        ScifListener {
            fabric: self.clone(),
            inner,
        }
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

        // Two unidirectional message lanes.
        let a_to_b: Mailbox<Vec<u8>> = Mailbox::new();
        let b_to_a: Mailbox<Vec<u8>> = Mailbox::new();
        let my_end = ScifEndpoint {
            cluster: self.cluster.clone(),
            local,
            peer,
            tx: a_to_b.clone(),
            rx: b_to_a.clone(),
        };
        let their_end = ScifEndpoint {
            cluster: self.cluster.clone(),
            local: peer,
            peer: local,
            tx: b_to_a,
            rx: a_to_b,
        };
        // Handshake: one message latency each way.
        let lat = self.cluster.config().cost.scif_msg_latency;
        ctx.sleep(lat * 2);
        let sched = ctx.scheduler();
        listener.pending.send(&sched, their_end);
        Ok(my_end)
    }
}

/// A listening SCIF port.
pub struct ScifListener {
    #[allow(dead_code)]
    fabric: Arc<ScifFabric>,
    inner: Arc<ListenerInner>,
}

impl ScifListener {
    /// Block until a peer connects; returns the accepted endpoint.
    pub fn accept(&self, ctx: &mut Ctx) -> ScifEndpoint {
        self.inner.pending.recv(ctx)
    }
}

/// One side of an established SCIF connection. Cloning yields a second
/// handle onto the *same* connection (shared message lanes) so auxiliary
/// processes — e.g. a heartbeat daemon — can send on an endpoint owned by
/// another process.
#[derive(Clone)]
pub struct ScifEndpoint {
    cluster: Arc<Cluster>,
    local: MemRef,
    peer: MemRef,
    tx: Mailbox<Vec<u8>>,
    rx: Mailbox<Vec<u8>>,
}

impl std::fmt::Debug for ScifEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScifEndpoint")
            .field("local", &self.local)
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

impl ScifEndpoint {
    pub fn local(&self) -> MemRef {
        self.local
    }

    pub fn peer(&self) -> MemRef {
        self.peer
    }

    /// Send a control message. Delivery is charged the SCIF message latency
    /// plus ring-copy serialization; the *caller* only pays its local copy
    /// into the ring (send returns before delivery, like `scif_send`).
    pub fn send(&self, ctx: &mut Ctx, data: &[u8]) {
        let cost = &self.cluster.config().cost;
        let copy = simcore::transfer_time(data.len() as u64, cost.scif_msg_bw);
        ctx.sleep(cost.cpu_op(self.local.domain));
        let arrive = ctx.now() + cost.scif_msg_latency + copy;
        self.tx
            .send_at(self.cluster.scheduler(), arrive, data.to_vec());
    }

    /// Blocking receive of one message.
    pub fn recv(&self, ctx: &mut Ctx) -> Vec<u8> {
        let cost = self.cluster.config().cost.clone();
        let msg = self.rx.recv(ctx);
        ctx.sleep(cost.cpu_op(self.local.domain));
        msg
    }

    /// Blocking receive that gives up after `timeout`: returns `None` if no
    /// message arrived by then. The timeout wake and the message wake share
    /// one block epoch, so an abandoned wait can never fire later.
    pub fn recv_timeout(&self, ctx: &mut Ctx, timeout: SimDuration) -> Option<Vec<u8>> {
        let cost = self.cluster.config().cost.clone();
        let deadline = ctx.now() + timeout;
        let msg = self.rx.recv_deadline(ctx, deadline)?;
        ctx.sleep(cost.cpu_op(self.local.domain));
        Some(msg)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.rx.try_recv()
    }

    /// RMA write: DMA `local_buf` into `remote_buf` (peer domain, same
    /// node) through the PCIe DMA engine. Returns the in-flight transfer.
    pub fn writeto(&self, ctx: &mut Ctx, local_buf: &Buffer, remote_buf: &Buffer) -> Transfer {
        assert_eq!(local_buf.mem, self.local, "writeto source must be local");
        assert_eq!(remote_buf.mem, self.peer, "writeto target must be the peer");
        self.cluster.pci_dma(local_buf, remote_buf, ctx.now())
    }

    /// RMA read: DMA `remote_buf` (peer domain) into `local_buf`.
    pub fn readfrom(&self, ctx: &mut Ctx, local_buf: &Buffer, remote_buf: &Buffer) -> Transfer {
        assert_eq!(local_buf.mem, self.local, "readfrom target must be local");
        assert_eq!(
            remote_buf.mem, self.peer,
            "readfrom source must be the peer"
        );
        self.cluster.pci_dma(remote_buf, local_buf, ctx.now())
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
        let cost = &self.cluster.config().cost;
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
