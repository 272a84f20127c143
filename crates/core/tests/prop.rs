//! Property tests for DCFA-MPI: packet-codec roundtrips over arbitrary
//! field values and random traffic matrices delivered exactly once with
//! correct content and per-pair FIFO order.

use std::sync::Arc;

use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::{Cluster, ClusterConfig};
use proptest::prelude::*;
use scif::ScifFabric;
use simcore::{Ctx, SimCell, Simulation};
use verbs::IbFabric;

fn run_mpi<F>(nprocs: usize, f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nprocs.max(2)));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        nprocs,
        LaunchOpts::default(),
        f,
    );
    sim.run_expect();
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    size: u32,
    salt: u8,
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    // Sizes spanning eager (<=8K), offload-rendezvous and plain sizes,
    // biased small so cases stay fast.
    prop_oneof![4u32..256, 1024u32..4096, (9u32 << 10)..(64 << 10),]
        .prop_flat_map(|size| any::<u8>().prop_map(move |salt| Msg { size, salt }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_stream_delivered_in_order_with_content(
        msgs in proptest::collection::vec(msg_strategy(), 1..14)
    ) {
        let msgs = Arc::new(msgs);
        let got: Arc<SimCell<Vec<(u64, u8)>>> = Arc::new(SimCell::new(Vec::new()));
        let got2 = got.clone();
        let msgs2 = msgs.clone();
        run_mpi(2, move |ctx, comm| {
            if comm.rank() == 0 {
                for m in msgs2.iter() {
                    let buf = comm.alloc(m.size as u64).unwrap();
                    comm.write(&buf, 0, &vec![m.salt; m.size as usize]);
                    comm.send(ctx, &buf, 1, 5).unwrap();
                    comm.free(&buf);
                }
            } else {
                for m in msgs2.iter() {
                    let buf = comm.alloc(m.size as u64).unwrap();
                    let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(5)).unwrap();
                    let data = comm.read_vec(&buf);
                    assert!(data.iter().all(|&b| b == m.salt), "content mismatch");
                    got2.lock().push((st.len, data[0]));
                    comm.free(&buf);
                }
            }
        });
        let got = got.lock().clone();
        prop_assert_eq!(got.len(), msgs.len());
        for (g, m) in got.iter().zip(msgs.iter()) {
            prop_assert_eq!(g.0, m.size as u64);
            prop_assert_eq!(g.1, m.salt);
        }
    }

    #[test]
    fn nonblocking_random_order_posts_still_match(
        msgs in proptest::collection::vec(msg_strategy(), 1..8),
        recv_late in any::<bool>(),
    ) {
        // Receiver posts all receives before (or after) the sends arrive;
        // matching must be identical either way.
        let msgs = Arc::new(msgs);
        let ok = Arc::new(SimCell::new(false));
        let ok2 = ok.clone();
        let msgs2 = msgs.clone();
        run_mpi(2, move |ctx, comm| {
            let n = msgs2.len();
            if comm.rank() == 0 {
                let mut reqs = Vec::new();
                let mut bufs = Vec::new();
                for (i, m) in msgs2.iter().enumerate() {
                    let buf = comm.alloc(m.size as u64).unwrap();
                    comm.write(&buf, 0, &vec![m.salt; m.size as usize]);
                    reqs.push(comm.isend(ctx, &buf, 1, i as u32).unwrap());
                    bufs.push(buf);
                }
                comm.waitall(ctx, &reqs).unwrap();
            } else {
                if recv_late {
                    ctx.sleep(simcore::SimDuration::from_millis(3));
                }
                let mut reqs = Vec::new();
                let mut bufs = Vec::new();
                for (i, m) in msgs2.iter().enumerate() {
                    let buf = comm.alloc(m.size as u64).unwrap();
                    reqs.push(comm.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(i as u32)).unwrap());
                    bufs.push(buf);
                }
                let statuses = comm.waitall(ctx, &reqs).unwrap();
                for ((st, m), buf) in statuses.iter().zip(msgs2.iter()).zip(&bufs) {
                    assert_eq!(st.len, m.size as u64);
                    let data = comm.read_vec(buf);
                    assert!(data.iter().all(|&b| b == m.salt));
                }
                let _ = n;
                *ok2.lock() = true;
            }
        });
        prop_assert!(*ok.lock());
    }
}

// ---- codec properties (no simulation needed) --------------------------------

mod packet_codec {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dcfa_wire_cmd_roundtrip(
            node in 0u32..1024,
            domain in 0u8..2,
            addr in any::<u64>(),
            len in any::<u64>(),
            key in any::<u32>(),
        ) {
            use dcfa::wire::Cmd;
            use fabric::{Domain, MemRef, NodeId};
            let mem = MemRef {
                node: NodeId(node as usize),
                domain: if domain == 0 { Domain::Host } else { Domain::Phi },
            };
            for cmd in [
                Cmd::Hello { client: key },
                Cmd::RegMr { mem, addr, len },
                Cmd::DeregMr { key },
                Cmd::RegOffloadMr { len },
                Cmd::DeregOffloadMr { key },
                Cmd::AdoptMr { key },
                Cmd::Heartbeat,
                Cmd::Bye,
            ] {
                prop_assert_eq!(Cmd::decode(&cmd.encode()), Some(cmd));
            }
        }

        #[test]
        fn dcfa_wire_reply_roundtrip(key in any::<u32>(), addr in any::<u64>(), len in any::<u64>(), code in any::<u8>()) {
            use dcfa::wire::Reply;
            for r in [
                Reply::Ok,
                Reply::MrKey { key },
                Reply::Offload { key, host_addr: addr, host_len: len },
                Reply::Error { code },
                Reply::Hello { client: key },
            ] {
                prop_assert_eq!(Reply::decode(&r.encode()), Some(r));
            }
        }

        #[test]
        fn garbage_never_panics_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Decoders must reject or accept, never panic.
            let _ = dcfa::wire::Cmd::decode(&bytes);
            let _ = dcfa::wire::Reply::decode(&bytes);
        }
    }
}
