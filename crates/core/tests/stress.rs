//! Protocol stress tests: tiny rings (aggressive wraparound + credit
//! pressure), wildcard combinations, no-cache configurations, and mixed
//! protocol storms.

use std::sync::Arc;

use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{Ctx, SimCell, Simulation};
use verbs::IbFabric;

fn run_cfg<F>(cfg: MpiConfig, nprocs: usize, f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nprocs.max(2)));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    launch(&sim, &ib, &scif, cfg, nprocs, LaunchOpts::default(), f);
    sim.run_expect();
}

fn tiny_ring() -> MpiConfig {
    MpiConfig {
        ring_slots: 4, // window of 2 → constant credit pressure
        eager_threshold: 1 << 10,
        ring_slot_payload: 1 << 10,
        ..MpiConfig::dcfa()
    }
}

#[test]
fn tiny_ring_survives_long_stream() {
    let count = Arc::new(SimCell::new(0u32));
    let c2 = count.clone();
    run_cfg(tiny_ring(), 2, move |ctx, comm| {
        let n = 200u32;
        if comm.rank() == 0 {
            let buf = comm.alloc(256).unwrap();
            for i in 0..n {
                comm.write(&buf, 0, &[(i % 256) as u8; 256]);
                comm.send(ctx, &buf, 1, 0).unwrap();
            }
        } else {
            let buf = comm.alloc(256).unwrap();
            for i in 0..n {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(0)).unwrap();
                assert_eq!(comm.read_vec(&buf)[0], (i % 256) as u8);
                *c2.lock() += 1;
            }
        }
    });
    assert_eq!(*count.lock(), 200);
}

#[test]
fn tiny_ring_bidirectional_storm() {
    run_cfg(tiny_ring(), 2, move |ctx, comm| {
        let peer = 1 - comm.rank();
        let sbuf = comm.alloc(512).unwrap();
        let rbuf = comm.alloc(512).unwrap();
        let mut reqs = Vec::new();
        for k in 0..120u32 {
            reqs.push(
                comm.irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(k))
                    .unwrap(),
            );
            reqs.push(comm.isend(ctx, &sbuf, peer, k).unwrap());
        }
        comm.waitall(ctx, &reqs).unwrap();
    });
}

#[test]
fn tiny_ring_mixed_eager_and_rendezvous() {
    // Alternating small (eager) and large (rendezvous) keeps control
    // packets and data packets interleaved in a 4-slot ring.
    run_cfg(tiny_ring(), 2, move |ctx, comm| {
        let small = comm.alloc(128).unwrap();
        let large = comm.alloc(64 << 10).unwrap();
        if comm.rank() == 0 {
            for i in 0..20 {
                if i % 2 == 0 {
                    comm.write(&small, 0, &[i as u8; 128]);
                    comm.send(ctx, &small, 1, 1).unwrap();
                } else {
                    comm.write(&large, 0, &[i as u8; 1024]);
                    comm.send(ctx, &large, 1, 1).unwrap();
                }
            }
        } else {
            for i in 0..20 {
                if i % 2 == 0 {
                    comm.recv(ctx, &small, Src::Rank(0), TagSel::Tag(1))
                        .unwrap();
                    assert_eq!(comm.read_vec(&small)[0], i as u8);
                } else {
                    comm.recv(ctx, &large, Src::Rank(0), TagSel::Tag(1))
                        .unwrap();
                    assert_eq!(comm.read_vec(&large)[0], i as u8);
                }
            }
        }
    });
}

#[test]
fn any_source_any_tag_drains_everything() {
    let seen = Arc::new(SimCell::new(Vec::new()));
    let s2 = seen.clone();
    run_cfg(MpiConfig::dcfa(), 4, move |ctx, comm| {
        if comm.rank() < 3 {
            let buf = comm.alloc(64).unwrap();
            for k in 0..5u32 {
                comm.write(&buf, 0, &[comm.rank() as u8 * 10 + k as u8; 64]);
                comm.send(ctx, &buf, 3, 100 + k).unwrap();
            }
        } else {
            let buf = comm.alloc(64).unwrap();
            for _ in 0..15 {
                let st = comm.recv(ctx, &buf, Src::Any, TagSel::Any).unwrap();
                s2.lock().push((st.source, st.tag, comm.read_vec(&buf)[0]));
            }
        }
    });
    let seen = seen.lock().clone();
    assert_eq!(seen.len(), 15);
    // Per-source FIFO: tags from each source arrive in ascending order and
    // payloads match the envelope.
    for src in 0..3usize {
        let tags: Vec<u32> = seen
            .iter()
            .filter(|(s, _, _)| *s == src)
            .map(|(_, t, _)| *t)
            .collect();
        assert_eq!(tags, vec![100, 101, 102, 103, 104], "source {src}");
    }
    for (s, t, payload) in seen {
        assert_eq!(payload, s as u8 * 10 + (t - 100) as u8);
    }
}

#[test]
fn no_mr_cache_no_offload_still_correct() {
    let cfg = MpiConfig {
        mr_cache_capacity: 0,
        offload_threshold: None,
        ..MpiConfig::dcfa()
    };
    run_cfg(cfg, 2, move |ctx, comm| {
        let buf = comm.alloc(256 << 10).unwrap();
        if comm.rank() == 0 {
            comm.write(&buf, 0, &[0x3C; 4096]);
            for _ in 0..5 {
                comm.send(ctx, &buf, 1, 1).unwrap();
            }
            let (hits, misses) = comm.mr_cache_stats();
            assert_eq!(hits, 0, "cache disabled must never hit");
            assert!(misses >= 5);
        } else {
            for _ in 0..5 {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            }
            assert_eq!(comm.read_vec(&buf)[..4096], [0x3C; 4096][..]);
        }
    });
}

#[test]
fn interleaved_tags_with_wildcard_receiver() {
    // Wildcard and specific receives interleave; everything must complete
    // with matching payloads.
    run_cfg(MpiConfig::dcfa(), 2, move |ctx, comm| {
        if comm.rank() == 0 {
            let buf = comm.alloc(64).unwrap();
            for k in 0..12u32 {
                comm.write(&buf, 0, &[k as u8; 64]);
                comm.send(ctx, &buf, 1, k % 3).unwrap();
            }
        } else {
            let buf = comm.alloc(64).unwrap();
            let mut got = Vec::new();
            for i in 0..12 {
                let tag = if i % 4 == 0 {
                    TagSel::Any
                } else {
                    TagSel::Tag(i as u32 % 3)
                };
                let st = comm.recv(ctx, &buf, Src::Rank(0), tag).unwrap();
                got.push((st.tag, comm.read_vec(&buf)[0]));
            }
            // Each received payload k must carry tag k % 3.
            for (tag, k) in got {
                assert_eq!(tag, k as u32 % 3);
            }
        }
    });
}

#[test]
fn eight_ranks_tiny_ring_allgather_style() {
    run_cfg(tiny_ring(), 8, move |ctx, comm| {
        let n = comm.size();
        let me = comm.rank();
        // Everyone sends its badge to everyone (n*(n-1) messages through
        // 4-slot rings).
        let mut reqs = Vec::new();
        let rbufs: Vec<_> = (0..n).map(|_| comm.alloc(32).unwrap()).collect();
        for (p, rbuf) in rbufs.iter().enumerate() {
            if p != me {
                reqs.push(comm.irecv(ctx, rbuf, Src::Rank(p), TagSel::Tag(5)).unwrap());
            }
        }
        let sbuf = comm.alloc(32).unwrap();
        comm.write(&sbuf, 0, &[me as u8 + 1; 32]);
        for p in 0..n {
            if p != me {
                reqs.push(comm.isend(ctx, &sbuf, p, 5).unwrap());
            }
        }
        comm.waitall(ctx, &reqs).unwrap();
        for (p, rbuf) in rbufs.iter().enumerate() {
            if p != me {
                assert_eq!(comm.read_vec(rbuf), vec![p as u8 + 1; 32]);
            }
        }
    });
}
