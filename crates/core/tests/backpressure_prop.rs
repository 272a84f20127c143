//! Property test for request-table backpressure: random burst shapes —
//! optionally under transient link faults — drive the bounded engine
//! slot table into [`MpiError::ResourceExhausted`], the caller recovers
//! by progressing and retrying, and afterwards the table is fully
//! reusable: every payload intact, no request slot stranded, no MR
//! lease leaked, no generation lost to the backpressure episode.

use std::sync::Arc;

use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig, MpiError, Request, Src, TagSel};
use fabric::{Cluster, ClusterConfig};
use proptest::prelude::*;
use scif::ScifFabric;
use simcore::{Ctx, SimCell, Simulation};
use verbs::{FaultPlan, IbFabric, WcStatus};

fn run_mpi_cfg<F>(nprocs: usize, cfg: MpiConfig, faults: &[FaultPlan], f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nprocs.max(2)));
    let ib = IbFabric::new(cluster.clone());
    for &plan in faults {
        ib.inject_fault_plan(plan);
    }
    let scif = ScifFabric::new(cluster);
    launch(&sim, &ib, &scif, cfg, nprocs, LaunchOpts::default(), f);
    sim.run_expect();
}

/// Post one operation with backpressure recovery: on `ResourceExhausted`,
/// consume the oldest outstanding request (driving progress and freeing
/// its slot) and retry. Returns how many exhaustion events were absorbed.
fn post_with_backpressure(
    ctx: &mut Ctx,
    comm: &mut Comm,
    outstanding: &mut std::collections::VecDeque<Request>,
    mut post: impl FnMut(&mut Ctx, &mut Comm) -> Result<Request, MpiError>,
) -> u64 {
    let mut exhausted = 0;
    loop {
        match post(ctx, comm) {
            Ok(r) => {
                outstanding.push_back(r);
                return exhausted;
            }
            Err(MpiError::ResourceExhausted) => {
                exhausted += 1;
                let oldest = outstanding
                    .pop_front()
                    .expect("table exhausted with nothing outstanding");
                comm.wait(ctx, oldest)
                    .expect("backpressured op must finish");
            }
            Err(e) => panic!("unexpected error while posting: {e:?}"),
        }
    }
}

fn salt(i: usize) -> u8 {
    (i as u8).wrapping_mul(31).wrapping_add(7)
}

#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Engine request-table bound (the smallest legal values, so the
    /// bursts below always overrun it).
    max_requests: u32,
    /// Messages per burst, always past the table bound.
    burst: usize,
    /// Message length (eager-path sizes).
    len: u64,
    /// Arm transient link faults so WC errors and their retries
    /// interleave with slot recycling.
    faults: bool,
    /// Delay the receiver so sends pile into the unexpected path first.
    recv_late: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (4u32..=8).prop_flat_map(|max_requests| {
        (
            (max_requests as usize + 1)..=(3 * max_requests as usize),
            16u64..=2048,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(move |(burst, len, faults, recv_late)| Shape {
                max_requests,
                burst,
                len,
                faults,
                recv_late,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn backpressure_recovers_without_stranding_requests(shape in shape_strategy()) {
        // "3:transient,11:retry" in `repro --faults` syntax.
        let faults = if shape.faults {
            [(3, WcStatus::RnrRetryExceeded), (11, WcStatus::TransportRetryExceeded)]
                .map(|(after_matches, status)| FaultPlan { status, after_matches, ..Default::default() })
                .to_vec()
        } else {
            Vec::new()
        };
        let cfg = MpiConfig {
            max_requests: shape.max_requests,
            ..MpiConfig::dcfa()
        };
        // (exhaustion events seen, payload mismatches, ranks finished).
        let tally = Arc::new(SimCell::new((0u64, 0u64, 0usize)));
        let tally2 = tally.clone();
        run_mpi_cfg(2, cfg, &faults, move |ctx, comm| {
            let me = comm.rank();
            let peer = 1 - me;
            let mut exhausted = 0u64;
            let mut mismatches = 0u64;
            // Two bursts: the second proves the table (slots and their
            // generations) is fully reusable after a backpressure episode.
            for round in 0..2u32 {
                let bufs: Vec<_> = (0..shape.burst)
                    .map(|_| comm.alloc(shape.len).unwrap())
                    .collect();
                let mut outstanding = std::collections::VecDeque::new();
                if shape.recv_late && me == 1 {
                    ctx.sleep(simcore::SimDuration::from_micros(200));
                }
                for (i, buf) in bufs.iter().enumerate() {
                    let tag = round * 1000 + i as u32;
                    if me == 0 {
                        comm.write(buf, 0, &vec![salt(i); shape.len as usize]);
                        exhausted += post_with_backpressure(
                            ctx,
                            comm,
                            &mut outstanding,
                            |ctx, comm| comm.isend(ctx, buf, peer, tag),
                        );
                    } else {
                        exhausted += post_with_backpressure(
                            ctx,
                            comm,
                            &mut outstanding,
                            |ctx, comm| comm.irecv(ctx, buf, Src::Rank(peer), TagSel::Tag(tag)),
                        );
                    }
                }
                for r in outstanding {
                    comm.wait(ctx, r).expect("drained op must finish");
                }
                if me == 1 {
                    for (i, buf) in bufs.iter().enumerate() {
                        if comm.read_vec(buf) != vec![salt(i); shape.len as usize] {
                            mismatches += 1;
                        }
                    }
                }
                // The episode must leave nothing behind between rounds.
                assert_eq!(comm.requests_live(), 0, "rank {me}: stranded requests");
                for buf in &bufs {
                    comm.free(buf);
                }
            }
            assert_eq!(comm.mr_pinned_len(), 0, "rank {me}: leaked MR leases");
            let mut t = tally2.lock();
            t.0 += exhausted;
            t.1 += mismatches;
            t.2 += 1;
        });
        let (exhausted, mismatches, finished) = *tally.lock();
        prop_assert_eq!(finished, 2, "a rank never finished");
        prop_assert_eq!(mismatches, 0, "payload corrupted across backpressure");
        // Each burst posts more operations than the table holds without
        // driving progress in between, so backpressure must actually
        // have been exercised (at least on the sender).
        prop_assert!(exhausted > 0, "ResourceExhausted never surfaced");
    }
}
