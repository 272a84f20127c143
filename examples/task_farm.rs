//! Master/worker task farm over DCFA-MPI: the master deals work items to
//! whichever Phi card asks first (`MPI_ANY_SOURCE` + probe), workers
//! return variable-size results — the classic irregular-parallelism
//! pattern, exercising any-source matching, probing and variable message
//! sizes in one program.
//!
//! ```text
//! cargo run --release --example task_farm
//! ```

use dcfa_mpi_repro::dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use dcfa_mpi_repro::fabric::{Cluster, ClusterConfig};
use dcfa_mpi_repro::scif::ScifFabric;
use dcfa_mpi_repro::simcore::{SimDuration, Simulation};
use dcfa_mpi_repro::verbs::IbFabric;
use simcore::SimCell;
use std::sync::Arc;

const TAG_READY: u32 = 1;
const TAG_WORK: u32 = 2;
const TAG_RESULT: u32 = 3;
const TAG_STOP: u32 = 4;

fn main() {
    let n = 5; // 1 master + 4 workers
    let tasks = 16u64;

    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(n));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);

    let log: Arc<SimCell<Vec<String>>> = Arc::new(SimCell::new(Vec::new()));
    let l2 = log.clone();

    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        n,
        LaunchOpts::default(),
        move |ctx, comm| {
            if comm.rank() == 0 {
                // ---- master ----
                let tiny = comm.alloc(8).unwrap();
                let mut next = 0u64;
                let mut done = 0u64;
                let mut stopped = 0usize;
                let mut results_bytes = 0u64;
                while done < tasks {
                    // Whoever speaks first gets served.
                    let st = comm.recv(ctx, &tiny, Src::Any, TagSel::Any).unwrap();
                    match st.tag {
                        TAG_READY => {
                            if next < tasks {
                                comm.write(&tiny, 0, &next.to_le_bytes());
                                comm.send(ctx, &tiny, st.source, TAG_WORK).unwrap();
                                next += 1;
                            } else {
                                comm.send(ctx, &tiny, st.source, TAG_STOP).unwrap();
                                stopped += 1;
                            }
                        }
                        TAG_RESULT => {
                            // Probe for the variable-size payload that follows.
                            let env = comm
                                .probe(ctx, Src::Rank(st.source), TagSel::Tag(TAG_RESULT))
                                .unwrap();
                            let buf = comm.alloc(env.len).unwrap();
                            comm.recv(ctx, &buf, Src::Rank(st.source), TagSel::Tag(TAG_RESULT))
                                .unwrap();
                            results_bytes += env.len;
                            done += 1;
                            comm.free(&buf);
                        }
                        other => panic!("unexpected tag {other}"),
                    }
                }
                // Stop the workers that are still asking for work.
                while stopped < n - 1 {
                    let st = comm
                        .recv(ctx, &tiny, Src::Any, TagSel::Tag(TAG_READY))
                        .unwrap();
                    comm.send(ctx, &tiny, st.source, TAG_STOP).unwrap();
                    stopped += 1;
                }
                l2.lock().push(format!(
                "master: {tasks} tasks farmed out, {results_bytes} result bytes collected, finished at {}",
                ctx.now()
            ));
            } else {
                // ---- worker ----
                let tiny = comm.alloc(8).unwrap();
                let mut served = 0;
                loop {
                    comm.send(ctx, &tiny, 0, TAG_READY).unwrap();
                    let st = comm.recv(ctx, &tiny, Src::Rank(0), TagSel::Any).unwrap();
                    if st.tag == TAG_STOP {
                        break;
                    }
                    let task = u64::from_le_bytes(comm.read_vec(&tiny).try_into().unwrap());
                    // "Compute": variable effort and a variable-size result
                    // (some results are large enough to go rendezvous).
                    ctx.sleep(SimDuration::from_micros(50 + 37 * (task % 7)));
                    let result_len = 1024u64 << (task % 6); // 1 KiB .. 32 KiB
                    let result = comm.alloc(result_len).unwrap();
                    comm.write(&result, 0, &[task as u8; 64]);
                    // Envelope first (so the master can probe the size), then
                    // the payload.
                    comm.send(ctx, &tiny, 0, TAG_RESULT).unwrap();
                    comm.send(ctx, &result, 0, TAG_RESULT).unwrap();
                    comm.free(&result);
                    served += 1;
                }
                l2.lock()
                    .push(format!("worker {} served {served} tasks", comm.rank()));
            }
        },
    );
    sim.run_expect();
    let mut lines = log.lock().clone();
    lines.sort();
    for l in lines {
        println!("{l}");
    }
}
