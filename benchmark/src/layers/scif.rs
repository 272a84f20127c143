//! `scif`: one control-message round trip between a Phi process and a
//! host process, in both clocks.

use std::time::{Duration, Instant};

use fabric::{Domain, MemRef, NodeId};
use scif::ScifFabric;

use super::{run_process, two_nodes};

const PORT: scif::Port = 900;

/// A 64-byte message to an echoing host process and its reply.
/// `[host ns, virtual ns]` per round trip.
pub fn msg_roundtrip(sample: Duration) -> Vec<f64> {
    let (sim, cluster) = two_nodes();
    let fabric = ScifFabric::new(cluster);
    let at = |domain| MemRef {
        node: NodeId(0),
        domain,
    };
    let listener = fabric.listen(at(Domain::Host), PORT);
    sim.spawn("echo", move |ctx| {
        let ep = listener.accept(ctx);
        loop {
            let msg = ep.recv(ctx);
            if msg.is_empty() {
                return;
            }
            ep.send(ctx, &msg);
        }
    });
    run_process(sim, move |ctx| {
        let ep = fabric
            .connect(ctx, at(Domain::Phi), Domain::Host, PORT)
            .expect("the echo process listens");
        let payload = [7u8; 64];
        let (start, virt_start) = (Instant::now(), ctx.now());
        let mut trips = 0u64;
        loop {
            for _ in 0..16 {
                ep.send(ctx, &payload);
                std::hint::black_box(ep.recv(ctx));
            }
            trips += 16;
            let elapsed = start.elapsed();
            if elapsed >= sample {
                let virt = (ctx.now() - virt_start).as_nanos();
                ep.send(ctx, &[]);
                return vec![
                    elapsed.as_nanos() as f64 / trips as f64,
                    virt as f64 / trips as f64,
                ];
            }
        }
    })
}
