//! The five-point stencil application of the paper's third experiment
//! (Table III, Figs. 11 and 12): a Jacobi sweep over an `n × n` grid of
//! f64, row-partitioned across MPI processes, with OpenMP-modelled
//! parallel compute inside each rank and halo-row exchange between
//! neighbours (10 KB per boundary at n = 1282).
//!
//! The arithmetic is executed for real on the simulated memory contents,
//! so all three runtimes (DCFA-MPI, Intel-MPI-on-Phi, Xeon+offload) must
//! produce bit-identical checksums — a strong end-to-end correctness
//! check on every communication path.

use std::sync::Arc;

use baselines::{IntelPhiWorld, OffloadRuntime};
use dcfa_mpi::collectives;
use dcfa_mpi::{launch, Communicator, Datatype, LaunchOpts, MpiConfig, ReduceOp, Src, TagSel};
use fabric::{Buffer, Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{Ctx, SimCell, Simulation};
use verbs::IbFabric;

use crate::omp::OmpModel;

/// Problem parameters. The paper uses n = 1282, 100 iterations, procs ∈
/// {1,2,4,8}, threads up to 56.
#[derive(Debug, Clone, Copy)]
pub struct StencilParams {
    pub n: usize,
    pub iters: u32,
    pub procs: usize,
    pub threads: u32,
}

impl StencilParams {
    /// The paper's configuration (Table III): 1282² points ≈ 12 MB of f64.
    pub fn paper(procs: usize, threads: u32) -> Self {
        StencilParams {
            n: 1282,
            iters: 100,
            procs,
            threads,
        }
    }

    /// Bytes of one halo row (Table III: ~10 KB at n = 1282).
    pub fn halo_bytes(&self) -> u64 {
        (self.n * 8) as u64
    }

    /// Total grid bytes (Table III: ~12 MB at n = 1282).
    pub fn grid_bytes(&self) -> u64 {
        (self.n * self.n * 8) as u64
    }
}

/// One measurement.
#[derive(Debug, Clone, Copy)]
pub struct StencilResult {
    pub procs: usize,
    pub threads: u32,
    /// Mean per-iteration wall (virtual) time, microseconds.
    pub iter_us: f64,
    /// Whole-run time, milliseconds.
    pub total_ms: f64,
    /// Global interior checksum after the last iteration.
    pub checksum: f64,
}

/// The rank-local grid state and real arithmetic.
struct LocalGrid {
    n: usize,
    /// Owned rows.
    lr: usize,
    /// Global index of the first owned row.
    row0: usize,
    /// (lr + 2) × n, halo rows at local index 0 and lr+1.
    cur: Vec<f64>,
    next: Vec<f64>,
}

fn init_value(i: usize, j: usize) -> f64 {
    ((i * 7919 + j * 104_729) % 10_007) as f64 / 10_007.0
}

impl LocalGrid {
    fn new(p: &StencilParams, rank: usize) -> LocalGrid {
        let base = p.n / p.procs;
        let rem = p.n % p.procs;
        let lr = base + usize::from(rank < rem);
        let row0 = rank * base + rank.min(rem);
        let mut cur = vec![0.0; (lr + 2) * p.n];
        for li in 1..=lr {
            let gi = row0 + li - 1;
            for j in 0..p.n {
                cur[li * p.n + j] = init_value(gi, j);
            }
        }
        let next = cur.clone();
        LocalGrid {
            n: p.n,
            lr,
            row0,
            cur,
            next,
        }
    }

    fn points(&self) -> u64 {
        (self.lr * self.n) as u64
    }

    /// Serialize a local row (1..=lr are owned; 0 and lr+1 are halos).
    fn pack_row(&self, li: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.n * 8);
        for j in 0..self.n {
            out.extend_from_slice(&self.cur[li * self.n + j].to_le_bytes());
        }
        out
    }

    fn unpack_row(&mut self, li: usize, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.n * 8);
        for j in 0..self.n {
            self.cur[li * self.n + j] =
                f64::from_le_bytes(bytes[j * 8..(j + 1) * 8].try_into().unwrap());
        }
    }

    /// One Jacobi sweep over the owned rows (real arithmetic).
    fn step(&mut self, total_rows: usize) {
        let n = self.n;
        for li in 1..=self.lr {
            let gi = self.row0 + li - 1;
            for j in 0..n {
                let idx = li * n + j;
                self.next[idx] = if gi == 0 || gi == total_rows - 1 || j == 0 || j == n - 1 {
                    self.cur[idx] // fixed global boundary
                } else {
                    0.2 * (self.cur[idx]
                        + self.cur[idx - n]
                        + self.cur[idx + n]
                        + self.cur[idx - 1]
                        + self.cur[idx + 1])
                };
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    fn checksum(&self) -> f64 {
        let mut s = 0.0;
        for li in 1..=self.lr {
            for j in 0..self.n {
                s += self.cur[li * self.n + j];
            }
        }
        s
    }
}

struct HaloBufs {
    send_up: Buffer,
    send_down: Buffer,
    recv_up: Buffer,
    recv_down: Buffer,
}

fn halo_bufs<C: Communicator>(comm: &C, p: &StencilParams) -> HaloBufs {
    let cl = comm.cluster();
    let mem = comm.mem();
    let hb = p.halo_bytes();
    HaloBufs {
        send_up: cl.alloc_pages(mem, hb).unwrap(),
        send_down: cl.alloc_pages(mem, hb).unwrap(),
        recv_up: cl.alloc_pages(mem, hb).unwrap(),
        recv_down: cl.alloc_pages(mem, hb).unwrap(),
    }
}

/// Exchange halos through simulated buffers: pack → MPI → unpack. Real
/// bytes travel, so numerics stay identical across runtimes.
fn exchange<C: Communicator>(
    ctx: &mut Ctx,
    comm: &mut C,
    p: &StencilParams,
    grid: &mut LocalGrid,
    bufs: &HaloBufs,
) {
    let me = comm.rank();
    let up = me.checked_sub(1);
    let down = (me + 1 < p.procs).then_some(me + 1);
    let cl = comm.cluster().clone();
    let mut reqs = Vec::with_capacity(4);
    if let Some(u) = up {
        cl.write(&bufs.send_up, 0, &grid.pack_row(1));
        reqs.push(
            comm.irecv(ctx, &bufs.recv_up, Src::Rank(u), TagSel::Tag(11))
                .unwrap(),
        );
        reqs.push(comm.isend(ctx, &bufs.send_up, u, 12).unwrap());
    }
    if let Some(d) = down {
        cl.write(&bufs.send_down, 0, &grid.pack_row(grid.lr));
        reqs.push(
            comm.irecv(ctx, &bufs.recv_down, Src::Rank(d), TagSel::Tag(12))
                .unwrap(),
        );
        reqs.push(comm.isend(ctx, &bufs.send_down, d, 11).unwrap());
    }
    comm.waitall(ctx, &reqs).unwrap();
    if up.is_some() {
        let lr0 = cl.read_vec(&bufs.recv_up);
        grid.unpack_row(0, &lr0);
    }
    if down.is_some() {
        let lrn = cl.read_vec(&bufs.recv_down);
        let last = grid.lr + 1;
        grid.unpack_row(last, &lrn);
    }
}

/// Shared measured loop for the two on-card runtimes (DCFA-MPI and
/// Intel-MPI-on-Phi): exchange, then an OpenMP-modelled compute region.
fn stencil_body<C: Communicator>(
    ctx: &mut Ctx,
    comm: &mut C,
    p: StencilParams,
    omp: &OmpModel,
) -> (f64, f64) {
    let mut grid = LocalGrid::new(&p, comm.rank());
    let bufs = halo_bufs(comm, &p);
    collectives::barrier(comm, ctx).unwrap();
    let t0 = ctx.now();
    for _ in 0..p.iters {
        if p.procs > 1 {
            exchange(ctx, comm, &p, &mut grid, &bufs);
        }
        ctx.sleep(omp.region_time(grid.points()));
        grid.step(p.n);
    }
    collectives::barrier(comm, ctx).unwrap();
    let total = ctx.now() - t0;
    // Global checksum (also validates the reduction path).
    let csbuf = comm.cluster().alloc_pages(comm.mem(), 8).unwrap();
    comm.cluster()
        .write(&csbuf, 0, &grid.checksum().to_le_bytes());
    collectives::allreduce(comm, ctx, &csbuf, Datatype::F64, ReduceOp::Sum).unwrap();
    let cs = f64::from_le_bytes(comm.cluster().read_vec(&csbuf).try_into().unwrap());
    (total.as_micros_f64(), cs)
}

/// DCFA-MPI (or, with `MpiConfig::host()`, plain host MPI) stencil.
pub fn stencil_dcfa(ccfg: &ClusterConfig, cfg: MpiConfig, p: StencilParams) -> StencilResult {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let out = Arc::new(SimCell::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    let omp = OmpModel::phi(&cluster.config().cost, p.threads);
    launch(
        &sim,
        &ib,
        &scif,
        cfg,
        p.procs,
        LaunchOpts::default(),
        move |ctx, comm| {
            let (us, cs) = stencil_body(ctx, comm, p, &omp);
            if comm.rank() == 0 {
                *out2.lock() = (us, cs);
            }
        },
    );
    sim.run_expect();
    let (total_us, checksum) = *out.lock();
    StencilResult {
        procs: p.procs,
        threads: p.threads,
        iter_us: total_us / p.iters as f64,
        total_ms: total_us / 1e3,
        checksum,
    }
}

/// Intel-MPI-on-Phi stencil (same compute model; proxy-path comm).
pub fn stencil_intel_phi(ccfg: &ClusterConfig, p: StencilParams) -> StencilResult {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ccfg.clone());
    let world = IntelPhiWorld::new(cluster.clone(), p.procs);
    let out = Arc::new(SimCell::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    let omp = OmpModel::phi(&cluster.config().cost, p.threads);
    world.launch(&sim, move |ctx, comm| {
        let (us, cs) = stencil_body(ctx, comm, p, &omp);
        if comm.rank() == 0 {
            *out2.lock() = (us, cs);
        }
    });
    sim.run_expect();
    let (total_us, checksum) = *out.lock();
    StencilResult {
        procs: p.procs,
        threads: p.threads,
        iter_us: total_us / p.iters as f64,
        total_ms: total_us / 1e3,
        checksum,
    }
}

/// Intel-MPI-on-Xeon + offload stencil: host MPI for the halo exchange;
/// every iteration pays the offload choreography of Table III — copy the
/// boundary rows out of the card, exchange on the host, copy the halos
/// back in, and dispatch the compute region to the card.
pub fn stencil_offload(ccfg: &ClusterConfig, p: StencilParams) -> StencilResult {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let out = Arc::new(SimCell::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    let omp = OmpModel::phi(&cluster.config().cost, p.threads);
    let cl = cluster.clone();
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::host(),
        p.procs,
        LaunchOpts::default(),
        move |ctx, comm| {
            let node = fabric::NodeId(comm.rank() % cl.num_nodes());
            let rt = OffloadRuntime::new(ctx, cl.clone(), node);
            let mut grid = LocalGrid::new(&p, comm.rank());
            let bufs = halo_bufs(comm, &p);
            // Persistent card-side halo staging (the rest of the grid never
            // leaves the card — paper: "all the other areas can persistently
            // be kept on the Xeon Phi co-processors"). Both boundary rows are
            // bundled into ONE offload transfer per direction, matching Table
            // III's "Copy In 10 KB + Copy Out 10 KB" per stage.
            let hb = p.halo_bytes();
            let card_stage = rt.alloc_phi(2 * hb).unwrap();
            let host_stage = comm.alloc(2 * hb).unwrap();
            collectives::barrier(comm, ctx).unwrap();
            let t0 = ctx.now();
            for _ in 0..p.iters {
                if p.procs > 1 {
                    let me = comm.rank();
                    let has_up = me > 0;
                    let has_down = me + 1 < p.procs;
                    // Copy Out: both boundary rows card → host in one bundled
                    // offload transfer (Table III).
                    let rows = u64::from(has_up) + u64::from(has_down);
                    let mut off = 0;
                    if has_up {
                        cl.write(&card_stage, 0, &grid.pack_row(1));
                        off += hb;
                    }
                    if has_down {
                        cl.write(&card_stage, off, &grid.pack_row(grid.lr));
                    }
                    rt.copy_out(
                        ctx,
                        &card_stage.slice(0, rows * hb),
                        &host_stage.slice(0, rows * hb),
                    );
                    // Scatter the staged rows into the MPI send buffers (host
                    // memcpy; negligible next to the PCIe hop).
                    let mut off = 0;
                    if has_up {
                        let row = cl.read_vec(&host_stage.slice(off, hb));
                        cl.write(&bufs.send_up, 0, &row);
                        off += hb;
                    }
                    if has_down {
                        let row = cl.read_vec(&host_stage.slice(off, hb));
                        cl.write(&bufs.send_down, 0, &row);
                    }
                    // Host MPI exchange.
                    let mut reqs = Vec::new();
                    if has_up {
                        reqs.push(
                            comm.irecv(ctx, &bufs.recv_up, Src::Rank(me - 1), TagSel::Tag(11))
                                .unwrap(),
                        );
                        reqs.push(comm.isend(ctx, &bufs.send_up, me - 1, 12).unwrap());
                    }
                    if has_down {
                        reqs.push(
                            comm.irecv(ctx, &bufs.recv_down, Src::Rank(me + 1), TagSel::Tag(12))
                                .unwrap(),
                        );
                        reqs.push(comm.isend(ctx, &bufs.send_down, me + 1, 11).unwrap());
                    }
                    comm.waitall(ctx, &reqs).unwrap();
                    // Copy In: both received halos host → card in one bundled
                    // transfer.
                    let mut off = 0;
                    if has_up {
                        let row = cl.read_vec(&bufs.recv_up);
                        cl.write(&host_stage, 0, &row);
                        off += hb;
                    }
                    if has_down {
                        let row = cl.read_vec(&bufs.recv_down);
                        cl.write(&host_stage, off, &row);
                    }
                    rt.copy_in(
                        ctx,
                        &host_stage.slice(0, rows * hb),
                        &card_stage.slice(0, rows * hb),
                    );
                    let mut off = 0;
                    if has_up {
                        let row = cl.read_vec(&card_stage.slice(off, hb));
                        grid.unpack_row(0, &row);
                        off += hb;
                    }
                    if has_down {
                        let row = cl.read_vec(&card_stage.slice(off, hb));
                        let last = grid.lr + 1;
                        grid.unpack_row(last, &row);
                    }
                }
                // Compute region dispatched to the card.
                let kernel = omp.region_time(grid.points());
                rt.offload_region(ctx, kernel, |_cl| grid.step(p.n));
            }
            collectives::barrier(comm, ctx).unwrap();
            let total = ctx.now() - t0;
            let csbuf = comm.cluster().alloc_pages(comm.mem(), 8).unwrap();
            comm.cluster()
                .write(&csbuf, 0, &grid.checksum().to_le_bytes());
            collectives::allreduce(comm, ctx, &csbuf, Datatype::F64, ReduceOp::Sum).unwrap();
            let cs = f64::from_le_bytes(comm.cluster().read_vec(&csbuf).try_into().unwrap());
            if comm.rank() == 0 {
                *out2.lock() = (total.as_micros_f64(), cs);
            }
        },
    );
    sim.run_expect();
    let (total_us, checksum) = *out.lock();
    StencilResult {
        procs: p.procs,
        threads: p.threads,
        iter_us: total_us / p.iters as f64,
        total_ms: total_us / 1e3,
        checksum,
    }
}

/// Serial reference: 1 process, 1 thread, no MPI — the Fig. 12 baseline.
pub fn stencil_serial(ccfg: &ClusterConfig, n: usize, iters: u32) -> StencilResult {
    stencil_dcfa(
        ccfg,
        MpiConfig::dcfa(),
        StencilParams {
            n,
            iters,
            procs: 1,
            threads: 1,
        },
    )
}
