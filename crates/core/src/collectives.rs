//! Collective operations built on the point-to-point layer, generic over
//! [`Communicator`] so they run identically over DCFA-MPI and the baseline
//! models. Algorithms are the classic ones a YAMPII-era MPI would ship:
//! dissemination barrier, binomial-tree broadcast/reduce, ring allgather
//! and pairwise alltoall.

use fabric::Buffer;
use simcore::Ctx;

use crate::comm::{Comm, Communicator};
use crate::types::{Datatype, MpiError, Rank, ReduceOp, Src, Tag, TagSel};

/// Internal tag namespace for collectives (well above application tags).
const COLL_TAG: Tag = 0xF000_0000;

fn tmp(c: &impl Communicator, len: u64) -> Result<Buffer, MpiError> {
    c.cluster()
        .alloc_pages(c.mem(), len.max(1))
        .map_err(|_| MpiError::OutOfMemory)
}

/// Dissemination barrier: ceil(log2(n)) rounds of 1-byte exchanges.
pub fn barrier(c: &mut impl Communicator, ctx: &mut Ctx) -> Result<(), MpiError> {
    let n = c.size();
    if n <= 1 {
        return Ok(());
    }
    let me = c.rank();
    let token = tmp(c, 1)?;
    let sink = tmp(c, 1)?;
    let mut k = 0u32;
    let mut dist = 1usize;
    while dist < n {
        let dst = (me + dist) % n;
        let src = (me + n - dist % n) % n;
        let rr = c.irecv(ctx, &sink, Src::Rank(src), TagSel::Tag(COLL_TAG + k))?;
        let sr = c.isend(ctx, &token, dst, COLL_TAG + k)?;
        c.wait(ctx, sr)?;
        c.wait(ctx, rr)?;
        dist *= 2;
        k += 1;
    }
    c.cluster().free(&token);
    c.cluster().free(&sink);
    Ok(())
}

/// Binomial broadcast tree from `root` over `hop` — the buffer every hop
/// of this rank receives into and forwards from — under `tag`.
fn bcast_tree(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    hop: &Buffer,
    tag: Tag,
    root: Rank,
) -> Result<(), MpiError> {
    let n = c.size();
    // Rotate so the root is virtual rank 0.
    let me = (c.rank() + n - root) % n;
    let mut mask = 1usize;
    // Receive phase: find our parent.
    while mask < n {
        if me & mask != 0 {
            let parent = (me - mask + root) % n;
            c.recv(ctx, hop, Src::Rank(parent), TagSel::Tag(tag))?;
            break;
        }
        mask *= 2;
    }
    // Send phase: fan out below our bit.
    mask /= 2;
    while mask > 0 {
        if me + mask < n {
            let child = (me + mask + root) % n;
            c.send(ctx, hop, child, tag)?;
        }
        mask /= 2;
    }
    Ok(())
}

/// Binomial reduction tree toward `root` over `hop` under `tag`: each
/// rank combines its children's partials into `hop` elementwise with
/// `op`, then sends `hop` to its parent. Partials land in a scratch
/// buffer next to `hop`, and the combine is charged at the memcpy rate
/// of the domain `hop` lives in.
fn reduce_tree(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    hop: &Buffer,
    tag: Tag,
    dtype: Datatype,
    op: ReduceOp,
    root: Rank,
) -> Result<(), MpiError> {
    let n = c.size();
    if n <= 1 {
        return Ok(());
    }
    let scratch = c
        .cluster()
        .alloc_pages(hop.mem, hop.len.max(1))
        .map_err(|_| MpiError::OutOfMemory)?;
    let me = (c.rank() + n - root) % n;
    let mut hops = || {
        let mut mask = 1usize;
        while mask < n {
            if me & mask != 0 {
                // Send our partial to the parent and stop.
                let parent = (me - mask + root) % n;
                return c.send(ctx, hop, parent, tag);
            }
            let child = me + mask;
            if child < n {
                let child_rank = (child + root) % n;
                c.recv(ctx, &scratch, Src::Rank(child_rank), TagSel::Tag(tag))?;
                // Combine: read both, apply, write back. Charge the
                // memcpy-rate cost of touching both operands.
                let mut a = c.cluster().read_vec(hop);
                let b = c.cluster().read_vec(&scratch);
                op.apply(dtype, &mut a, &b);
                c.cluster().write(hop, 0, &a);
                ctx.sleep(c.cluster().copy_duration(hop.mem.domain, hop.len * 2));
            }
            mask *= 2;
        }
        Ok(())
    };
    // The scratch goes back whether or not a hop failed.
    let done = hops();
    c.cluster().free(&scratch);
    done
}

/// Binomial-tree broadcast of `buf` from `root`.
pub fn bcast(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    buf: &Buffer,
    root: Rank,
) -> Result<(), MpiError> {
    bcast_tree(c, ctx, buf, COLL_TAG + 64, root)
}

/// Binomial-tree reduction of `buf` (in place on `root`; all ranks' `buf`
/// contents are combined elementwise with `op`). Non-root buffers are
/// clobbered with partial results.
pub fn reduce(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    buf: &Buffer,
    dtype: Datatype,
    op: ReduceOp,
    root: Rank,
) -> Result<(), MpiError> {
    reduce_tree(c, ctx, buf, COLL_TAG + 65, dtype, op, root)
}

/// Allreduce = reduce to rank 0 + broadcast.
pub fn allreduce(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    buf: &Buffer,
    dtype: Datatype,
    op: ReduceOp,
) -> Result<(), MpiError> {
    reduce(c, ctx, buf, dtype, op, 0)?;
    bcast(c, ctx, buf, 0)
}

// ---- host-staged variants --------------------------------------------------
//
// The paper's stated future work: "some heavy functions, such as
// collective communication ... are planned to be offloaded to the host
// CPU" (§VI). The plain trees above move data between Phi-resident
// buffers, so every hop re-stages through the offloading send buffer
// (sync up, wire, write down into Phi) and a `log2(n)`-deep tree pays the
// PCIe crossing at *every* level. The host-staged variants run the same
// trees over each rank's host twin: one DMA up, every hop host-sourced at
// full InfiniBand speed, one DMA down.
//
//   plain      : phi →(sync)→ host →(wire)→ phi →(sync)→ host →(wire)→ phi ...
//   host-staged: phi →(sync)→ host →(wire)→ host →(wire)→ host →(dma)→ phi
//
// They fall back to the plain algorithms on host placement or when the
// offloading buffer is disabled.

/// Tag namespace of the host-staged trees.
const HOST_TAG: Tag = 0xF100_0000;

/// Binomial-tree broadcast through host twins.
pub fn bcast_host_staged(
    c: &mut Comm,
    ctx: &mut Ctx,
    buf: &Buffer,
    root: Rank,
) -> Result<(), MpiError> {
    if c.size() <= 1 {
        return Ok(());
    }
    let Some(twin) = c.host_twin(ctx, buf) else {
        return bcast(c, ctx, buf, root);
    };
    if c.rank() == root {
        c.sync_to_twin(ctx, buf, &twin);
    }
    bcast_tree(c, ctx, &twin, HOST_TAG, root)?;
    if c.rank() != root {
        c.sync_from_twin(ctx, &twin, buf);
    }
    Ok(())
}

/// Binomial-tree reduce through host twins (result on `root`'s `buf`).
/// The combine runs on the host side of the stage — exactly the "offload
/// heavy functions to the host CPU" benefit.
pub fn reduce_host_staged(
    c: &mut Comm,
    ctx: &mut Ctx,
    buf: &Buffer,
    dtype: Datatype,
    op: ReduceOp,
    root: Rank,
) -> Result<(), MpiError> {
    if c.size() <= 1 {
        return Ok(());
    }
    let Some(twin) = c.host_twin(ctx, buf) else {
        return reduce(c, ctx, buf, dtype, op, root);
    };
    c.sync_to_twin(ctx, buf, &twin);
    reduce_tree(c, ctx, &twin, HOST_TAG + 1, dtype, op, root)?;
    if c.rank() == root {
        c.sync_from_twin(ctx, &twin, buf);
    }
    Ok(())
}

/// Allreduce through host twins: host-staged reduce + host-staged bcast.
pub fn allreduce_host_staged(
    c: &mut Comm,
    ctx: &mut Ctx,
    buf: &Buffer,
    dtype: Datatype,
    op: ReduceOp,
) -> Result<(), MpiError> {
    reduce_host_staged(c, ctx, buf, dtype, op, 0)?;
    bcast_host_staged(c, ctx, buf, 0)
}

/// Gather equal-size blocks to `root`. `recv` must be `n * send.len` long
/// on the root (ignored elsewhere; pass `None`).
pub fn gather(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    send: &Buffer,
    recv: Option<&Buffer>,
    root: Rank,
) -> Result<(), MpiError> {
    let n = c.size();
    let me = c.rank();
    if me == root {
        let recv = recv.expect("root needs a receive buffer");
        assert!(recv.len >= send.len * n as u64, "gather buffer too small");
        // Own block.
        c.cluster()
            .copy(send, 0, recv, root as u64 * send.len, send.len);
        for p in 0..n {
            if p == root {
                continue;
            }
            let slot = recv.slice(p as u64 * send.len, send.len);
            c.recv(ctx, &slot, Src::Rank(p), TagSel::Tag(COLL_TAG + 66))?;
        }
        Ok(())
    } else {
        c.send(ctx, send, root, COLL_TAG + 66)
    }
}

/// Scatter equal-size blocks from `root`. On the root, `send` holds
/// `n * recv.len` bytes.
pub fn scatter(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    send: Option<&Buffer>,
    recv: &Buffer,
    root: Rank,
) -> Result<(), MpiError> {
    let n = c.size();
    let me = c.rank();
    if me == root {
        let send = send.expect("root needs a send buffer");
        assert!(send.len >= recv.len * n as u64, "scatter buffer too small");
        for p in 0..n {
            let slot = send.slice(p as u64 * recv.len, recv.len);
            if p == root {
                c.cluster().copy(&slot, 0, recv, 0, slot.len);
            } else {
                c.send(ctx, &slot, p, COLL_TAG + 67)?;
            }
        }
        Ok(())
    } else {
        c.recv(ctx, recv, Src::Rank(root), TagSel::Tag(COLL_TAG + 67))
            .map(|_| ())
    }
}

/// Ring allgather: every rank contributes `send` and ends with all blocks
/// concatenated (rank-major) in `recv` (`n * send.len` bytes).
pub fn allgather(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    send: &Buffer,
    recv: &Buffer,
) -> Result<(), MpiError> {
    let n = c.size();
    let me = c.rank();
    let blk = send.len;
    assert!(recv.len >= blk * n as u64, "allgather buffer too small");
    c.cluster().copy(send, 0, recv, me as u64 * blk, blk);
    if n == 1 {
        return Ok(());
    }
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    // In round k we forward the block that originated k hops to our left.
    for k in 0..n - 1 {
        let send_block = (me + n - k) % n;
        let recv_block = (me + n - k - 1) % n;
        let sb = recv.slice(send_block as u64 * blk, blk);
        let rb = recv.slice(recv_block as u64 * blk, blk);
        let rr = c.irecv(
            ctx,
            &rb,
            Src::Rank(left),
            TagSel::Tag(COLL_TAG + 68 + k as u32),
        )?;
        let sr = c.isend(ctx, &sb, right, COLL_TAG + 68 + k as u32)?;
        c.wait(ctx, sr)?;
        c.wait(ctx, rr)?;
    }
    Ok(())
}

/// Inclusive prefix reduction (`MPI_Scan`): rank r ends with the
/// combination of ranks 0..=r. Linear chain.
pub fn scan(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    buf: &Buffer,
    dtype: Datatype,
    op: ReduceOp,
) -> Result<(), MpiError> {
    let n = c.size();
    let me = c.rank();
    if me > 0 {
        let scratch = tmp(c, buf.len)?;
        c.recv(ctx, &scratch, Src::Rank(me - 1), TagSel::Tag(COLL_TAG + 90))?;
        let mut a = c.cluster().read_vec(buf);
        let b = c.cluster().read_vec(&scratch);
        // Combine prefix-from-left INTO our value, preserving order
        // semantics (prefix op value).
        let mut combined = b.clone();
        op.apply(dtype, &mut combined, &a);
        a = combined;
        c.cluster().write(buf, 0, &a);
        let d = c.cluster().copy_duration(c.mem().domain, buf.len * 2);
        ctx.sleep(d);
        c.cluster().free(&scratch);
    }
    if me + 1 < n {
        c.send(ctx, buf, me + 1, COLL_TAG + 90)?;
    }
    Ok(())
}

/// Gather variable-size blocks to `root` (`MPI_Gatherv`). `counts[p]` is
/// the byte count contributed by rank `p`; on the root, `recv` holds the
/// blocks packed back-to-back in rank order.
#[allow(clippy::needless_range_loop)]
pub fn gatherv(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    send: &Buffer,
    recv: Option<&Buffer>,
    counts: &[u64],
    root: Rank,
) -> Result<(), MpiError> {
    let n = c.size();
    assert_eq!(counts.len(), n, "one count per rank");
    let me = c.rank();
    assert!(send.len >= counts[me], "send buffer smaller than my count");
    if me == root {
        let recv = recv.expect("root needs a receive buffer");
        let total: u64 = counts.iter().sum();
        assert!(recv.len >= total, "gatherv buffer too small");
        let mut off = 0u64;
        for p in 0..n {
            if counts[p] > 0 {
                let slot = recv.slice(off, counts[p]);
                if p == root {
                    c.cluster().copy(send, 0, &slot, 0, counts[p]);
                } else {
                    c.recv(ctx, &slot, Src::Rank(p), TagSel::Tag(COLL_TAG + 70))?;
                }
            }
            off += counts[p];
        }
        Ok(())
    } else if counts[me] > 0 {
        c.send(ctx, &send.slice(0, counts[me]), root, COLL_TAG + 70)
    } else {
        Ok(())
    }
}

/// Scatter variable-size blocks from `root` (`MPI_Scatterv`).
#[allow(clippy::needless_range_loop)]
pub fn scatterv(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    send: Option<&Buffer>,
    recv: &Buffer,
    counts: &[u64],
    root: Rank,
) -> Result<(), MpiError> {
    let n = c.size();
    assert_eq!(counts.len(), n, "one count per rank");
    let me = c.rank();
    assert!(recv.len >= counts[me], "recv buffer smaller than my count");
    if me == root {
        let send = send.expect("root needs a send buffer");
        let total: u64 = counts.iter().sum();
        assert!(send.len >= total, "scatterv buffer too small");
        let mut off = 0u64;
        for p in 0..n {
            if counts[p] > 0 {
                let slot = send.slice(off, counts[p]);
                if p == root {
                    c.cluster().copy(&slot, 0, recv, 0, slot.len);
                } else {
                    c.send(ctx, &slot, p, COLL_TAG + 71)?;
                }
            }
            off += counts[p];
        }
        Ok(())
    } else if counts[me] > 0 {
        c.recv(
            ctx,
            &recv.slice(0, counts[me]),
            Src::Rank(root),
            TagSel::Tag(COLL_TAG + 71),
        )
        .map(|_| ())
    } else {
        Ok(())
    }
}

/// Pairwise alltoall with per-pair byte counts (`MPI_Alltoallv`).
/// `send_counts[p]` bytes go to rank `p` from offset `send_offs[p]`;
/// symmetric for the receive side. Counts must agree pairwise
/// (`my send_counts[p] == p's recv_counts[me]`).
#[allow(clippy::too_many_arguments)]
pub fn alltoallv(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    send: &Buffer,
    send_counts: &[u64],
    send_offs: &[u64],
    recv: &Buffer,
    recv_counts: &[u64],
    recv_offs: &[u64],
) -> Result<(), MpiError> {
    let n = c.size();
    assert!(send_counts.len() == n && send_offs.len() == n);
    assert!(recv_counts.len() == n && recv_offs.len() == n);
    let me = c.rank();
    // Own block.
    if send_counts[me] > 0 {
        // Slicing keeps the copy inside this rank's own receive block.
        let to = recv.slice(recv_offs[me], recv_counts[me]);
        c.cluster()
            .copy(send, send_offs[me], &to, 0, send_counts[me]);
    }
    for k in 1..n {
        let dst = (me + k) % n;
        let src = (me + n - k) % n;
        let mut reqs = Vec::with_capacity(2);
        if recv_counts[src] > 0 {
            let rb = recv.slice(recv_offs[src], recv_counts[src]);
            reqs.push(c.irecv(
                ctx,
                &rb,
                Src::Rank(src),
                TagSel::Tag(COLL_TAG + 300 + k as u32),
            )?);
        }
        if send_counts[dst] > 0 {
            let sb = send.slice(send_offs[dst], send_counts[dst]);
            reqs.push(c.isend(ctx, &sb, dst, COLL_TAG + 300 + k as u32)?);
        }
        c.waitall(ctx, &reqs)?;
    }
    Ok(())
}

/// Pairwise-exchange alltoall: `send` and `recv` hold `n` equal blocks.
pub fn alltoall(
    c: &mut impl Communicator,
    ctx: &mut Ctx,
    send: &Buffer,
    recv: &Buffer,
    blk: u64,
) -> Result<(), MpiError> {
    let n = c.size();
    let me = c.rank();
    assert!(send.len >= blk * n as u64 && recv.len >= blk * n as u64);
    // Own block.
    c.cluster()
        .copy(send, me as u64 * blk, recv, me as u64 * blk, blk);
    for k in 1..n {
        let dst = (me + k) % n;
        let src = (me + n - k) % n;
        let sb = send.slice(dst as u64 * blk, blk);
        let rb = recv.slice(src as u64 * blk, blk);
        let rr = c.irecv(
            ctx,
            &rb,
            Src::Rank(src),
            TagSel::Tag(COLL_TAG + 200 + k as u32),
        )?;
        let sr = c.isend(ctx, &sb, dst, COLL_TAG + 200 + k as u32)?;
        c.wait(ctx, sr)?;
        c.wait(ctx, rr)?;
    }
    Ok(())
}
