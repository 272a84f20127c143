//! Post-run message stitcher: joins the per-rank lifecycle streams of a
//! traced run ([`dcfa_mpi::TraceEvent::MsgLife`]) into per-message causal
//! timelines in virtual time, extracts the soak's critical path with a
//! per-edge-kind breakdown, and exports the run as Chrome/Perfetto
//! trace-event JSON (`repro --trace-out`).
//!
//! # Determinism
//!
//! The trace ring appends in simulation execution order, which the DES
//! reproduces exactly from run to run, so everything here — timeline
//! order, critical-path choice, flow-id assignment — is a pure function
//! of that stream and is bit-for-bit reproducible.
//!
//! # Fail-soft on drops
//!
//! A saturated trace ring drops its oldest events. The stitcher never
//! panics on the resulting truncated timelines: messages missing their
//! `post` are marked incomplete, a warning is surfaced, and the DAG
//! degrades to the suffix the ring retained.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dcfa_mpi::{MsgStage, TraceEvent};

use crate::json::{self, JsonValue};

/// Message identity: `(source rank, destination rank, pair sequence id)`.
/// Stable across every protocol path — see the MsgId note on
/// `PacketHeader::seq` in the core crate.
pub type MsgId = (usize, usize, u64);

/// One lifecycle event of one message, as observed by rank `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifeEvent {
    /// Rank whose engine recorded the event.
    pub at: usize,
    /// The stage that *ends* at this timestamp.
    pub stage: MsgStage,
    /// Virtual time, nanoseconds.
    pub t: u64,
}

/// Causal-edge kinds, in the fixed order the `critical_path` report
/// section and the per-message breakdowns use.
pub const EDGE_KINDS: [&str; 7] = [
    "wire",
    "stash_dwell",
    "credit_stall",
    "daemon",
    "rdma",
    "host_copy",
    "local",
];

/// Classify the causal edge ending at `cur`, given the stage of the
/// previous event of the *same message* (`None` when the predecessor is
/// another message on the same rank — pure scheduling, hence `local`).
///
/// Edges are named by where the time went: a `wire` edge that follows an
/// SRQ reorder-stash park is stash dwell, not wire time, and a `match`
/// that drains the unexpected queue measures how long the packet sat
/// there — both reclassify to `stash_dwell`.
pub fn classify(prev: Option<MsgStage>, cur: MsgStage) -> &'static str {
    match cur {
        MsgStage::Wire if prev == Some(MsgStage::SrqStash) => "stash_dwell",
        MsgStage::Match if prev == Some(MsgStage::UnexpStash) => "stash_dwell",
        MsgStage::CreditStall => "credit_stall",
        MsgStage::Copy | MsgStage::OffloadSync => "host_copy",
        MsgStage::MrAcquire | MsgStage::RdmaStart => "daemon",
        MsgStage::RdmaDone => "rdma",
        MsgStage::Wire => "wire",
        _ => "local",
    }
}

/// All lifecycle events of one message, in stream (= causal) order.
#[derive(Debug, Clone)]
pub struct MsgTimeline {
    pub id: MsgId,
    /// Payload length (max over the message's events; 0 if never seen).
    pub len: u64,
    pub events: Vec<LifeEvent>,
    /// The timeline starts at `post` and reaches at least one
    /// `complete` — its end-to-end time is fully accounted for.
    pub complete: bool,
}

impl MsgTimeline {
    /// Virtual time of the first observed event.
    pub fn start(&self) -> u64 {
        self.events.first().map_or(0, |e| e.t)
    }

    /// Virtual time the message completed: the last `complete` event
    /// (late duplicate-delivery events past it are protocol noise, not
    /// message lifetime). Falls back to the last event when the message
    /// never completed.
    pub fn end(&self) -> u64 {
        self.events
            .iter()
            .rev()
            .find(|e| e.stage == MsgStage::Complete)
            .map_or_else(|| self.events.last().map_or(0, |e| e.t), |e| e.t)
    }

    /// Fraction of the end-to-end virtual time `[start, end]` accounted
    /// for by the stitched causal edges. `None` for incomplete
    /// timelines. Consecutive edges telescope, so an untruncated
    /// timeline always covers 1.0 exactly; a ring drop that ate the
    /// head shows up as a sub-1.0 value.
    pub fn coverage(&self) -> Option<f64> {
        if !self.complete {
            return None;
        }
        let (start, end) = (self.start(), self.end());
        if end <= start {
            return Some(1.0);
        }
        let covered: u64 = self
            .events
            .windows(2)
            .filter(|w| w[1].t <= end)
            .map(|w| w[1].t - w[0].t)
            .sum();
        Some(covered as f64 / (end - start) as f64)
    }

    /// Per-edge-kind time breakdown of the timeline (EDGE_KINDS order,
    /// zero entries included). Only edges up to the completion point
    /// count, mirroring [`Self::coverage`].
    pub fn breakdown(&self) -> Vec<(&'static str, u64)> {
        let end = self.end();
        let mut acc: BTreeMap<&'static str, u64> = BTreeMap::new();
        for w in self.events.windows(2) {
            if w[1].t > end {
                break;
            }
            *acc.entry(classify(Some(w[0].stage), w[1].stage))
                .or_insert(0) += w[1].t - w[0].t;
        }
        EDGE_KINDS
            .iter()
            .map(|&k| (k, acc.get(k).copied().unwrap_or(0)))
            .collect()
    }
}

/// The stitched run: every message's timeline plus the drop diagnosis.
#[derive(Debug, Clone)]
pub struct Stitch {
    /// Timelines keyed and sorted by [`MsgId`].
    pub messages: Vec<MsgTimeline>,
    /// Events the trace ring discarded before the stream was captured.
    pub dropped: u64,
    /// Soft-failure diagnostics (non-empty iff the DAG is partial).
    pub warnings: Vec<String>,
}

/// Join a recorded event stream into per-message timelines. `dropped`
/// is the ring's drop counter ([`dcfa_mpi::TraceBuf::dropped`]); a
/// non-zero value downgrades the result to a partial DAG with a warning
/// instead of failing.
pub fn stitch(events: &[TraceEvent], dropped: u64) -> Stitch {
    let mut map: BTreeMap<MsgId, MsgTimeline> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::MsgLife {
            at,
            src,
            dst,
            seq,
            stage,
            t,
            len,
        } = *ev
        {
            let m = map.entry((src, dst, seq)).or_insert_with(|| MsgTimeline {
                id: (src, dst, seq),
                len: 0,
                events: Vec::new(),
                complete: false,
            });
            m.len = m.len.max(len);
            m.events.push(LifeEvent { at, stage, t });
        }
    }
    let mut warnings = Vec::new();
    if dropped > 0 {
        warnings.push(format!(
            "trace ring dropped {dropped} events: the stitched DAG covers \
             only a suffix of the run (raise MpiConfig::trace_capacity)"
        ));
    }
    let mut headless = 0usize;
    let mut messages: Vec<MsgTimeline> = map.into_values().collect();
    for m in &mut messages {
        let has_post = m.events.first().is_some_and(|e| e.stage == MsgStage::Post);
        let has_complete = m.events.iter().any(|e| e.stage == MsgStage::Complete);
        m.complete = has_post && has_complete;
        if !has_post {
            headless += 1;
        }
    }
    if headless > 0 && dropped > 0 {
        warnings.push(format!(
            "{headless} timeline(s) lost their post event to the ring and \
             are stitched head-truncated"
        ));
    }
    Stitch {
        messages,
        dropped,
        warnings,
    }
}

/// The soak's critical path: the heaviest causal chain ending at the
/// last lifecycle event of the run, with its time split by edge kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Virtual-time span of the chain, nanoseconds. Always equals the
    /// sum of the breakdown (the chain's edges telescope).
    pub total_ns: u64,
    /// Causal edges on the chain.
    pub edges: u64,
    /// Per-edge-kind time, in [`EDGE_KINDS`] order (zeros included).
    pub breakdown: Vec<(&'static str, u64)>,
}

impl CriticalPath {
    /// Nanoseconds attributed to `kind` (0 for unknown kinds).
    pub fn kind_ns(&self, kind: &str) -> u64 {
        self.breakdown
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, v)| *v)
    }
}

/// Extract the run's critical path from a recorded event stream, or
/// `None` when it carries no lifecycle events.
///
/// The walk starts at the latest lifecycle event and repeatedly steps to
/// the *later* of (previous event of the same message, previous event on
/// the same rank) — the two happened-before predecessors the engine
/// guarantees — preferring the same-message edge on a timestamp tie.
/// Every step is resolved purely from stream order, so the result is
/// deterministic.
pub fn critical_path(events: &[TraceEvent]) -> Option<CriticalPath> {
    struct Node {
        id: MsgId,
        stage: MsgStage,
        t: u64,
        prev_msg: Option<usize>,
        prev_rank: Option<usize>,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut last_msg: BTreeMap<MsgId, usize> = BTreeMap::new();
    let mut last_rank: BTreeMap<usize, usize> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::MsgLife {
            at,
            src,
            dst,
            seq,
            stage,
            t,
            ..
        } = *ev
        {
            let id = (src, dst, seq);
            let idx = nodes.len();
            nodes.push(Node {
                id,
                stage,
                t,
                prev_msg: last_msg.get(&id).copied(),
                prev_rank: last_rank.get(&at).copied(),
            });
            last_msg.insert(id, idx);
            last_rank.insert(at, idx);
        }
    }
    if nodes.is_empty() {
        return None;
    }
    // Start at the latest event; on a timestamp tie, the last in stream
    // order.
    let mut cur = nodes
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.t.cmp(&b.t).then(ia.cmp(ib)))
        .map(|(i, _)| i)
        .expect("nodes is non-empty");
    let end_t = nodes[cur].t;
    let mut acc: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut edges = 0u64;
    loop {
        let n = &nodes[cur];
        let pred = match (n.prev_msg, n.prev_rank) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(b)) => b,
            // Same-message wins ties: the protocol edge explains the
            // wait better than generic same-rank scheduling.
            (Some(a), Some(b)) => {
                if nodes[b].t > nodes[a].t {
                    b
                } else {
                    a
                }
            }
        };
        let kind = if nodes[pred].id == n.id {
            classify(Some(nodes[pred].stage), n.stage)
        } else {
            "local"
        };
        *acc.entry(kind).or_insert(0) += n.t - nodes[pred].t;
        edges += 1;
        cur = pred;
    }
    Some(CriticalPath {
        total_ns: end_t - nodes[cur].t,
        edges,
        breakdown: EDGE_KINDS
            .iter()
            .map(|&k| (k, acc.get(k).copied().unwrap_or(0)))
            .collect(),
    })
}

// ---- Perfetto export -------------------------------------------------------

/// Serialize a recorded run as Chrome/Perfetto trace-event JSON: one
/// track (pid) per rank, an `X` duration slice per causal edge (named by
/// its ending stage, categorized by edge kind), and an `s`/`f` flow pair
/// per cross-rank edge. Timestamps are virtual microseconds
/// (`MsgLife::t / 1000`). Load the file at <https://ui.perfetto.dev> or
/// `chrome://tracing`.
pub fn trace_json(events: &[TraceEvent]) -> String {
    let st = stitch(events, 0);
    // (sort ns, emission order, serialized record): sorted output keeps
    // every track's timestamps monotone, the emission counter keeps ties
    // deterministic.
    let mut recs: Vec<(u64, usize, String)> = Vec::new();
    let mut ranks: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    let mut flow_id = 0u64;
    let push = |recs: &mut Vec<(u64, usize, String)>, t: u64, body: String| {
        let ord = recs.len();
        recs.push((t, ord, body));
    };
    for m in &st.messages {
        let label = format!("{}->{} seq {}", m.id.0, m.id.1, m.id.2);
        if let Some(first) = m.events.first() {
            ranks.insert(first.at);
            push(
                &mut recs,
                first.t,
                slice(first.at, first.t, 0, first.stage.name(), "local", &label),
            );
        }
        for w in m.events.windows(2) {
            let (a, b) = (w[0], w[1]);
            ranks.insert(b.at);
            let kind = classify(Some(a.stage), b.stage);
            if a.at == b.at {
                push(
                    &mut recs,
                    a.t,
                    slice(a.at, a.t, b.t - a.t, b.stage.name(), kind, &label),
                );
            } else {
                // Cross-rank: a zero-width arrival slice plus the flow
                // arrow connecting the two tracks.
                push(
                    &mut recs,
                    b.t,
                    slice(b.at, b.t, 0, b.stage.name(), kind, &label),
                );
                push(&mut recs, a.t, flow(a.at, a.t, flow_id, "s", &label));
                push(&mut recs, b.t, flow(b.at, b.t, flow_id, "f", &label));
                flow_id += 1;
            }
        }
    }
    recs.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut out = String::with_capacity(64 + recs.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for r in &ranks {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":0,\
             \"args\":{{\"name\":\"rank {r}\"}}}}"
        );
    }
    for (_, _, body) in &recs {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(body);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

fn ts_us(out: &mut String, t_ns: u64) {
    // Microseconds with nanosecond resolution preserved as a fraction.
    json::write_num(out, t_ns as f64 / 1000.0);
}

fn slice(pid: usize, t: u64, dur: u64, name: &str, cat: &str, msg: &str) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",");
    let _ = write!(s, "\"pid\":{pid},\"tid\":0,\"ts\":");
    ts_us(&mut s, t);
    s.push_str(",\"dur\":");
    ts_us(&mut s, dur);
    let _ = write!(s, ",\"args\":{{\"msg\":");
    json::write_str(&mut s, msg);
    s.push_str("}}");
    s
}

fn flow(pid: usize, t: u64, id: u64, ph: &str, msg: &str) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"{ph}\",");
    let _ = write!(s, "\"id\":{id},\"pid\":{pid},\"tid\":0,\"ts\":");
    ts_us(&mut s, t);
    if ph == "f" {
        s.push_str(",\"bp\":\"e\"");
    }
    let _ = write!(s, ",\"args\":{{\"msg\":");
    json::write_str(&mut s, msg);
    s.push_str("}}");
    s
}

/// Summary counts of a validated trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceJsonStats {
    /// Entries in `traceEvents` (metadata included).
    pub events: usize,
    /// `X` duration slices.
    pub slices: usize,
    /// Matched `s`/`f` flow pairs.
    pub flows: usize,
    /// Distinct `(pid, tid)` tracks.
    pub tracks: usize,
}

/// Validate trace-event JSON against the subset of the Chrome schema the
/// exporter emits: well-formed document, every record carries the
/// required fields for its phase, every flow id has exactly one `s` and
/// one `f` (with `f` not before `s`), and per-track timestamps are
/// monotone non-decreasing. This is the CI gate behind `--trace-out`.
pub fn validate_trace_json(text: &str) -> Result<TraceJsonStats, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("no traceEvents array")?;
    let mut slices = 0usize;
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut flows: BTreeMap<u64, (u64, u64, f64, f64)> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: no ph"))?;
        let num = |key: &str| -> Result<f64, String> {
            ev.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("event {i} (ph {ph}): no numeric {key}"))
        };
        if ev.get("name").and_then(JsonValue::as_str).is_none() {
            return Err(format!("event {i}: no name"));
        }
        if ph == "M" {
            num("pid")?;
            continue;
        }
        let (pid, tid, ts) = (num("pid")? as u64, num("tid")? as u64, num("ts")?);
        if let Some(&prev) = last_ts.get(&(pid, tid)) {
            if ts < prev {
                return Err(format!(
                    "event {i}: track ({pid},{tid}) ts went backwards ({prev} -> {ts})"
                ));
            }
        }
        last_ts.insert((pid, tid), ts);
        match ph {
            "X" => {
                if num("dur")? < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                slices += 1;
            }
            "s" | "f" => {
                let id = num("id")? as u64;
                let e = flows.entry(id).or_insert((0, 0, 0.0, 0.0));
                if ph == "s" {
                    e.0 += 1;
                    e.2 = ts;
                } else {
                    e.1 += 1;
                    e.3 = ts;
                }
            }
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    for (id, (s, f, s_ts, f_ts)) in &flows {
        if *s != 1 || *f != 1 {
            return Err(format!(
                "flow {id}: {s} start(s), {f} finish(es) (must pair 1:1)"
            ));
        }
        if f_ts < s_ts {
            return Err(format!(
                "flow {id}: finish at {f_ts} before start at {s_ts}"
            ));
        }
    }
    Ok(TraceJsonStats {
        events: events.len(),
        slices,
        flows: flows.len(),
        tracks: last_ts.len(),
    })
}

// ---- explain-msg -----------------------------------------------------------

/// Render every message with source rank `src` and pair sequence `seq`
/// as a human-readable cross-rank timeline (`repro --explain-msg`).
/// Returns a "no such message" note when the trace has none.
pub fn explain_msg(events: &[TraceEvent], src: usize, seq: u64) -> String {
    let st = stitch(events, 0);
    let matches: Vec<&MsgTimeline> = st
        .messages
        .iter()
        .filter(|m| m.id.0 == src && m.id.2 == seq)
        .collect();
    if matches.is_empty() {
        return format!("no lifecycle events for a message from rank {src} with seq {seq}\n");
    }
    let mut out = String::new();
    for m in &matches {
        let span = m.end().saturating_sub(m.start());
        let _ = writeln!(
            out,
            "message {} -> {} seq {} ({} B): {} events, {}, {:.3} us end-to-end",
            m.id.0,
            m.id.1,
            m.id.2,
            m.len,
            m.events.len(),
            if m.complete { "complete" } else { "INCOMPLETE" },
            span as f64 / 1e3
        );
        let mut prev: Option<LifeEvent> = None;
        for e in &m.events {
            match prev {
                None => {
                    let _ = writeln!(out, "  t={:<12} rank {:<4} {}", e.t, e.at, e.stage.name());
                }
                Some(p) => {
                    let _ = writeln!(
                        out,
                        "  +{:<11} rank {:<4} {:<12} [{}]",
                        e.t - p.t,
                        e.at,
                        e.stage.name(),
                        classify(Some(p.stage), e.stage)
                    );
                }
            }
            prev = Some(*e);
        }
        if m.complete {
            let _ = writeln!(out, "  breakdown:");
            for (k, v) in m.breakdown() {
                if v > 0 {
                    let _ = writeln!(out, "    {k:<13} {:>10.3} us", v as f64 / 1e3);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn life(at: usize, src: usize, dst: usize, seq: u64, stage: MsgStage, t: u64) -> TraceEvent {
        TraceEvent::MsgLife {
            at,
            src,
            dst,
            seq,
            stage,
            t,
            len: 256,
        }
    }

    fn eager_msg(src: usize, dst: usize, seq: u64, t0: u64) -> Vec<TraceEvent> {
        vec![
            life(src, src, dst, seq, MsgStage::Post, t0),
            life(src, src, dst, seq, MsgStage::Copy, t0 + 100),
            life(src, src, dst, seq, MsgStage::Doorbell, t0 + 150),
            life(dst, src, dst, seq, MsgStage::Wire, t0 + 1150),
            life(dst, src, dst, seq, MsgStage::Match, t0 + 1200),
            life(dst, src, dst, seq, MsgStage::Copy, t0 + 1300),
            life(dst, src, dst, seq, MsgStage::Complete, t0 + 1310),
            life(src, src, dst, seq, MsgStage::Complete, t0 + 1400),
        ]
    }

    #[test]
    fn edge_classification_rules() {
        use MsgStage::*;
        assert_eq!(classify(Some(Doorbell), Wire), "wire");
        assert_eq!(classify(Some(SrqStash), Wire), "stash_dwell");
        assert_eq!(classify(Some(UnexpStash), Match), "stash_dwell");
        assert_eq!(classify(Some(Wire), Match), "local");
        assert_eq!(classify(Some(Post), CreditStall), "credit_stall");
        assert_eq!(classify(Some(Match), Copy), "host_copy");
        assert_eq!(classify(Some(Post), OffloadSync), "host_copy");
        assert_eq!(classify(Some(Post), MrAcquire), "daemon");
        assert_eq!(classify(Some(MrAcquire), RdmaStart), "daemon");
        assert_eq!(classify(Some(RdmaStart), RdmaDone), "rdma");
        assert_eq!(classify(Some(Copy), Complete), "local");
        assert_eq!(classify(None, Wire), "wire");
    }

    #[test]
    fn stitch_builds_complete_timeline_with_full_coverage() {
        let evs = eager_msg(0, 1, 0, 1000);
        let st = stitch(&evs, 0);
        assert!(st.warnings.is_empty());
        assert_eq!(st.messages.len(), 1);
        let m = &st.messages[0];
        assert_eq!(m.id, (0, 1, 0));
        assert!(m.complete);
        assert_eq!(m.start(), 1000);
        assert_eq!(m.end(), 2400); // the *last* complete
        assert_eq!(m.coverage(), Some(1.0));
        let wire: u64 = m
            .breakdown()
            .iter()
            .find(|(k, _)| *k == "wire")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(wire, 1000);
    }

    #[test]
    fn late_duplicate_events_do_not_extend_the_message() {
        let mut evs = eager_msg(0, 1, 0, 0);
        // A retransmitted packet delivers again long after completion.
        evs.push(life(1, 0, 1, 0, MsgStage::Wire, 9000));
        let st = stitch(&evs, 0);
        let m = &st.messages[0];
        assert_eq!(m.end(), 1400, "end caps at the last complete");
        assert_eq!(m.coverage(), Some(1.0));
    }

    #[test]
    fn dropped_events_fail_soft() {
        // The ring ate the head: no post, only the receive side.
        let evs = vec![
            life(1, 0, 1, 7, MsgStage::Wire, 500),
            life(1, 0, 1, 7, MsgStage::Match, 600),
            life(1, 0, 1, 7, MsgStage::Complete, 700),
        ];
        let st = stitch(&evs, 3);
        assert_eq!(st.messages.len(), 1);
        assert!(!st.messages[0].complete, "head-truncated is incomplete");
        assert_eq!(st.messages[0].coverage(), None);
        assert!(st.warnings.iter().any(|w| w.contains("dropped 3 events")));
        assert!(st.warnings.iter().any(|w| w.contains("head-truncated")));
    }

    #[test]
    fn critical_path_telescopes_and_is_deterministic() {
        // Two overlapping messages; the path must end at the global last
        // event and its breakdown must sum to its total.
        let mut evs = eager_msg(0, 1, 0, 0);
        evs.extend(eager_msg(1, 2, 0, 700));
        evs.sort_by_key(|e| match e {
            TraceEvent::MsgLife { t, .. } => *t,
            _ => 0,
        });
        let cp = critical_path(&evs).expect("lifecycle events present");
        assert_eq!(
            cp.total_ns,
            cp.breakdown.iter().map(|(_, v)| v).sum::<u64>(),
            "chain edges telescope"
        );
        assert!(cp.edges > 0);
        assert!(cp.kind_ns("wire") >= 1000, "a wire hop is on the path");
        // Bit-for-bit determinism over the same stream.
        assert_eq!(critical_path(&evs), Some(cp));
    }

    #[test]
    fn critical_path_none_without_lifecycle_events() {
        assert!(critical_path(&[]).is_none());
    }

    #[test]
    fn trace_json_validates_and_pairs_flows() {
        let mut evs = eager_msg(0, 1, 0, 0);
        evs.extend(eager_msg(2, 3, 0, 50));
        let out = trace_json(&evs);
        let stats = validate_trace_json(&out).expect("exporter output is schema-valid");
        // Each eager message has 2 cross-rank edges (wire + the sender's
        // completion) -> 2 flow pairs per message.
        assert_eq!(stats.flows, 4);
        assert_eq!(stats.tracks, 4);
        assert!(stats.slices > 0);
    }

    #[test]
    fn validator_rejects_unpaired_flows_and_backward_ts() {
        let unpaired = r#"{"traceEvents":[
            {"name":"msg","cat":"m","ph":"s","id":1,"pid":0,"tid":0,"ts":1.0}
        ]}"#;
        let e = validate_trace_json(unpaired).unwrap_err();
        assert!(e.contains("must pair 1:1"), "{e}");
        let backward = r#"{"traceEvents":[
            {"name":"a","cat":"m","ph":"X","pid":0,"tid":0,"ts":5.0,"dur":1.0},
            {"name":"b","cat":"m","ph":"X","pid":0,"tid":0,"ts":2.0,"dur":1.0}
        ]}"#;
        let e = validate_trace_json(backward).unwrap_err();
        assert!(e.contains("went backwards"), "{e}");
        assert!(validate_trace_json("{}").is_err());
        assert!(validate_trace_json("not json").is_err());
    }

    #[test]
    fn explain_msg_renders_the_cross_rank_timeline() {
        let evs = eager_msg(3, 5, 12, 100);
        let text = explain_msg(&evs, 3, 12);
        assert!(text.contains("message 3 -> 5 seq 12"), "{text}");
        assert!(text.contains("complete"), "{text}");
        assert!(text.contains("post"), "{text}");
        assert!(text.contains("[wire]"), "{text}");
        assert!(text.contains("breakdown:"), "{text}");
        let miss = explain_msg(&evs, 4, 12);
        assert!(miss.contains("no lifecycle events"), "{miss}");
    }
}
