//! Server observability: one [`ServerMetrics`] aggregate shared by every
//! layer of the service.
//!
//! The aggregate lives on the [`crate::store::SessionStore`] (the one
//! object the handler, the reactors, the sweeper and the binaries all
//! already share) and is one table of typed `jim-metrics` fields: a hot
//! path bumps a field directly, and every reader renders the same fields.
//!
//! Three layers report here:
//!
//! * **per-op** ([`OpMetrics`]) — request count, error count and a
//!   log-scale latency histogram for each wire op, recorded by
//!   [`crate::handler::Handler::handle_line`]. The request counter is
//!   bumped *before* dispatch, so a `Metrics` op's own snapshot includes
//!   itself (its latency lands after, which is why a snapshot's latency
//!   count may trail its request count by the in-flight request).
//! * **transport** — dispatched lines, decode refusals (bad JSON or
//!   invalid UTF-8), oversized lines, live connections, and the epoll
//!   worker-queue depth, recorded by `serve.rs` / `reactor.rs`.
//! * **store/journal** — resident hits, disk resumes, replayed batches,
//!   journal bytes written, eviction totals and sweep counters, recorded
//!   by `store.rs` and the sweeper.
//!
//! The wire's `Metrics` op renders [`ServerMetrics::snapshot_fields`];
//! `jim-serve --metrics-interval` logs [`ServerMetrics::summary`]. Both
//! read the same counters, so the log line and the snapshot can never
//! disagree.

use crate::protocol::Request;
use crate::sync::LockExt;
use jim_json::Json;
use jim_metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every wire op, in protocol-table order. `Op as usize` indexes the
/// per-op metrics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `CreateSession`
    CreateSession,
    /// `NextQuestion`
    NextQuestion,
    /// `TopK`
    TopK,
    /// `Answer`
    Answer,
    /// `AnswerBatch`
    AnswerBatch,
    /// `Stats`
    Stats,
    /// `Explain`
    Explain,
    /// `Sql`
    Sql,
    /// `Transcript`
    Transcript,
    /// `ResumeSession`
    ResumeSession,
    /// `ListSessions`
    ListSessions,
    /// `CloseSession`
    CloseSession,
    /// `Metrics`
    Metrics,
}

impl Op {
    /// Every op, in wire order.
    pub const ALL: [Op; 13] = [
        Op::CreateSession,
        Op::NextQuestion,
        Op::TopK,
        Op::Answer,
        Op::AnswerBatch,
        Op::Stats,
        Op::Explain,
        Op::Sql,
        Op::Transcript,
        Op::ResumeSession,
        Op::ListSessions,
        Op::CloseSession,
        Op::Metrics,
    ];

    /// The wire name (the `"op"` field value).
    pub fn name(self) -> &'static str {
        match self {
            Op::CreateSession => "CreateSession",
            Op::NextQuestion => "NextQuestion",
            Op::TopK => "TopK",
            Op::Answer => "Answer",
            Op::AnswerBatch => "AnswerBatch",
            Op::Stats => "Stats",
            Op::Explain => "Explain",
            Op::Sql => "Sql",
            Op::Transcript => "Transcript",
            Op::ResumeSession => "ResumeSession",
            Op::ListSessions => "ListSessions",
            Op::CloseSession => "CloseSession",
            Op::Metrics => "Metrics",
        }
    }

    /// The op of a decoded request.
    pub fn of(request: &Request) -> Op {
        match request {
            Request::CreateSession { .. } => Op::CreateSession,
            Request::NextQuestion { .. } => Op::NextQuestion,
            Request::TopK { .. } => Op::TopK,
            Request::Answer { .. } => Op::Answer,
            Request::AnswerBatch { .. } => Op::AnswerBatch,
            Request::Stats { .. } => Op::Stats,
            Request::Explain { .. } => Op::Explain,
            Request::Sql { .. } => Op::Sql,
            Request::Transcript { .. } => Op::Transcript,
            Request::ResumeSession { .. } => Op::ResumeSession,
            Request::ListSessions => Op::ListSessions,
            Request::CloseSession { .. } => Op::CloseSession,
            Request::Metrics => Op::Metrics,
        }
    }
}

/// One reactor thread's share of the transport counters (epoll only).
///
/// The global transport gauges are **aggregates**: every reactor
/// increments and decrements the same `live_connections` /
/// `worker_queue_depth` gauges symmetrically (no reactor ever `set`s
/// them), so N reactors sum correctly. These per-reactor fields exist on
/// top of that so a snapshot can show *skew* — a reactor whose queue is
/// deep or whose connection share is lopsided.
#[derive(Default)]
pub struct ReactorMetrics {
    /// Complete lines this reactor handed to its worker pool.
    pub dispatched: Counter,
    /// Connections currently owned by this reactor.
    pub live_connections: Gauge,
    /// Jobs queued at this reactor's worker pool right now.
    pub worker_queue_depth: Gauge,
    /// Connections this reactor reaped for idling past the timeout.
    pub idle_timeouts: Counter,
    /// Over-cap connections shed that round-robin would have sent here.
    pub sheds: Counter,
}

/// Per-op counters and latency.
#[derive(Default)]
pub struct OpMetrics {
    /// Requests dispatched (counted before the handler runs).
    pub requests: Counter,
    /// Responses with `ok:false`.
    pub errors: Counter,
    /// Handler latency in microseconds.
    pub latency: Histogram,
}

/// When an aggregate was created; the default is now.
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Started(Instant::now())
    }
}

/// The server-wide metrics aggregate (see module docs).
#[derive(Default)]
pub struct ServerMetrics {
    started: Started,
    ops: [OpMetrics; Op::ALL.len()],
    /// Complete request lines handed to the handler.
    pub dispatched: Counter,
    /// Lines refused at decode: invalid UTF-8 or unparseable JSON.
    pub decode_refused: Counter,
    /// Lines refused for exceeding the 16 MiB cap.
    pub oversized: Counter,
    /// Currently open client connections (summed across reactors).
    pub live_connections: Gauge,
    /// Jobs queued at the epoll worker pools right now, summed across
    /// reactors.
    pub worker_queue_depth: Gauge,
    /// Connections refused at the admission cap with `Overloaded`.
    pub sheds: Counter,
    /// Connections reaped for idling past the timeout.
    pub idle_timeouts: Counter,
    /// Per-reactor breakdowns, one entry per reactor index (allocated by
    /// the reactor on first use; empty until the server starts).
    reactors: Mutex<Vec<Arc<ReactorMetrics>>>,
    /// Session lookups answered from memory.
    pub store_hits: Counter,
    /// Session lookups rehydrated from the journal (evicted → resident).
    pub store_resumes: Counter,
    /// Label batches replayed during those resumes.
    pub replayed_batches: Counter,
    /// Bytes appended to session journals (headers + batches).
    pub journal_bytes: Counter,
    /// Sessions dropped from memory by LRU/TTL since start.
    pub evicted_total: Counter,
    /// Of those, how many stayed resumable on disk.
    pub persisted_total: Counter,
    /// Sessions resident in memory, set by every change to the store's
    /// session map.
    pub resident_sessions: Gauge,
    /// Sessions on disk only, read from the journal directory (refreshed
    /// by each sweep and each `Metrics` request).
    pub disk_sessions: Gauge,
    /// TTL sweeper passes.
    pub sweeps: Counter,
    /// Sessions the sweeper evicted across all passes.
    pub swept_sessions: Counter,
    /// Sessions opened through factorized construction: every product
    /// over the limit, and those within it that were cheaper to factorize.
    pub factorized_sessions: Counter,
    /// Signature groups across those factorized sessions — the partition
    /// size the sweep produced instead of enumerating the product.
    pub signature_groups: Counter,
}

impl ServerMetrics {
    /// A fresh aggregate with every metric zeroed.
    pub fn new() -> ServerMetrics {
        Self::default()
    }

    /// The per-op metrics of one wire op.
    pub fn op(&self, op: Op) -> &OpMetrics {
        &self.ops[op as usize]
    }

    /// The per-reactor metrics of reactor `index`, allocating the slots
    /// up through `index` on first use. A transport restart over the same
    /// store (tests do this) gets the same slots back, so counters
    /// continue.
    pub fn reactor(&self, index: usize) -> Arc<ReactorMetrics> {
        let mut reactors = self.reactors.lock_unpoisoned();
        while reactors.len() <= index {
            reactors.push(Arc::default());
        }
        Arc::clone(&reactors[index])
    }

    /// All op latencies merged into one snapshot, plus total request and
    /// error counts.
    pub fn totals(&self) -> (u64, u64, HistogramSnapshot) {
        let mut latency = HistogramSnapshot::empty();
        let (mut requests, mut errors) = (0u64, 0u64);
        for m in &self.ops {
            requests += m.requests.get();
            errors += m.errors.get();
            latency.merge(&m.latency.snapshot());
        }
        (requests, errors, latency)
    }

    /// The `Metrics` response body: uptime plus the `ops` / `transport` /
    /// `store` sections.
    pub fn snapshot_fields(&self) -> Vec<(&'static str, Json)> {
        let ops: Vec<(String, Json)> = Op::ALL
            .iter()
            .map(|&op| {
                let m = self.op(op);
                let lat = m.latency.snapshot();
                (
                    op.name().to_string(),
                    Json::object([
                        ("requests", Json::from(m.requests.get())),
                        ("errors", Json::from(m.errors.get())),
                        ("latency_us", histogram_json(&lat)),
                    ]),
                )
            })
            .collect();
        vec![
            (
                "uptime_secs",
                Json::from(self.started.0.elapsed().as_secs_f64()),
            ),
            ("ops", Json::Object(ops)),
            (
                "transport",
                Json::object([
                    ("dispatched", Json::from(self.dispatched.get())),
                    ("decode_refused", Json::from(self.decode_refused.get())),
                    ("oversized", Json::from(self.oversized.get())),
                    ("live_connections", Json::from(self.live_connections.get())),
                    (
                        "worker_queue_depth",
                        Json::from(self.worker_queue_depth.get()),
                    ),
                    ("sheds", Json::from(self.sheds.get())),
                    ("idle_timeouts", Json::from(self.idle_timeouts.get())),
                    (
                        "reactors",
                        Json::Array(
                            self.reactors
                                .lock_unpoisoned()
                                .iter()
                                .map(|r| {
                                    Json::object([
                                        ("dispatched", Json::from(r.dispatched.get())),
                                        ("live_connections", Json::from(r.live_connections.get())),
                                        (
                                            "worker_queue_depth",
                                            Json::from(r.worker_queue_depth.get()),
                                        ),
                                        ("idle_timeouts", Json::from(r.idle_timeouts.get())),
                                        ("sheds", Json::from(r.sheds.get())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "store",
                Json::object([
                    ("hits", Json::from(self.store_hits.get())),
                    ("resumes", Json::from(self.store_resumes.get())),
                    ("replayed_batches", Json::from(self.replayed_batches.get())),
                    ("journal_bytes", Json::from(self.journal_bytes.get())),
                    ("evicted_total", Json::from(self.evicted_total.get())),
                    ("persisted_total", Json::from(self.persisted_total.get())),
                    (
                        "resident_sessions",
                        Json::from(self.resident_sessions.get()),
                    ),
                    ("disk_sessions", Json::from(self.disk_sessions.get())),
                    ("sweeps", Json::from(self.sweeps.get())),
                    ("swept_sessions", Json::from(self.swept_sessions.get())),
                    (
                        "factorized_sessions",
                        Json::from(self.factorized_sessions.get()),
                    ),
                    ("signature_groups", Json::from(self.signature_groups.get())),
                ]),
            ),
        ]
    }

    /// The periodic log line `jim-serve --metrics-interval` emits — the
    /// same counters the snapshot reads, one formatted line.
    pub fn summary(&self) -> String {
        let (requests, errors, latency) = self.totals();
        format!(
            "metrics: requests={requests} errors={errors} \
             p50={}µs p99={}µs max={}µs conns={} queue={} \
             resident={} disk={} evicted={} ({} resumable)",
            latency.p50(),
            latency.p99(),
            latency.max(),
            self.live_connections.get(),
            self.worker_queue_depth.get(),
            self.resident_sessions.get(),
            self.disk_sessions.get(),
            self.evicted_total.get(),
            self.persisted_total.get(),
        )
    }
}

/// Render one latency snapshot for the wire.
fn histogram_json(lat: &HistogramSnapshot) -> Json {
    Json::object([
        ("count", Json::from(lat.count())),
        ("mean", Json::from(lat.mean())),
        ("p50", Json::from(lat.p50())),
        ("p90", Json::from(lat.p90())),
        ("p99", Json::from(lat.p99())),
        ("max", Json::from(lat.max())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_of_covers_every_request() {
        assert_eq!(Op::ALL.len(), 13);
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "table order must match discriminants");
        }
        assert_eq!(
            Op::of(&Request::NextQuestion { session: 1 }),
            Op::NextQuestion
        );
        assert_eq!(Op::of(&Request::Metrics), Op::Metrics);
        assert_eq!(Op::of(&Request::ListSessions), Op::ListSessions);
    }

    #[test]
    fn snapshot_fields_carry_all_sections() {
        let m = ServerMetrics::new();
        m.op(Op::CreateSession).requests.inc();
        m.op(Op::CreateSession).latency.record(1000);
        m.dispatched.add(3);
        m.evicted_total.add(2);
        let json = Json::Object(
            m.snapshot_fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        let create = json.get("ops").unwrap().get("CreateSession").unwrap();
        assert_eq!(create.get("requests").unwrap().as_u64(), Some(1));
        assert_eq!(
            create
                .get("latency_us")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let transport = json.get("transport").unwrap();
        assert_eq!(transport.get("dispatched").unwrap().as_u64(), Some(3));
        let store = json.get("store").unwrap();
        assert_eq!(store.get("evicted_total").unwrap().as_u64(), Some(2));
        assert!(json.get("uptime_secs").is_some());
    }

    #[test]
    fn summary_is_one_line_from_the_same_counters() {
        let m = ServerMetrics::new();
        m.op(Op::Answer).requests.inc();
        m.op(Op::Answer).latency.record(10);
        m.evicted_total.add(2);
        m.persisted_total.inc();
        let line = m.summary();
        assert!(!line.contains('\n'));
        assert!(line.contains("requests=1"), "{line}");
        assert!(line.contains("evicted=2 (1 resumable)"), "{line}");
    }
}
