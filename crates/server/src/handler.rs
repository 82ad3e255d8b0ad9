//! Request dispatch: the transport-independent heart of the service.
//!
//! [`Handler::handle_line`] maps one wire line to one response line; the
//! TCP server, the REPL's offline mode and the integration tests all call
//! it. The handler holds the shared [`SessionStore`] and nothing else.

use crate::journal;
use crate::metrics::Op;
use crate::protocol::{error, ok, parse_strategy, Request, ServerError, Source};
use crate::store::{QuestionCache, Session, SessionStore};
use crate::sync::LockExt;
use jim_core::{
    explain, BatchOutcome, Engine, EngineOptions, Label, SessionOrigin, StrategyKind, Transcript,
};
use jim_json::Json;
use jim_relation::ProductId;
use std::sync::Arc;
use std::time::Instant;

/// Server-side resource ceilings the client cannot raise.
#[derive(Debug, Clone, Copy)]
pub struct ServerLimits {
    /// The most product tuples a session may enumerate. A client
    /// `max_product` is clamped to this; products larger than the
    /// effective limit open through factorized construction at full
    /// fidelity (or are refused when the factorization sweep passes its
    /// budget), and products within it factorize when that is cheaper
    /// than enumerating them.
    pub max_product: u64,
    /// The most labels one `AnswerBatch` may carry. Validation is O(batch)
    /// and the batch is held in memory while the session lock is taken,
    /// so the cap bounds per-request work the same way `max_product`
    /// bounds per-session memory.
    pub max_batch: usize,
}

impl Default for ServerLimits {
    fn default() -> Self {
        ServerLimits {
            max_product: EngineOptions::default().max_product,
            max_batch: 64,
        }
    }
}

/// Dispatches decoded requests against the session store.
pub struct Handler {
    store: Arc<SessionStore>,
    limits: ServerLimits,
}

impl Handler {
    /// A handler over a shared store with default limits.
    pub fn new(store: Arc<SessionStore>) -> Self {
        Handler::with_limits(store, ServerLimits::default())
    }

    /// A handler with explicit resource ceilings.
    pub fn with_limits(store: Arc<SessionStore>, limits: ServerLimits) -> Self {
        Handler { store, limits }
    }

    /// The shared store (the event loop also sweeps it on every tick).
    pub fn store(&self) -> &Arc<SessionStore> {
        &self.store
    }

    /// One wire line in, one wire line out. Never panics on client input:
    /// malformed requests become `{"ok":false,...}` responses.
    ///
    /// This is also where per-op metrics are recorded (callers of the
    /// lower-level [`Handler::handle`] bypass them): the request counter
    /// is bumped *before* dispatch — a `Metrics` op's snapshot includes
    /// itself — latency and the error counter after.
    pub fn handle_line(&self, line: &str) -> String {
        let metrics = self.store.metrics();
        let response = match Request::parse(line) {
            Ok(request) => {
                let op = metrics.op(Op::of(&request));
                op.requests.inc();
                let start = Instant::now();
                let response = self.handle(request);
                op.latency.record_duration(start.elapsed());
                if response.get("ok").and_then(Json::as_bool) == Some(false) {
                    op.errors.inc();
                }
                response
            }
            Err(message) => {
                metrics.decode_refused.inc();
                error(message)
            }
        };
        response.render()
    }

    /// Dispatch one decoded request.
    pub fn handle(&self, request: Request) -> Json {
        match request {
            // The sampling fields are always empty: decoding refuses them.
            Request::CreateSession {
                source,
                strategy,
                max_product,
                ..
            } => self.create_session(source, strategy, max_product),
            Request::NextQuestion { session } => self.with_session(session, Self::next_question),
            Request::TopK { session, k } => self.with_session(session, |s| Self::top_k(s, k)),
            Request::Answer {
                session,
                tuple,
                label,
            } => self.with_session(session, |s| self.answer(s, tuple, label)),
            Request::AnswerBatch { session, labels } => {
                let max_batch = self.limits.max_batch;
                if labels.len() > max_batch {
                    // Reject before taking the session lock: an oversized
                    // batch must cost the server nothing.
                    return error(format!(
                        "batch of {} labels exceeds the server cap of {max_batch}",
                        labels.len()
                    ));
                }
                self.with_session(session, |s| self.answer_batch(s, &labels))
            }
            Request::Stats { session } => self.with_session(session, Self::stats),
            Request::Explain { session, tuple } => {
                self.with_session(session, |s| Self::explain_tuple(s, tuple))
            }
            Request::Sql { session } => self.with_session(session, Self::sql),
            Request::Transcript { session } => self.with_session(session, Self::transcript),
            Request::ResumeSession { session } => self.with_session(session, Self::resumed),
            Request::ListSessions => self.list_sessions(),
            Request::CloseSession { session } => {
                if self.store.remove(session) {
                    ok([("closed", Json::from(session))])
                } else {
                    error(format!("unknown session {session}"))
                }
            }
            Request::Metrics => self.metrics_snapshot(),
        }
    }

    /// The `Metrics` op: refresh the on-disk session gauge (it is read
    /// from the journal directory, here and nowhere else), then render
    /// the aggregate.
    fn metrics_snapshot(&self) -> Json {
        let metrics = self.store.metrics();
        metrics
            .disk_sessions
            .set(self.store.disk_ids().len() as i64);
        ok(metrics.snapshot_fields())
    }

    /// Run `f` on the session, resuming it from its journal when it is not
    /// resident. A journal that cannot be resumed answers with its error.
    fn with_session(&self, id: u64, f: impl FnOnce(&mut Session) -> Json) -> Json {
        let handle = match self.store.fetch(id) {
            Ok(Some(handle)) => handle,
            Ok(None) => {
                return error(format!(
                    "unknown session {id}: not resident and no journal on disk \
                     (expired, closed or never created)"
                ))
            }
            Err(message) => return error(message),
        };
        let Ok(mut guard) = handle.lock() else {
            // A poisoned session lock means an earlier request panicked
            // mid-engine-mutation: the state (and the journal batch whose
            // application panicked) cannot be trusted, so shed the session
            // instead of serving — or resuming — a half-updated copy. Other
            // sessions are untouched; infrastructure locks recover instead
            // (see `crate::sync`).
            self.store.remove(id);
            return ServerError::SessionPoisoned.response();
        };
        f(&mut guard)
    }

    fn create_session(
        &self,
        source: Source,
        strategy: Option<String>,
        max_product: Option<u64>,
    ) -> Json {
        let product = match journal::build_product(&source) {
            Ok(p) => p,
            Err(message) => return error(message),
        };
        let kind = match strategy.as_deref().map(parse_strategy) {
            None => StrategyKind::LookaheadMinPrune,
            Some(Ok(kind)) => kind,
            Some(Err(message)) => return error(message),
        };
        // Clients may lower the product-size guard, never raise it: the
        // engine eagerly enumerates up to `limit` tuples, so an unbounded
        // client-supplied limit would be a remote allocation bomb.
        let limit = match max_product {
            None => self.limits.max_product,
            Some(0) => return error("`max_product` must be positive"),
            Some(l) => l.min(self.limits.max_product),
        };
        // The origin records the *effective* limit and the construction
        // that ran, so a resume rebuilds the identical engine even if
        // server ceilings changed in between. `journal::engine_from_product`
        // alone decides the construction, and it is always exact: a
        // product over the limit factorizes or is refused with the sweep
        // budget's error; any other takes the cheaper exact method.
        let mut origin = SessionOrigin {
            source,
            strategy,
            max_product: limit,
            sample_seed: 0,
            sampled: false,
            factorized: false,
        };
        let engine = match journal::engine_from_product(product, &origin) {
            Ok(engine) => engine,
            Err(message) => return error(message),
        };
        // Record the construction that ran before the journal header is
        // written: a product within the limit may have factorized.
        origin.factorized = engine.is_factorized();
        if origin.factorized {
            let metrics = self.store.metrics();
            metrics.factorized_sessions.inc();
            metrics.signature_groups.add(engine.num_groups() as u64);
        }
        let columns = columns_of(&engine);
        let tuples = engine.stats().total_tuples;
        let atoms = engine.universe().len();
        let factorized = origin.factorized;
        let (session, evicted) =
            self.store
                .create_session(engine, kind.build(), kind.to_string(), false, Some(origin));
        // The store handed this handle out for the first time a moment
        // ago; a fresh mutex cannot be poisoned, so recovery is safe.
        let session = session.lock_unpoisoned();
        let mut fields = vec![
            ("session", Json::from(session.id)),
            ("strategy", Json::from(kind.to_string())),
            ("tuples", Json::from(tuples)),
            ("atoms", Json::from(atoms)),
            ("factorized", Json::Bool(factorized)),
            ("persisted", Json::Bool(session.persisted)),
            ("columns", Json::Array(columns)),
        ];
        if let Some(evicted) = evicted {
            fields.push(("evicted", Json::from(evicted)));
        }
        ok(fields)
    }

    /// The shape of a session, resumed from its journal if it was evicted
    /// (every op resumes one; this op reports what came back).
    fn resumed(session: &mut Session) -> Json {
        let stats = session.engine.stats();
        ok([
            ("session", Json::from(session.id)),
            ("strategy", Json::from(session.strategy_name.as_str())),
            ("tuples", Json::from(stats.total_tuples)),
            ("atoms", Json::from(session.engine.universe().len())),
            ("interactions", Json::from(stats.interactions())),
            ("resolved", Json::Bool(session.engine.is_resolved())),
            ("factorized", Json::Bool(session.engine.is_factorized())),
            ("persisted", Json::Bool(session.persisted)),
            ("columns", Json::Array(columns_of(&session.engine))),
        ])
    }

    fn next_question(session: &mut Session) -> Json {
        let session = &mut *session;
        let generation = session.engine.generation();
        let choice = match session.cache {
            // The engine hasn't changed since the last NextQuestion: the
            // cached choice is still exactly right — no strategy work.
            Some(c) if c.generation == generation => c.choice,
            _ => {
                // Re-propose a pending question that is still informative
                // rather than consulting the strategy again (idempotent
                // retries; stable under Random). A pending tuple that
                // free-form answers meanwhile labeled OR pruned must not
                // be re-proposed — in particular, the session may already
                // be resolved.
                let pending = session
                    .pending
                    .filter(|&id| session.engine.is_informative(id).unwrap_or(false));
                let choice = match pending {
                    Some(id) => Some(id),
                    None => {
                        let view = session.engine.candidates();
                        session.strategy.choose(&session.engine, &view)
                    }
                };
                session.cache = Some(QuestionCache { generation, choice });
                choice
            }
        };
        match choice {
            None => {
                session.pending = None;
                resolved_response(&session.engine)
            }
            Some(id) => {
                session.pending = Some(id);
                let mut fields = vec![("resolved", Json::Bool(false))];
                fields.extend(tuple_fields(&session.engine, id));
                fields.push((
                    "informative_remaining",
                    Json::from(session.engine.stats().informative),
                ));
                ok(fields)
            }
        }
    }

    fn top_k(session: &mut Session, k: usize) -> Json {
        let session = &mut *session;
        let batch = {
            let view = session.engine.candidates();
            session.strategy.top_k(&session.engine, &view, k)
        };
        if batch.is_empty() {
            return resolved_response(&session.engine);
        }
        session.pending = Some(batch[0]);
        // The batch head supersedes any earlier NextQuestion proposal: the
        // question cache must follow it, or a NextQuestion at the same
        // generation would resurrect the stale choice over the pending one.
        session.cache = Some(QuestionCache {
            generation: session.engine.generation(),
            choice: Some(batch[0]),
        });
        let tuples: Vec<Json> = batch
            .iter()
            .map(|&id| Json::object(tuple_fields(&session.engine, id)))
            .collect();
        ok([
            ("resolved", Json::Bool(false)),
            ("tuples", Json::Array(tuples)),
        ])
    }

    fn answer(&self, session: &mut Session, tuple: Option<u64>, label: Label) -> Json {
        let Some(id) = tuple.map(ProductId).or(session.pending) else {
            return error("no pending question; ask NextQuestion first or pass a `tuple` rank");
        };
        self.apply(session, &[(id, label)], |outcome| {
            vec![
                ("tuple", Json::from(id.0)),
                ("label", Json::from(label.to_string())),
                (
                    "was_informative",
                    Json::Bool(outcome.informative_labels == 1),
                ),
            ]
        })
    }

    fn answer_batch(&self, session: &mut Session, labels: &[(u64, Label)]) -> Json {
        let batch: Vec<(ProductId, Label)> = labels
            .iter()
            .map(|&(rank, label)| (ProductId(rank), label))
            .collect();
        self.apply(session, &batch, |outcome| {
            vec![
                ("applied", Json::from(outcome.applied)),
                ("informative_labels", Json::from(outcome.informative_labels)),
            ]
        })
    }

    /// The one label path of `Answer` (a batch of one) and `AnswerBatch`:
    /// apply the batch in one engine pass, journal it before the ack and
    /// clear the pending question it answered. The response is the op's
    /// `head` fields, then what the batch did, then the predicate once
    /// resolved.
    fn apply(
        &self,
        session: &mut Session,
        batch: &[(ProductId, Label)],
        head: impl FnOnce(&BatchOutcome) -> Vec<(&'static str, Json)>,
    ) -> Json {
        // Atomic: on any rejected entry the engine is untouched, so the
        // pending question and its generation-keyed cache stay exactly
        // valid, and nothing is journaled. On success the generation moved
        // once, which is what the question cache is keyed on.
        let outcome = match session.engine.label_batch(batch) {
            Ok(outcome) => outcome,
            Err(e) => return error(e.to_string()),
        };
        // One journal line per applied batch, before the ack: replay
        // re-applies the same batches in the same order.
        self.store.record_batch(session, batch);
        if session
            .pending
            .is_some_and(|p| batch.iter().any(|&(id, _)| id == p))
        {
            session.pending = None;
        }
        let mut fields = head(&outcome);
        fields.extend([
            ("pruned", Json::from(outcome.pruned)),
            (
                "informative_remaining",
                Json::from(outcome.informative_remaining),
            ),
            ("resolved", Json::Bool(outcome.resolved)),
        ]);
        if outcome.resolved {
            fields.extend(predicate_fields(&session.engine));
        }
        ok(fields)
    }

    fn stats(session: &mut Session) -> Json {
        let stats = session.engine.stats();
        ok([
            ("total_tuples", Json::from(stats.total_tuples)),
            ("labeled_positive", Json::from(stats.labeled_positive)),
            ("labeled_negative", Json::from(stats.labeled_negative)),
            ("pruned", Json::from(stats.pruned)),
            ("informative", Json::from(stats.informative)),
            ("interactions", Json::from(stats.interactions())),
            (
                "wasted_interactions",
                Json::from(stats.wasted_interactions()),
            ),
            ("resolved_fraction", Json::from(stats.resolved_fraction())),
            ("resolved", Json::Bool(session.engine.is_resolved())),
            ("factorized", Json::Bool(session.engine.is_factorized())),
            ("strategy", Json::from(session.strategy_name.as_str())),
            ("summary", Json::from(stats.to_string())),
        ])
    }

    fn explain_tuple(session: &mut Session, tuple: Option<u64>) -> Json {
        let id = match tuple.map(ProductId).or(session.pending) {
            Some(id) => id,
            None => return error("pass a `tuple` rank or ask NextQuestion first"),
        };
        let class = match session.engine.classify(id) {
            Ok(class) => class,
            Err(e) => return error(e.to_string()),
        };
        match explain(&session.engine, id) {
            Err(e) => error(e.to_string()),
            Ok(explanation) => ok([
                ("tuple", Json::from(id.0)),
                ("class", Json::from(format!("{class:?}"))),
                ("explanation", Json::from(explanation.to_string())),
            ]),
        }
    }

    fn sql(session: &mut Session) -> Json {
        let predicate = session.engine.result();
        ok([
            ("resolved", Json::Bool(session.engine.is_resolved())),
            ("predicate", Json::from(predicate.to_string())),
            ("sql", Json::from(predicate.to_sql())),
            ("gav", Json::from(predicate.to_gav("Inferred"))),
        ])
    }

    fn transcript(session: &mut Session) -> Json {
        // With provenance attached, the wire transcript is self-contained:
        // origin rebuilds the instance, the labels replay the interaction.
        let mut transcript = Transcript::capture(&session.engine);
        if let Some(origin) = &session.origin {
            transcript = transcript.with_origin(origin.clone());
        }
        ok([
            ("transcript", transcript.to_json()),
            ("text", Json::from(transcript.to_string())),
        ])
    }

    fn list_sessions(&self) -> Json {
        let mut resident_count = 0u64;
        let mut sessions: Vec<Json> = self
            .store
            .ids()
            .into_iter()
            .filter_map(|id| {
                // peek, not get: listing sessions must not refresh their
                // TTL/LRU stamps, or a monitoring poller keeps every
                // abandoned session alive forever.
                let handle = self.store.peek(id)?;
                // A poisoned session is omitted from the listing rather
                // than shed here: listing is read-only, and the next
                // direct op on the session sheds it via `with_session`.
                let guard: std::sync::MutexGuard<'_, Session> = handle.lock().ok()?;
                resident_count += 1;
                Some(Json::object([
                    ("session", Json::from(id)),
                    ("resident", Json::Bool(true)),
                    ("persisted", Json::Bool(guard.persisted)),
                    ("strategy", Json::from(guard.strategy_name.as_str())),
                    ("tuples", Json::from(guard.engine.stats().total_tuples)),
                    (
                        "interactions",
                        Json::from(guard.engine.stats().interactions()),
                    ),
                    ("resolved", Json::Bool(guard.engine.is_resolved())),
                ]))
            })
            .collect();
        // Evicted-but-durable sessions, read off their journals by the one
        // journal reader: no engine rebuild, and (like peek) nothing is
        // resurrected. A journal that cannot be read is listed with the
        // error resuming it would report, so it stays findable (and
        // closable) and matches Metrics' disk gauge.
        let mut disk_count = 0u64;
        if let Some(journal) = self.store.journal() {
            for id in self.store.disk_ids() {
                let mut fields = vec![
                    ("session", Json::from(id)),
                    ("resident", Json::Bool(false)),
                    ("persisted", Json::Bool(true)),
                ];
                match journal.load(id) {
                    // Deleted since the directory was listed.
                    Ok(None) => continue,
                    Ok(Some(stored)) => {
                        let strategy = journal::strategy_kind(&stored.origin)
                            .map(|kind| kind.to_string())
                            .unwrap_or_else(|_| "?".into());
                        fields.push(("strategy", Json::from(strategy)));
                        fields.push(("interactions", Json::from(stored.interactions())));
                    }
                    Err(reason) => fields.push(("error", Json::from(reason))),
                }
                disk_count += 1;
                sessions.push(Json::object(fields));
            }
        }
        // The store counters ride along (same names as the metrics
        // snapshot's `store` section), so a monitoring poller gets the
        // population and its churn in one response.
        let metrics = self.store.metrics();
        ok([
            ("sessions", Json::Array(sessions)),
            ("resident_count", Json::from(resident_count)),
            ("disk_count", Json::from(disk_count)),
            ("evicted_total", Json::from(self.store.evicted_total())),
            ("persisted_total", Json::from(self.store.persisted_total())),
            ("resumed_total", Json::from(metrics.store_resumes.get())),
            (
                "replayed_batches",
                Json::from(metrics.replayed_batches.get()),
            ),
        ])
    }
}

/// `{resolved:true}` plus the inferred query.
fn resolved_response(engine: &Engine) -> Json {
    let mut fields = vec![("resolved", Json::Bool(true))];
    fields.extend(predicate_fields(engine));
    ok(fields)
}

/// The engine's current predicate, as text and as SQL.
fn predicate_fields(engine: &Engine) -> [(&'static str, Json); 2] {
    let predicate = engine.result();
    [
        ("predicate", Json::from(predicate.to_string())),
        ("sql", Json::from(predicate.to_sql())),
    ]
}

/// `tuple` + rendered `values` fields for one candidate.
fn tuple_fields(engine: &Engine, id: ProductId) -> Vec<(&'static str, Json)> {
    let values = match engine.product().tuple(id) {
        Ok(tuple) => tuple
            .values()
            .iter()
            .map(|v| Json::from(v.to_string()))
            .collect(),
        Err(_) => Vec::new(),
    };
    vec![("tuple", Json::from(id.0)), ("values", Json::Array(values))]
}

/// Qualified column names of the product schema.
fn columns_of(engine: &Engine) -> Vec<Json> {
    let schema = engine.product().schema();
    // Every attr yielded by `attrs()` has a qualified name; `filter_map`
    // keeps the response path panic-free if that invariant ever slips.
    schema
        .attrs()
        .filter_map(|ga| schema.qualified_name(ga).ok().map(Json::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalStore;
    use crate::store::StoreConfig;
    use jim_core::{CandidateView, Strategy};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn handler() -> Handler {
        Handler::new(Arc::new(SessionStore::new(StoreConfig::default())))
    }

    fn send(h: &Handler, line: &str) -> Json {
        Json::parse(&h.handle_line(line)).expect("responses are valid JSON")
    }

    /// Wraps a strategy and counts `choose` calls — observes whether the
    /// generation-keyed question cache short-circuits the strategy.
    struct Counting {
        calls: Arc<AtomicUsize>,
        inner: Box<dyn Strategy + Send>,
    }

    impl Strategy for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn choose(&mut self, engine: &Engine, candidates: &CandidateView<'_>) -> Option<ProductId> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.inner.choose(engine, candidates)
        }

        fn top_k(
            &mut self,
            engine: &Engine,
            candidates: &CandidateView<'_>,
            k: usize,
        ) -> Vec<ProductId> {
            self.inner.top_k(engine, candidates, k)
        }
    }

    #[test]
    fn malformed_line_is_an_error_response() {
        let h = handler();
        let r = send(&h, "][");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn unknown_session_is_an_error_response() {
        let h = handler();
        let r = send(&h, r#"{"op":"NextQuestion","session":42}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("42"));
    }

    #[test]
    fn create_from_scenario_reports_shape() {
        let h = handler();
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"lookahead-minprune"}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("tuples").unwrap().as_u64(), Some(12));
        assert_eq!(r.get("atoms").unwrap().as_u64(), Some(6));
        assert_eq!(r.get("columns").unwrap().as_array().unwrap().len(), 5);
    }

    #[test]
    fn create_rejects_bad_inputs() {
        let h = handler();
        for (line, needle) in [
            (
                r#"{"op":"CreateSession","source":{"scenario":"nope"}}"#,
                "unknown scenario",
            ),
            (
                r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"nope"}"#,
                "unknown strategy",
            ),
            (
                r#"{"op":"CreateSession","source":{"relations":[{"name":"a","csv":"x\n1\n"}]},"max_product":0}"#,
                "must be positive",
            ),
            (
                r#"{"op":"CreateSession","source":{"relations":[{"name":"a","csv":"\"bad"}]}}"#,
                "relation `a`",
            ),
            (
                r#"{"op":"CreateSession","source":{"relations":[{"name":"a","csv":"x\n1\n"},{"name":"a","csv":"x\n1\n"}]}}"#,
                "twice",
            ),
            (
                r#"{"op":"CreateSession","source":{"relations":[{"name":"a","csv":"x\n1\n"}],"view":["b"]}}"#,
                "no relation",
            ),
        ] {
            let r = send(&h, line);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{line}");
            assert!(
                r.get("error").unwrap().as_str().unwrap().contains(needle),
                "{line} -> {r}"
            );
        }
    }

    #[test]
    fn answer_without_pending_is_rejected() {
        let h = handler();
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
        );
        let id = r.get("session").unwrap().as_u64().unwrap();
        let r = send(
            &h,
            &format!(r#"{{"op":"Answer","session":{id},"label":"+"}}"#),
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn next_question_is_idempotent_until_answered() {
        let h = handler();
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"random:3"}"#,
        );
        let id = r.get("session").unwrap().as_u64().unwrap();
        let q1 = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        let q2 = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        assert_eq!(
            q1.get("tuple").unwrap().as_u64(),
            q2.get("tuple").unwrap().as_u64(),
            "a random strategy must not re-roll an unanswered question"
        );
    }

    #[test]
    fn oversized_product_opens_factorized_at_full_fidelity() {
        // Server ceiling of 100 tuples; the setgame scenario is 144.
        let h = Handler::with_limits(
            Arc::new(SessionStore::new(StoreConfig::default())),
            ServerLimits {
                max_product: 100,
                ..Default::default()
            },
        );
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"setgame"}}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r}");
        assert!(r.get("sampled").is_none(), "{r}");
        assert_eq!(r.get("factorized").unwrap().as_bool(), Some(true));
        assert_eq!(
            r.get("tuples").unwrap().as_u64(),
            Some(144),
            "full fidelity"
        );

        // A factorized session is fully usable: it asks questions and its
        // Stats carry the factorized marker.
        let id = r.get("session").unwrap().as_u64().unwrap();
        let q = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        assert_eq!(q.get("resolved").unwrap().as_bool(), Some(false), "{q}");
        let s = send(&h, &format!(r#"{{"op":"Stats","session":{id}}}"#));
        assert_eq!(s.get("factorized").unwrap().as_bool(), Some(true));
        assert_eq!(s.get("total_tuples").unwrap().as_u64(), Some(144));

        // Metrics counted the session and its partition size.
        let m = send(&h, r#"{"op":"Metrics"}"#);
        let store = m.get("store").unwrap();
        assert_eq!(
            store.get("factorized_sessions").unwrap().as_u64(),
            Some(1),
            "{m}"
        );
        assert!(store.get("signature_groups").unwrap().as_u64().unwrap() >= 1);

        // Small products still enumerate exactly.
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
        );
        assert_eq!(r.get("factorized").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("tuples").unwrap().as_u64(), Some(12));
    }

    /// An oversized product whose sweep passes the budget is refused with
    /// the engine's `FactorizationTooLarge` message: no session is opened
    /// and no journal is written.
    #[test]
    fn over_budget_factorization_falls_back_to_a_sample() {
        // A self-join of t(x, y): x distinct, y one constant outside x's
        // values. Every block of the second occurrence shares y with every
        // block of the first, so the sweep needs 2,100 · 2,101 ≈ 4.4M
        // visits, past its 4M budget.
        let mut csv = String::from("x,y\n");
        for x in 0..2_100 {
            csv.push_str(&format!("{x},9999\n"));
        }
        let dir = std::env::temp_dir().join(format!("jim-handler-refusal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Handler::new(Arc::new(SessionStore::with_journal(
            StoreConfig::default(),
            JournalStore::open(&dir).unwrap(),
        )));
        let r = send(
            &h,
            &format!(
                r#"{{"op":"CreateSession","source":{{"relations":[{{"name":"t","csv":{}}}],"view":["t","t"]}},"strategy":"local-general","max_product":1000}}"#,
                Json::from(csv.as_str()).render()
            ),
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{r}");
        assert!(h.store().ids().is_empty());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        // The refusal is exactly the engine's typed error for this product.
        let source = Source::Inline {
            relations: vec![("t".into(), csv)],
            view: Some(vec!["t".into(); 2]),
        };
        let product = journal::build_product(&source).unwrap();
        let expected = Engine::from_factorized(product, &EngineOptions::default()).unwrap_err();
        assert!(matches!(
            expected,
            jim_core::InferenceError::FactorizationTooLarge { .. }
        ));
        let message = r.get("error").and_then(Json::as_str);
        assert_eq!(message, Some(expected.to_string().as_str()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_product_within_the_limit_reports_the_construction_that_ran() {
        // customer × orders joined on a key, 40,000 tuples under the
        // default limit: factorizing it is cheaper than enumerating.
        let mut customer = String::from("ck,name\\n");
        for c in 0..100 {
            customer.push_str(&format!("{c},c{c}\\n"));
        }
        let mut orders = String::from("ok,ck\\n");
        for o in 0..400 {
            orders.push_str(&format!("o{o},{}\\n", (o * 7) % 100));
        }
        let h = handler();
        let r = send(
            &h,
            &format!(
                r#"{{"op":"CreateSession","source":{{"relations":[{{"name":"customer","csv":"{customer}"}},{{"name":"orders","csv":"{orders}"}}]}}}}"#
            ),
        );
        assert_eq!(r.get("factorized").unwrap().as_bool(), Some(true), "{r}");
        assert_eq!(r.get("tuples").unwrap().as_u64(), Some(40_000), "{r}");
        let id = r.get("session").unwrap().as_u64().unwrap();
        let s = send(&h, &format!(r#"{{"op":"Stats","session":{id}}}"#));
        assert_eq!(s.get("factorized").unwrap().as_bool(), Some(true), "{s}");
        let m = send(&h, r#"{"op":"Metrics"}"#);
        let store = m.get("store").unwrap();
        assert_eq!(store.get("factorized_sessions").unwrap().as_u64(), Some(1));
        let transcript = send(&h, &format!(r#"{{"op":"Transcript","session":{id}}}"#));
        let origin = transcript
            .get("transcript")
            .and_then(|t| t.get("origin"))
            .unwrap();
        assert_eq!(origin.get("factorized").unwrap().as_bool(), Some(true));
    }

    /// `choose` proposes the first candidate, `top_k` leads with the last —
    /// guarantees the two proposals differ on any multi-candidate instance.
    struct FirstChooseLastTopK;

    impl Strategy for FirstChooseLastTopK {
        fn name(&self) -> &'static str {
            "first-last"
        }

        fn choose(
            &mut self,
            _engine: &Engine,
            candidates: &CandidateView<'_>,
        ) -> Option<ProductId> {
            candidates.candidates().first().map(|c| c.representative)
        }

        fn top_k(
            &mut self,
            _engine: &Engine,
            candidates: &CandidateView<'_>,
            _k: usize,
        ) -> Vec<ProductId> {
            candidates
                .candidates()
                .last()
                .map(|c| c.representative)
                .into_iter()
                .collect()
        }
    }

    #[test]
    fn top_k_supersedes_the_cached_next_question() {
        // A NextQuestion answer is cached per generation; a TopK at the
        // same generation re-points `pending` at its batch head, and the
        // following NextQuestion must propose that head, not resurrect
        // the stale cached choice.
        let h = handler();
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
        );
        let id = r.get("session").unwrap().as_u64().unwrap();
        {
            let handle = h.store().peek(id).unwrap();
            handle.lock().unwrap().strategy = Box::new(FirstChooseLastTopK);
        }
        let q1 = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        let first = q1.get("tuple").unwrap().as_u64().unwrap();
        let batch = send(&h, &format!(r#"{{"op":"TopK","session":{id},"k":1}}"#));
        let head = batch.get("tuples").unwrap().as_array().unwrap()[0]
            .get("tuple")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_ne!(first, head, "fixture must make the proposals differ");
        let q2 = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        assert_eq!(q2.get("tuple").unwrap().as_u64(), Some(head));
    }

    #[test]
    fn next_question_cache_is_keyed_on_generation() {
        let h = handler();
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
        );
        let id = r.get("session").unwrap().as_u64().unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        {
            let handle = h.store().peek(id).unwrap();
            handle.lock().unwrap().strategy = Box::new(Counting {
                calls: Arc::clone(&calls),
                inner: StrategyKind::LocalGeneral.build(),
            });
        }

        // Retried NextQuestions hit the cache: one strategy consultation.
        let q1 = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        let q2 = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        assert_eq!(
            q1.get("tuple").unwrap().as_u64(),
            q2.get("tuple").unwrap().as_u64()
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);

        // Answering bumps the engine generation: the cache is invalidated
        // and the next question is freshly computed.
        let a = send(
            &h,
            &format!(r#"{{"op":"Answer","session":{id},"label":"-"}}"#),
        );
        assert_eq!(a.get("ok").unwrap().as_bool(), Some(true), "{a}");
        assert_eq!(a.get("resolved").unwrap().as_bool(), Some(false), "{a}");
        send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        assert_eq!(calls.load(Ordering::SeqCst), 2);

        // And once recomputed, retries are cached again.
        send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn answer_batch_applies_atomically_and_invalidates_once() {
        let h = handler();
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
        );
        let id = r.get("session").unwrap().as_u64().unwrap();
        let q1 = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        let proposed = q1.get("tuple").unwrap().as_u64().unwrap();

        // A conflicting-duplicate batch is rejected atomically: no label
        // lands, and the cached pending question survives untouched.
        let r = send(
            &h,
            &format!(
                r#"{{"op":"AnswerBatch","session":{id},"labels":[{{"tuple":2,"label":"+"}},{{"tuple":2,"label":"-"}}]}}"#
            ),
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("both"));
        let s = send(&h, &format!(r#"{{"op":"Stats","session":{id}}}"#));
        assert_eq!(s.get("interactions").unwrap().as_u64(), Some(0));
        let q2 = send(&h, &format!(r#"{{"op":"NextQuestion","session":{id}}}"#));
        assert_eq!(q2.get("tuple").unwrap().as_u64(), Some(proposed));

        // The paper's three terminating labels as one batch: applied in a
        // single pass, resolving the session.
        let r = send(
            &h,
            &format!(
                r#"{{"op":"AnswerBatch","session":{id},"labels":[{{"tuple":2,"label":"+"}},{{"tuple":6,"label":"-"}},{{"tuple":7,"label":"-"}}]}}"#
            ),
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r}");
        assert_eq!(r.get("applied").unwrap().as_u64(), Some(3));
        assert_eq!(r.get("resolved").unwrap().as_bool(), Some(true));
        assert!(r
            .get("sql")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("r1.To = r2.City"));
        let s = send(&h, &format!(r#"{{"op":"Stats","session":{id}}}"#));
        assert_eq!(s.get("interactions").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn answer_batch_respects_the_server_cap() {
        let h = Handler::with_limits(
            Arc::new(SessionStore::new(StoreConfig::default())),
            ServerLimits {
                max_batch: 2,
                ..Default::default()
            },
        );
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
        );
        let id = r.get("session").unwrap().as_u64().unwrap();
        let r = send(
            &h,
            &format!(
                r#"{{"op":"AnswerBatch","session":{id},"labels":[{{"tuple":2,"label":"+"}},{{"tuple":6,"label":"-"}},{{"tuple":7,"label":"-"}}]}}"#
            ),
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("cap"));
        // A batch within the cap goes through.
        let r = send(
            &h,
            &format!(
                r#"{{"op":"AnswerBatch","session":{id},"labels":[{{"tuple":2,"label":"+"}},{{"tuple":6,"label":"-"}}]}}"#
            ),
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r}");
        assert_eq!(r.get("applied").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn self_join_view_from_inline_csv() {
        let h = handler();
        let r = send(
            &h,
            r#"{"op":"CreateSession","source":{"relations":[{"name":"h","csv":"City,Discount\nNYC,AA\nLille,AF\n"}],"view":["h","h"]}}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r}");
        assert_eq!(r.get("tuples").unwrap().as_u64(), Some(4));
    }
}
