//! The in-process passes of the traced run.
//!
//! [`InProc`] feeds request lines to the real `Handler::handle_line`, with
//! no spans: its throughput is the untraced baseline of
//! `trace.overhead_frac`, and its store's per-op latency histograms are the
//! server's own per-op numbers.
//!
//! [`Shadow`] serves the same lines by calling each layer's public entry
//! point itself — `Request::parse`, `csv::read_relation`, `Product::new`,
//! the engine constructors, `SessionStore::{create_session, fetch,
//! record_batch}`, `Strategy::{choose, top_k}`, `Engine::{label,
//! label_batch}`, `Json::render` — in the order `Handler` calls them, and
//! records a span around each call. Ops with no layer of their own (`Stats`,
//! `Sql`, …) go through `Handler::handle` under one `handler.other` span.
//! Spans live in memory until the run ends.

use crate::driver::Channel;
use jim_core::{Engine, Label, SessionOrigin, StrategyKind, Transcript};
use jim_json::Json;
use jim_relation::{csv, Database, Product, ProductId};
use jim_server::journal::{build_engine, build_product, engine_from_product};
use jim_server::protocol::{error, ok, parse_strategy};
use jim_server::{
    Handler, Op, QuestionCache, Request, ServerLimits, Session, SessionStore, Source, StoredSession,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The real handler, untraced.
pub struct InProc {
    /// The handler under test.
    pub handler: Handler,
}

impl Channel for InProc {
    fn call(&mut self, line: &str) -> Result<String, String> {
        Ok(self.handler.handle_line(line))
    }
}

/// One timed call into a layer.
pub struct Span {
    /// Layer name (`protocol.decode`, `store.fetch`, …; `handler` for a
    /// request's root span).
    pub name: &'static str,
    /// Qualifier: the op of a root span, a strategy, a construction mode.
    pub detail: &'static str,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the span belongs to (0 outside requests).
    pub request: u64,
    /// Bytes decoded or encoded, for protocol spans.
    pub bytes: usize,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn begin(&mut self, name: &'static str, detail: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            detail,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            request: if self.stack.is_empty() && name != "handler" {
                0
            } else {
                self.request
            },
            bytes: 0,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        index
    }

    fn end(&mut self, index: usize) {
        self.spans[index].end = self.origin.elapsed();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, Json::from);
            let line = Json::object([
                ("id", Json::from(i)),
                ("name", Json::from(s.name)),
                ("detail", Json::from(s.detail)),
                ("start_ns", Json::from(s.start.as_nanos() as u64)),
                ("end_ns", Json::from(s.end.as_nanos() as u64)),
                ("parent", parent),
                ("request", Json::from(s.request)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// How one `CreateSession` built its engine.
pub struct Built {
    /// `enumerated`, `factorized` or `sampled`.
    pub mode: &'static str,
    /// Signature groups of the engine.
    pub groups: usize,
    /// Candidates before the first question.
    pub candidates: usize,
}

/// Keep at most this many closed sessions' journals for the replay check.
const KEEP_JOURNALS: usize = 64;

/// The traced shadow of `Handler`.
pub struct Shadow {
    handler: Handler,
    store: Arc<SessionStore>,
    limits: ServerLimits,
    /// The spans recorded so far.
    pub tracer: Tracer,
    /// Candidate count at every `NextQuestion`/`TopK`.
    pub candidates_at_question: Vec<f64>,
    /// Labels the engine applied.
    pub labels_applied: u64,
    /// Of those, labels that were informative when applied.
    pub informative_labels: u64,
    /// Journal bytes appended for labels.
    pub append_bytes: u64,
    /// Labels appended to journals.
    pub appended_labels: u64,
    /// Every `CreateSession`'s construction, in order.
    pub built: Vec<Built>,
    /// Journals of closed sessions, loaded just before closing.
    pub journals: Vec<StoredSession>,
}

impl Shadow {
    /// A shadow over `store` with `limits`.
    pub fn new(store: Arc<SessionStore>, limits: ServerLimits) -> Shadow {
        Shadow {
            handler: Handler::with_limits(Arc::clone(&store), limits),
            store,
            limits,
            tracer: Tracer::new(),
            candidates_at_question: Vec::new(),
            labels_applied: 0,
            informative_labels: 0,
            append_bytes: 0,
            appended_labels: 0,
            built: Vec::new(),
            journals: Vec::new(),
        }
    }

    /// The store the shadow serves from.
    pub fn store(&self) -> &Arc<SessionStore> {
        &self.store
    }

    fn dispatch(&mut self, request: Request) -> Json {
        match request {
            Request::CreateSession {
                source,
                strategy,
                max_product,
                sample_seed,
                force_sample,
            } => self.create(source, strategy, max_product, sample_seed, force_sample),
            Request::NextQuestion { session } => {
                self.with_session(session, |me, s| me.next_question(s))
            }
            Request::TopK { session, k } => self.with_session(session, |me, s| me.top_k(s, k)),
            Request::Answer {
                session,
                tuple,
                label,
            } => self.with_session(session, |me, s| me.answer(s, tuple, label)),
            Request::AnswerBatch { session, labels } => {
                if labels.len() > self.limits.max_batch {
                    return error("batch exceeds the server cap");
                }
                self.with_session(session, |me, s| me.answer_batch(s, &labels))
            }
            other => self.other(other),
        }
    }

    fn other(&mut self, request: Request) -> Json {
        let span = self.tracer.begin("handler.other", Op::of(&request).name());
        let response = self.handler.handle(request);
        self.tracer.end(span);
        response
    }

    fn with_session(&mut self, id: u64, f: impl FnOnce(&mut Shadow, &mut Session) -> Json) -> Json {
        let resident = self.store.peek(id).is_some();
        let span = self
            .tracer
            .begin("store.fetch", if resident { "hit" } else { "resume" });
        let fetched = self.store.fetch(id);
        self.tracer.end(span);
        let handle: Arc<Mutex<Session>> = match fetched {
            Ok(Some(handle)) => handle,
            Ok(None) => return error(format!("unknown session {id}")),
            Err(message) => return error(message),
        };
        let mut guard = match handle.lock() {
            Ok(guard) => guard,
            Err(_) => return error(format!("session {id} is poisoned")),
        };
        f(self, &mut guard)
    }

    fn create(
        &mut self,
        source: Source,
        strategy: Option<String>,
        max_product: Option<u64>,
        sample_seed: Option<u64>,
        force_sample: bool,
    ) -> Json {
        let product = match self.product(&source) {
            Ok(p) => p,
            Err(message) => return error(message),
        };
        let kind = match strategy.as_deref().map(parse_strategy) {
            None => StrategyKind::LookaheadMinPrune,
            Some(Ok(kind)) => kind,
            Some(Err(message)) => return error(message),
        };
        let limit = match max_product {
            None => self.limits.max_product,
            Some(0) => return error("`max_product` must be positive"),
            Some(l) => l.min(self.limits.max_product),
        };
        let oversized = product.size() > limit;
        let mut origin = SessionOrigin {
            source,
            strategy,
            max_product: limit,
            sample_seed: sample_seed.unwrap_or(0),
            sampled: oversized && force_sample,
            factorized: oversized && !force_sample,
        };
        let mode = match (origin.factorized, origin.sampled) {
            (true, _) => "factorized",
            (_, true) => "sampled",
            _ => "enumerated",
        };
        let span = self.tracer.begin("engine.build", mode);
        let built = engine_from_product(product, &origin);
        self.tracer.end(span);
        let engine = match built {
            Ok(engine) => engine,
            Err(message) if origin.factorized && message.contains("factorization too large") => {
                self.tracer.spans[span].detail = "factorize-failed";
                origin.factorized = false;
                origin.sampled = true;
                // The server rebuilds the product from the source (CSV
                // included) before sampling; so does the shadow.
                let span = self.tracer.begin("relation.product", "rebuild");
                let product = build_product(&origin.source);
                self.tracer.end(span);
                let product = match product {
                    Ok(p) => p,
                    Err(message) => return error(message),
                };
                let span = self.tracer.begin("engine.build", "sampled");
                let built = engine_from_product(product, &origin);
                self.tracer.end(span);
                match built {
                    Ok(engine) => engine,
                    Err(message) => return error(message),
                }
            }
            Err(message) => return error(message),
        };
        if origin.factorized {
            let metrics = self.store.metrics();
            metrics.factorized_sessions.inc();
            metrics.signature_groups.add(engine.num_groups() as u64);
        }
        self.built.push(Built {
            mode: if origin.sampled { "sampled" } else { mode },
            groups: engine.num_groups(),
            candidates: engine.candidates().len(),
        });
        let columns = columns_of(&engine);
        let tuples = engine.stats().total_tuples;
        let atoms = engine.universe().len();
        let (sampled, factorized) = (origin.sampled, origin.factorized);
        let span = self.tracer.begin("store.create", "");
        let (session, evicted) = self.store.create_session(
            engine,
            kind.build(),
            kind.to_string(),
            sampled,
            Some(origin),
        );
        self.tracer.end(span);
        let (id, persisted) = match session.lock() {
            Ok(s) => (s.id, s.persisted),
            Err(_) => return error("fresh session poisoned"),
        };
        let mut fields = vec![
            ("session", Json::from(id)),
            ("strategy", Json::from(kind.to_string())),
            ("tuples", Json::from(tuples)),
            ("atoms", Json::from(atoms)),
            ("sampled", Json::Bool(sampled)),
            ("factorized", Json::Bool(factorized)),
            ("persisted", Json::Bool(persisted)),
            ("columns", Json::Array(columns)),
        ];
        if let Some(evicted) = evicted {
            fields.push(("evicted", Json::from(evicted)));
        }
        ok(fields)
    }

    /// `journal::build_product`, with CSV parsing and product assembly
    /// timed apart.
    fn product(&mut self, source: &Source) -> Result<Product, String> {
        let Source::Inline { relations, view } = source else {
            let span = self.tracer.begin("relation.product", "scenario");
            let product = build_product(source);
            self.tracer.end(span);
            return product;
        };
        let span = self.tracer.begin("csv.parse", "");
        let mut db = Database::new();
        let mut parsed = Ok(());
        for (name, text) in relations {
            parsed = csv::read_relation(name.clone(), text)
                .map_err(|e| format!("relation `{name}`: {e}"))
                .and_then(|r| db.add(r).map_err(|e| e.to_string()));
            if parsed.is_err() {
                break;
            }
        }
        self.tracer.end(span);
        parsed?;
        let span = self.tracer.begin("relation.product", "inline");
        let names: Vec<&str> = match view {
            Some(names) => names.iter().map(String::as_str).collect(),
            None => relations.iter().map(|(name, _)| name.as_str()).collect(),
        };
        let product = db
            .join_view(&names)
            .and_then(|(occurrences, _)| Product::new(occurrences))
            .map_err(|e| e.to_string());
        self.tracer.end(span);
        product
    }

    fn next_question(&mut self, session: &mut Session) -> Json {
        let span = self
            .tracer
            .begin("strategy.choose", session.strategy.name());
        let view = session.engine.candidates();
        self.candidates_at_question.push(view.len() as f64);
        let choice = session.strategy.choose(&session.engine, &view);
        self.tracer.end(span);
        let span = self.tracer.begin("handler.respond", "");
        let response = Self::question_response(session, choice);
        self.tracer.end(span);
        response
    }

    fn question_response(session: &mut Session, choice: Option<ProductId>) -> Json {
        session.cache = Some(QuestionCache {
            generation: session.engine.generation(),
            choice,
        });
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

    fn top_k(&mut self, session: &mut Session, k: usize) -> Json {
        let span = self.tracer.begin("strategy.top_k", session.strategy.name());
        let view = session.engine.candidates();
        self.candidates_at_question.push(view.len() as f64);
        let batch = session.strategy.top_k(&session.engine, &view, k);
        self.tracer.end(span);
        let span = self.tracer.begin("handler.respond", "");
        let response = Self::batch_response(session, batch);
        self.tracer.end(span);
        response
    }

    fn batch_response(session: &mut Session, batch: Vec<ProductId>) -> Json {
        if batch.is_empty() {
            return resolved_response(&session.engine);
        }
        session.pending = Some(batch[0]);
        session.cache = Some(QuestionCache {
            generation: session.engine.generation(),
            choice: Some(batch[0]),
        });
        let tuples = batch
            .iter()
            .map(|&id| Json::object(tuple_fields(&session.engine, id)))
            .collect();
        ok([
            ("resolved", Json::Bool(false)),
            ("tuples", Json::Array(tuples)),
        ])
    }

    fn append(&mut self, session: &mut Session, labels: &[(ProductId, Label)]) {
        let before = self.store.metrics().journal_bytes.get();
        let span = self.tracer.begin("journal.append", "");
        self.store.record_batch(session, labels);
        self.tracer.end(span);
        self.append_bytes += self.store.metrics().journal_bytes.get() - before;
        self.appended_labels += labels.len() as u64;
    }

    fn answer(&mut self, session: &mut Session, tuple: Option<u64>, label: Label) -> Json {
        let Some(id) = tuple.map(ProductId).or(session.pending) else {
            return error("no pending question");
        };
        let span = self.tracer.begin("engine.label_batch", "single");
        let labeled = session.engine.label(id, label);
        self.tracer.end(span);
        let outcome = match labeled {
            Ok(outcome) => outcome,
            Err(e) => return error(e.to_string()),
        };
        self.labels_applied += 1;
        self.informative_labels += u64::from(outcome.was_informative);
        self.append(session, &[(id, label)]);
        if session.pending == Some(id) {
            session.pending = None;
        }
        let mut fields = vec![
            ("tuple", Json::from(id.0)),
            ("label", Json::from(label.to_string())),
            ("was_informative", Json::Bool(outcome.was_informative)),
            ("pruned", Json::from(outcome.pruned)),
            (
                "informative_remaining",
                Json::from(outcome.informative_remaining),
            ),
            ("resolved", Json::Bool(outcome.resolved)),
        ];
        if outcome.resolved {
            fields.extend(predicate_fields(&session.engine));
        }
        ok(fields)
    }

    fn answer_batch(&mut self, session: &mut Session, labels: &[(u64, Label)]) -> Json {
        let batch: Vec<(ProductId, Label)> = labels
            .iter()
            .map(|&(rank, label)| (ProductId(rank), label))
            .collect();
        let span = self.tracer.begin("engine.label_batch", "batch");
        let labeled = session.engine.label_batch(&batch);
        self.tracer.end(span);
        let outcome = match labeled {
            Ok(outcome) => outcome,
            Err(e) => return error(e.to_string()),
        };
        self.labels_applied += outcome.applied as u64;
        self.informative_labels += outcome.informative_labels as u64;
        self.append(session, &batch);
        if session
            .pending
            .is_some_and(|p| batch.iter().any(|&(id, _)| id == p))
        {
            session.pending = None;
        }
        let mut fields = vec![
            ("applied", Json::from(outcome.applied)),
            ("informative_labels", Json::from(outcome.informative_labels)),
            ("pruned", Json::from(outcome.pruned)),
            (
                "informative_remaining",
                Json::from(outcome.informative_remaining),
            ),
            ("resolved", Json::Bool(outcome.resolved)),
        ];
        if outcome.resolved {
            fields.extend(predicate_fields(&session.engine));
        }
        ok(fields)
    }

    /// Rebuild each kept journal's session from its origin, replay its
    /// labels as one transcript, and compare the result with the predicate
    /// the session resolved to (`predicates`, by session id). Stops after
    /// `budget`. Returns `(checked, mismatches)`.
    pub fn replay_journals(
        &mut self,
        predicates: &HashMap<u64, String>,
        budget: Duration,
    ) -> Result<(u64, u64), String> {
        let start = Instant::now();
        let (mut checked, mut mismatches) = (0, 0);
        for stored in std::mem::take(&mut self.journals) {
            if start.elapsed() > budget {
                break;
            }
            let Some(expected) = predicates.get(&stored.id) else {
                continue;
            };
            let span = self.tracer.begin("verify.build", "");
            let engine = build_engine(&stored.origin);
            self.tracer.end(span);
            let mut engine = engine?;
            let transcript = Transcript {
                schema: engine.product().schema().to_string(),
                tuples: engine.product().size(),
                labels: stored.labels(),
                origin: None,
            };
            let span = self.tracer.begin("transcript.replay", "");
            let replayed = transcript.replay_batched(&mut engine);
            self.tracer.end(span);
            replayed
                .map_err(|e| format!("journal of session {} does not replay: {e}", stored.id))?;
            checked += 1;
            if engine.result().to_string() != *expected {
                mismatches += 1;
            }
        }
        Ok((checked, mismatches))
    }
}

impl Channel for Shadow {
    /// Load the session's journal for the replay check, outside any
    /// request's span: the server itself never does this.
    fn closing(&mut self, session: u64) {
        if self.journals.len() < KEEP_JOURNALS {
            let span = self.tracer.begin("journal.load", "");
            let loaded = self.store.journal().map(|j| j.load(session));
            self.tracer.end(span);
            if let Some(Ok(Some(stored))) = loaded {
                self.journals.push(stored);
            }
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.tracer.request += 1;
        let root = self.tracer.begin("handler", "");
        let span = self.tracer.begin("protocol.decode", "");
        let parsed = Request::parse(line);
        self.tracer.end(span);
        self.tracer.spans[span].bytes = line.len();
        let response = match parsed {
            Err(message) => error(message),
            Ok(request) => {
                let op = Op::of(&request).name();
                self.tracer.spans[root].detail = op;
                self.tracer.spans[span].detail = op;
                self.dispatch(request)
            }
        };
        let span = self.tracer.begin("protocol.encode", "");
        let out = response.render();
        self.tracer.end(span);
        self.tracer.spans[span].bytes = out.len();
        self.tracer.end(root);
        Ok(out)
    }
}

fn predicate_fields(engine: &Engine) -> [(&'static str, Json); 2] {
    let predicate = engine.result();
    [
        ("predicate", Json::from(predicate.to_string())),
        ("sql", Json::from(predicate.to_sql())),
    ]
}

fn resolved_response(engine: &Engine) -> Json {
    let mut fields = vec![("resolved", Json::Bool(true))];
    fields.extend(predicate_fields(engine));
    ok(fields)
}

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

fn columns_of(engine: &Engine) -> Vec<Json> {
    let schema = engine.product().schema();
    schema
        .attrs()
        .filter_map(|ga| schema.qualified_name(ga).ok().map(Json::from))
        .collect()
}
