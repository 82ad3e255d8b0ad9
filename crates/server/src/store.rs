//! The session store: id-keyed, concurrent, bounded.
//!
//! A [`Session`] owns everything the interaction loop needs — the engine
//! (which owns its product, which owns its relations), the strategy state,
//! the pending question and the generation-keyed question cache. Nothing
//! borrows; the ownership refactor in `jim-relation`/`jim-core` made
//! `Engine` a `Send + 'static` value precisely so it can live here across
//! requests.
//!
//! Concurrency model: one id map behind one lock, held only for a lookup,
//! an insert or a removal — never across engine work. JIM's traffic is
//! human-paced (one membership question per turn), which one lock serves.
//! Each session has its own lock, so a slow strategy choice in one session
//! never blocks another, and no path locks a session while holding the
//! map lock. Every change to the map's population sets the
//! `store.resident_sessions` gauge to the map's size under the map lock,
//! so the gauge is exact. Capacity is bounded two ways:
//!
//! * **max sessions** — creating one past the cap evicts the
//!   least-recently-used session;
//! * **TTL** — [`SessionStore::sweep_at`] drops sessions idle longer than
//!   the configured time-to-live (the server's event loop sweeps on every
//!   timer tick, at least once a second).
//!
//! ## Durability: eviction is not destruction
//!
//! With a [`JournalStore`] attached ([`SessionStore::with_journal`]),
//! session lifetime is decoupled from memory residency. Every persisted
//! session's origin and label batches are already on disk *before* any
//! answer is acked (write-ahead, see [`crate::journal`]), so LRU/TTL
//! eviction simply drops the in-memory copy — nothing is written at
//! eviction time — and [`SessionStore::fetch`] **falls through to disk on a
//! miss**, rebuilding the engine from its origin and replaying the
//! journal batch by batch. Requests against an evicted id therefore keep
//! working transparently; only [`SessionStore::remove`] (the wire's
//! `CloseSession`) deletes the journal for good. Eviction and
//! persisted-eviction totals are counted for the `ListSessions` response.
//!
//! Only *labels* are durable. Per-question ephemera — the pending
//! proposal and the generation-keyed question cache — are deliberately
//! not journaled (they would cost a write per question), so a session
//! resumes with no pending question: a tuple-less `Answer` right after a
//! resume is rejected with "no pending question" and the client re-asks
//! `NextQuestion`, which re-proposes deterministically for the stateless
//! strategies.

use crate::journal::JournalStore;
use crate::metrics::ServerMetrics;
use crate::sync::LockExt;
use jim_core::{Engine, Label, SessionOrigin, Strategy};
use jim_relation::ProductId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The strategy's answer for one engine generation — what `NextQuestion`
/// computed, kept so an unanswered (or retried) question never re-runs the
/// strategy. Any label bumps [`Engine::generation`], which makes
/// the entry stale; the handler then recomputes and re-caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuestionCache {
    /// [`Engine::generation`] at compute time.
    pub generation: u64,
    /// The proposed tuple, or `None` when the engine was resolved.
    pub choice: Option<ProductId>,
}

/// One live inference session, owned by the store.
pub struct Session {
    /// The store-assigned id.
    pub id: u64,
    /// The engine, in whatever state the labels so far have produced.
    pub engine: Engine,
    /// The strategy driving question selection (stateful for random /
    /// data-aware strategies).
    pub strategy: Box<dyn Strategy + Send>,
    /// Display name of the strategy, echoed in responses.
    pub strategy_name: String,
    /// The question last proposed and not yet answered, if any.
    pub pending: Option<ProductId>,
    /// The last `NextQuestion` result, valid while the engine generation
    /// it was computed at is current.
    pub cache: Option<QuestionCache>,
    /// Provenance for rebuilding the engine from nothing, when recorded.
    pub origin: Option<SessionOrigin>,
    /// Whether this session has a write-ahead journal on disk (its labels
    /// survive eviction and process death).
    pub persisted: bool,
}

/// The outcome of one TTL sweep ([`SessionStore::sweep_report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Ids this sweep evicted from memory, ascending.
    pub evicted: Vec<u64>,
    /// How many of [`SweepReport::evicted`] had a journal and stayed
    /// resumable on disk.
    pub persisted: usize,
}

/// Store limits.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Maximum number of live sessions; creating past this evicts the LRU
    /// session.
    pub max_sessions: usize,
    /// Idle time after which a session may be swept.
    pub ttl: Duration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_sessions: 64,
            ttl: Duration::from_secs(30 * 60),
        }
    }
}

struct Entry {
    session: Arc<Mutex<Session>>,
    last_touched: Instant,
    /// Mirror of `Session::persisted` (fixed at insert), readable without
    /// taking the session lock — a sweep runs on the event loop, which
    /// must classify evictions without blocking on a slow strategy choice.
    persisted: bool,
}

/// The concurrent session map (see module docs).
pub struct SessionStore {
    config: StoreConfig,
    /// Id → entry: the one lock every lookup, insert and removal takes.
    sessions: Mutex<HashMap<u64, Entry>>,
    next_id: AtomicU64,
    /// The write-ahead journal directory, when durability is on.
    journal: Option<JournalStore>,
    /// The server-wide metrics aggregate. The store owns it because the
    /// store is the one value every server layer (handler, event loop,
    /// bins) already shares — store/journal counters are updated
    /// here at the sites where the events happen, transport and per-op
    /// counters by the layers that reach the aggregate through
    /// [`SessionStore::metrics`].
    metrics: Arc<ServerMetrics>,
}

impl SessionStore {
    /// A store with the given limits.
    pub fn new(config: StoreConfig) -> Self {
        Self::build(config, None)
    }

    /// A store whose sessions are journaled to `journal` — evictions
    /// persist instead of destroy, and lookups fall through to disk.
    /// Ids are allocated past the largest journal on disk, so a store
    /// rebuilt over an existing directory never collides with (and can
    /// transparently resume) the sessions a previous process left behind.
    pub fn with_journal(config: StoreConfig, journal: JournalStore) -> Self {
        Self::build(config, Some(journal))
    }

    fn build(config: StoreConfig, journal: Option<JournalStore>) -> Self {
        let first_id = journal.as_ref().map_or(0, JournalStore::max_id) + 1;
        SessionStore {
            config,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(first_id),
            journal,
            metrics: Arc::new(ServerMetrics::new()),
        }
    }

    /// The journal directory, when durability is on.
    pub fn journal(&self) -> Option<&JournalStore> {
        self.journal.as_ref()
    }

    /// The server-wide metrics aggregate (see the field docs).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Sessions dropped from memory by LRU/TTL eviction so far.
    pub fn evicted_total(&self) -> u64 {
        self.metrics.evicted_total.get()
    }

    /// Evicted sessions that stayed resumable on disk.
    pub fn persisted_total(&self) -> u64 {
        self.metrics.persisted_total.get()
    }

    fn count_eviction(&self, persisted: bool) {
        self.metrics.evicted_total.inc();
        if persisted {
            self.metrics.persisted_total.inc();
        }
    }

    /// The configured limits.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock_unpoisoned().len()
    }

    /// True iff no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a new session built from `engine` + `strategy` and return
    /// its handle, with the id of the session evicted to make room, if
    /// any: expired sessions go first, then the least-recently-used one if
    /// the store is still at capacity. With a journal attached and an
    /// origin given, the journal header is written before this returns —
    /// the session is durable from birth (`Session::persisted`); without
    /// either, the session is memory-only and dies with its eviction.
    ///
    /// `_sampled` is ignored: every session covers its whole product. It
    /// is kept only because perfbench's shadow handler
    /// (`perfbench/src/trace.rs`) passes it.
    pub fn create_session(
        &self,
        engine: Engine,
        strategy: Box<dyn Strategy + Send>,
        strategy_name: String,
        _sampled: bool,
        origin: Option<SessionOrigin>,
    ) -> (Arc<Mutex<Session>>, Option<u64>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let persisted = match (&self.journal, &origin) {
            (Some(journal), Some(origin)) => match journal.create(id, origin) {
                Ok(bytes) => {
                    self.metrics.journal_bytes.add(bytes as u64);
                    true
                }
                Err(e) => {
                    eprintln!("jim-server: cannot journal session {id}: {e}");
                    false
                }
            },
            _ => false,
        };
        let session = Session {
            id,
            engine,
            strategy,
            strategy_name,
            pending: None,
            cache: None,
            origin,
            persisted,
        };
        self.insert(session)
    }

    /// Insert an owned session (newly created or rehydrated), evicting
    /// expired sessions first and then the LRU victim if the store is
    /// still at capacity. If the id is already resident (a concurrent
    /// resume won the race), the resident handle wins and `session` is
    /// dropped.
    fn insert(&self, session: Session) -> (Arc<Mutex<Session>>, Option<u64>) {
        let id = session.id;
        let persisted = session.persisted;
        let now = Instant::now();
        let mut entries = self.sessions.lock_unpoisoned();
        if let Some(e) = entries.get_mut(&id) {
            e.last_touched = now;
            return (Arc::clone(&e.session), None);
        }
        self.sweep_locked(&mut entries, now);
        let mut evicted = None;
        if entries.len() >= self.config.max_sessions {
            // LRU victim; ties broken by smallest id for determinism.
            // Sessions with an in-flight request (a handle besides the
            // entry's own) are never victims — evicting one mid-request
            // would let a concurrent resume replay the journal *before*
            // that request's append lands, resurrecting a copy missing an
            // acked batch.
            let victim = entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.session) == 1)
                .map(|(&id, e)| (e.last_touched, id))
                .min()
                .map(|(_, id)| id);
            if let Some(entry) = victim.and_then(|lru| entries.remove(&lru)) {
                self.count_eviction(entry.persisted);
                evicted = victim;
            }
        }
        let session = Arc::new(Mutex::new(session));
        entries.insert(
            id,
            Entry {
                session: Arc::clone(&session),
                last_touched: now,
                persisted,
            },
        );
        self.metrics.resident_sessions.set(entries.len() as i64);
        (session, evicted)
    }

    /// Fetch a session handle, refreshing its LRU/TTL stamp. With a
    /// journal attached this **falls through to disk** on a memory miss
    /// and rehydrates the session by replay. `Ok(None)` means the session
    /// exists neither in memory nor on disk; `Err` is the journal's reason
    /// it cannot be resumed.
    pub fn fetch(&self, id: u64) -> Result<Option<Arc<Mutex<Session>>>, String> {
        if let Some(handle) = self.get_resident(id) {
            return Ok(Some(handle));
        }
        let Some(journal) = &self.journal else {
            return Ok(None);
        };
        let Some(stored) = journal.load(id)? else {
            return Ok(None);
        };
        self.metrics.store_resumes.inc();
        self.metrics
            .replayed_batches
            .add(stored.batches.len() as u64);
        let engine = stored.rebuild_engine()?;
        let (strategy, strategy_name) = stored.rebuild_strategy()?;
        let session = Session {
            id,
            engine,
            strategy,
            strategy_name,
            pending: None,
            cache: None,
            origin: Some(stored.origin),
            persisted: true,
        };
        // Insert under the cap like any other session; if a concurrent
        // request resumed the same id first, its handle wins.
        let (handle, _) = self.insert(session);
        Ok(Some(handle))
    }

    fn get_resident(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        let mut entries = self.sessions.lock_unpoisoned();
        entries.get_mut(&id).map(|e| {
            e.last_touched = Instant::now();
            self.metrics.store_hits.inc();
            Arc::clone(&e.session)
        })
    }

    /// Append one applied label batch to the session's journal (no-op for
    /// unpersisted sessions). Call while holding the session lock, after
    /// the engine accepted the batch and before acking it — journal order
    /// then equals application order, and a rejected batch never lands.
    ///
    /// A failed append (disk full, permissions) **demotes the session to
    /// memory-only and deletes its journal**: the engine already applied
    /// the batch and the client will be acked, so a journal missing an
    /// acked batch must never be replayed — resuming from it would hand
    /// the user a session silently diverged from what they saw.
    pub fn record_batch(&self, session: &mut Session, labels: &[(ProductId, Label)]) {
        if !session.persisted {
            return;
        }
        if let Some(journal) = &self.journal {
            match journal.append(session.id, labels) {
                Ok(bytes) => self.metrics.journal_bytes.add(bytes as u64),
                Err(e) => {
                    eprintln!(
                        "jim-server: journal append for session {} failed ({e}); \
                         demoting the session to memory-only",
                        session.id
                    );
                    session.persisted = false;
                    journal.delete(session.id);
                    // Map-after-session acquisition is safe here: no path
                    // in this module locks a session while holding the
                    // map lock (handles are cloned out, then locked).
                    if let Some(entry) = self.sessions.lock_unpoisoned().get_mut(&session.id) {
                        entry.persisted = false;
                    }
                }
            }
        }
    }

    /// Fetch a session handle **without** refreshing its LRU/TTL stamp —
    /// for observers (listing, metrics) that must not keep idle sessions
    /// alive or reorder eviction.
    pub fn peek(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        let entries = self.sessions.lock_unpoisoned();
        entries.get(&id).map(|e| Arc::clone(&e.session))
    }

    /// Close a session for good: drop it from memory **and delete its
    /// journal** — unlike eviction, this is destruction. `true` if it
    /// existed in memory or on disk.
    pub fn remove(&self, id: u64) -> bool {
        let removed = {
            let mut entries = self.sessions.lock_unpoisoned();
            let removed = entries.remove(&id);
            self.metrics.resident_sessions.set(entries.len() as i64);
            removed
        };
        let on_disk = self.journal.as_ref().is_some_and(|j| j.delete(id));
        removed.is_some() || on_disk
    }

    /// Session ids resumable from disk but not currently resident,
    /// ascending. Empty without a journal.
    pub fn disk_ids(&self) -> Vec<u64> {
        let Some(journal) = &self.journal else {
            return Vec::new();
        };
        let ids = journal.ids();
        let entries = self.sessions.lock_unpoisoned();
        ids.into_iter()
            .filter(|id| !entries.contains_key(id))
            .collect()
    }

    /// Live session ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.sessions.lock_unpoisoned().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Evict every session idle at `now` for longer than the TTL; returns
    /// the evicted ids ascending (eviction counters are updated —
    /// persisted sessions remain resumable on disk, the write-ahead
    /// journal means nothing needs writing here). The server's event loop
    /// runs [`SessionStore::sweep_report`] on every timer tick; tests can
    /// pass a synthetic "future" instant.
    pub fn sweep_at(&self, now: Instant) -> Vec<u64> {
        self.sweep_report(now).evicted
    }

    /// [`SessionStore::sweep_at`] with per-sweep accounting: how many of
    /// *this sweep's* victims stayed resumable on disk. The count is
    /// derived from the sweep result itself, never from before/after
    /// deltas of the store-wide totals — those also move when a
    /// concurrent `create` LRU-evicts, which would mis-attribute its
    /// evictions to the sweep.
    pub fn sweep_report(&self, now: Instant) -> SweepReport {
        let mut expired = {
            let mut entries = self.sessions.lock_unpoisoned();
            let expired = self.sweep_locked(&mut entries, now);
            self.metrics.resident_sessions.set(entries.len() as i64);
            expired
        };
        expired.sort_unstable();
        SweepReport {
            persisted: expired.iter().filter(|&&(_, p)| p).count(),
            evicted: expired.into_iter().map(|(id, _)| id).collect(),
        }
    }

    /// Remove and count the entries idle past the TTL at `now`, returning
    /// their `(id, persisted)` pairs. Entries with an in-flight handle
    /// (`Arc` strong count above the entry's own) are spared for the same
    /// reason the LRU path spares them: eviction must never race a request
    /// that is about to journal.
    fn sweep_locked(&self, entries: &mut HashMap<u64, Entry>, now: Instant) -> Vec<(u64, bool)> {
        let expired: Vec<(u64, bool)> = entries
            .iter()
            .filter(|(_, e)| {
                now.saturating_duration_since(e.last_touched) > self.config.ttl
                    && Arc::strong_count(&e.session) == 1
            })
            .map(|(&id, e)| (id, e.persisted))
            .collect();
        for &(id, persisted) in &expired {
            entries.remove(&id);
            self.count_eviction(persisted);
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jim_core::{EngineOptions, StrategyKind};
    use jim_relation::Product;
    use jim_synth::flights;

    fn engine() -> Engine {
        let p = Product::new(vec![flights::flights(), flights::hotels()]).unwrap();
        Engine::new(p, &EngineOptions::default()).unwrap()
    }

    fn store(max: usize, ttl: Duration) -> SessionStore {
        SessionStore::new(StoreConfig {
            max_sessions: max,
            ttl,
        })
    }

    fn create(s: &SessionStore) -> (u64, Option<u64>) {
        let kind = StrategyKind::LookaheadMinPrune;
        let (session, evicted) =
            s.create_session(engine(), kind.build(), kind.to_string(), false, None);
        let id = session.lock().unwrap().id;
        (id, evicted)
    }

    #[test]
    fn ids_are_unique_and_lookup_works() {
        let s = store(8, Duration::from_secs(60));
        let (a, _) = create(&s);
        let (b, _) = create(&s);
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), vec![a, b]);
        assert!(s.fetch(a).unwrap().is_some());
        assert!(s.fetch(999).unwrap().is_none());
        assert!(s.remove(a));
        assert!(!s.remove(a));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let s = store(2, Duration::from_secs(60));
        let (a, e1) = create(&s);
        let (b, e2) = create(&s);
        assert_eq!((e1, e2), (None, None));
        // Touch `a` so `b` becomes the LRU.
        assert!(s.fetch(a).unwrap().is_some());
        let (c, evicted) = create(&s);
        assert_eq!(evicted, Some(b));
        assert_eq!(s.ids(), vec![a, c]);
    }

    #[test]
    fn ttl_sweep_expires_idle_sessions() {
        let ttl = Duration::from_secs(60);
        let s = store(8, ttl);
        let (a, _) = create(&s);
        // Nothing expires "now".
        assert!(s.sweep_at(Instant::now()).is_empty());
        // Everything idle longer than the TTL expires at a future instant.
        let future = Instant::now() + ttl + Duration::from_secs(1);
        assert_eq!(s.sweep_at(future), vec![a]);
        assert!(s.is_empty());
        assert!(s.fetch(a).unwrap().is_none());
    }

    #[test]
    fn peek_does_not_refresh_the_ttl_stamp() {
        let ttl = Duration::from_secs(60);
        let s = store(8, ttl);
        let (a, _) = create(&s);
        // Observe via peek only; the session must still expire on a sweep
        // past its creation-time stamp.
        assert!(s.peek(a).is_some());
        let future = Instant::now() + ttl + Duration::from_secs(1);
        assert!(s.peek(a).is_some());
        assert_eq!(s.sweep_at(future), vec![a]);
        assert!(s.peek(999).is_none());
    }

    #[test]
    fn session_survives_across_handle_drops() {
        let s = store(8, Duration::from_secs(60));
        let (id, _) = create(&s);
        {
            let h = s.fetch(id).unwrap().unwrap();
            let mut guard = h.lock().unwrap();
            let session = &mut *guard;
            let pick = jim_core::strategy::choose_next(session.strategy.as_mut(), &session.engine)
                .unwrap();
            session.pending = Some(pick);
        }
        let h = s.fetch(id).unwrap().unwrap();
        assert!(h.lock().unwrap().pending.is_some());
    }

    fn flights_origin() -> SessionOrigin {
        SessionOrigin {
            source: jim_core::OriginSource::Scenario {
                name: "flights".into(),
            },
            strategy: None,
            max_product: 5_000_000,
            sample_seed: 0,
            sampled: false,
            factorized: false,
        }
    }

    fn journaled_store(tag: &str, max: usize, ttl: Duration) -> SessionStore {
        let dir = std::env::temp_dir().join(format!("jim-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SessionStore::with_journal(
            StoreConfig {
                max_sessions: max,
                ttl,
            },
            JournalStore::open(dir).unwrap(),
        )
    }

    fn create_persisted(s: &SessionStore) -> u64 {
        let kind = StrategyKind::LookaheadMinPrune;
        let (session, _) = s.create_session(
            engine(),
            kind.build(),
            kind.to_string(),
            false,
            Some(flights_origin()),
        );
        let session = session.lock().unwrap();
        assert!(session.persisted);
        session.id
    }

    fn cleanup(s: &SessionStore) {
        if let Some(j) = s.journal() {
            let _ = std::fs::remove_dir_all(j.root());
        }
    }

    /// Label the session through the store the way the handler does:
    /// engine first, then the journal append, under the session lock.
    fn label_recorded(s: &SessionStore, id: u64, batch: &[(ProductId, jim_core::Label)]) {
        let handle = s.fetch(id).unwrap().unwrap();
        let mut guard = handle.lock().unwrap();
        let session = &mut *guard;
        session.engine.label_batch(batch).unwrap();
        s.record_batch(session, batch);
    }

    #[test]
    fn evicted_session_resumes_transparently_from_disk() {
        use jim_core::Label;
        let ttl = Duration::from_secs(60);
        let s = journaled_store("evict", 8, ttl);
        let id = create_persisted(&s);
        label_recorded(&s, id, &[(ProductId(2), Label::Positive)]);
        label_recorded(
            &s,
            id,
            &[
                (ProductId(6), Label::Negative),
                (ProductId(7), Label::Negative),
            ],
        );

        // TTL eviction drops it from memory but not from disk.
        let future = Instant::now() + ttl + Duration::from_secs(1);
        assert_eq!(s.sweep_at(future), vec![id]);
        assert!(s.ids().is_empty());
        assert_eq!(s.disk_ids(), vec![id]);
        assert_eq!((s.evicted_total(), s.persisted_total()), (1, 1));

        // A plain fetch falls through to disk and replays: the rehydrated
        // engine carries the exact labeled state, batch trajectory
        // included (generation = number of recorded batches).
        let handle = s.fetch(id).unwrap().unwrap();
        let session = handle.lock().unwrap();
        assert_eq!(session.id, id);
        assert!(session.persisted);
        assert!(session.engine.is_resolved());
        assert_eq!(session.engine.generation(), 2);
        assert_eq!(session.engine.stats().interactions(), 3);
        drop(session);
        assert_eq!(s.ids(), vec![id], "resident again");
        assert!(s.disk_ids().is_empty());
        cleanup(&s);
    }

    #[test]
    fn memory_only_sessions_die_on_eviction_even_with_a_journal() {
        let ttl = Duration::from_secs(60);
        let s = journaled_store("memonly", 8, ttl);
        // No origin recorded: nothing to rebuild from.
        let (id, _) = create(&s);
        let future = Instant::now() + ttl + Duration::from_secs(1);
        assert_eq!(s.sweep_at(future), vec![id]);
        assert_eq!((s.evicted_total(), s.persisted_total()), (1, 0));
        assert!(s.fetch(id).unwrap().is_none());
        cleanup(&s);
    }

    #[test]
    fn remove_deletes_the_journal_for_good() {
        let s = journaled_store("close", 8, Duration::from_secs(60));
        let id = create_persisted(&s);
        assert!(s.journal().unwrap().contains(id));
        assert!(s.remove(id));
        assert!(!s.journal().unwrap().contains(id));
        assert!(
            s.fetch(id).unwrap().is_none(),
            "closed ≠ evicted: no resume"
        );
        assert!(!s.remove(id));

        // Removing an evicted-but-durable session also deletes its journal.
        let ttl = s.config().ttl;
        let id = create_persisted(&s);
        s.sweep_at(Instant::now() + ttl + Duration::from_secs(1));
        assert!(s.remove(id), "on-disk-only session still closable");
        assert!(s.fetch(id).unwrap().is_none());
        cleanup(&s);
    }

    #[test]
    fn restarted_store_resumes_sessions_and_allocates_past_them() {
        use jim_core::Label;
        let dir = {
            let s = journaled_store("restart", 8, Duration::from_secs(60));
            let id = create_persisted(&s);
            label_recorded(&s, id, &[(ProductId(2), Label::Positive)]);
            assert_eq!(id, 1);
            s.journal().unwrap().root().to_path_buf()
        }; // the first store (the "process") is gone

        let s =
            SessionStore::with_journal(StoreConfig::default(), JournalStore::open(&dir).unwrap());
        assert!(s.is_empty(), "nothing resident after restart");
        assert_eq!(s.disk_ids(), vec![1]);
        // The old session resumes with its label; new ids never collide.
        let handle = s.fetch(1).unwrap().unwrap();
        assert_eq!(handle.lock().unwrap().engine.stats().interactions(), 1);
        let (new_id, _) = create(&s);
        assert_eq!(new_id, 2);
        cleanup(&s);
    }

    #[test]
    fn sessions_with_an_in_flight_handle_are_never_evicted() {
        // Evicting a session another thread is mid-request on would let a
        // concurrent resume replay the journal before that request's
        // append lands; busy sessions are spared by both eviction paths.
        let ttl = Duration::from_secs(60);
        let s = store(2, ttl);
        let (a, _) = create(&s);
        let held = s.fetch(a).unwrap().unwrap();
        let future = Instant::now() + ttl + Duration::from_secs(1);
        assert!(s.sweep_at(future).is_empty(), "busy session survives TTL");
        // The LRU path spares it too: at capacity, the *other* (idle)
        // session is the victim even though `a` is least-recently-used.
        let (b, _) = create(&s);
        assert!(s.fetch(b).unwrap().is_some());
        let (c, evicted) = create(&s);
        assert_eq!(evicted, Some(b), "idle session evicted over the busy LRU");
        drop(held);
        assert_eq!(s.sweep_at(future), vec![a, c], "released handle, evictable");
    }

    #[test]
    fn lru_eviction_at_capacity_persists_durable_sessions() {
        let s = journaled_store("lru", 2, Duration::from_secs(600));
        let a = create_persisted(&s);
        let b = create_persisted(&s);
        assert!(s.fetch(a).unwrap().is_some()); // make b the LRU victim
        let c = create_persisted(&s);
        assert_eq!(s.ids(), vec![a, c]);
        assert_eq!((s.evicted_total(), s.persisted_total()), (1, 1));
        // The LRU victim is still reachable — getting it back evicts the
        // new LRU (a, untouched since) to stay under the cap.
        assert!(s.fetch(b).unwrap().is_some());
        assert_eq!(s.len(), 2);
        assert_eq!(s.evicted_total(), 2);
        cleanup(&s);
    }

    #[test]
    fn sweep_report_counts_only_its_own_victims() {
        // An LRU eviction on `create` moves the store-wide persisted
        // total; the next sweep's report must not absorb it (a sweep log
        // that diffed the totals would mis-attribute exactly this).
        let ttl = Duration::from_secs(60);
        let s = journaled_store("sweepreport", 2, ttl);
        let a = create_persisted(&s);
        let b = create_persisted(&s);
        assert!(s.fetch(a).unwrap().is_some()); // b becomes the LRU victim
        let c = create_persisted(&s); // LRU-evicts b, persisted
        assert_eq!((s.evicted_total(), s.persisted_total()), (1, 1));

        let report = s.sweep_report(Instant::now() + ttl + Duration::from_secs(1));
        assert_eq!(report.evicted, vec![a, c]);
        assert_eq!(
            report.persisted, 2,
            "the LRU eviction of {b} is not the sweep's"
        );
        assert_eq!((s.evicted_total(), s.persisted_total()), (3, 3));

        // A sweep with nothing to do reports nothing.
        assert_eq!(s.sweep_report(Instant::now()), SweepReport::default());
        cleanup(&s);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let s = Arc::new(store(16, Duration::from_secs(60)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let (id, _) = create(&s);
                    assert!(s.fetch(id).unwrap().is_some());
                    id
                })
            })
            .collect();
        let ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 4);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn churn_keeps_ids_unique_and_the_resident_gauge_exact() {
        // Creates, lookups, handle drops and closes race a sweeper that
        // expires every idle session; afterwards the gauge must equal the
        // map's size, which needs every mutation to set it under the map
        // lock.
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let (cap, ttl, workers) = (4, Duration::from_secs(60), 4);
        let s = Arc::new(store(cap, ttl));
        let stop = Arc::new(AtomicBool::new(false));
        // Every thread starts churning at once, so the phases overlap.
        let start = Arc::new(Barrier::new(workers + 1));
        let sweeper = {
            let (s, stop, start) = (Arc::clone(&s), Arc::clone(&stop), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    s.sweep_report(Instant::now() + ttl + Duration::from_secs(1));
                }
            })
        };
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                let (s, start) = (Arc::clone(&s), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..30)
                        .map(|i| {
                            let (id, _) = create(&s);
                            drop(s.fetch(id).unwrap());
                            if i % 3 == 0 {
                                s.remove(id);
                            }
                            id
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let ids: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        stop.store(true, Ordering::Relaxed);
        sweeper.join().unwrap();
        let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "ids are never reused");
        assert!(s.len() <= cap, "{} sessions over a cap of {cap}", s.len());
        assert_eq!(s.metrics().resident_sessions.get(), s.len() as i64);
    }
}
