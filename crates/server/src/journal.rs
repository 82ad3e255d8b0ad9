//! The write-ahead transcript journal: sessions that outlive the process.
//!
//! A session's whole state is determined by two things the wire already
//! speaks — its **origin** (where the relations came from, which strategy,
//! which product limit and construction; [`SessionOrigin`]) and its
//! **label log**. This module persists exactly those, as one append-only
//! JSON-lines file per session under the store's data directory:
//!
//! ```text
//! {"jim-journal":1,"session":7,"origin":{"source":{"scenario":"flights"},…}}
//! {"labels":[{"tuple":2,"label":"+"}]}
//! {"labels":[{"tuple":6,"label":"-"},{"tuple":7,"label":"-"}]}
//! ```
//!
//! The header is written when the session is created; **one line per
//! applied label batch** is appended *after* the engine accepts the batch
//! (an `Answer` is a 1-label batch), so the journal never records a
//! rejected label. Because the journal is written ahead of every ack,
//! eviction needs no write at all: dropping a session from memory loses
//! nothing, and [`JournalStore::load`] + [`StoredSession::rebuild_engine`]
//! reconstruct the identical engine by replaying the recorded batches —
//! one [`jim_core::Engine::label_batch`] pass per batch, reproducing the
//! live session's exact state trajectory (stats and interaction log
//! included).
//!
//! **Durability caveat:** appends are flushed to the OS (`write` + close)
//! but not fsynced — a kernel crash can lose the tail. A torn trailing
//! line (partial write at process death) is tolerated on load: it is
//! skipped with a logged warning and the session resumes at the previous
//! batch boundary. A corrupt line *before* the tail is not a torn write
//! and fails the load — replaying past a hole would silently diverge from
//! the session the user actually had.

use crate::protocol::parse_strategy;
use crate::scenario;
use jim_core::{
    Engine, EngineOptions, InferenceError, Label, OriginSource, SessionOrigin, Strategy,
    StrategyKind, Transcript,
};
use jim_json::Json;
use jim_relation::{csv, Database, Product, ProductId};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal format version written in headers.
const JOURNAL_VERSION: u64 = 1;

/// How many enumerated tuples one unit of factorization work must save
/// before a product that fits `max_product` is factorized (see
/// [`engine_from_product`]). Measured per unit on a 2-vCPU x86-64 host:
/// `Engine::new` spends 60–90 ns per enumerated tuple (TPC-H customer ×
/// orders, 8.4·10⁵ tuples); factorization spends 35–45 ns per visited
/// combination and 60–130 ns per partitioned row on two-column keys, up
/// to ~540 ns on TPC-H's four-column keys. A unit is thus worth at most
/// ~8 tuples, and the further factor of 8 keeps a try that runs out of
/// budget to about an eighth of the enumeration that follows it.
const TUPLES_PER_SWEEP_UNIT: u64 = 64;

/// A loaded journal: the origin plus the applied batches, ready to
/// rebuild the session.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSession {
    /// The session id the journal belongs to.
    pub id: u64,
    /// Provenance for rebuilding the engine from nothing.
    pub origin: SessionOrigin,
    /// The label batches, in application order.
    pub batches: Vec<Vec<(ProductId, Label)>>,
}

impl StoredSession {
    /// Total labels across all batches (= the session's interactions).
    pub fn interactions(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }

    /// Rebuild the engine: construct the instance from the origin and
    /// replay every recorded batch with one `label_batch` pass each —
    /// the exact state trajectory the live session took.
    pub fn rebuild_engine(&self) -> Result<Engine, String> {
        let mut engine = build_engine(&self.origin)?;
        for (i, batch) in self.batches.iter().enumerate() {
            engine
                .label_batch(batch)
                .map_err(|e| format!("journal batch {} does not replay: {e}", i + 1))?;
        }
        Ok(engine)
    }

    /// Build the strategy recorded in the origin (fresh state — RNG-based
    /// strategies restart from their seed).
    pub fn rebuild_strategy(&self) -> Result<(Box<dyn Strategy + Send>, String), String> {
        let kind = strategy_kind(&self.origin)?;
        Ok((kind.build(), kind.to_string()))
    }

    /// Every recorded label, flattened in application order.
    pub fn labels(&self) -> Vec<(ProductId, Label)> {
        self.batches.iter().flatten().copied().collect()
    }
}

/// Resolve the origin's strategy string (`None` = server default).
pub fn strategy_kind(origin: &SessionOrigin) -> Result<StrategyKind, String> {
    match origin.strategy.as_deref() {
        None => Ok(StrategyKind::LookaheadMinPrune),
        Some(name) => parse_strategy(name),
    }
}

/// Build the product for an origin's data source (also the `CreateSession`
/// path — creation and resume share one builder, so an origin that built
/// once always rebuilds).
pub fn build_product(source: &OriginSource) -> Result<Product, String> {
    match source {
        OriginSource::Scenario { name } => scenario::product(name),
        OriginSource::Inline { relations, view } => {
            if relations.is_empty() {
                return Err("`relations` must not be empty".into());
            }
            // The catalog does the bookkeeping (duplicate names, name
            // lookup, shared Arc handles); this arm only parses CSV.
            let mut db = Database::new();
            for (name, text) in relations {
                let relation = csv::read_relation(name.clone(), text)
                    .map_err(|e| format!("relation `{name}`: {e}"))?;
                db.add(relation).map_err(|e| e.to_string())?;
            }
            let names: Vec<&str> = match view {
                None => relations.iter().map(|(name, _)| name.as_str()).collect(),
                Some(names) => {
                    if names.is_empty() {
                        return Err("`view` must not be empty".into());
                    }
                    names.iter().map(String::as_str).collect()
                }
            };
            let (occurrences, _) = db.join_view(&names).map_err(|e| e.to_string())?;
            Product::new(occurrences).map_err(|e| e.to_string())
        }
    }
}

/// Build a fresh (unlabeled) engine exactly as the origin records it:
/// same product, same effective limit, same construction.
pub fn build_engine(origin: &SessionOrigin) -> Result<Engine, String> {
    let product = build_product(&origin.source)?;
    engine_from_product(product, origin)
}

/// [`build_engine`] over an already-built product (the create path has
/// one in hand). Create, resume and the benchmark's traced replica all
/// construct through here, so they run one method, and it is always
/// exact:
///
/// * a product over `max_product`, or an origin recorded as factorized,
///   factorizes (a resume repeats what the create ran). Past the sweep
///   budget it is refused with
///   [`InferenceError::FactorizationTooLarge`]'s message, never sampled;
/// * any other product takes the cheaper exact method: factorization with
///   a sweep budget of `size / TUPLES_PER_SWEEP_UNIT`, tried only when
///   that budget covers the rows the block partition must read, and
///   enumeration when the try is skipped or runs out of budget. The
///   engine's [`Engine::is_factorized`] says which one ran.
pub fn engine_from_product(product: Product, origin: &SessionOrigin) -> Result<Engine, String> {
    let options = EngineOptions {
        max_product: origin.max_product,
        ..Default::default()
    };
    let built = if origin.factorized || product.size() > origin.max_product {
        Engine::from_factorized(product, &options)
    } else {
        cheaper_exact(product, &options)
    };
    built.map_err(|e| e.to_string())
}

/// Factorize `product` when that is cheaper than enumerating it, else
/// enumerate (see [`engine_from_product`]).
fn cheaper_exact(product: Product, options: &EngineOptions) -> Result<Engine, InferenceError> {
    let budget = product.size() / TUPLES_PER_SWEEP_UNIT;
    let rows: u64 = product.relations().iter().map(|r| r.len() as u64).sum();
    if budget >= rows {
        let sweep = EngineOptions {
            max_combos: budget,
            ..options.clone()
        };
        match Engine::from_factorized(product.clone(), &sweep) {
            Err(InferenceError::FactorizationTooLarge { .. }) => {}
            built => return built,
        }
    }
    Engine::new(product, options)
}

/// The on-disk journal directory: one `session-<id>.jsonl` per session.
#[derive(Debug)]
pub struct JournalStore {
    root: PathBuf,
}

impl JournalStore {
    /// Open (creating if needed) a journal directory.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<JournalStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(JournalStore { root })
    }

    /// The directory journals live in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The journal file of one session.
    pub fn path(&self, id: u64) -> PathBuf {
        self.root.join(format!("session-{id}.jsonl"))
    }

    /// Write a fresh journal containing only the header (origin) line.
    /// Returns the bytes written (newline included) so callers can
    /// account journal growth.
    pub fn create(&self, id: u64, origin: &SessionOrigin) -> std::io::Result<usize> {
        let header = Json::object([
            ("jim-journal", Json::from(JOURNAL_VERSION)),
            ("session", Json::from(id)),
            ("origin", origin.to_json()),
        ]);
        let line = format!("{}\n", header.render());
        let mut file = File::create(self.path(id))?;
        file.write_all(line.as_bytes())?;
        Ok(line.len())
    }

    /// Append one applied label batch. Called *after* the engine accepted
    /// the batch and *before* the response is acked, under the session
    /// lock — so journal order equals application order. Returns the
    /// bytes appended (newline included).
    pub fn append(&self, id: u64, labels: &[(ProductId, Label)]) -> std::io::Result<usize> {
        let line = Json::object([("labels", Transcript::labels_to_json(labels))]);
        let line = format!("{}\n", line.render());
        let mut file = OpenOptions::new().append(true).open(self.path(id))?;
        // One write call per line: the OS appends atomically enough that
        // a crash leaves at most one torn trailing line, which `load`
        // tolerates.
        file.write_all(line.as_bytes())?;
        Ok(line.len())
    }

    /// Whether a journal exists for this session id.
    pub fn contains(&self, id: u64) -> bool {
        self.path(id).is_file()
    }

    /// Delete a session's journal; `true` if it existed.
    pub fn delete(&self, id: u64) -> bool {
        fs::remove_file(self.path(id)).is_ok()
    }

    /// Session ids with a journal on disk, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = match fs::read_dir(&self.root) {
            Err(_) => Vec::new(),
            Ok(entries) => entries
                .filter_map(|e| {
                    let name = e.ok()?.file_name();
                    let name = name.to_str()?;
                    name.strip_prefix("session-")?
                        .strip_suffix(".jsonl")?
                        .parse()
                        .ok()
                })
                .collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// The largest session id on disk (0 when empty) — a fresh store over
    /// an existing directory allocates ids past it, so restarts never
    /// collide with resumable sessions.
    pub fn max_id(&self) -> u64 {
        self.ids().last().copied().unwrap_or(0)
    }

    /// The origin and recorded-label count of a session, **without**
    /// materializing its batches: only the header line is JSON-parsed;
    /// labels are counted by scanning the batch lines for their `"tuple"`
    /// keys (the writer is ours, so the count is exact for well-formed
    /// journals). `ListSessions` calls this per on-disk session — a
    /// listing must stay a scan, not a decode, of every journal.
    pub fn peek_meta(&self, id: u64) -> Result<Option<(SessionOrigin, u64)>, String> {
        let text = match fs::read_to_string(self.path(id)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("journal for session {id}: {e}")),
            Ok(text) => text,
        };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| format!("journal for session {id} is empty"))?;
        let header =
            Json::parse(header).map_err(|e| format!("journal header for session {id}: {e}"))?;
        let origin = header
            .get("origin")
            .ok_or_else(|| format!("journal header for session {id} has no origin"))?;
        let origin = SessionOrigin::from_json(origin)
            .map_err(|e| format!("journal origin for session {id}: {e}"))?;
        let labels = lines
            .map(|line| line.matches("\"tuple\":").count() as u64)
            .sum();
        Ok(Some((origin, labels)))
    }

    /// Load a session's journal. `Ok(None)` when no journal exists;
    /// `Err` when the header is unreadable or a non-trailing line is
    /// corrupt. A truncated **trailing** line is a torn write — only
    /// possible on the last line, and only when the file does not end in
    /// a newline (every append writes its `\n` in the same call): it is
    /// skipped with a logged warning and the load succeeds with the
    /// batches up to it. An unparseable *newline-terminated* last line
    /// cannot be a torn append (bit rot, outside editing) and fails the
    /// load like any other hole — replaying past it would silently
    /// diverge from the session the user actually had.
    pub fn load(&self, id: u64) -> Result<Option<StoredSession>, String> {
        let text = match fs::read_to_string(self.path(id)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("journal for session {id}: {e}")),
            Ok(text) => text,
        };
        let torn_tail_possible = !text.ends_with('\n');
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| format!("journal for session {id} is empty"))?;
        let header =
            Json::parse(header).map_err(|e| format!("journal header for session {id}: {e}"))?;
        match header.get("jim-journal").and_then(Json::as_u64) {
            Some(JOURNAL_VERSION) => {}
            other => {
                return Err(format!(
                    "journal for session {id}: unsupported version {other:?}"
                ))
            }
        }
        let origin = header
            .get("origin")
            .ok_or_else(|| format!("journal header for session {id} has no origin"))?;
        let origin = SessionOrigin::from_json(origin)
            .map_err(|e| format!("journal origin for session {id}: {e}"))?;

        let rest: Vec<&str> = lines.collect();
        let last = rest.len();
        let mut batches = Vec::with_capacity(rest.len());
        for (i, line) in rest.into_iter().enumerate() {
            let parsed = Json::parse(line)
                .ok()
                .and_then(|json| Transcript::labels_from_json(json.get("labels")?).ok());
            match parsed {
                Some(labels) => batches.push(labels),
                None if i + 1 == last && torn_tail_possible => {
                    // Torn write: the process died mid-append. The batch
                    // was never fully journaled, so resuming one batch
                    // short is the correct state.
                    eprintln!(
                        "jim-server: journal for session {id}: skipping torn trailing line \
                         (batch {} of {last})",
                        i + 1
                    );
                }
                None => {
                    return Err(format!(
                        "journal for session {id}: corrupt batch line {} of {last} \
                         (not a torn write; refusing to replay past a hole)",
                        i + 1
                    ));
                }
            }
        }
        Ok(Some(StoredSession {
            id,
            origin,
            batches,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jim_core::OriginSource;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jim-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn flights_origin() -> SessionOrigin {
        SessionOrigin {
            source: OriginSource::Scenario {
                name: "flights".into(),
            },
            strategy: Some("lookahead-minprune".into()),
            max_product: 5_000_000,
            sample_seed: 0,
            sampled: false,
            factorized: false,
        }
    }

    #[test]
    fn journal_round_trip_rebuilds_the_engine() {
        let store = JournalStore::open(tmpdir("roundtrip")).unwrap();
        let origin = flights_origin();
        store.create(7, &origin).unwrap();
        store.append(7, &[(ProductId(2), Label::Positive)]).unwrap();
        store
            .append(
                7,
                &[
                    (ProductId(6), Label::Negative),
                    (ProductId(7), Label::Negative),
                ],
            )
            .unwrap();

        assert!(store.contains(7));
        assert_eq!(store.ids(), vec![7]);
        assert_eq!(store.max_id(), 7);

        let stored = store.load(7).unwrap().unwrap();
        assert_eq!(stored.origin, origin);
        assert_eq!(stored.batches.len(), 2);
        assert_eq!(stored.interactions(), 3);

        // The rebuilt engine is the resolved paper walkthrough, with the
        // exact per-batch trajectory (generation = number of batches).
        let engine = stored.rebuild_engine().unwrap();
        assert!(engine.is_resolved());
        assert_eq!(engine.generation(), 2);
        assert_eq!(engine.stats().interactions(), 3);
        let (_, name) = stored.rebuild_strategy().unwrap();
        assert_eq!(name, "lookahead-minprune");

        assert!(store.delete(7));
        assert!(!store.delete(7));
        assert_eq!(store.load(7).unwrap(), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn torn_trailing_line_is_skipped_with_a_warning() {
        let store = JournalStore::open(tmpdir("torn")).unwrap();
        store.create(3, &flights_origin()).unwrap();
        store.append(3, &[(ProductId(2), Label::Positive)]).unwrap();
        store.append(3, &[(ProductId(6), Label::Negative)]).unwrap();

        // Truncate the file mid-way through the last line.
        let path = store.path(3);
        let text = fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().len() - 10;
        fs::write(&path, &text[..cut]).unwrap();

        let stored = store.load(3).unwrap().unwrap();
        assert_eq!(stored.batches, vec![vec![(ProductId(2), Label::Positive)]]);
        let engine = stored.rebuild_engine().unwrap();
        assert_eq!(engine.stats().interactions(), 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn newline_terminated_corrupt_tail_is_a_hole_not_a_torn_write() {
        // A complete (newline-terminated) but unparseable last line cannot
        // be a torn append — it must fail the load, not be skipped.
        let store = JournalStore::open(tmpdir("bitrot")).unwrap();
        store.create(6, &flights_origin()).unwrap();
        store.append(6, &[(ProductId(2), Label::Positive)]).unwrap();
        let path = store.path(6);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"labels\":[{\"tup\n");
        fs::write(&path, text).unwrap();
        let err = store.load(6).unwrap_err();
        assert!(err.contains("corrupt batch line 2"), "{err}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn peek_meta_counts_labels_without_decoding_batches() {
        let store = JournalStore::open(tmpdir("meta")).unwrap();
        let origin = flights_origin();
        store.create(8, &origin).unwrap();
        assert_eq!(store.peek_meta(8).unwrap(), Some((origin.clone(), 0)));
        store.append(8, &[(ProductId(2), Label::Positive)]).unwrap();
        store
            .append(
                8,
                &[
                    (ProductId(6), Label::Negative),
                    (ProductId(7), Label::Negative),
                ],
            )
            .unwrap();
        assert_eq!(store.peek_meta(8).unwrap(), Some((origin, 3)));
        assert_eq!(store.peek_meta(99).unwrap(), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_middle_line_fails_the_load() {
        let store = JournalStore::open(tmpdir("hole")).unwrap();
        store.create(4, &flights_origin()).unwrap();
        store.append(4, &[(ProductId(2), Label::Positive)]).unwrap();
        store.append(4, &[(ProductId(6), Label::Negative)]).unwrap();

        // Corrupt the *first* batch line: that is a hole, not a torn tail.
        let path = store.path(4);
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = r#"{"labels":[{"tup"#;
        fs::write(&path, lines.join("\n")).unwrap();

        let err = store.load(4).unwrap_err();
        assert!(err.contains("corrupt batch line 1"), "{err}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_or_broken_headers_are_errors() {
        let store = JournalStore::open(tmpdir("header")).unwrap();
        assert_eq!(store.load(99).unwrap(), None);

        fs::write(store.path(1), "").unwrap();
        assert!(store.load(1).unwrap_err().contains("empty"));
        fs::write(store.path(2), "not json\n").unwrap();
        assert!(store.load(2).unwrap_err().contains("header"));
        fs::write(store.path(5), "{\"jim-journal\":9}\n").unwrap();
        assert!(store.load(5).unwrap_err().contains("version"));
        let _ = fs::remove_dir_all(store.root());
    }

    /// A journal written over a uniform sample (a version-1 header that
    /// says `"sampled":true`) is refused on load and on peek: sampling was
    /// removed, and the sample cannot be rebuilt.
    #[test]
    fn sampled_origin_rebuilds_the_identical_sample() {
        let store = JournalStore::open(tmpdir("sampled")).unwrap();
        let journal = r#"{"jim-journal":1,"session":9,"origin":{"source":{"scenario":"setgame"},"max_product":40,"sample_seed":7,"sampled":true,"factorized":false}}
{"labels":[{"tuple":3,"label":"-"}]}
"#;
        fs::write(store.path(9), journal).unwrap();
        let err = store.load(9).unwrap_err();
        assert!(err.contains("sampling was removed"), "{err}");
        let err = store.peek_meta(9).unwrap_err();
        assert!(err.contains("sampling was removed"), "{err}");
        let _ = fs::remove_dir_all(store.root());
    }

    /// An inline customer × orders source joined on a key: 100 × 400 =
    /// 40,000 tuples, each customer's orders in one block, so the sweep
    /// visits 200 block combinations against a budget of 625.
    fn key_joined_origin() -> SessionOrigin {
        let mut customer = String::from("ck,name\n");
        for c in 0..100 {
            customer.push_str(&format!("{c},c{c}\n"));
        }
        let mut orders = String::from("ok,ck\n");
        for o in 0..400 {
            orders.push_str(&format!("o{o},{}\n", (o * 7) % 100));
        }
        SessionOrigin {
            source: OriginSource::Inline {
                relations: vec![("customer".into(), customer), ("orders".into(), orders)],
                view: None,
            },
            strategy: Some("local-general".into()),
            max_product: 5_000_000,
            sample_seed: 0,
            sampled: false,
            factorized: false,
        }
    }

    #[test]
    fn a_product_within_the_limit_factorizes_when_cheaper_and_replays() {
        let mut origin = key_joined_origin();
        let mut live = build_engine(&origin).unwrap();
        assert!(live.is_factorized(), "the rule factorizes the key join");
        assert_eq!(live.stats().total_tuples, 40_000);
        let enumerated = Engine::new(
            build_product(&origin.source).unwrap(),
            &EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(live.stats(), enumerated.stats());
        assert_eq!(
            live.candidates().candidates(),
            enumerated.candidates().candidates()
        );

        // Create, label, evict (nothing is written) and replay.
        origin.factorized = live.is_factorized();
        let store = JournalStore::open(tmpdir("cheaper")).unwrap();
        store.create(11, &origin).unwrap();
        let (mut strategy, _) = StoredSession {
            id: 11,
            origin: origin.clone(),
            batches: Vec::new(),
        }
        .rebuild_strategy()
        .unwrap();
        for step in 0..3 {
            let view = live.candidates();
            let Some(id) = strategy.choose(&live, &view) else {
                break;
            };
            let batch = [(id, Label::from_bool(step % 2 == 0))];
            live.label_batch(&batch).unwrap();
            store.append(11, &batch).unwrap();
        }
        let stored = store.load(11).unwrap().unwrap();
        assert!(stored.origin.factorized);
        let replayed = stored.rebuild_engine().unwrap();
        assert!(replayed.is_factorized());
        assert_eq!(replayed.stats(), live.stats());
        assert_eq!(replayed.generation(), live.generation());
        assert_eq!(
            replayed.candidates().candidates(),
            live.candidates().candidates()
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn small_products_keep_enumerating() {
        // Scenario sizes: a factorization budget of size / 64 is below the
        // rows the partition reads, so the try is skipped.
        for name in ["flights", "setgame", "social", "random", "tpch"] {
            let mut origin = flights_origin();
            origin.source = OriginSource::Scenario { name: name.into() };
            let engine = build_engine(&origin).unwrap();
            assert!(!engine.is_factorized(), "{name}");
        }
    }

    #[test]
    fn factorized_origin_rebuilds_the_identical_engine() {
        // A factorized origin covers the whole 144-tuple setgame product
        // even though max_product is far below it — full fidelity, and a
        // deterministic rebuild.
        let origin = SessionOrigin {
            source: OriginSource::Scenario {
                name: "setgame".into(),
            },
            strategy: None,
            max_product: 40,
            sample_seed: 0,
            sampled: false,
            factorized: true,
        };
        let a = build_engine(&origin).unwrap();
        let b = build_engine(&origin).unwrap();
        assert!(a.is_factorized());
        assert_eq!(a.stats().total_tuples, 144);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.visible_ids(false), b.visible_ids(false));
    }
}
