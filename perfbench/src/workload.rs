//! Seeded workload generation: instances, goals and session scripts.
//!
//! Every workload is a fixed *cycle* of session scripts generated from the
//! seed. A run repeats whole cycles, so each run's mix of instances,
//! strategies and goals is identical in composition whatever its length.
//! The server only ever sees the generated inline CSV; the goals stay on
//! the client, which answers each question truthfully from them.

use jim_core::{AtomId, AtomUniverse, JoinPredicate};
use jim_json::Json;
use jim_relation::{csv, Product, Relation};
use jim_server::journal::build_product;
use jim_server::{ServerLimits, Source, StoreConfig};
use jim_synth::{flights, random_db, setgame, social, tpch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["wire-mix", "deep-inference", "resume-churn", "huge-open"];

/// One generated instance: the relations shipped as inline CSV, the
/// occurrence order of the join view, and the product the server will
/// build from them (built here by the server's own builder, for checking
/// inferred predicates against goals over the full product).
pub struct Instance {
    /// What generated it (`flights`, `social`, `setgame`, `random`,
    /// `follows-log`, `tpch`, `follows-3`).
    pub kind: &'static str,
    /// The `source` object of `CreateSession`, rendered once.
    pub source_json: String,
    /// Size in bytes of `source_json`.
    pub source_bytes: usize,
    /// The product over the full instance.
    pub product: Product,
    /// Rows of each occurrence, in view order.
    pub rows: Vec<usize>,
    /// Arity of each occurrence, in view order.
    pub arity: Vec<usize>,
}

/// How a session asks its questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `NextQuestion` then `Answer`, every turn.
    Ask,
    /// `TopK` with this `k`, then `AnswerBatch`, every turn.
    Batch(u64),
    /// `jim-load`'s per-turn roll between the two (`TopK` with k in 2..5).
    Mixed,
    /// `NextQuestion` and `TopK` with this `k` on alternate turns.
    Alternate(u64),
}

/// One scripted session of a cycle.
pub struct SessionSpec {
    /// Index into [`Workload::instances`].
    pub instance: usize,
    /// Strategy name sent with `CreateSession`.
    pub strategy: &'static str,
    /// How questions are asked.
    pub mode: Mode,
    /// The goal as flattened product column pairs that must be equal.
    pub goal: Vec<(usize, usize)>,
    /// Human-readable goal name.
    pub goal_name: String,
    /// Seed of the session's own turn and side-op rolls.
    pub seed: u64,
}

/// The `jim-serve` configuration a workload runs under; the in-process
/// passes of the traced run build the identical store and limits.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// `--max-sessions`: the store's resident-session cap.
    pub max_sessions: usize,
    /// `--max-product`: the enumeration ceiling before factorizing.
    pub max_product: u64,
}

impl ServeConfig {
    /// Command-line flags besides `--port` and `--data-dir`.
    pub fn flags(&self) -> Vec<String> {
        [
            ("--transport", "epoll".to_string()),
            ("--reactors", "2".to_string()),
            ("--max-sessions", self.max_sessions.to_string()),
            ("--max-product", self.max_product.to_string()),
            // Sessions live for the whole run; the sweeper must not be
            // what evicts them.
            ("--ttl-secs", "3600".to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect()
    }

    /// The store configuration the flags produce.
    pub fn store(&self) -> StoreConfig {
        StoreConfig {
            max_sessions: self.max_sessions,
            ttl: Duration::from_secs(3600),
            ..StoreConfig::default()
        }
    }

    /// The handler limits the flags produce.
    pub fn limits(&self) -> ServerLimits {
        ServerLimits {
            max_product: self.max_product,
            ..ServerLimits::default()
        }
    }
}

/// A generated workload: instances plus one cycle of session scripts.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The instances the sessions open.
    pub instances: Vec<Instance>,
    /// One cycle of sessions.
    pub sessions: Vec<SessionSpec>,
    /// Sessions kept open at once, served round-robin one turn each.
    pub live: usize,
    /// Whether turns interleave `Stats`/`Sql`/`Explain`/`Transcript`/
    /// `ResumeSession` side ops.
    pub side_ops: bool,
    /// The server configuration.
    pub serve: ServeConfig,
}

/// Default enumeration ceiling of `jim-serve`.
const DEFAULT_MAX_PRODUCT: u64 = 5_000_000;

/// Generate `name` from `seed`.
pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4a49_4d42_454e_4348);
    match name {
        "wire-mix" => {
            let (instances, sessions) = scenario_mix(&mut rng)?;
            Ok(Workload {
                name: "wire-mix",
                instances,
                sessions,
                live: 1,
                side_ops: true,
                serve: ServeConfig {
                    max_sessions: 64,
                    max_product: DEFAULT_MAX_PRODUCT,
                },
            })
        }
        "resume-churn" => {
            let (instances, sessions) = scenario_mix(&mut rng)?;
            let live = sessions.len();
            Ok(Workload {
                name: "resume-churn",
                instances,
                sessions,
                live,
                side_ops: true,
                serve: ServeConfig {
                    max_sessions: 4,
                    max_product: DEFAULT_MAX_PRODUCT,
                },
            })
        }
        "deep-inference" => deep_inference(&mut rng),
        "huge-open" => huge_open(&mut rng),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            NAMES.join(", ")
        )),
    }
}

/// Build an instance from relations (each shipped once) and a view.
fn instance(
    kind: &'static str,
    relations: &[&Relation],
    view: &[&str],
) -> Result<Instance, String> {
    let shipped: Vec<(String, String)> = relations
        .iter()
        .map(|r| (r.name().to_string(), csv::write_relation(r)))
        .collect();
    let view: Vec<String> = view.iter().map(|s| s.to_string()).collect();
    let source_json = Json::object([
        (
            "relations",
            Json::Array(
                shipped
                    .iter()
                    .map(|(name, text)| {
                        Json::object([
                            ("name", Json::from(name.as_str())),
                            ("csv", Json::from(text.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "view",
            Json::Array(view.iter().map(|v| Json::from(v.as_str())).collect()),
        ),
    ])
    .render();
    let product = build_product(&Source::Inline {
        relations: shipped,
        view: Some(view),
    })?;
    let rows = product.relations().iter().map(|r| r.len()).collect();
    let arity = product
        .schema()
        .relations()
        .iter()
        .map(|r| r.arity())
        .collect();
    Ok(Instance {
        kind,
        source_bytes: source_json.len(),
        source_json,
        product,
        rows,
        arity,
    })
}

/// Flattened column index of `attr` in occurrence `occ`.
fn col(product: &Product, occ: usize, attr: &str) -> Result<usize, String> {
    product
        .schema()
        .global_by_name(occ, attr)
        .map(|g| g.index())
        .map_err(|e| e.to_string())
}

/// A goal of a scenario cycle: instance index, goal name, column pairs.
type Goal = (usize, String, Vec<(usize, usize)>);

/// A goal pair by name: `((occurrence, attribute), (occurrence, attribute))`.
type NamedPair<'a> = ((usize, &'a str), (usize, &'a str));

fn goal(product: &Product, pairs: &[NamedPair<'_>]) -> Result<Vec<(usize, usize)>, String> {
    pairs
        .iter()
        .map(|&((oa, a), (ob, b))| Ok((col(product, oa, a)?, col(product, ob, b)?)))
        .collect()
}

/// Seeded social graphs and Set decks per scenario cycle: enough variants
/// that a cycle's mix, and so every per-run average, barely depends on
/// the seed.
const SCENARIO_VARIANTS: usize = 16;

/// The named `jim-load` scenarios (flights, social, setgame) with their
/// known goals, each goal under both deterministic strategies.
fn scenario_mix(rng: &mut StdRng) -> Result<(Vec<Instance>, Vec<SessionSpec>), String> {
    let mut instances = vec![instance(
        "flights",
        &[&flights::flights(), &flights::hotels()],
        &["flights", "hotels"],
    )?];
    let mut goals: Vec<Goal> = Vec::new();
    let p = &instances[0].product;
    goals.push((0, "q1".into(), goal(p, &[((0, "To"), (1, "City"))])?));
    goals.push((
        0,
        "q2".into(),
        goal(
            p,
            &[((0, "To"), (1, "City")), ((0, "Airline"), (1, "Discount"))],
        )?,
    ));
    for _ in 0..SCENARIO_VARIANTS {
        let graph = social::follows(12, 8, rng.gen_range(0..1_000_000));
        let social = instance("social", &[&graph], &["follows", "follows"])?;
        let hop = ((0, "dst"), (1, "src"));
        goals.push((
            instances.len(),
            "two_hop".into(),
            goal(&social.product, &[hop])?,
        ));
        goals.push((
            instances.len(),
            "mutual".into(),
            goal(&social.product, &[hop, ((0, "src"), (1, "dst"))])?,
        ));
        instances.push(social);

        let deck = setgame::subdeck(12, rng.gen_range(0..1_000_000));
        let cards = instance("setgame", &[&deck], &["cards", "cards"])?;
        let features = setgame::FEATURES;
        let first = features[rng.gen_range(0..features.len())];
        let second = features[rng.gen_range(0..features.len())];
        let mut same = vec![first];
        if second != first {
            same.push(second);
        }
        for features in [vec![first], same] {
            let pairs: Vec<NamedPair<'_>> = features.iter().map(|&f| ((0, f), (1, f))).collect();
            goals.push((
                instances.len(),
                format!("same_features({})", features.join(",")),
                goal(&cards.product, &pairs)?,
            ));
        }
        instances.push(cards);
    }
    let mut sessions = Vec::new();
    for (instance, name, pairs) in &goals {
        for strategy in ["lookahead-minprune", "local-general"] {
            sessions.push(SessionSpec {
                instance: *instance,
                strategy,
                mode: Mode::Mixed,
                goal: pairs.clone(),
                goal_name: name.clone(),
                seed: rng.gen_range(0..u64::MAX),
            });
        }
    }
    Ok((instances, sessions))
}

/// Every this-many-th deep-inference goal also runs under lookahead;
/// every goal runs under local-general. A lookahead session asks ~9
/// questions, half of which cost tens of milliseconds; a local-general
/// session asks 5–65 batches of ~0.2 ms. At 1:1 the turn p90 and the
/// session median fall on the gap between the two, and jump from seed to
/// seed. At 1:4 lookahead turns were ~7% of all turns, and the turn p90
/// still moved 0.22–0.36 ms with the seed; at 1:8 it sits inside the
/// local-general mode.
const LOOKAHEAD_EVERY: usize = 8;

/// Random 2 × 4-attribute × 100-row instances over domain 3, one per
/// session. The goals are every 2-atom combination of the 16 cross atoms,
/// each on an instance where it holds somewhere. Local-general's question
/// count is set mostly by which atoms the goal holds (20 to 265 here), so
/// covering every combination in each cycle keeps per-run means from
/// drifting with the seed.
fn deep_inference(rng: &mut StdRng) -> Result<Workload, String> {
    let mut instances = Vec::new();
    let mut sessions = Vec::new();
    let atoms = 16u32;
    let combinations: Vec<(u32, u32)> = (0..atoms)
        .flat_map(|x| (x + 1..atoms).map(move |y| (x, y)))
        .collect();
    for (k, &(x, y)) in combinations.iter().enumerate() {
        let lookahead = k % LOOKAHEAD_EVERY == 0;
        let runs = [
            Some(("local-general", Mode::Batch(4))),
            lookahead.then_some(("lookahead-minprune", Mode::Ask)),
        ];
        for (strategy, mode) in runs.into_iter().flatten() {
            let (inst, goal) = loop {
                let db = random_db::generate(&random_db::RandomDbConfig::uniform(
                    2,
                    4,
                    100,
                    3,
                    rng.gen_range(0..1_000_000),
                ));
                let rels = [
                    db.get("r1").map_err(|e| e.to_string())?,
                    db.get("r2").map_err(|e| e.to_string())?,
                ];
                let inst = instance("random", &rels, &["r1", "r2"])?;
                let universe = AtomUniverse::cross_relation(inst.product.schema().clone())
                    .map_err(|e| e.to_string())?;
                let goal = JoinPredicate::of(universe, [AtomId(x), AtomId(y)]);
                if !goal
                    .eval(&inst.product)
                    .map_err(|e| e.to_string())?
                    .is_empty()
                {
                    break (inst, goal);
                }
            };
            let pairs = goal
                .atoms()
                .iter()
                .map(|i| {
                    let atom = goal.universe().atoms()[i];
                    (atom.a.index(), atom.b.index())
                })
                .collect();
            sessions.push(SessionSpec {
                instance: instances.len(),
                strategy,
                mode,
                goal: pairs,
                goal_name: goal.to_string(),
                seed: rng.gen_range(0..u64::MAX),
            });
            instances.push(inst);
        }
    }
    Ok(Workload {
        name: "deep-inference",
        instances,
        sessions,
        live: 1,
        side_ops: false,
        serve: ServeConfig {
            max_sessions: 64,
            max_product: DEFAULT_MAX_PRODUCT,
        },
    })
}

/// Ceiling of the huge-open server: products past it factorize, or fall
/// back to a sample of this many tuples.
const HUGE_MAX_PRODUCT: u64 = 1_000_000;

/// Seeded variants of each huge-open instance kind per cycle.
const HUGE_VARIANTS: usize = 4;

/// Instances whose opening dominates, in variants of three kinds: an
/// event-log self-join past the ceiling (factorized), TPC-H customer ×
/// orders below it (enumerated), and a 3-occurrence self-join whose block
/// structure is too rich to factorize (sampled).
fn huge_open(rng: &mut StdRng) -> Result<Workload, String> {
    let mut instances = Vec::new();
    let mut sessions = Vec::new();
    let two_hop = [((0, "dst"), (1, "src"))];
    for _ in 0..HUGE_VARIANTS {
        let log = social::follows_log(40, 30_000, rng.gen_range(0..1_000_000));
        let db = tpch::generate(tpch::TpchConfig {
            scale: 25.0,
            seed: rng.gen_range(0..1_000_000),
        });
        let customer = db.get("customer").map_err(|e| e.to_string())?;
        let orders = db.get("orders").map_err(|e| e.to_string())?;
        let chain = social::follows_log(60, 200, rng.gen_range(0..1_000_000));
        for (inst, pairs, name) in [
            (
                instance("follows-log", &[&log], &["follows", "follows"])?,
                &two_hop[..],
                "two_hop",
            ),
            (
                instance("tpch", &[customer, orders], &["customer", "orders"])?,
                &[((0, "c_custkey"), (1, "o_custkey"))][..],
                "c_custkey=o_custkey",
            ),
            (
                instance("follows-3", &[&chain], &["follows", "follows", "follows"])?,
                &two_hop[..],
                "two_hop",
            ),
        ] {
            sessions.push(SessionSpec {
                instance: instances.len(),
                // Opening is what this workload measures; local-general's
                // cheap choice keeps every turn in one mode, where
                // lookahead's cost on the sampled instance put the turn
                // p90 on a gap that moved with the seed.
                strategy: "local-general",
                // A fixed pattern: with a dozen sessions a cycle, `Mixed`'s
                // seeded rolls alone would move questions per session.
                mode: Mode::Alternate(3),
                goal: goal(&inst.product, pairs)?,
                goal_name: name.to_string(),
                seed: rng.gen_range(0..u64::MAX),
            });
            instances.push(inst);
        }
    }
    Ok(Workload {
        name: "huge-open",
        instances,
        sessions,
        live: 1,
        side_ops: false,
        serve: ServeConfig {
            max_sessions: 64,
            max_product: HUGE_MAX_PRODUCT,
        },
    })
}

/// The `CreateSession` line of a session.
pub fn create_line(workload: &Workload, spec: &SessionSpec) -> String {
    format!(
        r#"{{"op":"CreateSession","source":{},"strategy":"{}"}}"#,
        workload.instances[spec.instance].source_json, spec.strategy
    )
}

/// Shape of every instance, for the result document.
pub fn shapes(workload: &Workload) -> Json {
    Json::Array(
        workload
            .instances
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let goal_arity: Vec<Json> = workload
                    .sessions
                    .iter()
                    .filter(|s| s.instance == i)
                    .map(|s| Json::from(s.goal.len()))
                    .collect();
                Json::object([
                    ("kind", Json::from(inst.kind)),
                    (
                        "rows",
                        Json::Array(inst.rows.iter().map(|&r| Json::from(r)).collect()),
                    ),
                    (
                        "arity",
                        Json::Array(inst.arity.iter().map(|&a| Json::from(a)).collect()),
                    ),
                    ("product_size", Json::from(inst.product.size())),
                    ("source_bytes", Json::from(inst.source_bytes)),
                    ("goal_arity", Json::Array(goal_arity)),
                ])
            })
            .collect(),
    )
}
