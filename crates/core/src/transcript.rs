//! Session transcripts: a durable, human-readable record of the labels a
//! user gave, replayable onto a fresh engine.
//!
//! The demo replays user sessions to show "how many interactions she would
//! have done" under other strategies (Figure 4); crowd platforms likewise
//! need an audit log of paid answers. The format is a plain text file —
//! one label per line — with a header binding it to the instance:
//!
//! ```text
//! #jim-transcript v1
//! #schema flights × hotels
//! #tuples 12
//! + 2
//! - 6
//! - 7
//! ```
//!
//! Tuples are identified by their product rank, which is stable for a
//! given database and join view (the product enumerates relations in
//! order, last fastest).

use crate::engine::Engine;
use crate::error::{InferenceError, Result};
use crate::label::Label;
use jim_json::Json;
use jim_relation::ProductId;
use std::fmt;

/// Where a session's relations came from, as data: either a named demo
/// scenario or the inline CSV text itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OriginSource {
    /// A named scenario (resolved by the service's scenario catalog).
    Scenario {
        /// The scenario name.
        name: String,
    },
    /// Relations carried verbatim as `(name, csv_text)` pairs, plus the
    /// optional join view (names, repeats allowed for self-joins).
    Inline {
        /// `(name, csv_text)` pairs.
        relations: Vec<(String, String)>,
        /// The join view, if it differs from "all relations once".
        view: Option<Vec<String>>,
    },
}

/// The provenance needed to rebuild a session's engine **from nothing**:
/// the data source, the strategy string, the effective product limit and
/// the construction method. With an origin attached, a [`Transcript`] is a
/// complete, durable representation of a session — origin rebuilds the
/// instance, the label log replays the interaction, and the result is the
/// exact version-space state the session had when it was persisted.
///
/// `max_product` is recorded as the *effective* value the engine was built
/// with (after any server-side clamping), so a resume takes the same
/// construction path even if the server's ceilings changed in between.
///
/// Every origin describes the whole product. Origins recorded over a
/// uniform sample are refused when decoded: sampling was removed, and the
/// sample cannot be rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOrigin {
    /// The data source.
    pub source: OriginSource,
    /// The strategy string exactly as the client supplied it (`None` =
    /// the server default). Kept verbatim so it re-parses on resume.
    pub strategy: Option<String>,
    /// The effective product-size limit the engine was built with.
    pub max_product: u64,
    /// Always `0`: neither written nor read. Kept only because perfbench's
    /// shadow handler (`perfbench/src/trace.rs`) builds origins as a
    /// struct literal.
    pub sample_seed: u64,
    /// Always `false` once decoded, and never written; an origin that says
    /// `"sampled":true` is refused. Kept only because perfbench's shadow
    /// handler builds origins as a struct literal.
    pub sampled: bool,
    /// Whether the engine was built by factorized construction
    /// ([`crate::Engine::from_factorized`]) — the full product at exact
    /// fidelity, groups carried as counts plus witnesses. Recorded so a
    /// resume rebuilds bit-identical state through the same path.
    pub factorized: bool,
}

impl SessionOrigin {
    /// Serialize to the JSON shape embedded in transcripts and journal
    /// headers.
    pub fn to_json(&self) -> Json {
        let source = match &self.source {
            OriginSource::Scenario { name } => {
                Json::object([("scenario", Json::from(name.as_str()))])
            }
            OriginSource::Inline { relations, view } => {
                let rels: Vec<Json> = relations
                    .iter()
                    .map(|(name, csv)| {
                        Json::object([
                            ("name", Json::from(name.as_str())),
                            ("csv", Json::from(csv.as_str())),
                        ])
                    })
                    .collect();
                let mut fields = vec![("relations", Json::Array(rels))];
                if let Some(view) = view {
                    fields.push((
                        "view",
                        Json::Array(view.iter().map(|n| Json::from(n.as_str())).collect()),
                    ));
                }
                Json::object(fields)
            }
        };
        let mut fields = vec![("source", source)];
        if let Some(strategy) = &self.strategy {
            fields.push(("strategy", Json::from(strategy.as_str())));
        }
        fields.push(("max_product", Transcript::int_to_json(self.max_product)));
        fields.push(("factorized", Json::Bool(self.factorized)));
        Json::object(fields)
    }

    /// Decode the shape produced by [`SessionOrigin::to_json`]. A
    /// `sample_seed` field is ignored; `"sampled":true` is refused.
    pub fn from_json(json: &Json) -> Result<SessionOrigin> {
        let bad = |message: String| InferenceError::Decode { message };
        if json.get("sampled").and_then(Json::as_bool) == Some(true) {
            return Err(bad(
                "origin: recorded over a sample; sampling was removed".into()
            ));
        }
        let source = json
            .get("source")
            .ok_or_else(|| bad("origin: missing `source`".into()))?;
        let source = if let Some(name) = source.get("scenario").and_then(Json::as_str) {
            OriginSource::Scenario {
                name: name.to_string(),
            }
        } else if let Some(rels) = source.get("relations").and_then(Json::as_array) {
            let mut relations = Vec::with_capacity(rels.len());
            for (i, rel) in rels.iter().enumerate() {
                let name = rel
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(format!("origin relation {i}: missing `name`")))?;
                let csv = rel
                    .get("csv")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(format!("origin relation {i}: missing `csv`")))?;
                relations.push((name.to_string(), csv.to_string()));
            }
            let view = match source.get("view") {
                None => None,
                Some(v) => Some(
                    v.as_array()
                        .ok_or_else(|| bad("origin: `view` must be an array".into()))?
                        .iter()
                        .map(|n| {
                            n.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| bad("origin: `view` entries must be strings".into()))
                        })
                        .collect::<Result<Vec<_>>>()?,
                ),
            };
            OriginSource::Inline { relations, view }
        } else {
            return Err(bad(
                "origin: `source` needs either `scenario` or `relations`".into(),
            ));
        };
        Ok(SessionOrigin {
            source,
            strategy: json
                .get("strategy")
                .and_then(Json::as_str)
                .map(str::to_string),
            max_product: json
                .get("max_product")
                .and_then(Transcript::int_from_json)
                .ok_or_else(|| bad("origin: missing `max_product`".into()))?,
            sample_seed: 0,
            sampled: false,
            // Additive field: origins journaled before factorized
            // construction existed decode as enumerated.
            factorized: json
                .get("factorized")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

/// A recorded labeling session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Transcript {
    /// Human-readable schema description (checked on replay).
    pub schema: String,
    /// Instance size when recorded (checked on replay).
    pub tuples: u64,
    /// The labels, in the order they were given.
    pub labels: Vec<(ProductId, Label)>,
    /// Provenance for rebuilding the engine from nothing, when known.
    /// Transcripts captured from a bare engine carry `None`; the service
    /// layer attaches the origin it recorded at session creation.
    pub origin: Option<SessionOrigin>,
}

impl Transcript {
    /// Capture the session recorded inside an engine (its interaction
    /// log, in order).
    pub fn capture(engine: &Engine) -> Transcript {
        Transcript {
            schema: engine.product().schema().to_string(),
            tuples: engine.product().size(),
            labels: engine
                .stats()
                .log
                .iter()
                .map(|r| (r.tuple, r.label))
                .collect(),
            origin: None,
        }
    }

    /// Attach the provenance needed to rebuild the engine from nothing
    /// (builder style, used by the service layer when persisting).
    pub fn with_origin(mut self, origin: SessionOrigin) -> Transcript {
        self.origin = Some(origin);
        self
    }

    /// Verify `engine` is over the instance this transcript was recorded
    /// on (schema text and tuple count).
    fn check_instance(&self, engine: &Engine) -> Result<()> {
        if engine.product().schema().to_string() != self.schema
            || engine.product().size() != self.tuples
        {
            return Err(InferenceError::Relation(jim_relation::RelationError::InvalidJoin {
                message: format!(
                    "transcript was recorded over `{}` ({} tuples), engine is over `{}` ({} tuples)",
                    self.schema,
                    self.tuples,
                    engine.product().schema(),
                    engine.product().size()
                ),
            }));
        }
        Ok(())
    }

    /// Replay every label onto `engine` (which must be over the same
    /// instance: schema text and tuple count are verified). Returns the
    /// number of labels applied.
    pub fn replay(&self, engine: &mut Engine) -> Result<usize> {
        self.check_instance(engine)?;
        for &(id, label) in &self.labels {
            engine.label(id, label)?;
        }
        Ok(self.labels.len())
    }

    /// Replay the whole transcript as **one** [`Engine::label_batch`]
    /// call — one version-space update pass, one candidate-index
    /// maintenance pass and one generation bump instead of n, which is
    /// what makes rehydrating an evicted session cheap. The final version
    /// space, candidate set and progress counters are identical to
    /// sequential replay (batch-vs-sequential equivalence is
    /// proptest-pinned); only the interaction log's per-record attribution
    /// differs, exactly as for any other batch: informativeness is judged
    /// against the batch start and the shared prune count lands on the
    /// last record.
    pub fn replay_batched(&self, engine: &mut Engine) -> Result<usize> {
        self.check_instance(engine)?;
        if !self.labels.is_empty() {
            engine.label_batch(&self.labels)?;
        }
        Ok(self.labels.len())
    }

    /// Parse the text format. Unknown `#` header lines are ignored
    /// (forward compatibility); blank lines are allowed.
    pub fn parse(text: &str) -> Result<Transcript> {
        let bad = |line: usize, message: String| {
            InferenceError::Relation(jim_relation::RelationError::Csv { line, message })
        };
        let mut lines = text.lines().enumerate();
        let Some((_, first)) = lines.next() else {
            return Err(bad(1, "empty transcript".into()));
        };
        if first.trim() != "#jim-transcript v1" {
            return Err(bad(1, "missing `#jim-transcript v1` header".into()));
        }
        let mut t = Transcript::default();
        for (i, raw) in lines {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                if let Some(s) = rest.strip_prefix("schema ") {
                    t.schema = s.trim().to_string();
                } else if let Some(n) = rest.strip_prefix("tuples ") {
                    t.tuples = n
                        .trim()
                        .parse()
                        .map_err(|_| bad(i + 1, format!("bad tuple count `{n}`")))?;
                } else if let Some(json) = rest.strip_prefix("origin ") {
                    let json = Json::parse(json.trim())
                        .map_err(|e| bad(i + 1, format!("bad origin JSON: {e}")))?;
                    t.origin = Some(
                        SessionOrigin::from_json(&json)
                            .map_err(|e| bad(i + 1, format!("bad origin: {e}")))?,
                    );
                }
                continue;
            }
            let (sign, rank) = line
                .split_once(' ')
                .ok_or_else(|| bad(i + 1, format!("expected `<+|-> <rank>`, got `{line}`")))?;
            let label = match sign {
                "+" => Label::Positive,
                "-" => Label::Negative,
                other => return Err(bad(i + 1, format!("bad label `{other}`"))),
            };
            let rank: u64 = rank
                .trim()
                .parse()
                .map_err(|_| bad(i + 1, format!("bad rank `{rank}`")))?;
            t.labels.push((ProductId(rank), label));
        }
        Ok(t)
    }

    /// Largest integer the wire's number type (`f64`) represents exactly.
    /// Ranks and counts above this are encoded as decimal strings so
    /// transcripts of factorized engines over astronomically large products
    /// survive the round trip bit-exactly.
    const MAX_EXACT_WIRE_INT: u64 = 1 << 53;

    fn int_to_json(value: u64) -> Json {
        if value <= Self::MAX_EXACT_WIRE_INT {
            Json::from(value)
        } else {
            Json::from(value.to_string())
        }
    }

    fn int_from_json(value: &Json) -> Option<u64> {
        value
            .as_u64()
            .or_else(|| value.as_str().and_then(|s| s.parse().ok()))
    }

    /// Encode a label list as the wire's `labels` array shape —
    /// `[{"tuple":2,"label":"+"},…]` — shared by [`Transcript::to_json`]
    /// and the server's journal batch lines. Ranks beyond the `f64`-exact
    /// range are encoded as decimal strings (see `MAX_EXACT_WIRE_INT`).
    pub fn labels_to_json(labels: &[(ProductId, Label)]) -> Json {
        Json::Array(
            labels
                .iter()
                .map(|(id, label)| {
                    Json::object([
                        ("tuple", Self::int_to_json(id.0)),
                        ("label", Json::from(label.to_string())),
                    ])
                })
                .collect(),
        )
    }

    /// Decode the shape produced by [`Transcript::labels_to_json`].
    pub fn labels_from_json(json: &Json) -> Result<Vec<(ProductId, Label)>> {
        let bad = |message: String| InferenceError::Decode { message };
        let mut labels = Vec::new();
        for (i, entry) in json
            .as_array()
            .ok_or_else(|| bad("expected a `labels` array".into()))?
            .iter()
            .enumerate()
        {
            let rank = entry
                .get("tuple")
                .and_then(Self::int_from_json)
                .ok_or_else(|| bad(format!("label {i}: missing `tuple` rank")))?;
            let label = match entry.get("label").and_then(Json::as_str) {
                Some("+") => Label::Positive,
                Some("-") => Label::Negative,
                other => return Err(bad(format!("label {i}: bad `label` {other:?}"))),
            };
            labels.push((ProductId(rank), label));
        }
        Ok(labels)
    }

    /// Serialize to the JSON wire shape the `jim-server` protocol speaks:
    ///
    /// ```json
    /// {"version":1,"schema":"flights × hotels","tuples":12,
    ///  "labels":[{"tuple":2,"label":"+"}, ...]}
    /// ```
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("version", Json::from(1u64)),
            ("schema", Json::from(self.schema.as_str())),
            ("tuples", Self::int_to_json(self.tuples)),
            ("labels", Self::labels_to_json(&self.labels)),
        ];
        if let Some(origin) = &self.origin {
            fields.push(("origin", origin.to_json()));
        }
        Json::object(fields)
    }

    /// Decode the JSON wire shape produced by [`Transcript::to_json`].
    pub fn from_json(json: &Json) -> Result<Transcript> {
        let bad = |message: String| InferenceError::Decode { message };
        match json.get("version").and_then(Json::as_u64) {
            Some(1) => {}
            other => return Err(bad(format!("unsupported transcript version {other:?}"))),
        }
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing `schema` string".into()))?
            .to_string();
        let tuples = json
            .get("tuples")
            .and_then(Self::int_from_json)
            .ok_or_else(|| bad("missing `tuples` count".into()))?;
        let labels = Self::labels_from_json(
            json.get("labels")
                .ok_or_else(|| bad("missing `labels` array".into()))?,
        )?;
        let origin = match json.get("origin") {
            None => None,
            Some(o) => Some(SessionOrigin::from_json(o)?),
        };
        Ok(Transcript {
            schema,
            tuples,
            labels,
            origin,
        })
    }

    /// Parse a JSON text document (convenience over [`Transcript::from_json`]).
    pub fn parse_json(text: &str) -> Result<Transcript> {
        let json = Json::parse(text).map_err(|e| InferenceError::Decode {
            message: e.to_string(),
        })?;
        Transcript::from_json(&json)
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "#jim-transcript v1")?;
        writeln!(f, "#schema {}", self.schema)?;
        writeln!(f, "#tuples {}", self.tuples)?;
        if let Some(origin) = &self.origin {
            // JSON renders on one line, so the origin fits a header line
            // (older parsers skip unknown `#` headers).
            writeln!(f, "#origin {}", origin.to_json().render())?;
        }
        for (id, label) in &self.labels {
            writeln!(f, "{label} {}", id.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use jim_relation::{tup, DataType, Product, Relation, RelationSchema};

    fn paper_instance() -> (Relation, Relation) {
        let flights = Relation::new(
            RelationSchema::of(
                "flights",
                &[
                    ("From", DataType::Text),
                    ("To", DataType::Text),
                    ("Airline", DataType::Text),
                ],
            )
            .unwrap(),
            vec![
                tup!["Paris", "Lille", "AF"],
                tup!["Lille", "NYC", "AA"],
                tup!["NYC", "Paris", "AA"],
                tup!["Paris", "NYC", "AF"],
            ],
        )
        .unwrap();
        let hotels = Relation::new(
            RelationSchema::of(
                "hotels",
                &[("City", DataType::Text), ("Discount", DataType::Text)],
            )
            .unwrap(),
            vec![
                tup!["NYC", "AA"],
                tup!["Paris", "None"],
                tup!["Lille", "AF"],
            ],
        )
        .unwrap();
        (flights, hotels)
    }

    fn engine(f: &Relation, h: &Relation) -> Engine {
        let p = Product::new(vec![f, h]).unwrap();
        Engine::new(p, &EngineOptions::default()).unwrap()
    }

    #[test]
    fn capture_replay_round_trip() {
        let (f, h) = paper_instance();
        let mut e = engine(&f, &h);
        e.label(ProductId(2), Label::Positive).unwrap();
        e.label(ProductId(6), Label::Negative).unwrap();
        e.label(ProductId(7), Label::Negative).unwrap();
        let t = Transcript::capture(&e);

        let mut fresh = engine(&f, &h);
        assert_eq!(t.replay(&mut fresh).unwrap(), 3);
        assert!(fresh.is_resolved());
        assert_eq!(fresh.result(), e.result());
    }

    #[test]
    fn text_round_trip() {
        let (f, h) = paper_instance();
        let mut e = engine(&f, &h);
        e.label(ProductId(11), Label::Positive).unwrap();
        let t = Transcript::capture(&e);
        let text = t.to_string();
        assert!(text.starts_with("#jim-transcript v1"));
        assert!(text.contains("+ 11"));
        let parsed = Transcript::parse(&text).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn replay_rejects_wrong_instance() {
        let (f, h) = paper_instance();
        let mut e = engine(&f, &h);
        e.label(ProductId(0), Label::Negative).unwrap();
        let t = Transcript::capture(&e);

        // Same relations but a self-join view: different schema string.
        let p = Product::new(vec![&h, &h]).unwrap();
        let mut wrong = Engine::new(p, &EngineOptions::default()).unwrap();
        assert!(t.replay(&mut wrong).is_err());
    }

    #[test]
    fn replay_surfaces_inconsistent_transcripts() {
        // A hand-forged transcript with contradictory labels must fail
        // replay with the inconsistency error, not corrupt the engine.
        let (f, h) = paper_instance();
        let e = engine(&f, &h);
        let text = format!(
            "#jim-transcript v1\n#schema {}\n#tuples 12\n+ 2\n- 3\n",
            e.product().schema()
        );
        let t = Transcript::parse(&text).unwrap();
        let mut fresh = engine(&f, &h);
        let err = t.replay(&mut fresh);
        assert!(matches!(err, Err(InferenceError::InconsistentLabel { .. })));
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(Transcript::parse("").is_err());
        assert!(Transcript::parse("#jim\n").is_err());
        let bad_label = "#jim-transcript v1\n#schema s\n#tuples 1\n? 0\n";
        assert!(Transcript::parse(bad_label).is_err());
        let bad_rank = "#jim-transcript v1\n+ x\n";
        assert!(Transcript::parse(bad_rank).is_err());
        let bad_count = "#jim-transcript v1\n#tuples many\n";
        assert!(Transcript::parse(bad_count).is_err());
    }

    #[test]
    fn json_round_trip_replays_to_same_version_space() {
        let (f, h) = paper_instance();
        let mut e = engine(&f, &h);
        e.label(ProductId(2), Label::Positive).unwrap();
        e.label(ProductId(6), Label::Negative).unwrap();
        e.label(ProductId(7), Label::Negative).unwrap();
        let t = Transcript::capture(&e);

        // Serialize to JSON text and back.
        let text = t.to_json().render();
        assert!(text.contains("\"labels\""));
        let parsed = Transcript::parse_json(&text).unwrap();
        assert_eq!(parsed, t);

        // Replay into a fresh session: identical version space.
        let mut fresh = engine(&f, &h);
        assert_eq!(parsed.replay(&mut fresh).unwrap(), 3);
        assert!(fresh.is_resolved());
        assert_eq!(fresh.result(), e.result());
        assert_eq!(fresh.version_space().upper(), e.version_space().upper());
        assert_eq!(
            fresh.version_space().negatives(),
            e.version_space().negatives()
        );
    }

    #[test]
    fn json_round_trip_is_exact_beyond_f64_integers() {
        // Factorized engines over huge products carry full-u64 ranks; they
        // must survive JSON without rounding through f64.
        let t = Transcript {
            schema: "huge × huge".into(),
            tuples: u64::MAX,
            labels: vec![
                (ProductId((1 << 53) + 1), Label::Positive),
                (ProductId(u64::MAX - 1), Label::Negative),
                (ProductId(3), Label::Positive),
            ],
            origin: None,
        };
        let back = Transcript::parse_json(&t.to_json().render()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_decode_rejects_malformed_documents() {
        assert!(Transcript::parse_json("not json").is_err());
        assert!(Transcript::parse_json("{}").is_err());
        assert!(
            Transcript::parse_json(r#"{"version":2,"schema":"s","tuples":1,"labels":[]}"#).is_err()
        );
        assert!(Transcript::parse_json(r#"{"version":1,"tuples":1,"labels":[]}"#).is_err());
        assert!(Transcript::parse_json(r#"{"version":1,"schema":"s","labels":[]}"#).is_err());
        assert!(Transcript::parse_json(r#"{"version":1,"schema":"s","tuples":1}"#).is_err());
        assert!(Transcript::parse_json(
            r#"{"version":1,"schema":"s","tuples":1,"labels":[{"tuple":0,"label":"?"}]}"#
        )
        .is_err());
        assert!(Transcript::parse_json(
            r#"{"version":1,"schema":"s","tuples":1,"labels":[{"label":"+"}]}"#
        )
        .is_err());
    }

    fn inline_origin() -> SessionOrigin {
        SessionOrigin {
            source: OriginSource::Inline {
                relations: vec![
                    ("flights".into(), "From,To\nParis,Lille\n".into()),
                    ("hotels".into(), "City\nNYC\n".into()),
                ],
                view: Some(vec!["flights".into(), "hotels".into()]),
            },
            strategy: Some("lookahead-minprune".into()),
            max_product: 5_000_000,
            sample_seed: 0,
            sampled: false,
            factorized: false,
        }
    }

    #[test]
    fn origin_round_trips_through_json_and_text() {
        let (f, h) = paper_instance();
        let mut e = engine(&f, &h);
        e.label(ProductId(2), Label::Positive).unwrap();
        let t = Transcript::capture(&e).with_origin(inline_origin());

        // JSON wire shape.
        let back = Transcript::parse_json(&t.to_json().render()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.origin, Some(inline_origin()));

        // Text shape: the origin rides a `#origin` header line (with the
        // inline CSV's newlines JSON-escaped, so it stays one line).
        let text = t.to_string();
        assert!(text.contains("#origin {"));
        let parsed = Transcript::parse(&text).unwrap();
        assert_eq!(parsed, t);

        // A scenario origin round-trips too.
        let scenario = SessionOrigin {
            source: OriginSource::Scenario {
                name: "flights".into(),
            },
            strategy: None,
            max_product: 100,
            sample_seed: 0,
            sampled: false,
            factorized: false,
        };
        let t = Transcript::capture(&e).with_origin(scenario.clone());
        let back = Transcript::parse_json(&t.to_json().render()).unwrap();
        assert_eq!(back.origin, Some(scenario.clone()));

        // A factorized origin round-trips, and its absence decodes false
        // (origins journaled before the field existed stay readable).
        let factorized = SessionOrigin {
            factorized: true,
            ..scenario.clone()
        };
        let back = SessionOrigin::from_json(&factorized.to_json()).unwrap();
        assert_eq!(back, factorized);
        assert!(!back.to_json().render().is_empty());
        let legacy = Json::parse(r#"{"source":{"scenario":"flights"},"max_product":100}"#).unwrap();
        assert!(!SessionOrigin::from_json(&legacy).unwrap().factorized);

        // Origins carry no sampling fields. An exact header written with
        // them still decodes (its seed is ignored), but one recorded over a
        // sample is refused with a typed decode error.
        assert!(!factorized.to_json().render().contains("sample"));
        let with = |fields: &str| {
            let text =
                format!(r#"{{"source":{{"scenario":"flights"}},"max_product":100,{fields}}}"#);
            SessionOrigin::from_json(&Json::parse(&text).unwrap())
        };
        assert_eq!(with(r#""sample_seed":7,"sampled":false"#), Ok(scenario));
        let err = with(r#""sampled":true"#).unwrap_err();
        assert!(
            matches!(&err, InferenceError::Decode { message } if message.contains("sampling was removed")),
            "{err}"
        );
    }

    #[test]
    fn origin_decode_rejects_malformed_documents() {
        assert!(SessionOrigin::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(SessionOrigin::from_json(
            &Json::parse(r#"{"source":{},"max_product":1}"#).unwrap()
        )
        .is_err());
        assert!(SessionOrigin::from_json(
            &Json::parse(r#"{"source":{"scenario":"flights"}}"#).unwrap()
        )
        .is_err());
        assert!(SessionOrigin::from_json(
            &Json::parse(r#"{"source":{"relations":[{"name":"a"}]},"max_product":1}"#).unwrap()
        )
        .is_err());
        // A transcript carrying a malformed origin fails whole.
        assert!(Transcript::parse_json(
            r#"{"version":1,"schema":"s","tuples":1,"labels":[],"origin":{}}"#
        )
        .is_err());
        assert!(Transcript::parse("#jim-transcript v1\n#origin not-json\n").is_err());
    }

    #[test]
    fn batched_replay_matches_sequential_replay() {
        let (f, h) = paper_instance();
        let mut e = engine(&f, &h);
        e.label(ProductId(2), Label::Positive).unwrap();
        e.label(ProductId(6), Label::Negative).unwrap();
        e.label(ProductId(7), Label::Negative).unwrap();
        let t = Transcript::capture(&e);

        let mut sequential = engine(&f, &h);
        t.replay(&mut sequential).unwrap();
        let mut batched = engine(&f, &h);
        assert_eq!(t.replay_batched(&mut batched).unwrap(), 3);

        // One propagation pass, same resulting state.
        assert_eq!(batched.generation(), 1);
        assert!(batched.is_resolved());
        assert_eq!(batched.result(), sequential.result());
        assert_eq!(
            batched.version_space().upper(),
            sequential.version_space().upper()
        );
        assert_eq!(batched.stats().pruned, sequential.stats().pruned);
        assert_eq!(
            batched.stats().labeled_positive,
            sequential.stats().labeled_positive
        );
        // Capture of the replayed engine reproduces the transcript.
        assert_eq!(Transcript::capture(&batched), t);

        // Instance checks still apply.
        let p = Product::new(vec![&h, &h]).unwrap();
        let mut wrong = Engine::new(p, &EngineOptions::default()).unwrap();
        assert!(t.replay_batched(&mut wrong).is_err());

        // An empty transcript replays onto an untouched engine.
        let empty = Transcript::capture(&engine(&f, &h));
        let mut fresh = engine(&f, &h);
        assert_eq!(empty.replay_batched(&mut fresh).unwrap(), 0);
        assert_eq!(fresh.generation(), 0);
    }

    #[test]
    fn unknown_headers_and_blanks_ignored() {
        let text = "#jim-transcript v1\n#schema s\n#tuples 1\n#future stuff\n\n+ 0\n";
        let t = Transcript::parse(text).unwrap();
        assert_eq!(t.labels.len(), 1);
        assert_eq!(t.schema, "s");
    }
}
