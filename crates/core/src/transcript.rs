//! Session transcripts: a durable record of the labels a user gave,
//! replayable onto a fresh engine.
//!
//! The demo replays user sessions to show "how many interactions she would
//! have done" under other strategies (Figure 4); crowd platforms likewise
//! need an audit log of paid answers. JSON is the one format a transcript
//! is stored in and read back from — the wire's `Transcript` op, the
//! server's journal and resume all speak it ([`Transcript::to_json`],
//! [`Transcript::from_json`]):
//!
//! ```json
//! {"version":1,"schema":"flights × hotels","tuples":12,
//!  "labels":[{"tuple":2,"label":"+"},{"tuple":6,"label":"-"}]}
//! ```
//!
//! Tuples are identified by their product rank, which is stable for a
//! given database and join view (the product enumerates relations in
//! order, last fastest). Ranks and counts past 2^53 are written as decimal
//! strings (`jim_json`'s `u64` rule), so a transcript of a product of any
//! size round-trips exactly. The [`fmt::Display`] text form — one label per
//! line under `#` headers — is a rendering for people, and nothing reads
//! it back.
//!
//! The decoders here are the only ones for the shapes they cover: the
//! server decodes a `CreateSession` source with [`OriginSource::from_json`]
//! and an `AnswerBatch` with [`Transcript::labels_from_json`].

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

impl OriginSource {
    /// Serialize to the wire's `source` shape: `{"scenario":name}` or
    /// `{"relations":[{"name":..,"csv":..}],"view":[..]}`.
    pub fn to_json(&self) -> Json {
        match self {
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
        }
    }

    /// Decode the `source` shape of a `CreateSession` request or a recorded
    /// origin (see [`OriginSource::to_json`]).
    pub fn from_json(json: &Json) -> Result<OriginSource> {
        let bad = |message: String| InferenceError::Decode { message };
        if let Some(name) = json.get("scenario").and_then(Json::as_str) {
            return Ok(OriginSource::Scenario {
                name: name.to_string(),
            });
        }
        let Some(rels) = json.get("relations").and_then(Json::as_array) else {
            return Err(bad("`source` needs either `scenario` or `relations`".into()));
        };
        let mut relations = Vec::with_capacity(rels.len());
        for (i, rel) in rels.iter().enumerate() {
            let field = |key: &str| {
                rel.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad(format!("relation {i}: missing `{key}`")))
            };
            relations.push((field("name")?, field("csv")?));
        }
        let view = match json.get("view") {
            None => None,
            Some(v) => Some(
                v.as_array()
                    .ok_or_else(|| bad("`view` must be an array of relation names".into()))?
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("`view` entries must be strings".into()))
                    })
                    .collect::<Result<Vec<_>>>()?,
            ),
        };
        Ok(OriginSource::Inline { relations, view })
    }
}

impl SessionOrigin {
    /// Serialize to the JSON shape embedded in transcripts and journal
    /// headers.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("source", self.source.to_json())];
        if let Some(strategy) = &self.strategy {
            fields.push(("strategy", Json::from(strategy.as_str())));
        }
        fields.push(("max_product", Json::from(self.max_product)));
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
        Ok(SessionOrigin {
            source: OriginSource::from_json(source)?,
            strategy: json
                .get("strategy")
                .and_then(Json::as_str)
                .map(str::to_string),
            max_product: json
                .get("max_product")
                .and_then(Json::as_u64)
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

    /// Encode a label list as the wire's `labels` array shape —
    /// `[{"tuple":2,"label":"+"},…]` — shared by [`Transcript::to_json`]
    /// and the server's journal batch lines.
    pub fn labels_to_json(labels: &[(ProductId, Label)]) -> Json {
        Json::Array(
            labels
                .iter()
                .map(|(id, label)| {
                    Json::object([
                        ("tuple", Json::from(id.0)),
                        ("label", Json::from(label.to_string())),
                    ])
                })
                .collect(),
        )
    }

    /// Decode a `labels` array: a transcript's, a journal batch line's or
    /// an `AnswerBatch` request's. Each entry needs a `tuple` rank and a
    /// `label` in any spelling [`Label::from_json`] takes.
    pub fn labels_from_json(json: &Json) -> Result<Vec<(ProductId, Label)>> {
        let bad = |message: String| InferenceError::Decode { message };
        let entries = json
            .as_array()
            .ok_or_else(|| bad("expected a `labels` array".into()))?;
        let mut labels = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let rank = entry.get("tuple").and_then(Json::as_u64).ok_or_else(|| {
                bad(format!(
                    "labels[{i}]: `tuple` must be a non-negative rank \
                     (a decimal string past 2^53)"
                ))
            })?;
            let label = entry
                .get("label")
                .ok_or_else(|| "missing `label`".to_string())
                .and_then(Label::from_json)
                .map_err(|e| bad(format!("labels[{i}]: {e}")))?;
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
            ("tuples", Json::from(self.tuples)),
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
            .and_then(Json::as_u64)
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

    /// The text form is a rendering, one label per line under the headers;
    /// the transcript its JSON decodes back to renders the same text.
    #[test]
    fn text_round_trip() {
        let (f, h) = paper_instance();
        let mut e = engine(&f, &h);
        e.label(ProductId(11), Label::Positive).unwrap();
        let t = Transcript::capture(&e);
        let text = t.to_string();
        assert_eq!(
            text,
            format!(
                "#jim-transcript v1\n#schema {}\n#tuples 12\n+ 11\n",
                t.schema
            )
        );
        let back = Transcript::parse_json(&t.to_json().render()).unwrap();
        assert_eq!(back.to_string(), text);
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
        let t = Transcript {
            schema: e.product().schema().to_string(),
            tuples: 12,
            labels: vec![
                (ProductId(2), Label::Positive),
                (ProductId(3), Label::Negative),
            ],
            origin: None,
        };
        let mut fresh = engine(&f, &h);
        let err = t.replay(&mut fresh);
        assert!(matches!(err, Err(InferenceError::InconsistentLabel { .. })));
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

        // Text rendering: the origin rides a `#origin` header line (with
        // the inline CSV's newlines JSON-escaped, so it stays one line).
        let text = t.to_string();
        let origin_line = format!("#origin {}", inline_origin().to_json().render());
        assert_eq!(text.lines().nth(3), Some(origin_line.as_str()));

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
    }

    /// The one `labels` decoder takes the wire's label spellings and the
    /// `u64` codec's two rank forms, and refuses anything else.
    #[test]
    fn labels_decode_wire_spellings_and_exact_ranks() {
        let decode = |text: &str| Transcript::labels_from_json(&Json::parse(text).unwrap());
        let big = (1u64 << 53) + 1;
        assert_eq!(
            decode(&format!(
                r#"[{{"tuple":2,"label":"Yes"}},{{"tuple":"{big}","label":false}},{{"tuple":9007199254740992,"label":"N"}}]"#
            )),
            Ok(vec![
                (ProductId(2), Label::Positive),
                (ProductId(big), Label::Negative),
                (ProductId(1 << 53), Label::Negative),
            ])
        );
        assert_eq!(decode("[]"), Ok(Vec::new()));
        for (bad, needle) in [
            ("{}", "array"),
            (r#"[{"tuple":"7","label":"+"}]"#, "labels[0]: `tuple`"),
            (
                r#"[{"tuple":9007199254740994,"label":"+"}]"#,
                "decimal string",
            ),
            (
                r#"[{"tuple":1,"label":"+"},{"tuple":-1,"label":"+"}]"#,
                "labels[1]",
            ),
            (r#"[{"tuple":1}]"#, "missing `label`"),
            (r#"[{"tuple":1,"label":"maybe"}]"#, "bad label \"maybe\""),
        ] {
            let err = decode(bad).unwrap_err().to_string();
            assert!(err.contains(needle), "{bad} -> {err}");
        }
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
}
