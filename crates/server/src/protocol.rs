//! The JSON-lines wire protocol.
//!
//! Every request is one JSON object on one line, tagged by `"op"`; every
//! response is one JSON object on one line with an `"ok"` boolean. The
//! protocol is deliberately transport-agnostic: `serve` speaks it over TCP,
//! tests speak it over an in-memory handler, and a future async backend can
//! reuse it verbatim.
//!
//! ## Requests
//!
//! ```json
//! {"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}
//! {"op":"CreateSession","source":{"relations":[{"name":"flights","csv":"From,To\n..."}]}}
//! {"op":"CreateSession","source":{"scenario":"setgame"},"max_product":1000}
//! {"op":"NextQuestion","session":1}
//! {"op":"TopK","session":1,"k":3}
//! {"op":"Answer","session":1,"label":"+"}
//! {"op":"Answer","session":1,"tuple":11,"label":"-"}
//! {"op":"AnswerBatch","session":1,"labels":[{"tuple":2,"label":"+"},{"tuple":6,"label":"-"}]}
//! {"op":"Stats","session":1}
//! {"op":"Explain","session":1,"tuple":4}
//! {"op":"Sql","session":1}
//! {"op":"Transcript","session":1}
//! {"op":"ResumeSession","session":1}
//! {"op":"ListSessions"}
//! {"op":"CloseSession","session":1}
//! {"op":"Metrics"}
//! ```
//!
//! Ranks and counts travel through `jim-json`'s one `u64` codec: a JSON
//! number up to 2^53, a decimal string past it (`"tuple":"9999000000000000"`),
//! in requests and responses alike, so a rank the server proposes always
//! comes back. A request's `source` and its labels decode through the same
//! `jim-core` decoders the journal and transcripts use
//! ([`jim_core::OriginSource::from_json`], [`jim_core::Label::from_json`],
//! [`jim_core::Transcript::labels_from_json`]); this module adds only the
//! request's own rules (which fields an op needs, non-empty batches, the
//! refused sampling knobs).

use jim_core::{Label, StrategyKind, Transcript};
use jim_json::Json;

/// Where a session's relations come from: inline CSV text (with an
/// optional join view; repeats allowed for self-joins) or a named
/// `jim-synth` scenario (`flights`, `setgame`, `tpch`, `random`,
/// `social`).
///
/// This is the same type the durable-session provenance
/// ([`jim_core::SessionOrigin`]) carries, so what a client sent at
/// `CreateSession` time is byte-for-byte what a resume rebuilds from.
pub use jim_core::OriginSource as Source;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session over a data source with an optional strategy choice.
    CreateSession {
        /// The data to infer over.
        source: Source,
        /// Strategy name (see [`parse_strategy`]); default lookahead-minprune.
        /// A present value that is not a string is refused.
        strategy: Option<String>,
        /// Enumerate at most this many product tuples (clamped to the
        /// server ceiling); larger products open through *factorized*
        /// construction at full fidelity, or are refused when the
        /// factorization sweep passes its budget. A present value that is
        /// not a `u64` (see [`Json::as_u64`]) is refused.
        max_product: Option<u64>,
        /// Always `None`: a request that sends `sample_seed` is refused.
        /// Kept only because perfbench's shadow handler
        /// (`perfbench/src/trace.rs`) destructures this variant field by
        /// field.
        sample_seed: Option<u64>,
        /// Always `false`: a request that sends `"force_sample":true` is
        /// refused. Kept only for perfbench's shadow handler, as above.
        force_sample: bool,
    },
    /// Ask for the next most-informative tuple (Figure 3.4).
    NextQuestion {
        /// Target session.
        session: u64,
    },
    /// Ask for the `k` most informative tuples (Figure 3.3).
    TopK {
        /// Target session.
        session: u64,
        /// Batch size.
        k: usize,
    },
    /// Label a tuple: the pending question, or an explicit `tuple` rank
    /// (free labeling, Figure 3.1/3.2).
    Answer {
        /// Target session.
        session: u64,
        /// Explicit tuple rank; defaults to the pending question.
        tuple: Option<u64>,
        /// The membership answer.
        label: Label,
    },
    /// Label a whole batch of tuples in one engine propagation pass — the
    /// wire form of the top-k mode's "user answers the whole batch".
    /// Applied atomically: any invalid entry rejects the batch and leaves
    /// the session untouched. Batch size is clamped by the server.
    AnswerBatch {
        /// Target session.
        session: u64,
        /// `(tuple rank, label)` pairs, in order.
        labels: Vec<(u64, Label)>,
    },
    /// Progress statistics (the demo UI's counters).
    Stats {
        /// Target session.
        session: u64,
    },
    /// Why is a tuple classified the way it is?
    Explain {
        /// Target session.
        session: u64,
        /// Tuple rank; defaults to the pending question.
        tuple: Option<u64>,
    },
    /// The current canonical predicate as SQL (and GAV).
    Sql {
        /// Target session.
        session: u64,
    },
    /// The session's label log as a replayable JSON transcript.
    Transcript {
        /// Target session.
        session: u64,
    },
    /// Explicitly rehydrate an evicted session from its journal (resume
    /// also happens transparently on any op naming an evicted id; this op
    /// additionally surfaces the session's shape — columns, progress —
    /// like `CreateSession` does, and reports journal errors directly).
    ResumeSession {
        /// Target session.
        session: u64,
    },
    /// Ids and progress of every session, resident and on-disk.
    ListSessions,
    /// Drop a session.
    CloseSession {
        /// Target session.
        session: u64,
    },
    /// The server's metrics snapshot: per-op request counts and latency
    /// percentiles, transport gauges, store/journal counters.
    Metrics,
}

impl Request {
    /// Decode a request object. Errors are plain strings — the handler
    /// turns them into `{"ok":false,...}` responses.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing `op` field")?;
        let session = || {
            json.get("session")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{op}` needs a numeric `session` field"))
        };
        // A present-but-malformed `tuple` must be rejected, not silently
        // dropped (dropping it would fall back to the pending tuple and
        // label the wrong row).
        let tuple = match json.get("tuple") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                format!("`tuple` must be a non-negative rank (a decimal string past 2^53), got {v}")
            })?),
        };
        match op {
            "CreateSession" => {
                if json.get("sample_seed").is_some()
                    || json.get("force_sample").and_then(Json::as_bool) == Some(true)
                {
                    return Err("`sample_seed` and `force_sample` are not accepted: \
                                sampling was removed, and every session opens over \
                                the whole product"
                        .into());
                }
                let source = json.get("source").ok_or("missing `source` field")?;
                Ok(Request::CreateSession {
                    source: Source::from_json(source).map_err(|e| e.to_string())?,
                    // Present but malformed is refused, as for `tuple`:
                    // dropping it would open under the server's defaults.
                    strategy: match json.get("strategy") {
                        None => None,
                        Some(v) => Some(
                            v.as_str()
                                .ok_or("`strategy` must be a strategy name string")?
                                .to_string(),
                        ),
                    },
                    max_product: match json.get("max_product") {
                        None => None,
                        Some(v) => Some(v.as_u64().ok_or(
                            "`max_product` must be a non-negative integer \
                             (a decimal string past 2^53)",
                        )?),
                    },
                    sample_seed: None,
                    force_sample: false,
                })
            }
            "NextQuestion" => Ok(Request::NextQuestion {
                session: session()?,
            }),
            "TopK" => Ok(Request::TopK {
                session: session()?,
                k: json
                    .get("k")
                    .and_then(Json::as_u64)
                    .filter(|&k| k > 0)
                    .ok_or("`TopK` needs a positive `k`")? as usize,
            }),
            "Answer" => Ok(Request::Answer {
                session: session()?,
                tuple,
                label: Label::from_json(json.get("label").ok_or("`Answer` needs a `label`")?)?,
            }),
            "AnswerBatch" => {
                let labels = json
                    .get("labels")
                    .ok_or("`AnswerBatch` needs a `labels` array")?;
                let labels = Transcript::labels_from_json(labels).map_err(|e| e.to_string())?;
                if labels.is_empty() {
                    return Err("`labels` must not be empty".into());
                }
                Ok(Request::AnswerBatch {
                    session: session()?,
                    labels: labels
                        .into_iter()
                        .map(|(id, label)| (id.0, label))
                        .collect(),
                })
            }
            "Stats" => Ok(Request::Stats {
                session: session()?,
            }),
            "Explain" => Ok(Request::Explain {
                session: session()?,
                tuple,
            }),
            "Sql" => Ok(Request::Sql {
                session: session()?,
            }),
            "Transcript" => Ok(Request::Transcript {
                session: session()?,
            }),
            "ResumeSession" => Ok(Request::ResumeSession {
                session: session()?,
            }),
            "ListSessions" => Ok(Request::ListSessions),
            "CloseSession" => Ok(Request::CloseSession {
                session: session()?,
            }),
            "Metrics" => Ok(Request::Metrics),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Decode one wire line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line).map_err(|e| e.to_string())?;
        Request::from_json(&json)
    }
}

/// Resolve a strategy name to a [`StrategyKind`]. Names are matched
/// ignoring case, `-`, `_` and spaces, so both the display names
/// (`lookahead-minprune`) and the enum names (`LookaheadMinPrune`) work.
/// `random` takes an optional seed suffix: `random:42`.
pub fn parse_strategy(name: &str) -> Result<StrategyKind, String> {
    // Split the `:arg` suffix off *before* normalizing: stripping `-`
    // from the whole string would mangle negative arguments
    // (`lookahead-entropy:-0.5` must not become alpha 0.5).
    let (head_raw, arg) = match name.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (name, None),
    };
    let norm: String = head_raw
        .chars()
        .filter(|c| !matches!(c, '-' | '_' | ' '))
        .collect::<String>()
        .to_ascii_lowercase();
    let head = norm.as_str();
    let kind = match head {
        "random" => StrategyKind::Random {
            seed: match arg {
                None => 0,
                Some(a) => a.parse().map_err(|_| format!("bad random seed `{a}`"))?,
            },
        },
        "localgeneral" => StrategyKind::LocalGeneral,
        "localspecific" => StrategyKind::LocalSpecific,
        "localfrequency" => StrategyKind::LocalFrequency,
        "lookaheadminprune" => StrategyKind::LookaheadMinPrune,
        "lookaheadexpected" => StrategyKind::LookaheadExpected,
        "lookaheadentropy" => StrategyKind::LookaheadEntropy {
            alpha: match arg {
                None => 1.0,
                Some(a) => a.parse().map_err(|_| format!("bad entropy alpha `{a}`"))?,
            },
        },
        "lookahead2step" | "lookaheadtwostep" => StrategyKind::LookaheadTwoStep,
        "hybrid" => StrategyKind::Hybrid { threshold: 16 },
        "dataaware" => StrategyKind::DataAware,
        "optimal" => StrategyKind::Optimal,
        other => return Err(format!("unknown strategy `{other}`")),
    };
    Ok(kind)
}

/// A success response: `{"ok":true, ...fields}`.
pub fn ok(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Object(all)
}

/// An error response: `{"ok":false,"error":message}`.
pub fn error(message: impl Into<String>) -> Json {
    Json::object([
        ("ok", Json::Bool(false)),
        ("error", Json::from(message.into())),
    ])
}

/// The transport-level rejections a client can be refused with *before*
/// (or instead of) its request reaching the handler. Unlike handler
/// errors — which are free-form strings about a specific request — these
/// are conditions of the **connection**, so they carry a stable machine
/// `code` a client can dispatch on (retry-with-backoff for `overloaded`,
/// reconnect for `idle_timeout`, give up for the framing refusals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerError {
    /// The global admission cap is reached: the connection is refused at
    /// accept, answered with this, and closed. Nothing was queued.
    Overloaded,
    /// The connection sat idle (or dripped an incomplete line) past the
    /// server's idle timeout and is being reaped.
    IdleTimeout,
    /// A request line exceeded the 16 MiB cap.
    Oversize,
    /// A request line was not valid UTF-8.
    InvalidUtf8,
    /// A previous request panicked while mutating this session's engine
    /// state; the half-updated session was shed rather than served.
    SessionPoisoned,
}

impl ServerError {
    /// The stable machine-readable `code` field value.
    pub fn code(self) -> &'static str {
        match self {
            ServerError::Overloaded => "overloaded",
            ServerError::IdleTimeout => "idle_timeout",
            ServerError::Oversize => "oversize",
            ServerError::InvalidUtf8 => "invalid_utf8",
            ServerError::SessionPoisoned => "session_poisoned",
        }
    }

    /// The human-readable message.
    pub fn message(self) -> &'static str {
        match self {
            ServerError::Overloaded => {
                "server at max-connections; connection refused — retry with backoff"
            }
            ServerError::IdleTimeout => "connection idle past the server timeout; closing",
            ServerError::Oversize => "request line exceeds the 16 MiB limit",
            ServerError::InvalidUtf8 => {
                "request line is not valid UTF-8; the line was refused, \
                 no session state was touched"
            }
            ServerError::SessionPoisoned => {
                "session state was poisoned by an earlier panic and has \
                 been shed; create a new session"
            }
        }
    }

    /// The full response object: `{"ok":false,"error":...,"code":...}`.
    pub fn response(self) -> Json {
        Json::object([
            ("ok", Json::Bool(false)),
            ("error", Json::from(self.message())),
            ("code", Json::from(self.code())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_with_scenario() {
        let r = Request::parse(
            r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}"#,
        )
        .unwrap();
        match r {
            Request::CreateSession {
                source,
                strategy,
                max_product,
                ..
            } => {
                assert_eq!(
                    source,
                    Source::Scenario {
                        name: "flights".into()
                    }
                );
                assert_eq!(strategy.as_deref(), Some("LookaheadMinPrune"));
                assert_eq!(max_product, None);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The sampling knobs are refused by name, whatever their value
    /// (`"force_sample":false` alone is harmless and accepted).
    #[test]
    fn parses_create_with_sampling_knobs() {
        let create = |knobs: &str| {
            Request::parse(&format!(
                r#"{{"op":"CreateSession","source":{{"scenario":"setgame"}},"max_product":1000,{knobs}}}"#
            ))
        };
        for knobs in [r#""force_sample":true"#, r#""sample_seed":0"#] {
            let err = create(knobs).unwrap_err();
            assert!(err.contains("`sample_seed` and `force_sample`"), "{err}");
            assert!(err.contains("sampling was removed"), "{err}");
        }
        assert!(create(r#""force_sample":false"#).is_ok());
    }

    #[test]
    fn parses_create_with_inline_csv_and_view() {
        let r = Request::parse(
            r#"{"op":"CreateSession","source":{"relations":[{"name":"h","csv":"City\nNYC\n"}],"view":["h","h"]}}"#,
        )
        .unwrap();
        match r {
            Request::CreateSession {
                source: Source::Inline { relations, view },
                ..
            } => {
                assert_eq!(relations.len(), 1);
                assert_eq!(view, Some(vec!["h".to_string(), "h".to_string()]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_session_ops() {
        assert_eq!(
            Request::parse(r#"{"op":"NextQuestion","session":3}"#).unwrap(),
            Request::NextQuestion { session: 3 }
        );
        assert_eq!(
            Request::parse(r#"{"op":"TopK","session":1,"k":4}"#).unwrap(),
            Request::TopK { session: 1, k: 4 }
        );
        assert_eq!(
            Request::parse(r#"{"op":"Answer","session":1,"label":"+"}"#).unwrap(),
            Request::Answer {
                session: 1,
                tuple: None,
                label: Label::Positive
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"Answer","session":1,"tuple":7,"label":false}"#).unwrap(),
            Request::Answer {
                session: 1,
                tuple: Some(7),
                label: Label::Negative
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"CloseSession","session":9}"#).unwrap(),
            Request::CloseSession { session: 9 }
        );
        assert_eq!(
            Request::parse(r#"{"op":"ResumeSession","session":5}"#).unwrap(),
            Request::ResumeSession { session: 5 }
        );
        assert!(Request::parse(r#"{"op":"ResumeSession"}"#).is_err());
        assert_eq!(
            Request::parse(r#"{"op":"ListSessions"}"#).unwrap(),
            Request::ListSessions
        );
        assert_eq!(
            Request::parse(r#"{"op":"Metrics"}"#).unwrap(),
            Request::Metrics
        );
    }

    #[test]
    fn parses_answer_batch() {
        let r = Request::parse(
            r#"{"op":"AnswerBatch","session":4,"labels":[{"tuple":2,"label":"+"},{"tuple":6,"label":false}]}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::AnswerBatch {
                session: 4,
                labels: vec![(2, Label::Positive), (6, Label::Negative)],
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"Frobnicate"}"#,
            r#"{"op":"NextQuestion"}"#,
            r#"{"op":"TopK","session":1,"k":0}"#,
            r#"{"op":"Answer","session":1}"#,
            r#"{"op":"Answer","session":1,"label":"maybe"}"#,
            r#"{"op":"AnswerBatch","session":1}"#,
            r#"{"op":"AnswerBatch","session":1,"labels":[]}"#,
            r#"{"op":"AnswerBatch","session":1,"labels":[{"label":"+"}]}"#,
            r#"{"op":"AnswerBatch","session":1,"labels":[{"tuple":-1,"label":"+"}]}"#,
            r#"{"op":"AnswerBatch","session":1,"labels":[{"tuple":2,"label":"maybe"}]}"#,
            r#"{"op":"AnswerBatch","session":1,"labels":[{"tuple":2}]}"#,
            r#"{"op":"CreateSession"}"#,
            r#"{"op":"CreateSession","source":{}}"#,
            r#"{"op":"CreateSession","source":{"relations":[{"csv":"x"}]}}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "should reject {bad}");
        }
        // Present but malformed, refused by name rather than dropped for
        // the server's defaults.
        for (bad, field) in [
            (r#""max_product":"64""#, "max_product"),
            (r#""max_product":-1"#, "max_product"),
            (r#""max_product":1.5"#, "max_product"),
            (r#""max_product":18446744073709551615"#, "max_product"),
            (r#""strategy":7"#, "strategy"),
        ] {
            let line =
                format!(r#"{{"op":"CreateSession","source":{{"scenario":"setgame"}},{bad}}}"#);
            let err = Request::parse(&line).unwrap_err();
            assert!(err.contains(&format!("`{field}`")), "{line} -> {err}");
        }
    }

    #[test]
    fn strategy_names_resolve() {
        assert_eq!(
            parse_strategy("LookaheadMinPrune").unwrap(),
            StrategyKind::LookaheadMinPrune
        );
        assert_eq!(
            parse_strategy("lookahead-minprune").unwrap(),
            StrategyKind::LookaheadMinPrune
        );
        assert_eq!(
            parse_strategy("local_general").unwrap(),
            StrategyKind::LocalGeneral
        );
        assert_eq!(
            parse_strategy("random:42").unwrap(),
            StrategyKind::Random { seed: 42 }
        );
        assert_eq!(
            parse_strategy("lookahead-entropy:2.0").unwrap(),
            StrategyKind::LookaheadEntropy { alpha: 2.0 }
        );
        assert_eq!(parse_strategy("optimal").unwrap(), StrategyKind::Optimal);
        assert!(parse_strategy("simulated-annealing").is_err());
        assert!(parse_strategy("random:x").is_err());
        // Negative arguments must not be silently de-signed by name
        // normalization: a u64 seed rejects them, a float alpha keeps the
        // sign.
        assert!(parse_strategy("random:-1").is_err());
        assert_eq!(
            parse_strategy("lookahead-entropy:-0.5").unwrap(),
            StrategyKind::LookaheadEntropy { alpha: -0.5 }
        );
    }

    #[test]
    fn malformed_tuple_field_is_rejected_not_dropped() {
        for bad in [
            r#"{"op":"Answer","session":1,"tuple":"7","label":"+"}"#,
            r#"{"op":"Answer","session":1,"tuple":-3,"label":"+"}"#,
            r#"{"op":"Answer","session":1,"tuple":1.5,"label":"+"}"#,
            r#"{"op":"Answer","session":1,"tuple":"+9999000000000000","label":"+"}"#,
            r#"{"op":"Explain","session":1,"tuple":"x"}"#,
            r#"{"op":"Explain","session":1,"tuple":9999000000000000}"#,
        ] {
            let err = Request::parse(bad).unwrap_err();
            assert!(err.contains("tuple"), "{bad} -> {err}");
            assert!(err.contains("decimal string past 2^53"), "{bad} -> {err}");
        }
    }

    #[test]
    fn response_helpers_shape() {
        let r = ok([("session", Json::from(1u64))]);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("session").unwrap().as_u64(), Some(1));
        let e = error("boom");
        assert_eq!(e.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(e.get("error").unwrap().as_str(), Some("boom"));
    }
}
