//! Integration tests for the service layer, speaking the wire protocol
//! against an in-memory handler (the "duplex transport": request line in,
//! response line out, no socket).

#![forbid(unsafe_code)]

use jim_core::{Engine, EngineOptions, Transcript};
use jim_json::Json;
use jim_relation::Product;
use jim_server::handler::{Handler, ServerLimits};
use jim_server::store::{SessionStore, StoreConfig};
use jim_synth::flights;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn handler_with(config: StoreConfig) -> Handler {
    Handler::new(Arc::new(SessionStore::new(config)))
}

fn handler() -> Handler {
    handler_with(StoreConfig::default())
}

fn send(h: &Handler, line: &str) -> Json {
    let response = h.handle_line(line);
    let json = Json::parse(&response).expect("response is valid JSON");
    assert!(
        json.get("ok").is_some(),
        "response carries `ok`: {response}"
    );
    json
}

fn expect_ok(h: &Handler, line: &str) -> Json {
    let json = send(h, line);
    assert_eq!(
        json.get("ok").unwrap().as_bool(),
        Some(true),
        "{line} -> {json}"
    );
    json
}

/// The paper's Figure 1 instance as inline CSV (hotels' missing discount is
/// an empty field, which the CSV reader maps to NULL).
const CREATE_FLIGHTS_INLINE: &str = r#"{"op":"CreateSession","source":{"relations":[{"name":"flights","csv":"From,To,Airline\nParis,Lille,AF\nLille,NYC,AA\nNYC,Paris,AA\nParis,NYC,AF\n"},{"name":"hotels","csv":"City,Discount\nNYC,AA\nParis,\nLille,AF\n"}]},"strategy":"LookaheadMinPrune"}"#;

/// Answer truthfully for `Q2: To ≍ City ∧ Airline ≍ Discount`, reading the
/// rendered values off the wire (columns: From, To, Airline, City, Discount).
fn q2_label(values: &[Json]) -> char {
    let v: Vec<&str> = values.iter().map(|v| v.as_str().unwrap()).collect();
    if v[1] == v[3] && v[2] == v[4] {
        '+'
    } else {
        '-'
    }
}

/// Drive a session to resolution over the protocol; returns the final
/// (resolved) response and the number of questions answered.
fn drive_to_resolution(h: &Handler, session: u64, label: impl Fn(&[Json]) -> char) -> (Json, u64) {
    let mut interactions = 0u64;
    loop {
        let q = expect_ok(
            h,
            &format!(r#"{{"op":"NextQuestion","session":{session}}}"#),
        );
        if q.get("resolved").unwrap().as_bool() == Some(true) {
            return (q, interactions);
        }
        let sign = label(q.get("values").unwrap().as_array().unwrap());
        let a = expect_ok(
            h,
            &format!(r#"{{"op":"Answer","session":{session},"label":"{sign}"}}"#),
        );
        interactions += 1;
        assert!(interactions <= 12, "runaway session");
        if a.get("resolved").unwrap().as_bool() == Some(true) {
            return (a, interactions);
        }
    }
}

#[test]
fn full_flights_session_to_sql() {
    let h = handler();
    let r = expect_ok(&h, CREATE_FLIGHTS_INLINE);
    let session = r.get("session").unwrap().as_u64().unwrap();
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(12));
    assert_eq!(
        r.get("columns").unwrap().as_array().unwrap()[1].as_str(),
        Some("flights.To")
    );

    let (resolved, interactions) = drive_to_resolution(&h, session, q2_label);
    assert!(
        interactions >= 2,
        "Q2 needs at least a positive and a negative"
    );
    assert!(
        interactions <= 6,
        "lookahead should stay within the paper's budget"
    );
    let sql = resolved.get("sql").unwrap().as_str().unwrap();
    assert!(sql.contains("r1.To = r2.City"), "{sql}");
    assert!(sql.contains("r1.Airline = r2.Discount"), "{sql}");

    // The Sql op agrees after resolution, and adds the GAV view.
    let s = expect_ok(&h, &format!(r#"{{"op":"Sql","session":{session}}}"#));
    assert_eq!(s.get("resolved").unwrap().as_bool(), Some(true));
    assert_eq!(s.get("sql").unwrap().as_str(), Some(sql));
    assert!(s
        .get("gav")
        .unwrap()
        .as_str()
        .unwrap()
        .contains(":- flights("));

    // Stats adds up: everything labeled or pruned.
    let stats = expect_ok(&h, &format!(r#"{{"op":"Stats","session":{session}}}"#));
    let labeled = stats.get("labeled_positive").unwrap().as_u64().unwrap()
        + stats.get("labeled_negative").unwrap().as_u64().unwrap();
    assert_eq!(labeled, interactions);
    assert_eq!(
        labeled + stats.get("pruned").unwrap().as_u64().unwrap(),
        stats.get("total_tuples").unwrap().as_u64().unwrap()
    );
    assert_eq!(stats.get("informative").unwrap().as_u64(), Some(0));

    // Close; the session is then gone.
    expect_ok(
        &h,
        &format!(r#"{{"op":"CloseSession","session":{session}}}"#),
    );
    let gone = send(&h, &format!(r#"{{"op":"Stats","session":{session}}}"#));
    assert_eq!(gone.get("ok").unwrap().as_bool(), Some(false));
}

#[test]
fn wire_transcript_replays_into_a_fresh_local_engine() {
    let h = handler();
    let r = expect_ok(&h, CREATE_FLIGHTS_INLINE);
    let session = r.get("session").unwrap().as_u64().unwrap();
    drive_to_resolution(&h, session, q2_label);

    let t = expect_ok(&h, &format!(r#"{{"op":"Transcript","session":{session}}}"#));
    let transcript = Transcript::from_json(t.get("transcript").unwrap()).unwrap();
    assert_eq!(transcript.tuples, 12);

    // Replay locally: the replayed session resolves to a predicate
    // instance-equivalent to the goal Q2.
    let product = Product::new(vec![flights::flights(), flights::hotels()]).unwrap();
    let mut engine = Engine::new(product, &EngineOptions::default()).unwrap();
    transcript.replay(&mut engine).unwrap();
    assert!(engine.is_resolved());
    let goal = flights::q2(engine.universe());
    assert!(engine
        .result()
        .instance_equivalent(&goal, engine.product())
        .unwrap());

    // The plain-text form round-trips through the v1 format too.
    let text = t.get("text").unwrap().as_str().unwrap();
    assert_eq!(Transcript::parse(text).unwrap(), transcript);
}

#[test]
fn two_sessions_interleave_without_interference() {
    let h = handler();
    // Session A infers Q1 (To ≍ City); session B infers Q2; different
    // strategies; requests strictly alternate on one handler.
    let a = expect_ok(&h, CREATE_FLIGHTS_INLINE)
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
    let b = expect_ok(
        &h,
        &CREATE_FLIGHTS_INLINE.replace("LookaheadMinPrune", "local-general"),
    )
    .get("session")
    .unwrap()
    .as_u64()
    .unwrap();
    assert_ne!(a, b);

    let q1_label = |values: &[Json]| {
        let v: Vec<&str> = values.iter().map(|v| v.as_str().unwrap()).collect();
        if v[1] == v[3] {
            '+'
        } else {
            '-'
        }
    };

    let mut resolved_a = None;
    let mut resolved_b = None;
    for _ in 0..24 {
        for (session, done, label) in [
            (a, &mut resolved_a, &q1_label as &dyn Fn(&[Json]) -> char),
            (b, &mut resolved_b, &|v: &[Json]| q2_label(v)),
        ] {
            if done.is_some() {
                continue;
            }
            let q = expect_ok(
                &h,
                &format!(r#"{{"op":"NextQuestion","session":{session}}}"#),
            );
            if q.get("resolved").unwrap().as_bool() == Some(true) {
                *done = Some(q);
                continue;
            }
            let sign = label(q.get("values").unwrap().as_array().unwrap());
            let r = expect_ok(
                &h,
                &format!(r#"{{"op":"Answer","session":{session},"label":"{sign}"}}"#),
            );
            if r.get("resolved").unwrap().as_bool() == Some(true) {
                *done = Some(r);
            }
        }
        if resolved_a.is_some() && resolved_b.is_some() {
            break;
        }
    }

    let sql_a = resolved_a.expect("A resolved");
    let sql_a = sql_a.get("sql").unwrap().as_str().unwrap();
    assert!(sql_a.contains("r1.To = r2.City"), "{sql_a}");
    assert!(!sql_a.contains("Discount"), "Q1 has one atom: {sql_a}");
    let sql_b = resolved_b.expect("B resolved");
    let sql_b = sql_b.get("sql").unwrap().as_str().unwrap();
    assert!(sql_b.contains("r1.Airline = r2.Discount"), "{sql_b}");
}

#[test]
fn concurrent_sessions_from_many_threads() {
    let h = Arc::new(handler());
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let strategy = if i % 2 == 0 {
                    "lookahead-minprune"
                } else {
                    "local-general"
                };
                let create = CREATE_FLIGHTS_INLINE.replace("LookaheadMinPrune", strategy);
                let r = expect_ok(&h, &create);
                let session = r.get("session").unwrap().as_u64().unwrap();
                let (resolved, _) = drive_to_resolution(&h, session, q2_label);
                let sql = resolved.get("sql").unwrap().as_str().unwrap().to_string();
                assert!(sql.contains("r1.To = r2.City"), "{sql}");
                session
            })
        })
        .collect();
    let ids: Vec<u64> = handles.into_iter().map(|t| t.join().unwrap()).collect();
    let distinct: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(distinct.len(), 8, "every thread got its own session");
}

#[test]
fn lru_eviction_when_over_capacity() {
    let h = handler_with(StoreConfig {
        max_sessions: 2,
        ttl: Duration::from_secs(600),
    });
    let a = expect_ok(&h, CREATE_FLIGHTS_INLINE)
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
    let b = expect_ok(&h, CREATE_FLIGHTS_INLINE)
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
    // Touch `a` so `b` is the LRU victim.
    expect_ok(&h, &format!(r#"{{"op":"Stats","session":{a}}}"#));
    let r = expect_ok(&h, CREATE_FLIGHTS_INLINE);
    assert_eq!(
        r.get("evicted").unwrap().as_u64(),
        Some(b),
        "LRU session evicted"
    );
    let gone = send(&h, &format!(r#"{{"op":"NextQuestion","session":{b}}}"#));
    assert_eq!(gone.get("ok").unwrap().as_bool(), Some(false));
    // `a` survived.
    expect_ok(&h, &format!(r#"{{"op":"Stats","session":{a}}}"#));
    // ListSessions shows exactly the two survivors.
    let list = expect_ok(&h, r#"{"op":"ListSessions"}"#);
    assert_eq!(list.get("sessions").unwrap().as_array().unwrap().len(), 2);
}

#[test]
fn ttl_eviction_of_an_expired_session() {
    let ttl = Duration::from_secs(60);
    let h = handler_with(StoreConfig {
        max_sessions: 8,
        ttl,
    });
    let r = expect_ok(&h, CREATE_FLIGHTS_INLINE);
    let session = r.get("session").unwrap().as_u64().unwrap();

    // A mid-session state survives a sweep "now"...
    expect_ok(
        &h,
        &format!(r#"{{"op":"NextQuestion","session":{session}}}"#),
    );
    assert!(h.store().sweep_at(Instant::now()).is_empty());

    // ...but an idle session is swept once past its TTL (synthetic clock —
    // the server's sweeper thread does this with the real one).
    let future = Instant::now() + ttl + Duration::from_secs(1);
    assert_eq!(h.store().sweep_at(future), vec![session]);
    let gone = send(
        &h,
        &format!(r#"{{"op":"Answer","session":{session},"label":"+"}}"#),
    );
    assert_eq!(gone.get("ok").unwrap().as_bool(), Some(false));
    assert!(gone
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("expired"));
}

#[test]
fn next_question_after_free_label_resolution_reports_resolved() {
    // Regression: a pending question must not be re-proposed after the
    // session resolved through explicit-tuple answers that pruned (rather
    // than labeled) the pending tuple.
    let h = handler();
    let r = expect_ok(&h, CREATE_FLIGHTS_INLINE);
    let session = r.get("session").unwrap().as_u64().unwrap();

    // Park a pending question.
    let q = expect_ok(
        &h,
        &format!(r#"{{"op":"NextQuestion","session":{session}}}"#),
    );
    assert_eq!(q.get("resolved").unwrap().as_bool(), Some(false));

    // Resolve the whole session by free labeling the paper's walkthrough
    // tuples (ranks 2+, 6-, 7-) without ever answering the pending one.
    for (rank, sign) in [(2u64, '+'), (6, '-'), (7, '-')] {
        let a = send(
            &h,
            &format!(r#"{{"op":"Answer","session":{session},"tuple":{rank},"label":"{sign}"}}"#),
        );
        // The pending tuple may coincide with a walkthrough rank; labels
        // stay consistent either way.
        assert_eq!(a.get("ok").unwrap().as_bool(), Some(true), "{a}");
    }

    let done = expect_ok(
        &h,
        &format!(r#"{{"op":"NextQuestion","session":{session}}}"#),
    );
    assert_eq!(
        done.get("resolved").unwrap().as_bool(),
        Some(true),
        "{done}"
    );
    assert!(done
        .get("sql")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("r1.Airline = r2.Discount"));
}

#[test]
fn list_sessions_does_not_keep_idle_sessions_alive() {
    let ttl = Duration::from_secs(60);
    let h = handler_with(StoreConfig {
        max_sessions: 8,
        ttl,
    });
    let r = expect_ok(&h, CREATE_FLIGHTS_INLINE);
    let session = r.get("session").unwrap().as_u64().unwrap();

    // A monitoring poller listing sessions must not refresh TTL stamps.
    let list = expect_ok(&h, r#"{"op":"ListSessions"}"#);
    assert_eq!(list.get("sessions").unwrap().as_array().unwrap().len(), 1);
    let future = Instant::now() + ttl + Duration::from_secs(1);
    assert_eq!(h.store().sweep_at(future), vec![session]);
}

#[test]
fn client_cannot_raise_the_product_size_guard() {
    // 30 rows self-joined 3 ways = 27,000 tuples, over a 500-tuple server
    // ceiling; a client-supplied huge max_product must not lift it — under
    // `force_sample` the session opens over a *sample* of exactly the
    // ceiling instead.
    let mut csv = String::from("x\n");
    for i in 0..30 {
        csv.push_str(&format!("{i}\n"));
    }
    let h = Handler::with_limits(
        Arc::new(SessionStore::new(StoreConfig::default())),
        ServerLimits {
            max_product: 500,
            ..Default::default()
        },
    );
    let line = format!(
        r#"{{"op":"CreateSession","source":{{"relations":[{{"name":"r","csv":"{}"}}],"view":["r","r","r"]}},"max_product":18446744073709551615,"force_sample":true}}"#,
        csv.replace('\n', "\\n")
    );
    let r = expect_ok(&h, &line);
    assert_eq!(r.get("sampled").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(
        r.get("tuples").unwrap().as_u64(),
        Some(500),
        "sample size clamped to the server ceiling: {r}"
    );
    // Without force_sample the same oversized product opens factorized,
    // at full fidelity — all 27,000 tuples despite the 500 ceiling.
    let r = expect_ok(&h, &line.replace(r#","force_sample":true"#, ""));
    assert_eq!(r.get("factorized").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(r.get("sampled").unwrap().as_bool(), Some(false), "{r}");
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(27_000), "{r}");
    // Lowering the guard shrinks the sample further.
    let lowered = CREATE_FLIGHTS_INLINE.replace(
        r#""strategy":"LookaheadMinPrune""#,
        r#""strategy":"LookaheadMinPrune","max_product":4,"force_sample":true"#,
    );
    let r = expect_ok(&h, &lowered);
    assert_eq!(r.get("sampled").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(4), "{r}");
    // A zero guard is rejected outright.
    let zeroed = CREATE_FLIGHTS_INLINE.replace(
        r#""strategy":"LookaheadMinPrune""#,
        r#""strategy":"LookaheadMinPrune","max_product":0"#,
    );
    let r = send(&h, &zeroed);
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{r}");
}

#[test]
fn sampled_session_resolves_end_to_end() {
    // A product over the limit opens via sampling (explicit opt-in) and
    // still drives the whole inference loop to resolution over the wire.
    let h = handler();
    let line = CREATE_FLIGHTS_INLINE.replace(
        r#""strategy":"LookaheadMinPrune""#,
        r#""strategy":"LookaheadMinPrune","max_product":9,"sample_seed":5,"force_sample":true"#,
    );
    let r = expect_ok(&h, &line);
    assert_eq!(r.get("sampled").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(9));
    let session = r.get("session").unwrap().as_u64().unwrap();
    let (resolved, interactions) = drive_to_resolution(&h, session, q2_label);
    assert!(interactions >= 1);
    // The inferred predicate is consistent with every (truthful) answer on
    // the sample; on this instance 9 of 12 tuples pin Q2 or a superset.
    assert!(resolved.get("sql").unwrap().as_str().is_some());
    let stats = expect_ok(&h, &format!(r#"{{"op":"Stats","session":{session}}}"#));
    assert_eq!(stats.get("sampled").unwrap().as_bool(), Some(true));
    assert_eq!(stats.get("total_tuples").unwrap().as_u64(), Some(9));
}

#[test]
fn top_k_free_labeling_and_explain() {
    let h = handler();
    let r = expect_ok(&h, CREATE_FLIGHTS_INLINE);
    let session = r.get("session").unwrap().as_u64().unwrap();

    let batch = expect_ok(&h, &format!(r#"{{"op":"TopK","session":{session},"k":3}}"#));
    let tuples = batch.get("tuples").unwrap().as_array().unwrap();
    assert_eq!(tuples.len(), 3);

    // Free-label every batch entry by explicit rank, Figure 3.3 style.
    for t in tuples {
        let rank = t.get("tuple").unwrap().as_u64().unwrap();
        let sign = q2_label(t.get("values").unwrap().as_array().unwrap());
        let r = send(
            &h,
            &format!(r#"{{"op":"Answer","session":{session},"tuple":{rank},"label":"{sign}"}}"#),
        );
        // Batch answers may become uninformative mid-batch; the engine
        // rejects only *inconsistent* labels, which truthful ones never are.
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r}");
    }

    // Explain one labeled tuple: it is certain now, with a reason.
    let first = tuples[0].get("tuple").unwrap().as_u64().unwrap();
    let e = expect_ok(
        &h,
        &format!(r#"{{"op":"Explain","session":{session},"tuple":{first}}}"#),
    );
    let class = e.get("class").unwrap().as_str().unwrap();
    assert!(class.starts_with("Certain"), "{class}");
    assert!(!e.get("explanation").unwrap().as_str().unwrap().is_empty());

    // Double labeling is rejected cleanly.
    let dup = send(
        &h,
        &format!(r#"{{"op":"Answer","session":{session},"tuple":{first},"label":"+"}}"#),
    );
    assert_eq!(dup.get("ok").unwrap().as_bool(), Some(false));
    assert!(dup
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("already labeled"));
}
