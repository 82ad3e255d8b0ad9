//! Integration tests for the service layer, speaking the wire protocol
//! against an in-memory handler (the "duplex transport": request line in,
//! response line out, no socket).

#![forbid(unsafe_code)]

use jim_core::{Engine, EngineOptions, Transcript};
use jim_json::Json;
use jim_relation::Product;
use jim_server::handler::{Handler, ServerLimits};
use jim_server::journal::JournalStore;
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

    // The `text` field is the same transcript's rendering.
    let text = t.get("text").unwrap().as_str().unwrap();
    assert_eq!(text, transcript.to_string());
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
    // the server's event loop does this with the real one on every tick).
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
    // ceiling; a client-supplied huge max_product (u64::MAX, a decimal
    // string past 2^53) must not lift it — the product is not enumerated
    // but opens factorized, at full fidelity.
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
        r#"{{"op":"CreateSession","source":{{"relations":[{{"name":"r","csv":"{}"}}],"view":["r","r","r"]}},"max_product":"18446744073709551615"}}"#,
        csv.replace('\n', "\\n")
    );
    let r = expect_ok(&h, &line);
    assert_eq!(r.get("factorized").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(27_000), "{r}");
    // Lowering the guard below a product's size makes it factorize too.
    let lowered = CREATE_FLIGHTS_INLINE.replace(
        r#""strategy":"LookaheadMinPrune""#,
        r#""strategy":"LookaheadMinPrune","max_product":4"#,
    );
    let r = expect_ok(&h, &lowered);
    assert_eq!(r.get("factorized").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(12), "{r}");
    // A zero guard is rejected outright.
    let zeroed = CREATE_FLIGHTS_INLINE.replace(
        r#""strategy":"LookaheadMinPrune""#,
        r#""strategy":"LookaheadMinPrune","max_product":0"#,
    );
    let r = send(&h, &zeroed);
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{r}");
}

/// A product over the limit (limit 9 on 12 tuples) opens factorized over
/// the whole product and resolves to exactly Q2's two atoms.
#[test]
fn sampled_session_resolves_end_to_end() {
    let h = handler();
    let line = CREATE_FLIGHTS_INLINE.replace(
        r#""strategy":"LookaheadMinPrune""#,
        r#""strategy":"LookaheadMinPrune","max_product":9"#,
    );
    let r = expect_ok(&h, &line);
    assert_eq!(r.get("factorized").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(12));
    let session = r.get("session").unwrap().as_u64().unwrap();
    let (resolved, interactions) = drive_to_resolution(&h, session, q2_label);
    assert!(interactions >= 2, "Q2 needs a positive and a negative");
    let sql = resolved.get("sql").unwrap().as_str().unwrap();
    assert!(sql.contains("r1.To = r2.City"), "{sql}");
    assert!(sql.contains("r1.Airline = r2.Discount"), "{sql}");
    assert_eq!(sql.matches(" = ").count(), 2, "{sql}");
    let stats = expect_ok(&h, &format!(r#"{{"op":"Stats","session":{session}}}"#));
    assert_eq!(stats.get("factorized").unwrap().as_bool(), Some(true));
    assert_eq!(stats.get("total_tuples").unwrap().as_u64(), Some(12));
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

/// A `CreateSession` over 10^16 tuples: `r` is 9,999 rows `0,0` then one
/// row `1,1`, `s` is 10,000 rows `0,0`, and the view is `r × s × s × s`.
/// Only the `1,1` row's tuples are informative, and the first of them has
/// rank 9,999 · 10^12, past 2^53.
fn create_past_two_to_the_53() -> String {
    let r = format!("a,b\n{}1,1\n", "0,0\n".repeat(9_999));
    let s = format!("c,d\n{}", "0,0\n".repeat(10_000));
    format!(
        r#"{{"op":"CreateSession","source":{{"relations":[{{"name":"r","csv":{}}},{{"name":"s","csv":{}}}],"view":["r","s","s","s"]}},"strategy":"local-general"}}"#,
        Json::from(r),
        Json::from(s)
    )
}

/// A rank past 2^53 that the server proposes comes back through `Answer`,
/// `TopK` + `AnswerBatch` and `Explain`; every count of the product agrees;
/// the labels survive eviction and resume; and only the canonical string
/// form is accepted.
#[test]
fn ranks_past_two_to_the_53_round_trip_through_every_op() {
    let dir = std::env::temp_dir().join(format!("jim-server-big-ranks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig::default();
    let journal = JournalStore::open(&dir).unwrap();
    let h = Handler::new(Arc::new(SessionStore::with_journal(config, journal)));
    let (size, rank) = (Json::from(10u64.pow(16)), Json::from(9_999 * 10u64.pow(12)));
    assert_eq!(rank.render(), r#""9999000000000000""#);
    let op = |name: &str, id: u64, extra: &str| {
        expect_ok(&h, &format!(r#"{{"op":"{name}","session":{id}{extra}}}"#))
    };
    let create = || {
        let created = expect_ok(&h, &create_past_two_to_the_53());
        assert_eq!(created.get("tuples"), Some(&size));
        created.get("session").and_then(Json::as_u64).unwrap()
    };

    // One session takes the proposed rank back through `Explain` and
    // `Answer`, the other through `TopK` and `AnswerBatch`.
    let one = create();
    assert_eq!(op("NextQuestion", one, "").get("tuple"), Some(&rank));
    let explained = op("Explain", one, &format!(r#","tuple":{rank}"#));
    assert_eq!(explained.get("tuple"), Some(&rank));
    let answered = op("Answer", one, &format!(r#","tuple":{rank},"label":"-""#));
    assert_eq!(answered.get("tuple"), Some(&rank));
    let two = create();
    let top = op("TopK", two, r#","k":4"#);
    let proposed = top.get("tuples").and_then(Json::as_array).unwrap();
    assert_eq!(proposed[0].get("tuple"), Some(&rank));
    let labels: Vec<String> = proposed
        .iter()
        .map(|t| format!(r#"{{"tuple":{},"label":"-"}}"#, t.get("tuple").unwrap()))
        .collect();
    let labels = format!(r#","labels":[{}]"#, labels.join(","));
    let applied = op("AnswerBatch", two, &labels).get("applied").cloned();
    assert_eq!(applied, Some(Json::from(proposed.len())));

    // Every count of the product agrees, and the transcripts carry the
    // rank; evicted and resumed from the journal, both sessions replay
    // their labels exactly.
    let transcript = |id| op("Transcript", id, "").get("transcript").unwrap().clone();
    let before = [transcript(one), transcript(two)];
    for t in &before {
        assert_eq!(t.get("tuples"), Some(&size));
        let first = &t.get("labels").and_then(Json::as_array).unwrap()[0];
        assert_eq!(first.get("tuple"), Some(&rank));
    }
    let future = Instant::now() + config.ttl + Duration::from_secs(1);
    assert_eq!(h.store().sweep_at(future), vec![one, two]);
    for (id, before) in [one, two].into_iter().zip(before) {
        assert_eq!(op("ResumeSession", id, "").get("tuples"), Some(&size));
        assert_eq!(op("Stats", id, "").get("total_tuples"), Some(&size));
        assert_eq!(transcript(id), before);
    }

    // Only the canonical forms are ranks: a number up to 2^53, a decimal
    // string past it.
    for bad in [r#""7""#, r#""+9999000000000000""#, "9999000000000000"] {
        let line = format!(r#"{{"op":"Answer","session":{one},"tuple":{bad},"label":"-"}}"#);
        let refused = send(&h, &line);
        let message = refused.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("decimal string past 2^53"), "{message}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
