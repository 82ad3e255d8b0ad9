//! End-to-end observability contract: a scripted session over the real
//! wire must make the `Metrics` op report **exactly** the request mix the
//! client sent — per-op request counters, error counters, decode refusals,
//! and latency sample counts. This is the acceptance test of the metrics
//! subsystem: if instrumentation drifts from dispatch (double counts,
//! missed paths, wrong op attribution), these equalities break. Linux
//! only, where the TCP front end is.

#![cfg(target_os = "linux")]
#![forbid(unsafe_code)]

mod support;

use jim_json::Json;
use jim_server::handler::Handler;
use jim_server::store::{SessionStore, StoreConfig};
use std::sync::Arc;
use std::time::Duration;
use support::{Client, TestServer};

fn start_server() -> TestServer {
    let store = Arc::new(SessionStore::new(StoreConfig {
        max_sessions: 8,
        ttl: Duration::from_secs(600),
    }));
    TestServer::start(Arc::new(Handler::new(store)))
}

fn op_requests(metrics: &Json, op: &str) -> u64 {
    metrics
        .get("ops")
        .and_then(|ops| ops.get(op))
        .and_then(|m| m.get("requests"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("ops.{op}.requests missing in {metrics}"))
}

fn op_field(metrics: &Json, op: &str, field: &str) -> u64 {
    metrics
        .get("ops")
        .and_then(|ops| ops.get(op))
        .and_then(|m| m.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("ops.{op}.{field} missing in {metrics}"))
}

fn latency_count(metrics: &Json, op: &str) -> u64 {
    metrics
        .get("ops")
        .and_then(|ops| ops.get(op))
        .and_then(|m| m.get("latency_us"))
        .and_then(|l| l.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("ops.{op}.latency_us.count missing"))
}

fn transport_field(metrics: &Json, field: &str) -> i64 {
    metrics
        .get("transport")
        .and_then(|t| t.get(field))
        .and_then(|v| v.as_u64().map(|u| u as i64))
        .unwrap_or_else(|| panic!("transport.{field} missing in {metrics}"))
}

/// The scripted mix: fixed numbers of every exercised op, two decode
/// refusals (a malformed JSON line and an unknown op), one oversize-free
/// run. Metrics must agree with the script to the exact request.
#[test]
fn scripted_session_reports_exact_op_counts_over_tcp() {
    let server = start_server();
    let mut client = Client::connect(server.addr);

    let r = client.send(
        r#"{"op":"CreateSession","source":{"scenario":"social"},"strategy":"LookaheadMinPrune"}"#,
    );
    let session = r.get("session").unwrap().as_u64().unwrap();

    // 2× NextQuestion, 2× Answer on the just-asked tuple (a negative
    // label never resolves this instance in two steps, and labeling
    // the pending question's tuple can never be uninformative).
    for _ in 0..2 {
        let q = client.send(&format!(r#"{{"op":"NextQuestion","session":{session}}}"#));
        assert_eq!(q.get("resolved").and_then(Json::as_bool), Some(false));
        let tuple = q.get("tuple").unwrap().as_u64().unwrap();
        client.send(&format!(
            r#"{{"op":"Answer","session":{session},"tuple":{tuple},"label":"-"}}"#
        ));
    }

    client.send(&format!(r#"{{"op":"Stats","session":{session}}}"#));
    client.send(&format!(r#"{{"op":"Sql","session":{session}}}"#));
    client.send(&format!(r#"{{"op":"TopK","session":{session},"k":3}}"#));
    client.send(&format!(r#"{{"op":"Transcript","session":{session}}}"#));
    client.send(r#"{"op":"ListSessions"}"#);

    // One op-level error: NextQuestion against a session that does
    // not exist. Parses fine, so it lands on the op's error counter,
    // not on decode_refused.
    let err = client.send_raw(r#"{"op":"NextQuestion","session":999999}"#);
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));

    // Two decode refusals: broken JSON and an unknown op. Neither
    // parses to a Request, so no op counter moves.
    let bad = client.send_raw("this is not json");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let unknown = client.send_raw(r#"{"op":"Bogus"}"#);
    assert_eq!(unknown.get("ok").and_then(Json::as_bool), Some(false));

    client.send(&format!(r#"{{"op":"CloseSession","session":{session}}}"#));

    let metrics = client.send(r#"{"op":"Metrics"}"#);

    // Exact per-op request counts — the script, nothing more or less.
    let expected: &[(&str, u64)] = &[
        ("CreateSession", 1),
        ("NextQuestion", 3), // 2 scripted + 1 unknown-session error
        ("Answer", 2),
        ("Stats", 1),
        ("Sql", 1),
        ("TopK", 1),
        ("Transcript", 1),
        ("ListSessions", 1),
        ("CloseSession", 1),
        ("Metrics", 1), // counts itself: incremented before dispatch
        ("AnswerBatch", 0),
        ("Explain", 0),
        ("ResumeSession", 0),
    ];
    for &(op, count) in expected {
        assert_eq!(op_requests(&metrics, op), count, "ops.{op}.requests");
    }

    // Error attribution: exactly the unknown-session NextQuestion.
    for &(op, _) in expected {
        let want = if op == "NextQuestion" { 1 } else { 0 };
        assert_eq!(op_field(&metrics, op, "errors"), want, "ops.{op}.errors");
    }

    // Latency lag: every op's sample count equals its request count,
    // except the in-flight Metrics request itself (recorded only
    // after its own snapshot was taken).
    for &(op, count) in expected {
        let want = if op == "Metrics" { count - 1 } else { count };
        assert_eq!(
            latency_count(&metrics, op),
            want,
            "ops.{op}.latency_us.count"
        );
    }

    // Transport counters: every line the script wrote was dispatched;
    // the two unparseable ones were refused; nothing was oversized;
    // this one connection is live.
    let total_lines: i64 = 13 + 2; // 13 parsed op requests + 2 refusals
    assert_eq!(transport_field(&metrics, "dispatched"), total_lines);
    assert_eq!(transport_field(&metrics, "decode_refused"), 2);
    assert_eq!(transport_field(&metrics, "oversized"), 0);
    assert!(
        transport_field(&metrics, "live_connections") >= 1,
        "this connection is live"
    );

    // A second Metrics call: the previous one's latency sample has
    // landed, so the lag is always exactly one in-flight request.
    let again = client.send(r#"{"op":"Metrics"}"#);
    assert_eq!(op_requests(&again, "Metrics"), 2);
    assert_eq!(latency_count(&again, "Metrics"), 1);

    drop(client);
    server.shutdown().expect("clean shutdown");
}

/// Store-level counters surface through the wire snapshot: resident
/// sessions track creates/closes, and `ListSessions` reports the same
/// store block the `Metrics` op does.
#[test]
fn store_gauges_track_session_population() {
    let server = start_server();
    let mut client = Client::connect(server.addr);

    let mut ids = Vec::new();
    for _ in 0..3 {
        let r = client.send(
            r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}"#,
        );
        ids.push(r.get("session").unwrap().as_u64().unwrap());
    }

    let metrics = client.send(r#"{"op":"Metrics"}"#);
    let store = metrics.get("store").expect("store section");
    assert_eq!(store.get("resident_sessions").unwrap().as_u64(), Some(3));
    assert_eq!(store.get("disk_sessions").unwrap().as_u64(), Some(0));

    let listed = client.send(r#"{"op":"ListSessions"}"#);
    assert_eq!(listed.get("resident_count").unwrap().as_u64(), Some(3));
    assert_eq!(listed.get("disk_count").unwrap().as_u64(), Some(0));

    for id in &ids {
        client.send(&format!(r#"{{"op":"CloseSession","session":{id}}}"#));
    }
    let after = client.send(r#"{"op":"Metrics"}"#);
    let store = after.get("store").expect("store section");
    assert_eq!(store.get("resident_sessions").unwrap().as_u64(), Some(0));

    drop(client);
    server.shutdown().expect("clean shutdown");
}
