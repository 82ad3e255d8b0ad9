//! End-to-end over the real wire: a `jim-serve`-equivalent TCP listener on
//! an OS-assigned port, driven by plain `TcpStream` clients speaking JSON
//! lines. Two clients run complete flights/hotels sessions concurrently
//! with the `LookaheadMinPrune` strategy, answer until `resolved`, and
//! receive the goal join's SQL. Linux only, where the TCP front end is.

#![cfg(target_os = "linux")]
#![forbid(unsafe_code)]

mod support;

use jim_server::handler::{Handler, ServerLimits};
use jim_server::store::{SessionStore, StoreConfig};
use std::sync::Arc;
use std::time::Duration;
use support::{Client, TestServer};

fn start_server() -> TestServer {
    start_server_with_limits(ServerLimits::default())
}

fn start_server_with_limits(limits: ServerLimits) -> TestServer {
    let store = Arc::new(SessionStore::new(StoreConfig {
        max_sessions: 8,
        ttl: Duration::from_secs(600),
    }));
    TestServer::start(Arc::new(Handler::with_limits(store, limits)))
}

/// One complete interactive session, exactly as a scripted demo would run
/// it: create from the flights scenario, loop NextQuestion/Answer with the
/// truthful Q2 oracle, stop at `resolved`, return the inferred SQL.
fn run_session(addr: std::net::SocketAddr) -> String {
    let mut client = Client::connect(addr);
    let r = client.send(
        r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}"#,
    );
    let session = r.get("session").unwrap().as_u64().unwrap();
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(12));

    for _ in 0..12 {
        let q = client.send(&format!(r#"{{"op":"NextQuestion","session":{session}}}"#));
        if q.get("resolved").unwrap().as_bool() == Some(true) {
            let sql = q.get("sql").unwrap().as_str().unwrap().to_string();
            client.send(&format!(r#"{{"op":"CloseSession","session":{session}}}"#));
            return sql;
        }
        let values: Vec<&str> = q
            .get("values")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        // Truthful Q2 user: To ≍ City ∧ Airline ≍ Discount.
        let sign = if values[1] == values[3] && values[2] == values[4] {
            '+'
        } else {
            '-'
        };
        let a = client.send(&format!(
            r#"{{"op":"Answer","session":{session},"label":"{sign}"}}"#
        ));
        if a.get("resolved").unwrap().as_bool() == Some(true) {
            let sql = a.get("sql").unwrap().as_str().unwrap().to_string();
            client.send(&format!(r#"{{"op":"CloseSession","session":{session}}}"#));
            return sql;
        }
    }
    panic!("session did not resolve within the instance size");
}

#[test]
fn two_concurrent_sessions_over_tcp_infer_q2() {
    let server = start_server();
    let addr = server.addr;

    let clients: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || run_session(addr)))
        .collect();
    for client in clients {
        let sql = client.join().expect("client thread");
        assert!(sql.contains("r1.To = r2.City"), "{sql}");
        assert!(sql.contains("r1.Airline = r2.Discount"), "{sql}");
    }
}

#[test]
fn oversized_product_samples_and_resolves_over_tcp() {
    // The setgame scenario is a 144-tuple self-join; with max_product 40
    // and `force_sample` the server must open the session over a 40-tuple
    // uniform sample instead of erroring, and the whole loop still runs
    // to resolution. (Without `force_sample` the same request opens
    // factorized at full fidelity — checked first.)
    let server = start_server();
    let mut client = Client::connect(server.addr);
    let r = client.send(
        r#"{"op":"CreateSession","source":{"scenario":"setgame"},"strategy":"local-general","max_product":40}"#,
    );
    assert_eq!(r.get("factorized").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(144));
    let full = r.get("session").unwrap().as_u64().unwrap();
    client.send(&format!(r#"{{"op":"CloseSession","session":{full}}}"#));
    let r = client.send(
        r#"{"op":"CreateSession","source":{"scenario":"setgame"},"strategy":"local-general","max_product":40,"sample_seed":7,"force_sample":true}"#,
    );
    assert_eq!(r.get("sampled").unwrap().as_bool(), Some(true), "{r}");
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(40));
    let session = r.get("session").unwrap().as_u64().unwrap();

    // A user who wants the empty join answers every question negatively;
    // negatives on informative tuples are always consistent, and the
    // session must terminate within the number of distinct signatures.
    let mut resolved = false;
    for _ in 0..40 {
        let q = client.send(&format!(r#"{{"op":"NextQuestion","session":{session}}}"#));
        if q.get("resolved").unwrap().as_bool() == Some(true) {
            resolved = true;
            break;
        }
        let a = client.send(&format!(
            r#"{{"op":"Answer","session":{session},"label":"-"}}"#
        ));
        if a.get("resolved").unwrap().as_bool() == Some(true) {
            resolved = true;
            break;
        }
    }
    assert!(resolved, "sampled session did not resolve");
    let stats = client.send(&format!(r#"{{"op":"Stats","session":{session}}}"#));
    assert_eq!(stats.get("sampled").unwrap().as_bool(), Some(true));
    assert_eq!(stats.get("total_tuples").unwrap().as_u64(), Some(40));
    client.send(&format!(r#"{{"op":"CloseSession","session":{session}}}"#));
}

/// The truthful Q2 label for one rendered flights×hotels tuple:
/// To ≍ City ∧ Airline ≍ Discount.
fn q2_label(values: &[&str]) -> char {
    if values[1] == values[3] && values[2] == values[4] {
        '+'
    } else {
        '-'
    }
}

#[test]
fn top_k_batches_answered_with_answer_batch_over_tcp() {
    // The batched interaction loop end to end: TopK proposes a batch, the
    // client answers the *whole* batch with one AnswerBatch request, one
    // propagation pass happens server-side, repeat until resolved.
    let server = start_server();
    let mut client = Client::connect(server.addr);
    let r = client.send(
        r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}"#,
    );
    let session = r.get("session").unwrap().as_u64().unwrap();

    let mut rounds = 0;
    let sql = loop {
        rounds += 1;
        assert!(rounds <= 12, "batched session did not resolve");
        let batch = client.send(&format!(r#"{{"op":"TopK","session":{session},"k":3}}"#));
        if batch.get("resolved").unwrap().as_bool() == Some(true) {
            break batch.get("sql").unwrap().as_str().unwrap().to_string();
        }
        let labels: Vec<String> = batch
            .get("tuples")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|t| {
                let id = t.get("tuple").unwrap().as_u64().unwrap();
                let values: Vec<&str> = t
                    .get("values")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_str().unwrap())
                    .collect();
                format!(r#"{{"tuple":{id},"label":"{}"}}"#, q2_label(&values))
            })
            .collect();
        let a = client.send(&format!(
            r#"{{"op":"AnswerBatch","session":{session},"labels":[{}]}}"#,
            labels.join(",")
        ));
        assert_eq!(
            a.get("applied").unwrap().as_u64(),
            Some(labels.len() as u64),
            "the whole batch is applied in one pass: {a}"
        );
        if a.get("resolved").unwrap().as_bool() == Some(true) {
            break a.get("sql").unwrap().as_str().unwrap().to_string();
        }
    };
    assert!(sql.contains("r1.To = r2.City"), "{sql}");
    assert!(sql.contains("r1.Airline = r2.Discount"), "{sql}");
    client.send(&format!(r#"{{"op":"CloseSession","session":{session}}}"#));
}

#[test]
fn oversized_answer_batch_is_rejected_by_server_limits() {
    let server = start_server_with_limits(ServerLimits {
        max_batch: 2,
        ..Default::default()
    });
    let mut client = Client::connect(server.addr);
    let r = client.send(r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#);
    let session = r.get("session").unwrap().as_u64().unwrap();

    let r = client.send_raw(&format!(
        r#"{{"op":"AnswerBatch","session":{session},"labels":[{{"tuple":2,"label":"+"}},{{"tuple":6,"label":"-"}},{{"tuple":7,"label":"-"}}]}}"#
    ));
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
    assert!(
        r.get("error").unwrap().as_str().unwrap().contains("cap"),
        "{r}"
    );
    // Nothing was applied, and a within-cap batch still works.
    let s = client.send(&format!(r#"{{"op":"Stats","session":{session}}}"#));
    assert_eq!(s.get("interactions").unwrap().as_u64(), Some(0));
    let r = client.send(&format!(
        r#"{{"op":"AnswerBatch","session":{session},"labels":[{{"tuple":2,"label":"+"}},{{"tuple":6,"label":"-"}}]}}"#
    ));
    assert_eq!(r.get("applied").unwrap().as_u64(), Some(2));
}

#[test]
fn conflicting_batch_is_rejected_atomically_over_tcp() {
    let server = start_server();
    let mut client = Client::connect(server.addr);
    let r = client.send(r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#);
    let session = r.get("session").unwrap().as_u64().unwrap();
    let q = client.send(&format!(r#"{{"op":"NextQuestion","session":{session}}}"#));
    let proposed = q.get("tuple").unwrap().as_u64().unwrap();

    // Tuple 2 labeled + and − in one batch: typed rejection, no state
    // change — stats stay at zero, the question cache still proposes the
    // same pending tuple, and the same labels minus the conflict apply.
    let r = client.send_raw(&format!(
        r#"{{"op":"AnswerBatch","session":{session},"labels":[{{"tuple":2,"label":"+"}},{{"tuple":6,"label":"-"}},{{"tuple":2,"label":"-"}}]}}"#
    ));
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
    assert!(
        r.get("error").unwrap().as_str().unwrap().contains("both"),
        "{r}"
    );
    let s = client.send(&format!(r#"{{"op":"Stats","session":{session}}}"#));
    assert_eq!(s.get("interactions").unwrap().as_u64(), Some(0), "{s}");
    assert_eq!(s.get("pruned").unwrap().as_u64(), Some(0), "{s}");
    let q = client.send(&format!(r#"{{"op":"NextQuestion","session":{session}}}"#));
    assert_eq!(q.get("tuple").unwrap().as_u64(), Some(proposed));
    let r = client.send(&format!(
        r#"{{"op":"AnswerBatch","session":{session},"labels":[{{"tuple":2,"label":"+"}},{{"tuple":6,"label":"-"}}]}}"#
    ));
    assert_eq!(r.get("applied").unwrap().as_u64(), Some(2));
}

#[test]
fn nested_json_bomb_is_a_parse_error_not_a_stack_overflow() {
    // (The streamed over-the-cap line lives in the `transport` suite —
    // `oversized_line_is_answered_then_dropped_without_unbounded_buffering`.)
    let server = start_server();
    let mut client = Client::connect(server.addr);
    let bomb = "[".repeat(200_000);
    let json = client.send_raw(&bomb);
    assert_eq!(json.get("ok").unwrap().as_bool(), Some(false));
    assert!(json
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("nesting"));
    // The server survived: a fresh session still opens.
    let r = client.send(r#"{"op":"ListSessions"}"#);
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn malformed_lines_do_not_kill_the_connection() {
    let server = start_server();
    let mut client = Client::connect(server.addr);

    // A garbage line yields an error response, not a hangup.
    let json = client.send_raw("this is not json");
    assert_eq!(json.get("ok").unwrap().as_bool(), Some(false));

    // The same connection still serves real requests afterwards.
    let r = client.send(r#"{"op":"ListSessions"}"#);
    assert_eq!(r.get("sessions").unwrap().as_array().unwrap().len(), 0);
}
