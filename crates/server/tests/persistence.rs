//! Durable sessions end to end: the write-ahead journal under a data
//! directory, evict-to-disk, transparent resume-by-replay, the explicit
//! `ResumeSession` op, and the kill-and-restart story — a **fresh store
//! over the same directory** picks up the sessions a dead process left
//! behind and drives them to the paper's query.

#![forbid(unsafe_code)]

#[cfg(target_os = "linux")]
mod support;

use jim_json::Json;
use jim_server::handler::Handler;
use jim_server::journal::JournalStore;
use jim_server::store::{SessionStore, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
#[cfg(target_os = "linux")]
use support::{Client, TestServer};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jim-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journaled_handler(dir: &PathBuf, ttl: Duration) -> Handler {
    let store = SessionStore::with_journal(
        StoreConfig {
            max_sessions: 8,
            ttl,
        },
        JournalStore::open(dir).expect("journal dir"),
    );
    Handler::new(Arc::new(store))
}

fn send(h: &Handler, line: &str) -> Json {
    Json::parse(&h.handle_line(line)).expect("valid JSON response")
}

fn expect_ok(h: &Handler, line: &str) -> Json {
    let r = send(h, line);
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{line} -> {r}");
    r
}

/// The truthful Q2 label (To ≍ City ∧ Airline ≍ Discount) off rendered
/// flights×hotels values.
fn q2_label(values: &[Json]) -> char {
    let v: Vec<&str> = values.iter().map(|v| v.as_str().unwrap()).collect();
    if v[1] == v[3] && v[2] == v[4] {
        '+'
    } else {
        '-'
    }
}

#[test]
fn create_session_reports_persistence() {
    // With a data dir the session is durable from birth…
    let dir = tmpdir("flag");
    let h = journaled_handler(&dir, Duration::from_secs(600));
    let r = expect_ok(
        &h,
        r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
    );
    assert_eq!(r.get("persisted").unwrap().as_bool(), Some(true), "{r}");
    let id = r.get("session").unwrap().as_u64().unwrap();
    assert!(h.store().journal().unwrap().contains(id));

    // …without one it is memory-only and says so.
    let bare = Handler::new(Arc::new(SessionStore::new(StoreConfig::default())));
    let r = expect_ok(
        &bare,
        r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
    );
    assert_eq!(r.get("persisted").unwrap().as_bool(), Some(false), "{r}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evicted_session_is_transparently_usable_by_id() {
    // The acceptance bar: a session evicted by TTL under --data-dir keeps
    // answering requests by id with NO explicit resume call.
    let ttl = Duration::from_secs(60);
    let dir = tmpdir("transparent");
    let h = journaled_handler(&dir, ttl);
    let r = expect_ok(
        &h,
        r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
    );
    let id = r.get("session").unwrap().as_u64().unwrap();
    expect_ok(
        &h,
        &format!(r#"{{"op":"Answer","session":{id},"tuple":2,"label":"+"}}"#),
    );

    // Evict; the session leaves memory but ListSessions still knows it.
    let future = Instant::now() + ttl + Duration::from_secs(1);
    assert_eq!(h.store().sweep_at(future), vec![id]);
    let list = expect_ok(&h, r#"{"op":"ListSessions"}"#);
    let sessions = list.get("sessions").unwrap().as_array().unwrap();
    assert_eq!(sessions.len(), 1);
    assert_eq!(sessions[0].get("resident").unwrap().as_bool(), Some(false));
    assert_eq!(sessions[0].get("interactions").unwrap().as_u64(), Some(1));
    assert_eq!(list.get("evicted_total").unwrap().as_u64(), Some(1));
    assert_eq!(list.get("persisted_total").unwrap().as_u64(), Some(1));

    // Keep labeling the evicted id as if nothing happened.
    let a = expect_ok(
        &h,
        &format!(
            r#"{{"op":"AnswerBatch","session":{id},"labels":[{{"tuple":6,"label":"-"}},{{"tuple":7,"label":"-"}}]}}"#
        ),
    );
    assert_eq!(a.get("resolved").unwrap().as_bool(), Some(true), "{a}");
    assert!(a
        .get("sql")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("r1.To = r2.City"));
    let s = expect_ok(&h, &format!(r#"{{"op":"Stats","session":{id}}}"#));
    assert_eq!(s.get("interactions").unwrap().as_u64(), Some(3));

    // Now resident again.
    let list = expect_ok(&h, r#"{"op":"ListSessions"}"#);
    let sessions = list.get("sessions").unwrap().as_array().unwrap();
    assert_eq!(sessions[0].get("resident").unwrap().as_bool(), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_session_op_reports_shape_and_close_destroys() {
    let ttl = Duration::from_secs(60);
    let dir = tmpdir("resumeop");
    let h = journaled_handler(&dir, ttl);
    let r = expect_ok(
        &h,
        r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"local-general"}"#,
    );
    let id = r.get("session").unwrap().as_u64().unwrap();
    expect_ok(
        &h,
        &format!(r#"{{"op":"Answer","session":{id},"tuple":2,"label":"+"}}"#),
    );
    h.store()
        .sweep_at(Instant::now() + ttl + Duration::from_secs(1));

    // Explicit resume: shape + progress come back, like CreateSession.
    let r = expect_ok(&h, &format!(r#"{{"op":"ResumeSession","session":{id}}}"#));
    assert_eq!(r.get("tuples").unwrap().as_u64(), Some(12));
    assert_eq!(r.get("interactions").unwrap().as_u64(), Some(1));
    assert_eq!(r.get("resolved").unwrap().as_bool(), Some(false));
    assert_eq!(r.get("persisted").unwrap().as_bool(), Some(true));
    assert_eq!(r.get("strategy").unwrap().as_str(), Some("local-general"));
    assert_eq!(r.get("columns").unwrap().as_array().unwrap().len(), 5);
    // Resuming a resident session is idempotent.
    let again = expect_ok(&h, &format!(r#"{{"op":"ResumeSession","session":{id}}}"#));
    assert_eq!(again.get("interactions").unwrap().as_u64(), Some(1));

    // CloseSession is destruction: the journal is deleted, and neither
    // transparent nor explicit resume can bring the session back.
    expect_ok(&h, &format!(r#"{{"op":"CloseSession","session":{id}}}"#));
    assert!(!h.store().journal().unwrap().contains(id));
    let gone = send(&h, &format!(r#"{{"op":"Stats","session":{id}}}"#));
    assert_eq!(gone.get("ok").unwrap().as_bool(), Some(false));
    let gone = send(&h, &format!(r#"{{"op":"ResumeSession","session":{id}}}"#));
    assert_eq!(gone.get("ok").unwrap().as_bool(), Some(false));
    assert!(gone
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("no journal"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_trailing_journal_line_resumes_one_batch_short() {
    // A torn write (process died mid-append) must not fail the resume:
    // the corrupt tail is skipped with a warning and the session resumes
    // at the previous batch boundary, fully usable.
    let ttl = Duration::from_secs(60);
    let dir = tmpdir("torn");
    let h = journaled_handler(&dir, ttl);
    let r = expect_ok(
        &h,
        r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
    );
    let id = r.get("session").unwrap().as_u64().unwrap();
    expect_ok(
        &h,
        &format!(r#"{{"op":"Answer","session":{id},"tuple":2,"label":"+"}}"#),
    );
    expect_ok(
        &h,
        &format!(r#"{{"op":"Answer","session":{id},"tuple":6,"label":"-"}}"#),
    );
    h.store()
        .sweep_at(Instant::now() + ttl + Duration::from_secs(1));

    // Truncate the journal mid-way through its last line.
    let path = h.store().journal().unwrap().path(id);
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.trim_end().len() - 7;
    std::fs::write(&path, &text[..cut]).unwrap();

    let r = expect_ok(&h, &format!(r#"{{"op":"ResumeSession","session":{id}}}"#));
    assert_eq!(
        r.get("interactions").unwrap().as_u64(),
        Some(1),
        "the torn second batch is gone, the first survives: {r}"
    );
    // The lost label can simply be given again, and the session finishes.
    let a = expect_ok(
        &h,
        &format!(
            r#"{{"op":"AnswerBatch","session":{id},"labels":[{{"tuple":6,"label":"-"}},{{"tuple":7,"label":"-"}}]}}"#
        ),
    );
    assert_eq!(a.get("resolved").unwrap().as_bool(), Some(true), "{a}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_middle_journal_line_is_a_surfaced_error_not_a_silent_skip() {
    let ttl = Duration::from_secs(60);
    let dir = tmpdir("hole");
    let h = journaled_handler(&dir, ttl);
    let r = expect_ok(
        &h,
        r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
    );
    let id = r.get("session").unwrap().as_u64().unwrap();
    for (t, l) in [(2, '+'), (6, '-')] {
        expect_ok(
            &h,
            &format!(r#"{{"op":"Answer","session":{id},"tuple":{t},"label":"{l}"}}"#),
        );
    }
    h.store()
        .sweep_at(Instant::now() + ttl + Duration::from_secs(1));

    // Corrupt the *first* batch line — a hole, not a torn tail.
    let path = h.store().journal().unwrap().path(id);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines[1] = r#"{"labels":[{"#;
    std::fs::write(&path, lines.join("\n")).unwrap();

    let r = send(&h, &format!(r#"{{"op":"ResumeSession","session":{id}}}"#));
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
    assert!(
        r.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("corrupt"),
        "{r}"
    );
    // Transparent access misses too (logged server-side).
    let gone = send(&h, &format!(r#"{{"op":"Stats","session":{id}}}"#));
    assert_eq!(gone.get("ok").unwrap().as_bool(), Some(false));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal left over from a session opened over a uniform sample (a
/// version-1 header that says `"sampled":true`) cannot be resumed, since
/// sampling was removed. It stays findable and closable: resume and
/// session ops answer errors, `ListSessions` shows it with its reason,
/// and `CloseSession` deletes the file.
#[test]
fn legacy_sampled_journal_is_refused_listed_and_closable() {
    let dir = tmpdir("legacy-sampled");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session-5.jsonl");
    let journal = r#"{"jim-journal":1,"session":5,"origin":{"source":{"scenario":"setgame"},"max_product":64,"sample_seed":7,"sampled":true,"factorized":false}}
{"labels":[{"tuple":3,"label":"-"}]}
"#;
    std::fs::write(&path, journal).unwrap();
    let h = journaled_handler(&dir, Duration::from_secs(600));

    let removed = |r: &Json| {
        let reason = r.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(reason.contains("sampling was removed"), "{r}");
    };
    let r = send(&h, r#"{"op":"ResumeSession","session":5}"#);
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{r}");
    removed(&r);
    let r = send(&h, r#"{"op":"NextQuestion","session":5}"#);
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{r}");

    let list = expect_ok(&h, r#"{"op":"ListSessions"}"#);
    assert_eq!(list.get("disk_count").unwrap().as_u64(), Some(1), "{list}");
    let sessions = list.get("sessions").unwrap().as_array().unwrap();
    assert_eq!(sessions.len(), 1, "{list}");
    assert_eq!(sessions[0].get("session").unwrap().as_u64(), Some(5));
    assert_eq!(sessions[0].get("resident").unwrap().as_bool(), Some(false));
    removed(&sessions[0]);
    let metrics = expect_ok(&h, r#"{"op":"Metrics"}"#);
    let disk = metrics.get("store").unwrap().get("disk_sessions").unwrap();
    assert_eq!(disk.as_u64(), Some(1));

    expect_ok(&h, r#"{"op":"CloseSession","session":5}"#);
    assert!(!path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_transcript_with_origin_is_self_contained() {
    // A persisted session's Transcript carries its origin: anyone holding
    // just that JSON document can rebuild the instance from nothing and
    // replay the labels in one batched pass — no server, no journal.
    let dir = tmpdir("selfcontained");
    let h = journaled_handler(&dir, Duration::from_secs(600));
    let r = expect_ok(
        &h,
        r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#,
    );
    let id = r.get("session").unwrap().as_u64().unwrap();
    for (t, l) in [(2, '+'), (6, '-'), (7, '-')] {
        expect_ok(
            &h,
            &format!(r#"{{"op":"Answer","session":{id},"tuple":{t},"label":"{l}"}}"#),
        );
    }
    let t = expect_ok(&h, &format!(r#"{{"op":"Transcript","session":{id}}}"#));
    let transcript =
        jim_core::Transcript::from_json(t.get("transcript").unwrap()).expect("decodes");
    let origin = transcript.origin.clone().expect("origin attached");

    let mut engine = jim_server::journal::build_engine(&origin).expect("origin rebuilds");
    assert_eq!(transcript.replay_batched(&mut engine).unwrap(), 3);
    assert!(engine.is_resolved());
    assert!(engine
        .result()
        .to_sql()
        .contains("r1.Airline = r2.Discount"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- real TCP

/// A `jim-serve --data-dir <dir>` equivalent on an OS-assigned port.
#[cfg(target_os = "linux")]
fn start_server_over(dir: &PathBuf) -> TestServer {
    let store = SessionStore::with_journal(
        StoreConfig {
            max_sessions: 8,
            ttl: Duration::from_secs(600),
        },
        JournalStore::open(dir).expect("journal dir"),
    );
    TestServer::start(Arc::new(Handler::new(Arc::new(store))))
}

#[test]
#[cfg(target_os = "linux")]
fn kill_and_restart_resumes_to_resolution_over_tcp() {
    let dir = tmpdir("restart");

    // Process 1: create a durable session, give the paper's first label,
    // then "die" — a **graceful shutdown** here, so the first server's
    // event loop is gone before the second server starts.
    let session = {
        let server = start_server_over(&dir);
        let mut client = Client::connect(server.addr);
        let r = client.send(
            r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}"#,
        );
        assert_eq!(r.get("persisted").unwrap().as_bool(), Some(true), "{r}");
        let session = r.get("session").unwrap().as_u64().unwrap();
        let a = client.send(&format!(
            r#"{{"op":"Answer","session":{session},"tuple":2,"label":"+"}}"#
        ));
        assert_eq!(a.get("resolved").unwrap().as_bool(), Some(false));
        session
    };

    // Process 2: a fresh store over the same directory. The session is
    // listed as on-disk, resumes with its label replayed, and the
    // remaining questions drive it to the paper's Q2.
    let server = start_server_over(&dir);
    let mut client = Client::connect(server.addr);
    let list = client.send(r#"{"op":"ListSessions"}"#);
    let sessions = list.get("sessions").unwrap().as_array().unwrap();
    assert_eq!(sessions.len(), 1, "{list}");
    assert_eq!(sessions[0].get("session").unwrap().as_u64(), Some(session));
    assert_eq!(sessions[0].get("resident").unwrap().as_bool(), Some(false));

    let r = client.send(&format!(r#"{{"op":"ResumeSession","session":{session}}}"#));
    assert_eq!(r.get("interactions").unwrap().as_u64(), Some(1), "{r}");
    assert_eq!(r.get("resolved").unwrap().as_bool(), Some(false));

    let mut sql = None;
    for _ in 0..12 {
        let q = client.send(&format!(r#"{{"op":"NextQuestion","session":{session}}}"#));
        if q.get("resolved").unwrap().as_bool() == Some(true) {
            sql = Some(q.get("sql").unwrap().as_str().unwrap().to_string());
            break;
        }
        let sign = q2_label(q.get("values").unwrap().as_array().unwrap());
        let a = client.send(&format!(
            r#"{{"op":"Answer","session":{session},"label":"{sign}"}}"#
        ));
        if a.get("resolved").unwrap().as_bool() == Some(true) {
            sql = Some(a.get("sql").unwrap().as_str().unwrap().to_string());
            break;
        }
    }
    let sql = sql.expect("resumed session resolves");
    assert!(sql.contains("r1.To = r2.City"), "{sql}");
    assert!(sql.contains("r1.Airline = r2.Discount"), "{sql}");

    // Stats of the resumed run count the pre-restart label too.
    let s = client.send(&format!(r#"{{"op":"Stats","session":{session}}}"#));
    assert!(s.get("interactions").unwrap().as_u64().unwrap() >= 2);
    assert_eq!(s.get("resolved").unwrap().as_bool(), Some(true));

    // A new session on the restarted server gets a fresh id past the
    // resumed one (no collision with the dead process's allocations).
    let r = client.send(r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#);
    assert!(r.get("session").unwrap().as_u64().unwrap() > session);

    client.send(&format!(r#"{{"op":"CloseSession","session":{session}}}"#));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An instance whose inline CSV is over 2 MiB opens, answers, is evicted
/// to its journal by the store cap and resumes. The request line, the
/// journal header read back on resume, and the resume itself all decode
/// a multi-megabyte JSON string.
#[test]
#[cfg(target_os = "linux")]
fn multi_mib_inline_instance_opens_evicts_and_resumes_over_tcp() {
    let dir = tmpdir("multi-mib");
    // One resident session: opening a second evicts the first.
    let store = SessionStore::with_journal(
        StoreConfig {
            max_sessions: 1,
            ttl: Duration::from_secs(600),
        },
        JournalStore::open(&dir).expect("journal dir"),
    );
    let server = TestServer::start(Arc::new(Handler::new(Arc::new(store))));
    let mut client = Client::connect(server.addr);

    // Long notes with CSV-doubled quotes, a backslash and multi-byte
    // characters, so both the CSV and its JSON encoding carry escapes.
    let note = format!(r#""""non-stop"" \ über 5€ {}""#, "x".repeat(900));
    let mut flights = String::from("From,To,Notes\n");
    let mut rows = 0usize;
    while flights.len() < 2 << 20 {
        let to = ["Paris", "Lille", "NYC"][rows % 3];
        flights.push_str(&format!("F{rows},{to},{note}\n"));
        rows += 1;
    }
    let relation = |name: &str, csv: &str| {
        Json::object([("name", Json::from(name)), ("csv", Json::from(csv))])
    };
    let source = Json::object([(
        "relations",
        Json::Array(vec![
            relation("flights", &flights),
            relation("hotels", "City,Stars\nParis,3\nLille,4\nNYC,5\n"),
        ]),
    )]);
    let line = format!(
        r#"{{"op":"CreateSession","source":{},"strategy":"local-general"}}"#,
        source.render()
    );
    assert!(line.len() > 2 << 20);
    let r = client.send(&line);
    let session = r.get("session").unwrap().as_u64().unwrap();
    let tuples = Some(3 * rows as u64);
    assert_eq!(r.get("tuples").unwrap().as_u64(), tuples, "{r}");
    assert_eq!(r.get("persisted").unwrap().as_bool(), Some(true));

    // Answer one question truthfully for To ≍ City.
    let q = client.send(&format!(r#"{{"op":"NextQuestion","session":{session}}}"#));
    let values = q.get("values").unwrap().as_array().unwrap();
    let sign = if values[1] == values[3] { '+' } else { '-' };
    client.send(&format!(
        r#"{{"op":"Answer","session":{session},"label":"{sign}"}}"#
    ));

    // A second session pushes the first out of memory; its journal stays.
    let other = client.send(r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#);
    assert_eq!(
        other.get("evicted").unwrap().as_u64(),
        Some(session),
        "{other}"
    );

    // Resume reads the 2 MiB header back and replays the one label.
    let r = client.send(&format!(r#"{{"op":"ResumeSession","session":{session}}}"#));
    assert_eq!(r.get("tuples").unwrap().as_u64(), tuples, "{r}");
    assert_eq!(r.get("interactions").unwrap().as_u64(), Some(1), "{r}");
    assert_eq!(r.get("resolved").unwrap().as_bool(), Some(false));
    let q = client.send(&format!(r#"{{"op":"NextQuestion","session":{session}}}"#));
    assert!(q.get("tuple").is_some(), "the resumed session asks on: {q}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
