//! Arbitrary input through the four parsers that read bytes from outside
//! the process: a wire request line ([`Request::parse`]), JSON
//! ([`Json::parse`]), inline CSV ([`csv::read_relation`]) and a session
//! journal ([`JournalStore::load`]).
//!
//! Each property runs 256 cases. Every case feeds the parser arbitrary
//! bytes (lossily decoded where it takes `&str`) and a valid input with
//! one to five byte edits. Every call must return `Ok` or a typed error;
//! a panic fails the test.

#![forbid(unsafe_code)]

use jim_core::{Label, OriginSource, SessionOrigin};
use jim_json::Json;
use jim_relation::{csv, ProductId};
use jim_server::journal::JournalStore;
use jim_server::protocol::Request;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes that make a valid input change shape when edited in.
const STRUCTURAL: &[u8] = b"{}[]\":,\\\n\r\t 0123456789-+.eEtrufalsn\xC3\xA9\xFF";

/// Apply `(position, byte, kind)` edits: kind 0 overwrites, 1 inserts,
/// 2 deletes. Bytes below 128 are drawn from [`STRUCTURAL`].
fn edited(valid: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for &(pos, byte, kind) in edits {
        let byte = match byte {
            b if b < 128 => STRUCTURAL[b as usize % STRUCTURAL.len()],
            b => b,
        };
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

const REQUESTS: [&str; 4] = [
    r#"{"op":"CreateSession","source":{"relations":[{"name":"r","csv":"a,b\n1,2\n2,1\n"}],"view":["r","r"]},"strategy":"LookaheadMinPrune","max_product":64}"#,
    r#"{"op":"AnswerBatch","session":3,"labels":[{"tuple":2,"label":"+"},{"tuple":5,"label":"-"}]}"#,
    r#"{"op":"TopK","session":4294967296,"k":3}"#,
    r#"{"op":"Explain","session":1,"tuple":4}"#,
];

const JSON: &str = r#"{"a":[1,-2.5e3,true,false,null,"x\"\\é😀"],"b":{"c":{}},"d":[[],[0.1]]}"#;

const CSV: &str =
    "City,Pop,Rich,Note\nLille,230000,false,\n\"Paris, FR\",2100000,true,\"a \"\"quote\"\"\"\nNYC,8.4e6,,x\n";

/// The bytes of a real journal: a header and two label batches.
fn journal() -> Vec<u8> {
    let dir = scratch_dir();
    let store = JournalStore::open(&dir).expect("open journal dir");
    let origin = SessionOrigin {
        source: OriginSource::Inline {
            relations: vec![("r".into(), "a,b\n1,2\n2,1\n".into())],
            view: Some(vec!["r".into(), "r".into()]),
        },
        strategy: Some("local-general".into()),
        max_product: 64,
        sample_seed: 0,
        sampled: false,
        factorized: false,
    };
    store.create(1, &origin).expect("write header");
    store
        .append(1, &[(ProductId(0), Label::Negative)])
        .expect("append");
    store
        .append(
            1,
            &[
                (ProductId(1), Label::Positive),
                (ProductId(3), Label::Negative),
            ],
        )
        .expect("append");
    let bytes = std::fs::read(store.path(1)).expect("read journal");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "jim-fuzz-journal-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_parse_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..=5),
        which in 0usize..REQUESTS.len(),
    ) {
        prop_assert!(Request::parse(REQUESTS[which]).is_ok(), "{}", REQUESTS[which]);
        for bytes in [raw, edited(REQUESTS[which].as_bytes(), &edits)] {
            let _ = Request::parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn json_parse_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..=5),
    ) {
        prop_assert!(Json::parse(JSON).is_ok());
        for bytes in [raw, edited(JSON.as_bytes(), &edits)] {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn csv_read_relation_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..=5),
    ) {
        prop_assert!(csv::read_relation("r", CSV).is_ok());
        for bytes in [raw, edited(CSV.as_bytes(), &edits)] {
            let _ = csv::read_relation("r", &String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn journal_load_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..=5),
    ) {
        // The raw case is written lossily decoded so it reaches the line
        // parser; the edited one as bytes, so invalid UTF-8 is covered.
        let valid = journal();
        let dir = scratch_dir();
        let store = JournalStore::open(&dir).expect("open journal dir");
        let raw = String::from_utf8_lossy(&raw).into_owned().into_bytes();
        for (id, bytes) in [(1, valid.clone()), (2, raw), (3, edited(&valid, &edits))] {
            std::fs::write(store.path(id), &bytes).expect("write journal");
            let loaded = store.load(id);
            if id == 1 {
                let counts = loaded.map(|s| s.map(|s| (s.batches.len(), s.interactions())));
                prop_assert_eq!(counts, Ok(Some((2, 3))));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
