//! # `jim-server` — a concurrent multi-session JIM inference service
//!
//! The paper's system is interactive by construction: a user answers
//! membership questions over many round trips. This crate turns the
//! `jim-core` engine into a long-lived service able to host many such
//! users at once:
//!
//! * [`store`] — a concurrent [`SessionStore`] of **owned** sessions
//!   (engine + strategy + pending question + generation-keyed question
//!   cache) in one id map behind one lock, with a max-sessions cap, LRU
//!   eviction and TTL sweeping. This is what the ownership refactor in
//!   `jim-relation`/`jim-core` (products own `Arc<Relation>`, `Engine` is
//!   `Send + 'static`) exists for.
//! * [`journal`] — the write-ahead transcript journal that de-couples
//!   session lifetime from memory residency: with a `--data-dir`, every
//!   session's origin and answered batches are on disk *before* the ack,
//!   eviction keeps sessions resumable by id (transparently, or via
//!   `ResumeSession`), and a restarted server picks up where the last
//!   process died.
//! * [`protocol`] — a JSON-lines wire protocol: `CreateSession` (inline
//!   CSV or a named `jim-synth` scenario, with strategy choice and a
//!   `max_product` bound on enumeration), `NextQuestion`, `TopK`,
//!   `Answer`, `Stats`, `Explain`, `Sql`, `Transcript`, `ResumeSession`,
//!   `ListSessions`, `CloseSession`.
//! * [`handler`] — transport-independent dispatch: one request line in,
//!   one response line out. Every session covers its whole product
//!   exactly. Products larger than the (clamped) limit are factorized
//!   instead of rejected, and products within it are factorized when
//!   that is cheaper than enumerating them; responses say which with a
//!   `factorized` flag. An oversized product whose factorization runs
//!   out of sweep budget is refused; nothing is ever sampled.
//! * [`serve`] — the TCP front end (linux): an epoll event loop over the
//!   in-repo `jim-aio` readiness shim — `--reactors N` reactor threads,
//!   each with its own worker pool, fed by one accept thread (see
//!   [`reactor`]'s module docs) — plus the TTL sweeper thread. Every
//!   connection runs one sans-IO connection core (`conn`: framing, the
//!   line cap, blank lines, the idle clock, one request in flight at a
//!   time, the close decision) behind one admission gate, and the server
//!   observes a graceful [`serve::Shutdown`] signal. Off linux there is
//!   no TCP front end; the `jim` REPL runs its sessions in-process.
//! * [`metrics`] — the server-wide observability aggregate, one table of
//!   typed `jim-metrics` fields: per-op request/error counters and latency
//!   histograms, transport gauges and store/journal counters, exposed
//!   on the wire as the `Metrics` op and as `jim-serve
//!   --metrics-interval` log lines.
//! * [`scenario`] — named demo datasets a client can open without
//!   shipping data.
//!
//! Binaries: `jim-serve` (the server) and `jim` (an interactive REPL
//! client that plays the paper's Figure-3 "most informative" loop over the
//! wire).
//!
//! ## Example (in-process)
//!
//! ```
//! use jim_server::handler::Handler;
//! use jim_server::store::{SessionStore, StoreConfig};
//! use std::sync::Arc;
//!
//! let handler = Handler::new(Arc::new(SessionStore::new(StoreConfig::default())));
//! let r = handler.handle_line(
//!     r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}"#,
//! );
//! assert!(r.contains("\"ok\":true"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(target_os = "linux")]
pub(crate) mod conn;
pub mod handler;
pub mod journal;
pub mod metrics;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod scenario;
pub mod serve;
pub mod store;
pub(crate) mod sync;

pub use handler::{Handler, ServerLimits};
pub use journal::{JournalStore, StoredSession};
pub use metrics::{Op, OpMetrics, ReactorMetrics, ServerMetrics};
pub use protocol::{Request, ServerError, Source};
pub use serve::{serve_with, spawn_sweeper, Shutdown, TransportLimits};
pub use store::{QuestionCache, Session, SessionStore, StoreConfig, SweepReport};
