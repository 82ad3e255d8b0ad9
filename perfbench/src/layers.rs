//! Per-layer metrics from the traced pass's spans.
//!
//! A span's self time is its duration minus its children's. Summed per
//! layer and divided by the summed root (`handler`) spans, self times give
//! each layer's share of handler time; by construction the self times of
//! one request add up to its root span, so what the shadow does not
//! attribute to a layer shows up as the root's own self time.

use crate::driver::Ledger;
use crate::stats::{mean, percentile};
use crate::trace::Shadow;
use jim_json::Json;
use jim_server::Op;
use std::collections::HashMap;

/// Ops whose handler path the shadow traces layer by layer.
const CORE_OPS: [Op; 5] = [
    Op::CreateSession,
    Op::NextQuestion,
    Op::TopK,
    Op::Answer,
    Op::AnswerBatch,
];

/// The agreement the traced handler span must show with the server's own
/// per-op median: within this factor, or within [`AGREE_ABS_US`]. The two
/// passes run seconds apart on a host whose speed drifts by up to ~1.5×,
/// so the factor leaves room for that and catches a shadow that skips or
/// repeats work.
const AGREE_FACTOR: f64 = 2.0;
/// Absolute slack for ops of a few microseconds, where the server's
/// histogram rounds to whole microseconds.
const AGREE_ABS_US: f64 = 3.0;
/// Medians are compared only over at least this many traced requests, or
/// above [`AGREE_ALWAYS_US`]: `huge-open` sends a dozen or so questions a
/// pass, each to a freshly opened engine, and their median of a few
/// microseconds moves by half from pass to pass.
const AGREE_MIN_SAMPLES: usize = 50;
/// Ops slower than this are compared whatever their sample count.
const AGREE_ALWAYS_US: f64 = 1000.0;
/// Most of a traced request must be attributed to some layer: the root's
/// own self time stays under this share of the root span, or under
/// [`UNATTRIBUTED_ABS_US`] a request.
const UNATTRIBUTED_MAX: f64 = 0.25;
/// Absolute slack for ops of a few microseconds, where the session lock
/// and the tracer's own bookkeeping alone are a quarter of the span.
const UNATTRIBUTED_ABS_US: f64 = 5.0;

/// Inputs measured outside the traced pass.
pub struct Context<'a> {
    /// Workload name (selects the dominant-layer expectation).
    pub workload: &'a str,
    /// The traced pass's ledger.
    pub ledger: &'a Ledger,
    /// The real handler's own per-op median, microseconds.
    pub server_p50: &'a HashMap<&'static str, f64>,
    /// Client round trip minus server median over TCP, microseconds.
    pub transport_overhead_us: f64,
    /// `(untraced - traced) / untraced` in-process throughput.
    pub overhead_frac: f64,
}

/// What the traced pass shows.
pub struct Analysis {
    /// The metrics `BENCHMARK.json` lists under `per_layer`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Everything else the trace shows, the checks included.
    pub detail: Json,
    /// The checks that did not hold, one line each.
    pub failed_checks: Vec<String>,
}

/// Analyze the traced pass's spans.
pub fn analyze(shadow: &Shadow, ctx: &Context<'_>) -> Analysis {
    let spans = &shadow.tracer.spans;
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.us();
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    // Durations by (layer, detail); self times by layer, per root op.
    let mut durations: HashMap<(&str, &str), Vec<f64>> = HashMap::new();
    let mut self_by_op: HashMap<&str, HashMap<&str, f64>> = HashMap::new();
    let mut handler_by_op: HashMap<&str, f64> = HashMap::new();
    let mut core_us: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut create_decode_us, mut create_bytes) = (0.0, 0usize);
    for (i, s) in spans.iter().enumerate() {
        durations
            .entry((s.name, s.detail))
            .or_default()
            .push(s.us());
        let root = root_of(i);
        if spans[root].name != "handler" {
            continue;
        }
        let op = spans[root].detail;
        *self_by_op.entry(op).or_default().entry(s.name).or_default() += s.us() - child_us[i];
        match s.name {
            "handler" => {
                *handler_by_op.entry(op).or_default() += s.us();
                core_us.entry(op).or_default().push(s.us());
            }
            "protocol.decode" | "protocol.encode" => {
                if let Some(v) = core_us.get_mut(op).and_then(|v| v.last_mut()) {
                    *v -= s.us();
                }
                if s.name == "protocol.decode" && op == "CreateSession" {
                    create_decode_us += s.us();
                    create_bytes += s.bytes;
                }
            }
            _ => {}
        }
    }
    let all = |name: &str| -> Vec<f64> {
        durations
            .iter()
            .filter(|((n, _), _)| *n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    };
    let with = |name: &str, keep: &dyn Fn(&str) -> bool| -> Vec<f64> {
        durations
            .iter()
            .filter(|((n, d), _)| *n == name && keep(d))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    };
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    let roots = |op: &str| durations.get(&("handler", op)).cloned().unwrap_or_default();
    let store = shadow.store();
    let metrics = store.metrics();
    let (hits, resumes) = (metrics.store_hits.get(), metrics.store_resumes.get());
    let ledger = ctx.ledger;
    let per_request = |bytes: u64| bytes as f64 / ledger.attempted().max(1) as f64;
    let builds = with("engine.build", &|d| d != "factorize-failed");

    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "transport.overhead_us_p50".into(),
            ctx.transport_overhead_us,
            "us",
        ),
        (
            "protocol.decode_us_p50".into(),
            p(&with("protocol.decode", &|d| d != "CreateSession"), 0.5),
            "us",
        ),
        (
            "protocol.decode_us_per_kb".into(),
            create_decode_us / (create_bytes as f64 / 1024.0).max(1e-9),
            "us/KB",
        ),
        (
            "protocol.encode_us_p50".into(),
            p(&all("protocol.encode"), 0.5),
            "us",
        ),
        (
            "protocol.request_bytes".into(),
            per_request(ledger.request_bytes),
            "bytes",
        ),
        (
            "protocol.response_bytes".into(),
            per_request(ledger.response_bytes),
            "bytes",
        ),
    ];
    for op in CORE_OPS {
        out.push((
            format!("server.{}_us_p50", op.name()),
            p(&roots(op.name()), 0.5),
            "us",
        ));
    }
    out.extend([
        (
            "store.fetch_us_p50".into(),
            p(&with("store.fetch", &|d| d == "hit"), 0.5),
            "us",
        ),
        (
            "journal.append_us_p50".into(),
            p(&all("journal.append"), 0.5),
            "us",
        ),
        (
            "journal.load_us_p50".into(),
            p(&all("journal.load"), 0.5),
            "us",
        ),
        (
            "journal.bytes_per_label".into(),
            shadow.append_bytes as f64 / shadow.appended_labels.max(1) as f64,
            "bytes",
        ),
        (
            "transcript.replay_us_p50".into(),
            p(&all("transcript.replay"), 0.5),
            "us",
        ),
        (
            "strategy.choose_us_p50".into(),
            p(&all("strategy.choose"), 0.5),
            "us",
        ),
        (
            "strategy.choose_us_p90".into(),
            p(&all("strategy.choose"), 0.9),
            "us",
        ),
        (
            "strategy.top_k_us_p50".into(),
            p(&all("strategy.top_k"), 0.5),
            "us",
        ),
        (
            "engine.label_batch_us_p50".into(),
            p(&all("engine.label_batch"), 0.5),
            "us",
        ),
        (
            "engine.candidates_at_question".into(),
            mean(&shadow.candidates_at_question).unwrap_or(0.0),
            "count",
        ),
        (
            "engine.pruned_per_label".into(),
            shadow.informative_labels as f64 / shadow.labels_applied.max(1) as f64,
            "ratio",
        ),
        ("engine.build_ms".into(), p(&builds, 0.5) / 1e3, "ms"),
        ("csv.parse_ms".into(), p(&all("csv.parse"), 0.5) / 1e3, "ms"),
        ("trace.overhead_frac".into(), ctx.overhead_frac, "ratio"),
    ]);

    // Everything else: workload-specific layers, per-strategy and per-mode
    // splits, self-time shares and the consistency checks.
    let mut detail: Vec<(String, Json)> = Vec::new();
    let factorized: Vec<f64> = shadow
        .built
        .iter()
        .filter(|b| b.mode == "factorized")
        .map(|b| b.groups as f64)
        .collect();
    detail.push((
        "store.resume_us_p50".into(),
        num(percentile(&with("store.fetch", &|d| d == "resume"), 0.5)),
    ));
    // Only `resume-churn` keeps more sessions open than the store holds;
    // elsewhere these read 1 and 0.
    detail.push((
        "store.hit_ratio".into(),
        Json::from(hits as f64 / (hits + resumes).max(1) as f64),
    ));
    detail.push(("store.evictions".into(), Json::from(store.evicted_total())));
    detail.push((
        "factorize.build_ms".into(),
        num(percentile(&with("engine.build", &|d| d == "factorized"), 0.5).map(|v| v / 1e3)),
    ));
    detail.push(("factorize.groups".into(), num(mean(&factorized))));
    detail.push((
        "construct.sampled_sessions".into(),
        Json::from(shadow.built.iter().filter(|b| b.mode == "sampled").count()),
    ));
    let mut modes: Vec<&str> = durations
        .keys()
        .filter(|(n, _)| *n == "engine.build")
        .map(|(_, d)| *d)
        .collect();
    modes.sort_unstable();
    for mode in modes {
        detail.push((
            format!("engine.build_ms.{mode}"),
            num(percentile(&durations[&("engine.build", mode)], 0.5).map(|v| v / 1e3)),
        ));
    }
    let mut strategies: Vec<(&str, &str)> = durations
        .keys()
        .filter(|(n, _)| n.starts_with("strategy."))
        .copied()
        .collect();
    strategies.sort_unstable();
    for (name, strategy) in strategies {
        let v = &durations[&(name, strategy)];
        let what = name.trim_start_matches("strategy.");
        detail.push((
            format!("strategy.{strategy}.{what}_us_p50"),
            num(percentile(v, 0.5)),
        ));
        detail.push((
            format!("strategy.{strategy}.{what}_us_p90"),
            num(percentile(v, 0.9)),
        ));
        detail.push((
            format!("strategy.{strategy}.{what}_samples"),
            Json::from(v.len()),
        ));
    }
    for op in Op::ALL {
        if !CORE_OPS.contains(&op) {
            let v = roots(op.name());
            if !v.is_empty() {
                detail.push((
                    format!("server.{}_us_p50", op.name()),
                    num(percentile(&v, 0.5)),
                ));
            }
        }
    }

    // Self-time shares of handler time, per op and overall.
    let total_handler: f64 = handler_by_op.values().sum();
    let mut self_total: HashMap<&str, f64> = HashMap::new();
    for layers in self_by_op.values() {
        for (layer, us) in layers {
            *self_total.entry(layer).or_default() += us;
        }
    }
    let share = |layers: &[&str], op: Option<&str>| -> f64 {
        let (selves, total) = match op {
            Some(op) => (
                self_by_op.get(op).cloned().unwrap_or_default(),
                handler_by_op.get(op).copied().unwrap_or(0.0),
            ),
            None => (self_total.clone(), total_handler),
        };
        layers
            .iter()
            .map(|l| selves.get(l).copied().unwrap_or(0.0))
            .sum::<f64>()
            / total.max(1e-9)
    };
    let mut shares: Vec<(String, Json)> = self_total
        .iter()
        .map(|(layer, us)| (layer.to_string(), Json::from(us / total_handler.max(1e-9))))
        .collect();
    shares.sort_by(|a, b| a.0.cmp(&b.0));
    detail.push(("self_time_share".into(), Json::Object(shares)));

    let strategy_engine = ["strategy.choose", "strategy.top_k", "engine.label_batch"];
    let durable = [
        "store.fetch",
        "store.create",
        "journal.append",
        "journal.load",
    ];
    let opening = [
        "protocol.decode",
        "csv.parse",
        "relation.product",
        "engine.build",
    ];
    let dominance = [
        ("strategy_engine_share", share(&strategy_engine, None)),
        ("store_journal_share", share(&durable, None)),
        ("create_open_share", share(&opening, Some("CreateSession"))),
    ];
    let expectation = match ctx.workload {
        "deep-inference" => Some(("strategy_engine_share", true)),
        "wire-mix" => Some(("strategy_engine_share", false)),
        "resume-churn" => Some(("store_journal_share", true)),
        "huge-open" => Some(("create_open_share", true)),
        _ => None,
    };
    let mut checks: Vec<(String, Json)> = dominance
        .iter()
        .map(|&(name, value)| (name.to_string(), Json::from(value)))
        .collect();
    let mut failed_checks = Vec::new();
    if let Some((name, majority)) = expectation {
        let value = dominance
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |d| d.1);
        let expected = if majority { "> 0.5" } else { "< 0.5" };
        let holds = (value > 0.5) == majority;
        if !holds {
            failed_checks.push(format!(
                "dominant layer: {name} is {value:.3}, expected {expected}"
            ));
        }
        checks.push((
            "dominant_layer".into(),
            Json::object([
                ("share", Json::from(name)),
                ("expected", Json::from(expected)),
                ("holds", Json::Bool(holds)),
            ]),
        ));
    }

    // The traced handler path against the server's own per-op median, and
    // how much of each traced request no layer accounts for.
    let mut agreement = Vec::new();
    for op in CORE_OPS {
        let Some(traced) = core_us.get(op.name()).and_then(|v| percentile(v, 0.5)) else {
            continue;
        };
        let unattributed_us = self_by_op
            .get(op.name())
            .and_then(|m| m.get("handler"))
            .copied()
            .unwrap_or(0.0);
        let unattributed = unattributed_us
            / handler_by_op
                .get(op.name())
                .copied()
                .unwrap_or(0.0)
                .max(1e-9);
        let samples = roots(op.name()).len();
        let unattributed_mean_us = unattributed_us / samples.max(1) as f64;
        let attributed =
            unattributed <= UNATTRIBUTED_MAX || unattributed_mean_us <= UNATTRIBUTED_ABS_US;
        let server = ctx.server_p50.get(op.name()).copied();
        let comparable = samples >= AGREE_MIN_SAMPLES || traced >= AGREE_ALWAYS_US;
        let agrees = server.filter(|_| comparable).map(|s| {
            (traced - s).abs() <= AGREE_ABS_US
                || (traced / s.max(1e-9)).max(s / traced.max(1e-9)) <= AGREE_FACTOR
        });
        if let (Some(false), Some(s)) = (agrees, server) {
            failed_checks.push(format!(
                "{}: traced handle() median {traced:.1} us vs the server's {s:.1} us",
                op.name()
            ));
        }
        if !attributed {
            failed_checks.push(format!(
                "{}: {:.0}% of the traced span, {unattributed_mean_us:.1} us a request, is in no layer",
                op.name(),
                unattributed * 100.0
            ));
        }
        agreement.push((
            op.name().to_string(),
            Json::object([
                ("traced_handle_us_p50", Json::from(traced)),
                ("samples", Json::from(samples)),
                ("server_us_p50", num(server)),
                ("agrees", agrees.map_or(Json::Null, Json::Bool)),
                ("unattributed_share", Json::from(unattributed)),
                ("unattributed_us_mean", Json::from(unattributed_mean_us)),
                ("attributed", Json::Bool(attributed)),
            ]),
        ));
    }
    checks.push((
        "tolerance".into(),
        Json::from(format!(
            "traced handle() median within {AGREE_FACTOR}x or {AGREE_ABS_US}us of the server's, \
             over >= {AGREE_MIN_SAMPLES} requests or above {AGREE_ALWAYS_US}us; \
             unattributed root self time <= {UNATTRIBUTED_MAX} of the root span \
             or <= {UNATTRIBUTED_ABS_US}us a request"
        )),
    ));
    checks.push(("per_op".into(), Json::Object(agreement)));
    detail.push(("checks".into(), Json::Object(checks)));
    detail.push(("spans".into(), Json::from(spans.len())));
    Analysis {
        metrics: out,
        detail: Json::Object(detail),
        failed_checks,
    }
}

fn num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::from)
}
