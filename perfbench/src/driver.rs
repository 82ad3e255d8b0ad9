//! The closed-loop session driver, shared by every pass.
//!
//! One client drives the workload's session scripts over a [`Channel`] —
//! a TCP connection to `jim-serve`, the real in-process handler, or the
//! traced shadow handler — sending each request only after the previous
//! response arrived (zero think time). Every answer is truthful: a tuple is
//! positive iff its rendered `values` agree on every column pair of the
//! session's goal.

use crate::stats::percentile;
use crate::workload::{create_line, Mode, Workload};
use jim_json::Json;
use jim_server::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// One request line in, one response line out.
pub trait Channel {
    /// Send `line` and return the response line.
    fn call(&mut self, line: &str) -> Result<String, String>;

    /// Called before the driver closes `session`, outside the request.
    fn closing(&mut self, _session: u64) {}
}

/// A session that resolved, as the server reported it.
pub struct Resolved {
    /// Index of its script in the workload cycle.
    pub spec: usize,
    /// Server session id.
    pub sid: u64,
    /// The inferred predicate as rendered by the server.
    pub predicate: String,
    /// Qualified column names, from `CreateSession`.
    pub columns: Vec<String>,
    /// Whether the server opened the instance over a sample.
    pub sampled: bool,
}

/// How the server opened one session (from the `CreateSession` response).
pub struct Opened {
    /// Index into the workload's instances.
    pub instance: usize,
    /// Atom count of the instance.
    pub atoms: u64,
    /// Whether the instance was sampled.
    pub sampled: bool,
}

/// Everything one pass of the driver measured.
#[derive(Default)]
pub struct Ledger {
    /// Requests sent per op, in [`Op::ALL`] order.
    pub sent: [u64; 13],
    /// Round-trip times per op, microseconds.
    pub rtt_us: [Vec<f64>; 13],
    /// Answer-to-next-question waits.
    pub turns: Vec<Sample>,
    /// `CreateSession` round trips.
    pub creates: Vec<Sample>,
    /// `CreateSession`-to-resolution times.
    pub sessions: Vec<Sample>,
    /// Tuples labeled per resolved session.
    pub questions: Vec<u64>,
    /// Resolved sessions.
    pub resolved: Vec<Resolved>,
    /// Opened sessions.
    pub opened: Vec<Opened>,
    /// `ok:false` responses.
    pub protocol_errors: u64,
    /// Unreadable responses and transport failures.
    pub io_errors: u64,
    /// The first few error messages.
    pub error_samples: Vec<String>,
    /// Request and response bytes, newline excluded.
    pub request_bytes: u64,
    /// Response bytes.
    pub response_bytes: u64,
    /// End of every whole cycle in the measured window.
    pub cycle_ends: Vec<Instant>,
    /// Completion time of every request in the measured window.
    pub completions: Vec<Instant>,
    /// Whether requests are being timed into `completions`.
    measuring: bool,
    /// Requests inside the measured window.
    pub window_requests: u64,
    /// Length of the measured window.
    pub window: Duration,
}

/// A timing and the step of the cycle it timed.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The step: a script's index in the cycle and the step's ordinal
    /// within that script. Scripts are seeded, so a key names the same
    /// work in every cycle.
    pub key: (usize, u64),
    /// Duration, microseconds.
    pub us: f64,
}

impl Sample {
    fn since(start: Instant, key: (usize, u64)) -> Sample {
        Sample {
            key,
            us: start.elapsed().as_secs_f64() * 1e6,
        }
    }
}

/// The `q`-quantile, over the steps of a cycle, of each step's fastest
/// repetition, in microseconds. The host's speed drifts by up to ~1.5×,
/// in bursts shorter than a second that can crowd a whole run; every
/// step repeats once per cycle, and its fastest repetition is the one
/// the fewest bursts reached.
pub fn floor_quantile(samples: &[Sample], q: f64) -> Option<f64> {
    let mut fastest: HashMap<(usize, u64), f64> = HashMap::new();
    for s in samples {
        let us = fastest.entry(s.key).or_insert(f64::INFINITY);
        *us = us.min(s.us);
    }
    percentile(&fastest.into_values().collect::<Vec<_>>(), q)
}

/// A proposed tuple's rank and rendered values.
type Proposed = (u64, Vec<String>);

/// A session the driver currently holds open.
struct Live {
    spec: usize,
    sid: u64,
    rng: StdRng,
    started: Instant,
    labels: u64,
    turns: u64,
    turn_start: Option<Instant>,
    /// Proposed tuples awaiting an answer, and whether they came from `TopK`.
    pending: Option<(bool, Vec<Proposed>)>,
    columns: Vec<String>,
    sampled: bool,
}

/// Rounds the measured window is cut into for the end-to-end figures.
pub const ROUNDS: usize = 10;

/// Give up on a session that asks this many questions: the strategies
/// resolve every workload's sessions in far fewer.
const MAX_LABELS: u64 = 5_000;

impl Ledger {
    /// The measured window cut into rounds: [`ROUNDS`] equal slices, or
    /// whole cycles when a cycle outlasts a slice, so that every round of
    /// a long-cycled workload has the same make-up.
    fn rounds(&self) -> Vec<(Instant, Instant)> {
        let (Some(&start), Some(&end)) = (self.completions.first(), self.cycle_ends.last()) else {
            return Vec::new();
        };
        let slice = (end - start) / ROUNDS as u32;
        if (end - start) / self.cycle_ends.len() as u32 >= slice {
            let mut from = start;
            return self
                .cycle_ends
                .iter()
                .map(|&to| (std::mem::replace(&mut from, to), to))
                .collect();
        }
        (0..ROUNDS as u32)
            .map(|k| (start + slice * k, start + slice * (k + 1)))
            .collect()
    }

    /// Completed requests per second in the best (fastest) round.
    pub fn throughput_rps(&self) -> f64 {
        self.rounds()
            .iter()
            .map(|&(from, to)| {
                let done = self
                    .completions
                    .iter()
                    .filter(|&&at| at > from && at <= to)
                    .count();
                done as f64 / (to - from).as_secs_f64().max(1e-9)
            })
            .fold(0.0, f64::max)
    }

    /// Requests sent across all ops.
    pub fn attempted(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Median round trip of `op`, microseconds (`None` if never sent).
    pub fn rtt_p50(&self, op: Op) -> Option<f64> {
        percentile(&self.rtt_us[op as usize], 0.5)
    }

    fn note_error(&mut self, message: String) {
        if self.error_samples.len() < 5 {
            self.error_samples.push(message);
        }
    }

    /// Send one request, time it and account the outcome. Transport
    /// failures are returned as `Err`; `ok:false` responses are counted
    /// and returned as `Ok`.
    pub fn request(&mut self, ch: &mut dyn Channel, op: Op, line: &str) -> Result<Json, String> {
        self.sent[op as usize] += 1;
        self.request_bytes += line.len() as u64;
        let start = Instant::now();
        let response = ch.call(line).inspect_err(|_| self.io_errors += 1)?;
        let elapsed = start.elapsed();
        if self.measuring {
            self.completions.push(start + elapsed);
        }
        self.response_bytes += response.trim_end().len() as u64;
        let json = Json::parse(response.trim_end()).map_err(|e| {
            self.io_errors += 1;
            format!("unparseable {} response: {e}", op.name())
        })?;
        self.rtt_us[op as usize].push(elapsed.as_secs_f64() * 1e6);
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            self.protocol_errors += 1;
            let message = json.get("error").and_then(Json::as_str).unwrap_or("?");
            self.note_error(format!("{}: {message}", op.name()));
        }
        Ok(json)
    }

    /// Drive whole cycles of the workload until the next cycle would end
    /// past `budget` (at least one cycle always runs).
    pub fn drive(
        &mut self,
        w: &Workload,
        ch: &mut dyn Channel,
        budget: Duration,
    ) -> Result<(), String> {
        let start = Instant::now();
        let before = self.attempted();
        self.completions.push(start);
        self.measuring = true;
        loop {
            let cycle = Instant::now();
            self.cycle(w, ch)?;
            self.cycle_ends.push(Instant::now());
            if start.elapsed() + cycle.elapsed() > budget {
                break;
            }
        }
        self.measuring = false;
        self.window = start.elapsed();
        self.window_requests = self.attempted() - before;
        Ok(())
    }

    /// One cycle: every script once, `w.live` sessions open at a time,
    /// served one turn each in round-robin order.
    fn cycle(&mut self, w: &Workload, ch: &mut dyn Channel) -> Result<(), String> {
        let mut queue: VecDeque<usize> = (0..w.sessions.len()).collect();
        let mut slots: Vec<Option<Live>> = (0..w.live.max(1)).map(|_| None).collect();
        loop {
            let mut busy = false;
            for slot in slots.iter_mut() {
                while slot.is_none() {
                    let Some(spec) = queue.pop_front() else { break };
                    *slot = self.open(w, ch, spec)?;
                }
                if let Some(live) = slot {
                    busy = true;
                    if self.turn(w, ch, live)? {
                        *slot = None;
                    }
                }
            }
            if !busy && queue.is_empty() {
                return Ok(());
            }
        }
    }

    fn open(
        &mut self,
        w: &Workload,
        ch: &mut dyn Channel,
        spec: usize,
    ) -> Result<Option<Live>, String> {
        let script = &w.sessions[spec];
        let started = Instant::now();
        let r = self.request(ch, Op::CreateSession, &create_line(w, script))?;
        if let Some(&us) = self.rtt_us[Op::CreateSession as usize].last() {
            self.creates.push(Sample { key: (spec, 0), us });
        }
        let Some(sid) = r.get("session").and_then(Json::as_u64) else {
            return Ok(None);
        };
        let flag = |name: &str| r.get(name).and_then(Json::as_bool) == Some(true);
        let sampled = flag("sampled");
        self.opened.push(Opened {
            instance: script.instance,
            atoms: r.get("atoms").and_then(Json::as_u64).unwrap_or(0),
            sampled,
        });
        let columns = r
            .get("columns")
            .and_then(Json::as_array)
            .map(|cs| {
                cs.iter()
                    .filter_map(|c| c.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        Ok(Some(Live {
            spec,
            sid,
            rng: StdRng::seed_from_u64(script.seed),
            started,
            labels: 0,
            turns: 0,
            turn_start: None,
            pending: None,
            columns,
            sampled,
        }))
    }

    /// One turn of a live session: answer what is pending (after an
    /// optional side op), then ask for the next question or batch.
    /// `Ok(true)` once the session is finished and closed.
    fn turn(
        &mut self,
        w: &Workload,
        ch: &mut dyn Channel,
        live: &mut Live,
    ) -> Result<bool, String> {
        let sid = live.sid;
        let script = &w.sessions[live.spec];
        if let Some((batch, tuples)) = live.pending.take() {
            if w.side_ops && live.rng.gen_range(0..100) < 25 {
                let (op, line) = side_op(&mut live.rng, sid, tuples[0].0);
                let r = self.request(ch, op, &line)?;
                if !is_ok(&r) {
                    return self.close(ch, sid);
                }
            }
            let labels: Vec<(u64, bool)> = tuples
                .iter()
                .map(|(t, values)| {
                    let holds = script
                        .goal
                        .iter()
                        .all(|&(a, b)| values.get(a).is_some() && values.get(a) == values.get(b));
                    (*t, holds)
                })
                .collect();
            let sign = |positive: bool| if positive { "+" } else { "-" };
            let sent = Instant::now();
            let r = if batch {
                let entries: Vec<String> = labels
                    .iter()
                    .map(|&(t, p)| format!(r#"{{"tuple":{t},"label":"{}"}}"#, sign(p)))
                    .collect();
                let line = format!(
                    r#"{{"op":"AnswerBatch","session":{sid},"labels":[{}]}}"#,
                    entries.join(",")
                );
                self.request(ch, Op::AnswerBatch, &line)?
            } else {
                let (t, p) = labels[0];
                let line = format!(
                    r#"{{"op":"Answer","session":{sid},"tuple":{t},"label":"{}"}}"#,
                    sign(p)
                );
                self.request(ch, Op::Answer, &line)?
            };
            if !is_ok(&r) {
                return self.close(ch, sid);
            }
            live.labels += labels.len() as u64;
            if is_resolved(&r) {
                self.turns
                    .push(Sample::since(sent, (live.spec, live.labels)));
                return self.finish(ch, live, &r);
            }
            if live.labels > MAX_LABELS {
                self.io_errors += 1;
                self.note_error(format!(
                    "session {sid} unresolved after {MAX_LABELS} labels"
                ));
                return self.close(ch, sid);
            }
            live.turn_start = Some(sent);
        }
        let k = match script.mode {
            Mode::Ask => None,
            Mode::Batch(k) => Some(k),
            Mode::Mixed => {
                if live.rng.gen_range(0..75) < 55 {
                    None
                } else {
                    Some(live.rng.gen_range(2..5u64))
                }
            }
            Mode::Alternate(k) => (live.turns % 2 == 1).then_some(k),
        };
        live.turns += 1;
        let r = match k {
            None => self.request(
                ch,
                Op::NextQuestion,
                &format!(r#"{{"op":"NextQuestion","session":{sid}}}"#),
            )?,
            Some(k) => self.request(
                ch,
                Op::TopK,
                &format!(r#"{{"op":"TopK","session":{sid},"k":{k}}}"#),
            )?,
        };
        if let Some(sent) = live.turn_start.take() {
            self.turns
                .push(Sample::since(sent, (live.spec, live.labels)));
        }
        if !is_ok(&r) {
            return self.close(ch, sid);
        }
        if is_resolved(&r) {
            return self.finish(ch, live, &r);
        }
        let tuples: Vec<Proposed> = match k {
            None => proposed(&r).into_iter().collect(),
            Some(_) => r
                .get("tuples")
                .and_then(Json::as_array)
                .map(|ts| ts.iter().filter_map(proposed).collect())
                .unwrap_or_default(),
        };
        if tuples.is_empty() {
            self.io_errors += 1;
            self.note_error(format!("session {sid}: unresolved response without tuples"));
            return self.close(ch, sid);
        }
        live.pending = Some((k.is_some(), tuples));
        Ok(false)
    }

    fn finish(&mut self, ch: &mut dyn Channel, live: &Live, r: &Json) -> Result<bool, String> {
        self.sessions
            .push(Sample::since(live.started, (live.spec, 0)));
        self.questions.push(live.labels);
        self.resolved.push(Resolved {
            spec: live.spec,
            sid: live.sid,
            predicate: r
                .get("predicate")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            columns: live.columns.clone(),
            sampled: live.sampled,
        });
        self.close(ch, live.sid)
    }

    fn close(&mut self, ch: &mut dyn Channel, sid: u64) -> Result<bool, String> {
        ch.closing(sid);
        self.request(
            ch,
            Op::CloseSession,
            &format!(r#"{{"op":"CloseSession","session":{sid}}}"#),
        )?;
        Ok(true)
    }

    /// Send `Metrics` and compare every op's request counter with the
    /// client's sent count. Returns the snapshot and the mismatching ops.
    pub fn cross_check(&mut self, ch: &mut dyn Channel) -> Result<(Json, Vec<String>), String> {
        let snapshot = self.request(ch, Op::Metrics, r#"{"op":"Metrics"}"#)?;
        let mut mismatches = Vec::new();
        for op in Op::ALL {
            let server = snapshot
                .get("ops")
                .and_then(|o| o.get(op.name()))
                .and_then(|o| o.get("requests"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if server != self.sent[op as usize] {
                mismatches.push(format!(
                    "{}: client {} vs server {server}",
                    op.name(),
                    self.sent[op as usize]
                ));
            }
        }
        Ok((snapshot, mismatches))
    }
}

fn is_ok(r: &Json) -> bool {
    r.get("ok").and_then(Json::as_bool) == Some(true)
}

fn is_resolved(r: &Json) -> bool {
    r.get("resolved").and_then(Json::as_bool) == Some(true)
}

/// `(tuple, values)` of a proposed tuple.
fn proposed(t: &Json) -> Option<Proposed> {
    let tuple = t.get("tuple").and_then(Json::as_u64)?;
    let values = t
        .get("values")?
        .as_array()?
        .iter()
        .map(|v| v.as_str().unwrap_or("").to_string())
        .collect();
    Some((tuple, values))
}

/// One of `jim-load`'s observer ops on the session.
fn side_op(rng: &mut StdRng, sid: u64, tuple: u64) -> (Op, String) {
    match rng.gen_range(0..5) {
        0 => (Op::Stats, format!(r#"{{"op":"Stats","session":{sid}}}"#)),
        1 => (Op::Sql, format!(r#"{{"op":"Sql","session":{sid}}}"#)),
        2 => (
            Op::Transcript,
            format!(r#"{{"op":"Transcript","session":{sid}}}"#),
        ),
        3 => (
            Op::Explain,
            format!(r#"{{"op":"Explain","session":{sid},"tuple":{tuple}}}"#),
        ),
        _ => (
            Op::ResumeSession,
            format!(r#"{{"op":"ResumeSession","session":{sid}}}"#),
        ),
    }
}
