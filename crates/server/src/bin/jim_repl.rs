//! `jim` — an interactive REPL client for `jim-serve`.
//!
//! Lets a human actually play the paper's Figure-3 "most informative"
//! loop: open a session, get asked about candidate tuples, answer y/n,
//! watch the candidate space collapse, and read the inferred SQL.
//!
//! ```text
//! jim                       # in-process server (no network needed)
//! jim --connect HOST:PORT   # against a running jim-serve
//! ```
//!
//! Commands: `open [scenario] [strategy]`, `load <left.csv> <right.csv>`,
//! `resume <id>` (rehydrate a journaled session on a `--data-dir` server),
//! `ask`, `y`/`n`, `answer <tuple> <+|->`, `answer <t>=<+|-> ...` (label a
//! whole batch in one engine pass), `top <k>`, `stats`, `explain [tuple]`,
//! `sql`, `transcript`, `sessions`, `metrics` (the server's observability
//! snapshot), `close`, `quit`.
//!
//! `open` and `load` accept a trailing `max=N` word: enumerate at most N
//! product tuples. A larger product opens factorized, over the whole
//! product, or is refused.

#![forbid(unsafe_code)]

use jim_json::Json;
use jim_server::handler::Handler;
use jim_server::store::{SessionStore, StoreConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Where requests go: a TCP peer or an in-process handler.
enum Conn {
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
    Local(Handler),
}

impl Conn {
    fn send(&mut self, line: &str) -> Result<Json, String> {
        let raw = match self {
            Conn::Local(handler) => handler.handle_line(line),
            Conn::Tcp { reader, writer } => {
                // One write per request; a split-off newline segment would
                // stall on Nagle + delayed ACK.
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .map_err(|e| e.to_string())?;
                writer.flush().map_err(|e| e.to_string())?;
                let mut response = String::new();
                let n = reader.read_line(&mut response).map_err(|e| e.to_string())?;
                if n == 0 {
                    return Err("server closed the connection".into());
                }
                response
            }
        };
        Json::parse(raw.trim()).map_err(|e| format!("bad response: {e}"))
    }
}

struct Repl {
    conn: Conn,
    session: Option<u64>,
    columns: Vec<String>,
}

fn escape(s: &str) -> String {
    Json::from(s).render()
}

/// Split trailing `max=N` words off a command line; returns the remaining
/// words and the extra JSON field (`,"max_product":N`, or nothing).
fn max_product_opt<'a>(words: &[&'a str]) -> Result<(Vec<&'a str>, String), String> {
    let (max, rest): (Vec<&str>, _) = words.iter().partition(|w| w.starts_with("max="));
    let mut extra = String::new();
    for w in max {
        let n: u64 = w["max=".len()..]
            .parse()
            .map_err(|_| format!("bad value in `{w}` (want a non-negative integer)"))?;
        extra = format!(r#","max_product":{n}"#);
    }
    Ok((rest, extra))
}

impl Repl {
    fn request(&mut self, line: &str) -> Option<Json> {
        match self.conn.send(line) {
            Err(e) => {
                println!("! {e}");
                None
            }
            Ok(response) => {
                if response.get("ok").and_then(Json::as_bool) == Some(false) {
                    let msg = response
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown error");
                    // Transport-level refusals carry a machine `code`;
                    // the two connection-fate ones deserve a hint beyond
                    // the message (the server is about to hang up on us).
                    match response.get("code").and_then(Json::as_str) {
                        Some("overloaded") => {
                            println!("! {msg}\n! (server shed this connection; retry shortly)")
                        }
                        Some("idle_timeout") => {
                            println!("! {msg}\n! (reconnect with --connect to continue)")
                        }
                        _ => println!("! {msg}"),
                    }
                    None
                } else {
                    Some(response)
                }
            }
        }
    }

    fn session_id(&self) -> Option<u64> {
        if self.session.is_none() {
            println!("! no open session; `open flights` first (try `help`)");
        }
        self.session
    }

    fn show_question(&self, response: &Json) {
        if response.get("resolved").and_then(Json::as_bool) == Some(true) {
            println!("resolved! inferred query:");
            if let Some(sql) = response.get("sql").and_then(Json::as_str) {
                println!("{sql}");
            }
            return;
        }
        let tuple = response.get("tuple").and_then(Json::as_u64).unwrap_or(0);
        println!("is this tuple part of the join result you have in mind?  [y/n]");
        if let Some(values) = response.get("values").and_then(Json::as_array) {
            for (column, value) in self.columns.iter().zip(values) {
                println!("  {column:>24} = {}", value.as_str().unwrap_or("?"));
            }
        }
        let left = response
            .get("informative_remaining")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        println!("  (tuple #{tuple}; {left} informative candidates left)");
    }

    fn open(&mut self, words: &[&str]) {
        let (words, extra) = match max_product_opt(words) {
            Ok(parsed) => parsed,
            Err(e) => {
                println!("! {e}");
                return;
            }
        };
        let scenario = words.first().copied().unwrap_or("flights");
        let strategy = words.get(1).copied().unwrap_or("lookahead-minprune");
        let line = format!(
            r#"{{"op":"CreateSession","source":{{"scenario":{}}},"strategy":{}{}}}"#,
            escape(scenario),
            escape(strategy),
            extra,
        );
        self.finish_open(line);
    }

    fn load(&mut self, words: &[&str]) {
        let (words, extra) = match max_product_opt(words) {
            Ok(parsed) => parsed,
            Err(e) => {
                println!("! {e}");
                return;
            }
        };
        if words.len() < 2 {
            println!("! usage: load <left.csv> <right.csv> [strategy] [max=N]");
            return;
        }
        let mut relations = Vec::new();
        for (i, path) in words[..2].iter().enumerate() {
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
                .unwrap_or_else(|| format!("r{}", i + 1));
            match std::fs::read_to_string(path) {
                Err(e) => {
                    println!("! {path}: {e}");
                    return;
                }
                Ok(text) => relations.push(format!(
                    r#"{{"name":{},"csv":{}}}"#,
                    escape(&name),
                    escape(&text)
                )),
            }
        }
        let strategy = words.get(2).copied().unwrap_or("lookahead-minprune");
        let line = format!(
            r#"{{"op":"CreateSession","source":{{"relations":[{}]}},"strategy":{}{}}}"#,
            relations.join(","),
            escape(strategy),
            extra,
        );
        self.finish_open(line);
    }

    fn finish_open(&mut self, line: String) {
        if let Some(r) = self.request(&line) {
            self.session = r.get("session").and_then(Json::as_u64);
            self.columns = r
                .get("columns")
                .and_then(Json::as_array)
                .map(|cols| {
                    cols.iter()
                        .filter_map(|c| c.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            println!(
                "session {} open: {} candidate tuples, {} candidate atoms, strategy {}",
                self.session.unwrap_or(0),
                r.get("tuples").and_then(Json::as_u64).unwrap_or(0),
                r.get("atoms").and_then(Json::as_u64).unwrap_or(0),
                r.get("strategy").and_then(Json::as_str).unwrap_or("?"),
            );
            println!("`ask` for a question, `y`/`n` to answer, `sql` for the current guess");
        }
    }

    /// `resume <id>` — rehydrate a journaled session (evicted, or left by
    /// a previous server process over the same data dir) and adopt it.
    fn resume(&mut self, words: &[&str]) {
        let Some(id) = words.first().and_then(|w| w.parse::<u64>().ok()) else {
            println!("! usage: resume <session-id>");
            return;
        };
        if let Some(r) = self.request(&format!(r#"{{"op":"ResumeSession","session":{id}}}"#)) {
            self.session = r.get("session").and_then(Json::as_u64);
            self.columns = r
                .get("columns")
                .and_then(Json::as_array)
                .map(|cols| {
                    cols.iter()
                        .filter_map(|c| c.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            println!(
                "session {id} resumed: {} candidate tuples, {} label(s) replayed, strategy {}{}",
                r.get("tuples").and_then(Json::as_u64).unwrap_or(0),
                r.get("interactions").and_then(Json::as_u64).unwrap_or(0),
                r.get("strategy").and_then(Json::as_str).unwrap_or("?"),
                if r.get("resolved").and_then(Json::as_bool) == Some(true) {
                    " — already resolved, `sql` shows the query"
                } else {
                    ""
                },
            );
        }
    }

    fn ask(&mut self) {
        let Some(id) = self.session_id() else { return };
        if let Some(r) = self.request(&format!(r#"{{"op":"NextQuestion","session":{id}}}"#)) {
            self.show_question(&r);
        }
    }

    fn answer(&mut self, tuple: Option<u64>, label: char) {
        let Some(id) = self.session_id() else { return };
        let line = match tuple {
            Some(t) => format!(r#"{{"op":"Answer","session":{id},"tuple":{t},"label":"{label}"}}"#),
            None => format!(r#"{{"op":"Answer","session":{id},"label":"{label}"}}"#),
        };
        if let Some(r) = self.request(&line) {
            println!(
                "pruned {} tuple(s); {} informative left",
                r.get("pruned").and_then(Json::as_u64).unwrap_or(0),
                r.get("informative_remaining")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            );
            if r.get("resolved").and_then(Json::as_bool) == Some(true) {
                println!("resolved! inferred query:");
                if let Some(sql) = r.get("sql").and_then(Json::as_str) {
                    println!("{sql}");
                }
            } else {
                self.ask();
            }
        }
    }

    /// `answer 3=+ 7=- 9=+` — one `AnswerBatch` request, one propagation
    /// pass server-side, applied atomically.
    fn answer_batch(&mut self, pairs: &[&str]) {
        let Some(id) = self.session_id() else { return };
        let mut labels = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let parsed = pair.split_once('=').and_then(|(t, l)| {
                let sign = match l {
                    "+" => '+',
                    "-" => '-',
                    _ => return None,
                };
                t.parse::<u64>().ok().map(|t| (t, sign))
            });
            match parsed {
                Some((t, sign)) => {
                    labels.push(format!(r#"{{"tuple":{t},"label":"{sign}"}}"#));
                }
                None => {
                    println!("! bad batch entry `{pair}` (want <tuple>=<+|->)");
                    return;
                }
            }
        }
        let line = format!(
            r#"{{"op":"AnswerBatch","session":{id},"labels":[{}]}}"#,
            labels.join(",")
        );
        if let Some(r) = self.request(&line) {
            println!(
                "applied {} label(s) in one pass; pruned {} tuple(s); {} informative left",
                r.get("applied").and_then(Json::as_u64).unwrap_or(0),
                r.get("pruned").and_then(Json::as_u64).unwrap_or(0),
                r.get("informative_remaining")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            );
            if r.get("resolved").and_then(Json::as_bool) == Some(true) {
                println!("resolved! inferred query:");
                if let Some(sql) = r.get("sql").and_then(Json::as_str) {
                    println!("{sql}");
                }
            }
        }
    }

    fn simple(&mut self, op: &str, extra: &str, show: &[&str]) {
        let Some(id) = self.session_id() else { return };
        let line = format!(r#"{{"op":"{op}","session":{id}{extra}}}"#);
        if let Some(r) = self.request(&line) {
            for key in show {
                if let Some(v) = r.get(key) {
                    match v.as_str() {
                        Some(s) => println!("{s}"),
                        None => println!("{key}: {v}"),
                    }
                }
            }
        }
    }

    fn run(&mut self) {
        println!("JIM — interactive join query inference (type `help`)");
        let stdin = std::io::stdin();
        loop {
            print!("jim> ");
            std::io::stdout().flush().ok();
            let mut line = String::new();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.split_first() {
                None => {}
                Some((&"help", _)) => {
                    println!("commands:");
                    println!(
                        "  open [scenario] [strategy]   flights | setgame | tpch | random | social"
                    );
                    println!("  load <l.csv> <r.csv> [strat] infer over your own data");
                    println!("  ... open/load accept max=N (enumeration cap)");
                    println!("  resume <id>                  rehydrate a journaled session");
                    println!("  ask                          next most-informative question");
                    println!("  y | n                        answer the pending question");
                    println!("  answer <tuple> <+|->         label an explicit tuple");
                    println!("  answer <t>=<+|-> ...         label a batch in one pass");
                    println!("  top <k>                      k most informative tuples");
                    println!("  stats | explain [t] | sql | transcript | sessions | close | quit");
                    println!("  metrics                      server counters & latency quantiles");
                }
                Some((&"open", rest)) => self.open(rest),
                Some((&"load", rest)) => self.load(rest),
                Some((&"resume", rest)) => self.resume(rest),
                Some((&"ask", _)) => self.ask(),
                Some((&"y", _)) => self.answer(None, '+'),
                Some((&"n", _)) => self.answer(None, '-'),
                Some((&"answer", rest)) => match rest {
                    [t, l] if l.starts_with('+') || l.starts_with('-') => match t.parse() {
                        Ok(t) => self.answer(Some(t), l.chars().next().unwrap_or('+')),
                        Err(_) => println!("! bad tuple rank `{t}`"),
                    },
                    pairs if !pairs.is_empty() && pairs.iter().all(|w| w.contains('=')) => {
                        self.answer_batch(pairs)
                    }
                    _ => println!("! usage: answer <tuple> <+|->  or  answer <t>=<+|-> ..."),
                },
                Some((&"top", rest)) => {
                    let k = rest
                        .first()
                        .and_then(|k| k.parse::<u64>().ok())
                        .unwrap_or(3);
                    let Some(id) = self.session_id() else {
                        continue;
                    };
                    let line = format!(r#"{{"op":"TopK","session":{id},"k":{k}}}"#);
                    if let Some(r) = self.request(&line) {
                        if r.get("resolved").and_then(Json::as_bool) == Some(true) {
                            self.show_question(&r);
                        } else if let Some(tuples) = r.get("tuples").and_then(Json::as_array) {
                            for t in tuples {
                                let id = t.get("tuple").and_then(Json::as_u64).unwrap_or(0);
                                let values: Vec<&str> = t
                                    .get("values")
                                    .and_then(Json::as_array)
                                    .map(|vs| vs.iter().filter_map(Json::as_str).collect())
                                    .unwrap_or_default();
                                println!("  #{id}: ({})", values.join(", "));
                            }
                            println!("label with `answer <tuple> <+|->`");
                        }
                    }
                }
                Some((&"stats", _)) => self.simple("Stats", "", &["summary"]),
                Some((&"explain", rest)) => {
                    let extra = match rest.first().and_then(|t| t.parse::<u64>().ok()) {
                        Some(t) => format!(r#","tuple":{t}"#),
                        None => String::new(),
                    };
                    self.simple("Explain", &extra, &["explanation"]);
                }
                Some((&"sql", _)) => self.simple("Sql", "", &["predicate", "sql"]),
                Some((&"transcript", _)) => self.simple("Transcript", "", &["text"]),
                Some((&"sessions", _)) => {
                    if let Some(r) = self.request(r#"{"op":"ListSessions"}"#) {
                        println!("{r}");
                    }
                }
                Some((&"metrics", _)) => {
                    if let Some(r) = self.request(r#"{"op":"Metrics"}"#) {
                        println!("{r}");
                    }
                }
                Some((&"close", _)) => {
                    if let Some(id) = self.session.take() {
                        self.request(&format!(r#"{{"op":"CloseSession","session":{id}}}"#));
                        println!("closed session {id}");
                    }
                }
                Some((&"quit" | &"exit", _)) => break,
                Some((other, _)) => println!("! unknown command `{other}` (try `help`)"),
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let conn = match args.as_slice() {
        [] => {
            println!("(no --connect given: running an in-process server)");
            Conn::Local(Handler::new(Arc::new(SessionStore::new(
                StoreConfig::default(),
            ))))
        }
        [flag, addr] if flag == "--connect" => match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let reader = match stream.try_clone() {
                    Ok(read_half) => BufReader::new(read_half),
                    Err(e) => {
                        eprintln!("jim: cannot clone TCP stream for reading: {e}");
                        std::process::exit(1);
                    }
                };
                println!("connected to {addr}");
                Conn::Tcp {
                    reader,
                    writer: stream,
                }
            }
            Err(e) => {
                eprintln!("jim: cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        },
        _ => {
            eprintln!("usage: jim [--connect HOST:PORT]");
            std::process::exit(2);
        }
    };
    Repl {
        conn,
        session: None,
        columns: Vec::new(),
    }
    .run();
}
