#![forbid(unsafe_code)]
//! `jim-lint` — run the workspace invariant rules from the command line.
//!
//! ```text
//! cargo run -p jim-lint -- --workspace --deny all          # the CI gate
//! cargo run -p jim-lint -- --allow panics                  # triage mode
//! cargo run -p jim-lint -- --format json                   # machine-readable
//! ```
//!
//! Exit codes: 0 clean (or only allowed findings), 1 denied findings,
//! 2 usage/configuration error.

use jim_lint::{find_root, json_escape, run_all, Config, Workspace, RULES};

const USAGE: &str = "\
jim-lint: workspace static analysis (unsafe, locks, atomics, panics, wire)

USAGE:
    jim-lint [--workspace] [OPTIONS]

OPTIONS:
    --workspace          lint the whole workspace (the default; kept for clarity)
    --root <DIR>         workspace root (default: nearest [workspace] Cargo.toml)
    --allow <RULE|all>   demote a rule's findings to warnings
    --deny <RULE|all>    promote a rule's findings to errors (default for all)
    --format <text|json> output format (default text)
    --list-rules         print the rule names and exit
    -h, --help           this help
";

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut root_arg: Option<String> = None;
    let mut format = "text".to_string();
    // Rule → denied? Everything is denied until a flag says otherwise;
    // flags apply in order, so `--allow all --deny locks` means "only
    // locks is fatal".
    let mut denied: Vec<(&'static str, bool)> = RULES.iter().map(|r| (*r, true)).collect();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => match it.next() {
                Some(v) => root_arg = Some(v),
                None => return usage_error("--root needs a directory"),
            },
            "--format" => match it.next().as_deref() {
                Some("text") => format = "text".into(),
                Some("json") => format = "json".into(),
                _ => return usage_error("--format wants text or json"),
            },
            "--allow" | "--deny" => {
                let deny = arg == "--deny";
                let Some(rule) = it.next() else {
                    return usage_error(&format!("{arg} needs a rule name or `all`"));
                };
                if rule == "all" {
                    for (_, d) in denied.iter_mut() {
                        *d = deny;
                    }
                } else if let Some(entry) = denied.iter_mut().find(|(r, _)| *r == rule) {
                    entry.1 = deny;
                } else {
                    return usage_error(&format!(
                        "unknown rule `{rule}` (rules: {})",
                        RULES.join(", ")
                    ));
                }
            }
            "--list-rules" => {
                for r in RULES {
                    println!("{r}");
                }
                return 0;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }

    let root = match find_root(root_arg.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("jim-lint: {e}");
            return 2;
        }
    };
    let cfg = match Config::load(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("jim-lint: {e}");
            return 2;
        }
    };
    let ws = match Workspace::from_root(&root) {
        Ok(w) => w,
        Err(e) => {
            eprintln!(
                "jim-lint: cannot read workspace under {}: {e}",
                root.display()
            );
            return 2;
        }
    };

    let findings = run_all(&ws, &cfg);
    let is_denied = |rule: &str| denied.iter().any(|(r, d)| *r == rule && *d);
    let errors = findings.iter().filter(|f| is_denied(f.rule)).count();
    let warnings = findings.len() - errors;

    match format.as_str() {
        "json" => {
            let mut items = Vec::new();
            for f in &findings {
                items.push(format!(
                    "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"severity\":\"{}\",\
                     \"message\":\"{}\"}}",
                    f.rule,
                    json_escape(&f.file),
                    f.line,
                    if is_denied(f.rule) {
                        "error"
                    } else {
                        "warning"
                    },
                    json_escape(&f.message)
                ));
            }
            println!(
                "{{\"findings\":[{}],\"errors\":{errors},\"warnings\":{warnings},\
                 \"files_scanned\":{}}}",
                items.join(","),
                ws.files.len()
            );
        }
        _ => {
            for f in &findings {
                let sev = if is_denied(f.rule) {
                    "error"
                } else {
                    "warning"
                };
                println!("{sev}: {}", f.render());
            }
            println!(
                "jim-lint: {} file(s) scanned, {errors} error(s), {warnings} warning(s)",
                ws.files.len()
            );
        }
    }
    if errors > 0 {
        1
    } else {
        0
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("jim-lint: {msg}\n\n{USAGE}");
    2
}
