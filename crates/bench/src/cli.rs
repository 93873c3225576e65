//! Shared command-line parsing for the workspace binaries.
//!
//! The workspace builds fully offline (no `clap`), so the binaries used
//! to hand-roll their own `while i < args.len()` loops — each with
//! slightly different error behaviour. This module centralises that:
//! every binary gets `--help` (usage to stdout, exit 0), `--flag value`
//! and `--flag=value` forms, and a uniform exit code 2 with usage on
//! stderr for unknown flags, missing values, or unparseable values.
//!
//! Usage pattern: construct a [`Cli`], *extract* every flag the command
//! understands (each call removes the flag from the argument list), then
//! call [`Cli::positionals`] — anything left that still looks like a
//! flag is an error.
//!
//! The module also holds the bodies the binaries share: stdout writes
//! that end the process quietly once the reader has gone
//! ([`write_stdout`], behind the [`out!`](crate::out) and
//! [`outln!`](crate::outln) macros), JSON file I/O that exits 1 on
//! failure ([`load_json`], [`write_out`]), the gate
//! subcommand ([`gate_command`]), the instrumented-run report
//! ([`report_run`]) and the unhealthy-cell report
//! ([`report_unhealthy`]).

use crate::gate::{render_gate, GateVerdict};
use lrp_campaign::CellRecord;
use lrp_obs::{chrome, metrics, AuditCounter, CritSegKind, Json};
use lrp_sim::{Mechanism, RunResult, SimConfig};
use std::fmt::Display;
use std::io::Write as _;
use std::str::FromStr;

/// Writes to stdout. `print!` panics when the reader has gone (as in
/// `lrp-trace info t.trace | head`); this ends the process quietly
/// with status 0 instead, the way a pipeline's producer should. Any
/// other write error exits 1 with a message.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// An argument list being destructively matched against known flags.
pub struct Cli {
    usage: String,
    args: Vec<String>,
}

impl Cli {
    /// Captures the process arguments. Prints `usage` and exits 0 if
    /// `--help`/`-h` appears anywhere.
    pub fn from_env(usage: &str) -> Cli {
        Cli::from_args(usage, std::env::args().skip(1).collect())
    }

    /// As [`Cli::from_env`] but over an explicit argument list
    /// (subcommand tails, tests).
    pub fn from_args(usage: &str, args: Vec<String>) -> Cli {
        let cli = Cli {
            usage: usage.to_string(),
            args,
        };
        if cli.args.iter().any(|a| a == "--help" || a == "-h") {
            outln!("{}", cli.usage);
            std::process::exit(0);
        }
        cli
    }

    /// Reports a usage error and exits with code 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("error: {msg}");
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }

    /// Extracts a boolean `--name` flag.
    pub fn flag(&mut self, name: &str) -> bool {
        let key = format!("--{name}");
        if let Some(i) = self.args.iter().position(|a| *a == key) {
            self.args.remove(i);
            true
        } else {
            false
        }
    }

    /// Extracts `--name VALUE` or `--name=VALUE`. Exits 2 when the flag
    /// is present without a value.
    pub fn opt(&mut self, name: &str) -> Option<String> {
        let key = format!("--{name}");
        let eq = format!("--{name}=");
        let i = self
            .args
            .iter()
            .position(|a| *a == key || a.starts_with(&eq))?;
        let arg = self.args.remove(i);
        if let Some(v) = arg.strip_prefix(&eq) {
            return Some(v.to_string());
        }
        if i < self.args.len() && !self.args[i].starts_with("--") {
            return Some(self.args.remove(i));
        }
        self.fail(format!("flag --{name} needs a value"))
    }

    /// Extracts and parses `--name VALUE`. Exits 2 on a value `T` can't
    /// parse.
    pub fn opt_parse<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let raw = self.opt(name)?;
        match raw.parse() {
            Ok(v) => Some(v),
            Err(_) => self.fail(format!("invalid value {raw:?} for --{name}")),
        }
    }

    /// Extracts and parses a comma-separated `--name a,b,c` list. Exits
    /// 2 on any unparseable element or an empty list.
    pub fn opt_list<T: FromStr>(&mut self, name: &str) -> Option<Vec<T>> {
        let raw = self.opt(name)?;
        let mut out = Vec::new();
        for part in raw.split(',') {
            match part.trim().parse() {
                Ok(v) => out.push(v),
                Err(_) => self.fail(format!("invalid element {part:?} in --{name}")),
            }
        }
        if out.is_empty() {
            self.fail(format!("--{name} needs at least one element"));
        }
        Some(out)
    }

    /// Exits 2 unless every `threads` count fits the simulated machine
    /// (one worker per core) and `ops_per_thread` is at least 1.
    pub fn check_workload(&self, threads: &[u16], ops_per_thread: usize) {
        let cores = SimConfig::new(Mechanism::Lrp).mesh_dim.pow(2);
        if let Some(t) = threads.iter().find(|&&t| t == 0 || t as usize > cores) {
            self.fail(format!(
                "--threads {t} is outside 1..={cores}, one per core"
            ));
        }
        if ops_per_thread == 0 {
            self.fail("--ops must be at least 1");
        }
    }

    /// Consumes the remaining arguments as positionals. Exits 2 if any
    /// unextracted flag remains or the count is outside
    /// `[min, max]` (`max = usize::MAX` for unbounded).
    pub fn positionals(&mut self, min: usize, max: usize) -> Vec<String> {
        if let Some(bad) = self.args.iter().find(|a| a.starts_with("--")) {
            self.fail(format!("unknown flag {bad}"));
        }
        if self.args.len() < min || self.args.len() > max {
            self.fail(match (min, max) {
                (0, 0) => "unexpected positional arguments".to_string(),
                (a, b) if a == b => format!("expected {a} positional argument(s)"),
                (a, _) => format!("expected at least {a} positional argument(s)"),
            });
        }
        std::mem::take(&mut self.args)
    }
}

/// Prints `msg` to stderr and exits 1 (I/O, parse or run failure).
pub fn die(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Reads a text file; exits 1 with a message on failure.
pub fn read_text(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")))
}

/// Reads and parses a JSON document; exits 1 with a message on failure.
pub fn load_json(path: &str) -> Json {
    Json::parse(&read_text(path)).unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")))
}

/// Writes `text` to `path`; exits 1 with a message on failure.
pub fn write_out(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
}

/// The body of every gate subcommand: reads the `--baseline` and
/// `--current` documents, gates them, writes the verdict's `doc` to
/// `json_out`, prints `preamble`'s output and the verdict, and exits 1
/// on a regression or a bad document. `what` names the verdict in
/// progress messages.
pub fn gate_command(
    cli: &Cli,
    what: &str,
    paths: (Option<&str>, Option<&str>),
    json_out: Option<&str>,
    gate: impl FnOnce(&Json, &Json) -> Result<GateVerdict, String>,
    doc: impl FnOnce(&GateVerdict) -> Json,
    preamble: impl FnOnce(&Json, &Json) -> String,
) {
    let (Some(base_path), Some(cur_path)) = paths else {
        cli.fail(format!("{what} needs --baseline and --current"))
    };
    let (base, cur) = (load_json(base_path), load_json(cur_path));
    let verdict = gate(&base, &cur).unwrap_or_else(|e| die(e));
    if let Some(out) = json_out {
        write_out(out, &doc(&verdict).to_pretty());
        eprintln!("wrote {what} verdict to {out}");
    }
    out!("{}", preamble(&base, &cur));
    out!("{}", render_gate(&verdict));
    if !verdict.pass() {
        std::process::exit(1);
    }
}

/// Prints each failed, timed-out or RP/recovery-unhealthy cell of a
/// campaign to stderr; true when there was one (the caller exits 3).
pub fn report_unhealthy(records: &[CellRecord]) -> bool {
    let mut unhealthy = false;
    for r in records {
        if let Some(why) = r.problem() {
            let s = &r.spec;
            eprintln!(
                "cell {} ({}, {} entries) {why}",
                s.index,
                s.id(),
                s.initial_size
            );
            unhealthy = true;
        }
    }
    unhealthy
}

/// Reports one simulator run: the stat dump, then — when a recorder was
/// attached — the observability section (event ring, histograms, I1–I4
/// audit, durability critical path), one warning if the event ring
/// dropped, and the requested Chrome trace / JSONL metrics exports.
/// Returns the exit status: 3 when any I1–I4 or C1–C2 violation was
/// observed, else 0.
pub fn report_run(
    title: &str,
    r: &RunResult,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> i32 {
    out!("{}", lrp_sim::report::render(title, r));
    let Some(obs) = r.obs.as_ref() else { return 0 };
    outln!("-- observability --");
    outln!(
        "events captured        {:>12} (dropped {})",
        obs.events.len(),
        obs.dropped
    );
    let deduped = metrics::warn_ring_drops("event", obs.dropped);
    if deduped > 0 {
        eprintln!("  ({deduped} further drop warnings deduplicated)");
    }
    outln!("sample intervals       {:>12}", obs.intervals.len());
    outln!("ret high water         {:>12}", obs.ret_high_water);
    for (name, hist) in metrics::hist_rows(obs) {
        if hist.is_empty() {
            outln!("  {name:<20} (no samples)");
        } else {
            outln!(
                "  {:<20} n={} mean={:.1} p50={} p99={} max={}",
                name,
                hist.count,
                hist.mean(),
                hist.percentile(0.5),
                hist.percentile(0.99),
                hist.max()
            );
        }
    }
    let print_audit = |rows: &[(&str, AuditCounter)]| {
        for (name, c) in rows {
            outln!(
                "  {name:<20} checks={:<8} violations={}",
                c.checks,
                c.violations
            );
        }
    };
    outln!("-- invariant audit (I1-I4) --");
    print_audit(&obs.audit.rows());
    let crit = &obs.crit;
    outln!("-- durability critical path --");
    outln!(
        "  paths traced         {:>12} ({} cycles, longest {})",
        crit.paths(),
        crit.total_cycles(),
        crit.max_path
    );
    let shares = crit.shares();
    for kind in CritSegKind::ALL {
        let k = kind.idx();
        if crit.seg_counts[k] > 0 {
            outln!(
                "  {:<20} n={:<6} cycles={:<10} share={:.1}%",
                kind.name(),
                crit.seg_counts[k],
                crit.seg_cycles[k],
                shares[k] * 100.0
            );
        }
    }
    print_audit(&crit.audit.rows());
    if let Some(path) = trace_out {
        write_out(path, &chrome::export(obs));
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = metrics_out {
        write_out(path, &metrics::export_jsonl(obs, &r.stats));
        eprintln!("wrote JSONL metrics to {path}");
    }
    let (audit, crit) = (obs.audit.total_violations(), crit.audit.total_violations());
    if audit + crit == 0 {
        return 0;
    }
    eprintln!(
        "WARNING: {} invariant violations observed ({audit} I1-I4, {crit} critpath C1-C2)",
        audit + crit
    );
    3
}
