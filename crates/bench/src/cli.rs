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
//! The three matrix commands (`lrp-campaign`, `lrp-bench host`,
//! `lrp-check`) read one [`MatrixSpec`] through one set of axis flags,
//! [`Cli::matrix`], each over its own default matrix; `--smoke` and
//! `--paper` pick a preset tier ([`Cli::tier`]).
//!
//! The module also holds the bodies the binaries share: stdout writes
//! that end the process quietly once the reader has gone
//! ([`write_stdout`], behind the [`out!`](crate::out) and
//! [`outln!`](crate::outln) macros), JSON file I/O that exits 1 on
//! failure ([`load_json`], [`write_out`]), trace-file loading that
//! exits 1 on a trace the simulator cannot replay
//! ([`load_replayable`]) and the unhealthy-cell report
//! ([`report_unhealthy`]).

use lrp_campaign::{CellRecord, MatrixSpec};
use lrp_model::{codec, Trace};
use lrp_obs::Json;
use lrp_sim::{Mechanism, SimConfig};
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

    /// The preset matrix `--smoke` or `--paper` selects (mutually
    /// exclusive), else the default campaign.
    pub fn tier(&mut self) -> MatrixSpec {
        match (self.flag("paper"), self.flag("smoke")) {
            (true, true) => self.fail("--paper and --smoke are mutually exclusive"),
            (true, false) => MatrixSpec::paper(),
            (false, true) => MatrixSpec::smoke(),
            (false, false) => MatrixSpec::default_campaign(),
        }
    }

    /// `default` with the axes the matrix flags give replaced:
    /// `--structures --mechs --modes --threads --seeds` (comma-separated
    /// lists), `--size N` and `--ops N`. Exits 2 unless the simulator
    /// can replay every cell's workload.
    pub fn matrix(&mut self, default: MatrixSpec) -> MatrixSpec {
        let mut m = default;
        if let Some(v) = self.opt_list("structures") {
            m.structures = v;
        }
        if let Some(v) = self.opt_list("mechs") {
            m.mechanisms = v;
        }
        if let Some(v) = self.opt_list("modes") {
            m.modes = v;
        }
        if let Some(v) = self.opt_list("threads") {
            m.threads = v;
        }
        if let Some(v) = self.opt_list("seeds") {
            m.seeds = v;
        }
        if let Some(v) = self.opt_parse("size") {
            m.initial_size = v;
        }
        if let Some(v) = self.opt_parse("ops") {
            m.ops_per_thread = v;
        }
        self.check_workload(&m.threads, m.ops_per_thread);
        m
    }

    /// `--workers N`, at least 1, else `default`.
    pub fn workers(&mut self, default: usize) -> usize {
        match self.opt_parse("workers") {
            Some(0) => self.fail("--workers must be at least 1"),
            Some(w) => w,
            None => default,
        }
    }

    /// Extracts the command word that must lead the arguments
    /// (`lrp-bench host …`), so each command parses only its own flags.
    pub fn command(&mut self) -> String {
        match self.args.first() {
            Some(a) if !a.starts_with('-') => self.args.remove(0),
            _ => self.fail("expected a command"),
        }
    }

    /// Exits 2 unless every `threads` count fits the simulated machine
    /// (one worker per core) and `ops_per_thread` is at least 1.
    pub fn check_workload(&self, threads: &[u16], ops_per_thread: usize) {
        self.check_threads("threads", threads);
        self.check_ops(ops_per_thread);
    }

    /// Exits 2 unless `ops_per_thread` is at least 1.
    pub fn check_ops(&self, ops_per_thread: usize) {
        if ops_per_thread == 0 {
            self.fail("--ops must be at least 1");
        }
    }

    /// Exits 2 unless every count given by `--flag` is between 1 and the
    /// simulated machine's cores (one worker per core).
    pub fn check_threads(&self, flag: &str, threads: &[u16]) {
        let cores = machine_cores();
        if let Some(t) = threads.iter().find(|&&t| t == 0 || t as usize > cores) {
            self.fail(format!("--{flag} {t} is outside 1..={cores}, one per core"));
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

/// Cores of the simulated machine: the most worker threads a trace may
/// have (one per core).
fn machine_cores() -> usize {
    SimConfig::new(Mechanism::Lrp).mesh_dim.pow(2)
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

/// Reads and parses a trace file in the `lrp_model::codec` text format;
/// exits 1 with a message on failure.
pub fn load_trace(path: &str) -> Trace {
    codec::from_text(&read_text(path)).unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")))
}

/// [`load_trace`], then exits 1 with a one-line message unless the
/// simulator can replay the trace: it must be well-formed and have no
/// more threads than the machine has cores.
pub fn load_replayable(path: &str) -> Trace {
    let trace = load_trace(path);
    if let Err(e) = trace.validate() {
        die(format!("cannot replay {path}: {e}"));
    }
    let cores = machine_cores();
    if trace.nthreads as usize > cores {
        die(format!(
            "cannot replay {path}: {} threads, but the machine has {cores} cores",
            trace.nthreads
        ));
    }
    trace
}

/// Reads and parses a JSON document; exits 1 with a message on failure.
pub fn load_json(path: &str) -> Json {
    Json::parse(&read_text(path)).unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")))
}

/// Writes `text` to `path`; exits 1 with a message on failure.
pub fn write_out(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
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
