//! `lrp-serve` — the sharded persistent-KV service front-end.
//!
//! ```text
//! lrp-serve --bind 127.0.0.1:0 --shards 2 --port-file /tmp/serve.addr
//! lrp-serve --uds /tmp/lrp.sock --structure skiplist --mech lrp
//! ```
//!
//! Starts N shards, each owning one simulated machine and one log-free
//! structure, and serves the length-prefixed wire protocol until a
//! client sends `Shutdown` (e.g. `lrp-load --shutdown`). On shutdown it
//! emits the per-shard metrics stream (JSONL) and fails with exit 4 if
//! any durably-acked write was lost or a null-recovery check failed —
//! the service-level durability contract of the paper.

use lrp_bench::cli::{die, write_out, Cli};
use lrp_lfds::Structure;
use lrp_obs::RecorderConfig;
use lrp_serve::{Bind, Server, ServerConfig, ShardConfig};
use lrp_sim::{Mechanism, NvmMode};

const USAGE: &str = "usage:\n  \
    lrp-serve [--bind ADDR | --uds PATH] [--shards N]\n            \
    [--structure linkedlist|hashmap|bstree|skiplist] [--mech M]\n            \
    [--mode cached|uncached] [--sim-threads N] [--size N]\n            \
    [--key-range N] [--seed N] [--audit-samples N]\n            \
    [--batch-max N] [--queue-depth N]\n            \
    [--metrics-every-ms N] [--metrics-out FILE] [--port-file FILE]\n            \
    [--trace-out FILE] [--span-cap N]\n            \
    [--flight-dir DIR] [--record]\n            \
    [--clients N] [--ring N] [--no-detect]\n\n\
    defaults:\n  \
    --bind 127.0.0.1:0   (ephemeral port; the bound address goes to\n                        \
    stderr and, with --port-file, to that file)\n  \
    --shards 2     --structure hashmap   --mech lrp   --mode cached\n  \
    --sim-threads 2  --size 64   --key-range 256   --seed 1\n  \
    --audit-samples 8  --batch-max 16  --queue-depth 64\n  \
    --metrics-every-ms 250\n  \
    --batch-max N  a shard takes up to N queued requests as one batch the\n                 \
    moment it is free (no batch timer); each batch ends with\n                 \
    the mechanism's full flush, so it acks durable (nop never\n                 \
    persists and acks durable: false)\n  \
    --span-cap N       request spans each shard's log retains, drop-oldest\n                     \
    (default 65536); every answered request records its\n                     \
    wire/queue/batch/execute/persist/ack chain there\n  \
    --trace-out FILE   write the retained spans as a Chrome trace-event\n                     \
    document at shutdown (chrome://tracing or Perfetto)\n  \
    --flight-dir DIR   on every crash-restart, append the shard's crash dump\n                     \
    (header, crash line naming the in-flight ops, then\n                     \
    its span log as JSONL) to DIR/flight-shard-N.jsonl\n  \
    --record       attach the event recorder (summaries only)\n  \
    --clients N    slot-table client rows per shard (default 64); a client\n                 \
    id's row is id mod N, so keep N above the live client count\n  \
    --ring N       slots per client row (default 32); must cover a client's\n                 \
    in-flight window or recycled slots lose resolvability\n  \
    --no-detect    disable the detectable-op slot table: Resolve answers\n                 \
    not-started for every rid (at-least-once serving)\n\n\
    the server runs until a client sends Shutdown (lrp-load --shutdown)\n\n\
    exit codes:\n  \
    0  clean shutdown, durability contract held\n  \
    1  I/O error (bind, port-file, or metrics-out write)\n  \
    2  usage error (unknown flag, missing or invalid value,\n     \
    --sim-threads outside 2..=64)\n  \
    4  durability violation: a durably-acked write was lost across a\n       \
    crash-restart, or a null-recovery validation failed";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let bind_addr = cli.opt("bind");
    let uds: Option<String> = cli.opt("uds");
    let shards = cli.opt_parse("shards").unwrap_or(2usize);
    let structure_name = cli.opt("structure").unwrap_or_else(|| "hashmap".into());
    let mech_name = cli.opt("mech").unwrap_or_else(|| "lrp".into());
    let mode_name = cli.opt("mode").unwrap_or_else(|| "cached".into());
    let sim_threads = cli.opt_parse("sim-threads").unwrap_or(2u16);
    let size = cli.opt_parse("size").unwrap_or(64usize);
    let key_range = cli.opt_parse("key-range").unwrap_or(256u64);
    let seed = cli.opt_parse("seed").unwrap_or(1u64);
    let audit_samples = cli.opt_parse("audit-samples").unwrap_or(8usize);
    let batch_max = cli.opt_parse("batch-max").unwrap_or(16usize);
    let queue_depth = cli.opt_parse("queue-depth").unwrap_or(64usize);
    let metrics_every_ms = cli.opt_parse("metrics-every-ms").unwrap_or(250u64);
    let metrics_out: Option<String> = cli.opt("metrics-out");
    let port_file: Option<String> = cli.opt("port-file");
    let trace_out: Option<String> = cli.opt("trace-out");
    let span_cap = cli.opt_parse("span-cap").unwrap_or(65536usize);
    let flight_dir: Option<String> = cli.opt("flight-dir");
    let record = cli.flag("record");
    let clients: Option<u64> = cli.opt_parse("clients");
    let ring: Option<u64> = cli.opt_parse("ring");
    let no_detect = cli.flag("no-detect");
    cli.positionals(0, 0);

    let structure = Structure::from_name(&structure_name)
        .unwrap_or_else(|| cli.fail(format!("unknown structure {structure_name:?}")));
    if structure == Structure::Queue {
        cli.fail("the service layer is a KV store; --structure queue is not servable");
    }
    let mechanism = Mechanism::from_name(&mech_name)
        .unwrap_or_else(|| cli.fail(format!("unknown mechanism {mech_name:?}")));
    let mode = NvmMode::from_name(&mode_name)
        .unwrap_or_else(|| cli.fail(format!("unknown NVM mode {mode_name:?}")));
    if shards == 0 {
        cli.fail("--shards must be at least 1");
    }
    if sim_threads < 2 {
        cli.fail("--sim-threads must be at least 2 (single-threaded batches rarely persist under lazy mechanisms)");
    }
    cli.check_threads("sim-threads", &[sim_threads]);
    let uds_path = uds.clone();
    let bind = match (uds, bind_addr) {
        (Some(_), Some(_)) => cli.fail("--bind and --uds are mutually exclusive"),
        #[cfg(unix)]
        (Some(path), None) => Bind::Uds(path.into()),
        #[cfg(not(unix))]
        (Some(_), None) => cli.fail("--uds is only available on unix"),
        (None, addr) => Bind::Tcp(addr.unwrap_or_else(|| "127.0.0.1:0".into())),
    };

    let mut shard = ShardConfig::new(structure);
    shard.mechanism = mechanism;
    shard.nvm_mode = mode;
    shard.sim_threads = sim_threads;
    shard.initial_size = size;
    shard.key_range = key_range;
    shard.seed = seed;
    shard.audit_samples = audit_samples;
    if record {
        shard.recorder = Some(RecorderConfig::summaries_only());
    }
    if no_detect {
        if clients.is_some() || ring.is_some() {
            cli.fail("--no-detect conflicts with --clients/--ring");
        }
        shard.detect = None;
    } else if clients.is_some() || ring.is_some() {
        let mut spec = shard.detect.unwrap_or_default();
        if let Some(c) = clients {
            if c == 0 {
                cli.fail("--clients must be at least 1");
            }
            spec.clients = c;
        }
        if let Some(r) = ring {
            if r == 0 {
                cli.fail("--ring must be at least 1");
            }
            spec.ring = r;
        }
        shard.detect = Some(spec);
    }
    let mut cfg = ServerConfig::new(shard);
    cfg.bind = bind;
    cfg.shards = shards;
    cfg.batch_max = batch_max;
    cfg.queue_depth = queue_depth;
    cfg.metrics_every_ms = metrics_every_ms;
    cfg.spans = span_cap;
    cfg.flight_dir = flight_dir.map(Into::into);

    let server = Server::start(cfg).unwrap_or_else(|e| die(format!("cannot start server: {e}")));
    let published = match server.local_addr() {
        Some(addr) => addr.to_string(),
        None => uds_path.unwrap_or_else(|| "unix socket".into()),
    };
    eprintln!(
        "lrp-serve: {shards} shard(s) of {structure_name}/{mech_name}/{mode_name} on {published}"
    );
    if let Some(path) = &port_file {
        write_out(path, &published);
    }

    // Blocks until a client sends Shutdown.
    let report = server.join();
    if let Some(path) = &metrics_out {
        write_out(path, &report.to_jsonl());
        eprintln!("wrote shard metrics to {path}");
    }
    if let Some(path) = &trace_out {
        write_out(path, &report.chrome_trace().to_compact());
        eprintln!(
            "wrote {} span(s) to {path} ({} dropped)",
            report.spans().len(),
            report.span_dropped()
        );
    }
    let lost = report.lost_acked();
    let failures = report.recovery_failures();
    eprintln!("lrp-serve: shutdown complete (lost_acked={lost} recovery_failures={failures})");
    if lost > 0 || failures > 0 {
        std::process::exit(4);
    }
}
