#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Implementation of the `synapse` command-line tool.
//!
//! The paper ships "a set of command line tools which are wrappers
//! around certain configurations and combinations of the profile and
//! emulate methods" (§4). This crate provides the same; [`USAGE`] is
//! the command reference.
//!
//! The `campaign` subcommand is the scenario-sweep frontend: a
//! declarative spec expands into the cartesian product of its axes and
//! runs through [`synapse_campaign`] with memoized results. `serve`
//! turns the same engine into a long-running daemon
//! ([`synapse_server`]); the `submit`/`watch`/`status`/`cancel`
//! actions are its HTTP client.

use std::error::Error;
use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;
use std::str::FromStr;

use serde_json::Value;
use synapse::config::ProfilerConfig;
use synapse::emulator::{EmulationPlan, KernelChoice};
use synapse_model::{metrics, Tags};
use synapse_server::{Client, ServerError};
use synapse_store::{FileStore, ProfileStore};

/// Parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Invocation {
    /// Profile a command.
    Profile {
        /// The command to run and observe.
        command: String,
        /// Tags for the profile key.
        tags: Tags,
        /// Sampling rate in Hz.
        rate: f64,
        /// Profile store directory.
        store: PathBuf,
    },
    /// Emulate a profiled command.
    Emulate {
        /// The command whose profile to replay.
        command: String,
        /// Tags to match.
        tags: Tags,
        /// Kernel name (asm | c | spin).
        kernel: String,
        /// Worker width (threads or processes, depending on mode).
        threads: u32,
        /// Parallel mode (openmp | mpi).
        mode: String,
        /// Write block size in bytes.
        write_block: u64,
        /// Profile store directory.
        store: PathBuf,
    },
    /// Internal: consume a cycle budget as an MPI-analogue worker
    /// process (spawned by the emulator, not by users).
    Worker {
        /// Kernel name.
        kernel: String,
        /// Cycles to consume.
        cycles: u64,
    },
    /// Print statistics over stored profiles of a command.
    Stats {
        /// Command to look up.
        command: String,
        /// Tags to match.
        tags: Tags,
        /// Profile store directory.
        store: PathBuf,
    },
    /// Dump the representative profile of a command.
    Inspect {
        /// Command to look up.
        command: String,
        /// Tags to match.
        tags: Tags,
        /// Profile store directory.
        store: PathBuf,
    },
    /// Run a scenario-sweep campaign from a declarative spec.
    CampaignRun {
        /// Path to the TOML/JSON campaign spec.
        spec: PathBuf,
        /// Result-cache directory (memoization across runs).
        cache: PathBuf,
        /// Worker threads (0 = auto).
        workers: usize,
        /// Optional JSON report output path.
        json_out: Option<PathBuf>,
        /// Optional CSV report output path.
        csv_out: Option<PathBuf>,
        /// Optional machine-readable run-summary output path (cache
        /// hit rate, throughput) for scripts and CI.
        summary_json: Option<PathBuf>,
        /// Print a per-stage wall-time and per-point latency
        /// breakdown after the run summary.
        timings: bool,
        /// Optional flight-recorder trace output path (versioned
        /// `.jsonl` causal event stream; see `docs/TRACE.md`).
        record: Option<PathBuf>,
    },
    /// Show what a campaign spec expands into without running it.
    CampaignPlan {
        /// Path to the TOML/JSON campaign spec.
        spec: PathBuf,
    },
    /// Replay a recorded trace through the observer seam without
    /// simulating, validating the causal stream.
    CampaignReplay {
        /// Path to a recorded `.jsonl` trace.
        trace: PathBuf,
        /// Collect divergences into an audit summary instead of
        /// failing on the first one (`--lenient`).
        lenient: bool,
        /// Optional reconstructed-report output path (`.csv` writes
        /// CSV, anything else the pretty JSON report).
        report: Option<PathBuf>,
    },
    /// Print a recorded trace's provenance, per-stage walls, and
    /// per-worker lease timelines.
    CampaignTraceSummary {
        /// Path to a recorded `.jsonl` trace.
        trace: PathBuf,
    },
    /// Run the long-lived campaign server (`synapse serve`).
    Serve(ServeOptions),
    /// Run a cluster coordinator: a serve process that fans
    /// `--cluster` submissions out over registered workers.
    ClusterStart {
        /// The coordinator's own serve options.
        serve: ServeOptions,
        /// Worker serve addresses registered at startup.
        worker_addrs: Vec<String>,
    },
    /// Register a worker with a running coordinator.
    ClusterAddWorker {
        /// The worker's serve address (`host:port`).
        worker: String,
        /// Coordinator address.
        server: String,
    },
    /// Print a coordinator's worker-registry status document.
    ClusterStatus {
        /// Coordinator address.
        server: String,
    },
    /// Submit a spec to a running server, optionally streaming events.
    CampaignSubmit {
        /// Path to the TOML/JSON campaign spec.
        spec: PathBuf,
        /// Server address (`host:port`).
        server: String,
        /// Follow the job's NDJSON event stream until it ends.
        watch: bool,
        /// Fan out across the coordinator's registered workers.
        cluster: bool,
        /// Ask the server to flight-record the job (`?record=1`);
        /// fetch the sealed trace with `GET /campaigns/<id>/trace`.
        record: bool,
    },
    /// Stream a submitted job's NDJSON events until it ends.
    CampaignWatch {
        /// Job id (`j1`, ...).
        id: String,
        /// Server address.
        server: String,
        /// Follow the aggregate ring (`?aggregates=1`): lifecycle +
        /// snapshot deltas only, no per-point lines.
        aggregates: bool,
    },
    /// Print a job's live aggregate view (answerable mid-sweep).
    CampaignAggregates {
        /// Job id.
        id: String,
        /// Server address.
        server: String,
        /// Restrict the slice table to one report axis.
        axis: Option<String>,
        /// Restrict per-slice stats to one metric.
        metric: Option<String>,
        /// Emit the raw JSON document instead of the table.
        json: bool,
    },
    /// Print a job's status document (or all jobs without an id).
    CampaignStatus {
        /// Job id; `None` lists every job.
        id: Option<String>,
        /// Server address.
        server: String,
    },
    /// Request cooperative cancellation of a submitted job.
    CampaignCancel {
        /// Job id.
        id: String,
        /// Server address.
        server: String,
    },
    /// Print shape and size of a campaign result cache.
    CampaignCacheStats {
        /// Result-cache directory.
        cache: PathBuf,
    },
    /// Merge small shard files of a campaign result cache.
    CampaignCacheCompact {
        /// Result-cache directory.
        cache: PathBuf,
    },
    /// Print the Table 1 metric registry.
    Table1,
    /// List the built-in machine models.
    Machines,
    /// Print usage.
    Help,
}

/// The options `serve` and `cluster start` share.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Bind address (`host:port`).
    pub addr: String,
    /// Result-cache directory shared by every job.
    pub cache: PathBuf,
    /// Concurrent jobs (queue workers).
    pub queue_workers: usize,
    /// Worker threads per job's sweep (0 = auto).
    pub workers: usize,
    /// Concurrent-connection cap (0 = unlimited).
    pub max_connections: usize,
    /// Handler-pool threads behind the epoll reactor (0 = default).
    pub reactor_threads: usize,
}

/// Default profile store location.
pub fn default_store() -> PathBuf {
    std::env::temp_dir().join("synapse-profiles")
}

/// Default campaign result-cache location.
pub fn default_campaign_cache() -> PathBuf {
    std::env::temp_dir().join("synapse-campaign-cache")
}

/// Default `synapse serve` address client subcommands talk to.
pub const DEFAULT_SERVER_ADDR: &str = "127.0.0.1:8787";

/// One subcommand's arguments, scanned against its flag table.
struct Scan {
    /// Subcommand name, for error messages (`campaign run`).
    name: String,
    /// What the positional argument is, for error messages.
    noun: &'static str,
    /// Flags in argv order, with their values (`None` for switches).
    flags: Vec<(&'static str, Option<String>)>,
    /// The one positional argument, if given.
    positional: Option<String>,
}

/// Scan `args` against one subcommand's flag table: `values` take the
/// next argument, `switches` stand alone, and `noun` names the single
/// positional argument (`None`: the subcommand takes none). Every
/// subcommand parses through here, so a flag another subcommand owns
/// is rejected like a misspelt one.
fn scan(
    name: &str,
    args: &[String],
    values: &[&'static str],
    switches: &[&'static str],
    noun: Option<&'static str>,
) -> Result<Scan, String> {
    let mut scan = Scan {
        name: name.to_string(),
        noun: noun.unwrap_or_default(),
        flags: Vec::new(),
        positional: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if let Some(&flag) = values.iter().find(|&&f| f == arg) {
            let value = args
                .next()
                .ok_or_else(|| format!("missing value after {arg}"))?;
            scan.flags.push((flag, Some(value.clone())));
        } else if let Some(&flag) = switches.iter().find(|&&f| f == arg) {
            scan.flags.push((flag, None));
        } else if arg.starts_with("--") {
            return Err(format!("unknown {name} flag {arg}"));
        } else if noun.is_none() {
            return Err(format!("{name} takes no positional argument ({arg:?})"));
        } else if scan.positional.is_some() {
            return Err(format!(
                "unexpected positional argument {arg:?} ({name} takes one {})",
                scan.noun
            ));
        } else {
            scan.positional = Some(arg.clone());
        }
    }
    Ok(scan)
}

impl Scan {
    /// Every value given for `flag`, in argv order.
    fn values(&self, flag: &str) -> Vec<String> {
        let given = self.flags.iter().filter(|(f, _)| *f == flag);
        given.filter_map(|(_, value)| value.clone()).collect()
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<String> {
        self.values(flag).pop()
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`, as a path.
    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// `flag`'s last value as a number (`default` when absent); every
    /// value given must parse.
    fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        let mut n = default;
        for value in self.values(flag) {
            n = value.parse().map_err(|e| format!("{flag}: {e}"))?;
        }
        Ok(n)
    }

    /// The positional argument, which this subcommand requires.
    fn required(&self) -> Result<String, String> {
        let missing = || format!("{} requires a {}", self.name, self.noun);
        self.positional.clone().ok_or_else(missing)
    }

    fn tags(&self) -> Tags {
        self.value("--tags")
            .map_or_else(Tags::new, |tags| Tags::parse(&tags))
    }

    fn store(&self) -> PathBuf {
        self.path("--store").unwrap_or_else(default_store)
    }

    fn cache(&self) -> PathBuf {
        self.path("--cache").unwrap_or_else(default_campaign_cache)
    }

    fn server(&self) -> String {
        let server = self.value("--server");
        server.unwrap_or_else(|| DEFAULT_SERVER_ADDR.to_string())
    }

    fn serve_options(&self) -> Result<ServeOptions, String> {
        let options = ServeOptions {
            addr: self
                .value("--addr")
                .unwrap_or_else(|| DEFAULT_SERVER_ADDR.to_string()),
            cache: self.cache(),
            queue_workers: self.num("--queue-workers", 2)?,
            workers: self.num("--workers", 0)?,
            max_connections: self
                .num("--max-connections", synapse_server::DEFAULT_MAX_CONNECTIONS)?,
            reactor_threads: self.num("--reactor-threads", 0)?,
        };
        if options.queue_workers == 0 {
            return Err("--queue-workers must be at least 1".into());
        }
        Ok(options)
    }
}

/// The value flags `serve` takes; `cluster start` adds `--worker`.
const SERVE_FLAGS: [&str; 6] = [
    "--addr",
    "--cache",
    "--queue-workers",
    "--workers",
    "--max-connections",
    "--reactor-threads",
];

const COMMAND: Option<&str> = Some("quoted command");
const SPEC: Option<&str> = Some("spec file");
const TRACE: Option<&str> = Some("trace file");
const JOB: Option<&str> = Some("job id");

const CAMPAIGN_ACTIONS: &str =
    "run | plan | replay | trace-summary | submit | watch | status | cancel | aggregates | cache";

/// Parse the `cluster <action>` argument forms.
fn parse_cluster_args(args: &[String]) -> Result<Invocation, String> {
    let action = args
        .first()
        .ok_or("cluster requires an action (start | add-worker | status)")?;
    let (name, rest) = (format!("cluster {action}"), &args[1..]);
    Ok(match action.as_str() {
        "start" => {
            let values = [SERVE_FLAGS.as_slice(), &["--worker"]].concat();
            let s = scan(&name, rest, &values, &[], None)?;
            Invocation::ClusterStart {
                serve: s.serve_options()?,
                worker_addrs: s.values("--worker"),
            }
        }
        "add-worker" => {
            let s = scan(&name, rest, &["--server"], &[], Some("worker address"))?;
            Invocation::ClusterAddWorker {
                worker: s.required()?,
                server: s.server(),
            }
        }
        "status" => Invocation::ClusterStatus {
            server: scan(&name, rest, &["--server"], &[], None)?.server(),
        },
        other => {
            return Err(format!(
                "unknown cluster action {other} (start | add-worker | status)"
            ))
        }
    })
}

/// Parse the `campaign <action>` argument forms.
fn parse_campaign_args(args: &[String]) -> Result<Invocation, String> {
    let action = args
        .first()
        .ok_or_else(|| format!("campaign requires an action ({CAMPAIGN_ACTIONS})"))?;
    let (name, rest) = (format!("campaign {action}"), &args[1..]);
    Ok(match action.as_str() {
        "run" => {
            let values = [
                "--cache",
                "--workers",
                "--json",
                "--csv",
                "--summary-json",
                "--record",
            ];
            let s = scan(&name, rest, &values, &["--timings"], SPEC)?;
            Invocation::CampaignRun {
                spec: s.required()?.into(),
                cache: s.cache(),
                workers: s.num("--workers", 0)?,
                json_out: s.path("--json"),
                csv_out: s.path("--csv"),
                summary_json: s.path("--summary-json"),
                timings: s.has("--timings"),
                record: s.path("--record"),
            }
        }
        "plan" => Invocation::CampaignPlan {
            spec: scan(&name, rest, &[], &[], SPEC)?.required()?.into(),
        },
        "replay" => {
            let s = scan(
                &name,
                rest,
                &["--report"],
                &["--strict", "--lenient"],
                TRACE,
            )?;
            // `--strict` and `--lenient` override each other; the last wins.
            let lenient = s.flags.iter().rev().find_map(|(flag, _)| match *flag {
                "--lenient" => Some(true),
                "--strict" => Some(false),
                _ => None,
            });
            Invocation::CampaignReplay {
                trace: s.required()?.into(),
                lenient: lenient.unwrap_or(false),
                report: s.path("--report"),
            }
        }
        "trace-summary" => Invocation::CampaignTraceSummary {
            trace: scan(&name, rest, &[], &[], TRACE)?.required()?.into(),
        },
        "cache" => {
            let sub = rest
                .first()
                .ok_or("campaign cache requires an action (stats | compact)")?;
            let s = scan(
                &format!("{name} {sub}"),
                &rest[1..],
                &["--cache"],
                &[],
                None,
            )?;
            match sub.as_str() {
                "stats" => Invocation::CampaignCacheStats { cache: s.cache() },
                "compact" => Invocation::CampaignCacheCompact { cache: s.cache() },
                other => {
                    return Err(format!(
                        "unknown campaign cache action {other} (stats | compact)"
                    ))
                }
            }
        }
        "submit" => {
            let switches = ["--watch", "--cluster", "--record"];
            let s = scan(&name, rest, &["--server"], &switches, SPEC)?;
            Invocation::CampaignSubmit {
                spec: s.required()?.into(),
                server: s.server(),
                watch: s.has("--watch"),
                cluster: s.has("--cluster"),
                record: s.has("--record"),
            }
        }
        "watch" => {
            let s = scan(&name, rest, &["--server"], &["--aggregates"], JOB)?;
            Invocation::CampaignWatch {
                id: s.required()?,
                server: s.server(),
                aggregates: s.has("--aggregates"),
            }
        }
        "aggregates" => {
            let values = ["--server", "--axis", "--metric"];
            let s = scan(&name, rest, &values, &["--json"], JOB)?;
            Invocation::CampaignAggregates {
                id: s.required()?,
                server: s.server(),
                axis: s.value("--axis"),
                metric: s.value("--metric"),
                json: s.has("--json"),
            }
        }
        "status" => {
            let s = scan(&name, rest, &["--server"], &[], JOB)?;
            Invocation::CampaignStatus {
                server: s.server(),
                id: s.positional,
            }
        }
        "cancel" => {
            let s = scan(&name, rest, &["--server"], &[], JOB)?;
            Invocation::CampaignCancel {
                id: s.required()?,
                server: s.server(),
            }
        }
        other => {
            return Err(format!(
                "unknown campaign action {other} ({CAMPAIGN_ACTIONS})"
            ))
        }
    })
}

/// Parse CLI arguments (without the binary name).
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let Some(sub) = args.first() else {
        return Ok(Invocation::Help);
    };
    let rest = &args[1..];
    Ok(match sub.as_str() {
        "campaign" => return parse_campaign_args(rest),
        "cluster" => return parse_cluster_args(rest),
        "serve" => Invocation::Serve(scan(sub, rest, &SERVE_FLAGS, &[], None)?.serve_options()?),
        "profile" => {
            let s = scan(sub, rest, &["--tags", "--rate", "--store"], &[], COMMAND)?;
            Invocation::Profile {
                command: s.required()?,
                tags: s.tags(),
                rate: s.num("--rate", 10.0)?,
                store: s.store(),
            }
        }
        "emulate" => {
            let values = [
                "--tags",
                "--kernel",
                "--threads",
                "--mode",
                "--write-block",
                "--store",
            ];
            let s = scan(sub, rest, &values, &[], COMMAND)?;
            Invocation::Emulate {
                command: s.required()?,
                tags: s.tags(),
                kernel: s.value("--kernel").unwrap_or_else(|| "asm".into()),
                threads: s.num("--threads", 1)?,
                mode: s.value("--mode").unwrap_or_else(|| "openmp".into()),
                write_block: s.num("--write-block", 1 << 20)?,
                store: s.store(),
            }
        }
        "worker" => {
            let s = scan(sub, rest, &["--kernel", "--cycles"], &[], None)?;
            Invocation::Worker {
                kernel: s.value("--kernel").unwrap_or_else(|| "asm".into()),
                cycles: s.num("--cycles", 0)?,
            }
        }
        "stats" | "inspect" => {
            let s = scan(sub, rest, &["--tags", "--store"], &[], COMMAND)?;
            let (command, tags, store) = (s.required()?, s.tags(), s.store());
            if sub == "stats" {
                Invocation::Stats {
                    command,
                    tags,
                    store,
                }
            } else {
                Invocation::Inspect {
                    command,
                    tags,
                    store,
                }
            }
        }
        "table1" | "machines" | "help" | "--help" | "-h" => {
            scan(sub, rest, &[], &[], None)?;
            match sub.as_str() {
                "table1" => Invocation::Table1,
                "machines" => Invocation::Machines,
                _ => Invocation::Help,
            }
        }
        other => return Err(format!("unknown subcommand {other}")),
    })
}

/// Resolve a kernel name to a [`KernelChoice`].
pub fn kernel_by_name(name: &str) -> Result<KernelChoice, String> {
    match name.to_ascii_lowercase().as_str() {
        "asm" => Ok(KernelChoice::Asm),
        "c" => Ok(KernelChoice::C),
        "spin" => Ok(KernelChoice::Spin),
        other => Err(format!("unknown kernel {other} (asm | c | spin)")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
synapse — synthetic application profiler and emulator

USAGE:
  synapse profile  \"<command>\" [--tags k=v,...] [--rate HZ] [--store DIR]
  synapse emulate  \"<command>\" [--tags k=v,...] [--kernel asm|c|spin]
                   [--threads N] [--mode openmp|mpi] [--write-block BYTES]
                   [--store DIR]
  synapse stats    \"<command>\" [--tags k=v,...] [--store DIR]
  synapse inspect  \"<command>\" [--tags k=v,...] [--store DIR]
  synapse campaign run  <spec.toml|json> [--cache DIR] [--workers N]
                   [--json PATH] [--csv PATH] [--summary-json PATH] [--timings]
                   [--record PATH]
  synapse campaign plan <spec.toml|json>
  synapse campaign replay <trace.jsonl> [--strict|--lenient] [--report PATH]
  synapse campaign trace-summary <trace.jsonl>
  synapse campaign cache stats|compact [--cache DIR]
  synapse serve    [--addr HOST:PORT] [--cache DIR] [--queue-workers N]
                   [--workers N] [--max-connections N] [--reactor-threads N]
  synapse cluster start [--addr HOST:PORT] [--cache DIR] [--worker ADDR]...
                   [--queue-workers N] [--workers N] [--max-connections N]
                   [--reactor-threads N]
  synapse cluster add-worker <ADDR> [--server HOST:PORT]
  synapse cluster status [--server HOST:PORT]
  synapse campaign submit <spec.toml|json> [--server HOST:PORT] [--watch]
                   [--cluster] [--record]
  synapse campaign watch  <job-id> [--server HOST:PORT] [--aggregates]
  synapse campaign status [job-id] [--server HOST:PORT]
  synapse campaign cancel <job-id> [--server HOST:PORT]
  synapse campaign aggregates <job-id> [--server HOST:PORT]
                   [--axis AXIS] [--metric METRIC] [--json]
  synapse table1
  synapse machines

The serve/submit/watch/status/cancel commands form the client/server
mode: `serve` keeps one process (and one warm result cache) alive;
`submit --watch` streams per-point NDJSON events as the sweep runs.
`campaign watch --aggregates` follows the lifecycle + snapshot-delta
stream instead (O(slices), not O(points)), and
`campaign aggregates <id>` prints the live per-(axis, value) stats
table mid-sweep or after.
`cluster start` runs a coordinator; plain `serve` processes are its
workers (registered with `--worker`/`add-worker`), and
`campaign submit --cluster` fans one campaign out across all of them,
merging the streams into one ordered feed and one byte-stable report.

`campaign run --record` flight-records the sweep's causal event
stream as a versioned .jsonl trace (docs/TRACE.md); `campaign replay`
re-drives it without simulating — strict mode errors on the first
divergence (the CI gate), `--lenient` collects them as an audit
summary — and `--report` reconstructs the byte-identical report from
the record alone. `submit --record` asks the server to record; the
sealed trace is served at GET /campaigns/<id>/trace.
";

/// Render a `GET /campaigns/<id>/aggregates` document as the human
/// table `campaign aggregates` prints: a header line with job identity
/// and sweep progress, then one row per (axis, value, metric) slice —
/// overall first — with count, mean and the sketch quantiles.
fn render_aggregates_table(doc: &Value) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} {:?} {} — {}/{} points aggregated ({} observed)",
        doc["id"].as_str().unwrap_or("?"),
        doc["name"].as_str().unwrap_or("?"),
        doc["status"].as_str().unwrap_or("?"),
        doc["done"].as_u64().unwrap_or(0),
        doc["total"].as_u64().unwrap_or(0),
        doc["points"].as_u64().unwrap_or(0),
    );
    let _ = writeln!(
        text,
        "{:<13} {:<14} {:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "AXIS", "VALUE", "METRIC", "N", "MEAN", "P50", "P95", "P99", "MIN", "MAX",
    );
    let mut row = |axis: &str, value: &str, metrics: &Value| {
        let Some(metrics) = metrics.as_object() else {
            return;
        };
        for (metric, stats) in metrics {
            if stats["n"].as_u64() == Some(0) {
                continue;
            }
            let _ = write!(
                text,
                "{:<13} {:<14} {:<10} {:>7}",
                axis,
                value,
                metric,
                stats["n"].as_u64().unwrap_or(0),
            );
            for key in ["mean", "p50", "p95", "p99", "min", "max"] {
                let _ = write!(text, " {:>10.4}", stats[key].as_f64().unwrap_or(f64::NAN));
            }
            text.push('\n');
        }
    };
    row("(overall)", "-", &doc["overall"]["metrics"]);
    if let Some(slices) = doc["slices"].as_array() {
        for slice in slices {
            row(
                slice["axis"].as_str().unwrap_or("?"),
                slice["value"].as_str().unwrap_or("?"),
                &slice["metrics"],
            );
        }
    }
    text
}

/// What executing an invocation returns; any error renders as the
/// message `main` prints after `error:`.
type Outcome = Result<(), Box<dyn Error>>;

/// Print one JSON document (a submit ack, status, cancel echo or
/// registry view) as a single line.
fn print_json(out: &mut impl Write, doc: &Value) -> Outcome {
    writeln!(out, "{}", serde_json::to_string(doc)?)?;
    Ok(())
}

/// Print a job's NDJSON stream to `out` until it ends. `follow` runs
/// the client call, handing each line to the callback it is given and
/// returning the terminal event; a `failed` job is an error naming its
/// id. Each line is flushed as it lands: watchers are typically piped
/// into `jq` or logs.
///
/// A dead stdout (`... | head`) makes the callback hang up, which the
/// client reports as a protocol error — so the pipe is checked before
/// the client's outcome, and a broken pipe exits cleanly: truncating
/// a watch is routine, not an error.
fn print_stream(
    out: &mut impl Write,
    follow: impl FnOnce(&mut dyn FnMut(&str) -> bool) -> Result<Value, ServerError>,
) -> Outcome {
    let mut write_err: Option<std::io::Error> = None;
    let last = follow(&mut |line| {
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            write_err = Some(e);
        }
        write_err.is_none()
    });
    if let Some(e) = write_err {
        return match e.kind() {
            std::io::ErrorKind::BrokenPipe => Ok(()),
            _ => Err(e.into()),
        };
    }
    let last = last?;
    if last["event"].as_str() != Some("failed") {
        return Ok(());
    }
    let id = last["id"].as_str().unwrap_or("?");
    Err(match last["error"].as_str() {
        Some(message) => format!("campaign {id} failed: {message}"),
        None => format!("campaign {id} failed"),
    }
    .into())
}

/// Bind and run `synapse serve` until it shuts down. With `cluster`
/// the process is a coordinator with those worker addresses
/// registered; that is the only difference between `serve` and
/// `cluster start`.
fn serve(options: ServeOptions, cluster: Option<Vec<String>>, out: &mut impl Write) -> Outcome {
    let config = synapse_server::ServerConfig {
        addr: options.addr,
        cache_dir: Some(options.cache.clone()),
        queue_workers: options.queue_workers,
        job_workers: options.workers,
        max_connections: options.max_connections,
        handler_threads: options.reactor_threads,
        ..Default::default()
    };
    let mut server = synapse_server::Server::bind(config)?;
    let (role, detail) = match cluster {
        None => ("serve", format!("{} queue workers", options.queue_workers)),
        Some(workers) => {
            let coordinator = std::sync::Arc::new(synapse_cluster::Coordinator::new(
                synapse_cluster::ClusterConfig::default(),
            ));
            for worker in &workers {
                coordinator.registry().register(worker);
            }
            server = server.with_cluster(coordinator);
            let detail = format!("{} workers registered", workers.len());
            ("cluster coordinator", detail)
        }
    };
    let bound = server.local_addr()?;
    let cache = options.cache.display();
    writeln!(
        out,
        "synapse {role} listening on {bound} (cache {cache}, {detail})"
    )?;
    out.flush()?;
    server.run()?;
    writeln!(out, "synapse {role} shut down")?;
    Ok(())
}

/// Execute an invocation, writing human-readable output to `out`.
pub fn run(invocation: Invocation, out: &mut impl Write) -> Result<(), String> {
    execute(invocation, out).map_err(|e| e.to_string())
}

fn execute(invocation: Invocation, out: &mut impl Write) -> Outcome {
    match invocation {
        Invocation::Help => write!(out, "{USAGE}")?,
        Invocation::Table1 => write!(out, "{}", metrics::render_table1())?,
        Invocation::Machines => {
            for name in synapse_sim::MACHINE_NAMES {
                let m = synapse_sim::machine_by_name(name).expect("catalog name");
                writeln!(
                    out,
                    "{:<10} {:>2} cores  {:>5.2} GHz nominal  {:>6.1} GiB  default fs: {}",
                    m.name,
                    m.cpu.ncores,
                    m.cpu.nominal_freq_hz / 1e9,
                    m.total_memory as f64 / (1u64 << 30) as f64,
                    m.default_fs.name(),
                )?;
            }
        }
        Invocation::Profile {
            command,
            tags,
            rate,
            store,
        } => {
            let store = FileStore::open(&store)?;
            let config = ProfilerConfig::with_rate(rate);
            let outcome = synapse::api::profile(&command, Some(tags), &store, &config)?;
            let totals = outcome.profile.totals();
            writeln!(
                out,
                "profiled {:?}: Tx={:.3}s exit={} samples={} cycles={} bytes_written={}",
                command,
                outcome.profile.runtime,
                outcome.timed.exit_code,
                outcome.profile.len(),
                totals.cycles,
                totals.bytes_written,
            )?;
        }
        Invocation::Worker { kernel, cycles } => {
            let run = kernel_by_name(&kernel)?.build().execute_cycles(cycles);
            writeln!(out, "consumed={}", run.consumed_cycles)?;
        }
        Invocation::Emulate {
            command,
            tags,
            kernel,
            threads,
            mode,
            write_block,
            store,
        } => {
            let store = FileStore::open(&store)?;
            let mode = match mode.to_ascii_lowercase().as_str() {
                "openmp" | "omp" => synapse_sim::ParallelMode::OpenMp,
                "mpi" | "openmpi" => synapse_sim::ParallelMode::Mpi,
                other => return Err(format!("unknown mode {other} (openmp | mpi)").into()),
            };
            let plan = EmulationPlan {
                kernel: kernel_by_name(&kernel)?,
                threads,
                mode,
                // MPI-analogue workers re-invoke this very binary.
                worker_binary: std::env::current_exe().ok(),
                io_write_block: write_block,
                ..Default::default()
            };
            let report = synapse::api::emulate(&command, Some(tags), &store, &plan)?;
            writeln!(
                out,
                "emulated {:?}: Tx={:.3}s samples={} directed_cycles={} consumed_cycles={}",
                command,
                report.tx,
                report.samples,
                report.consumed.directed_cycles,
                report.consumed.cycles,
            )?;
        }
        Invocation::Serve(options) => serve(options, None, out)?,
        Invocation::ClusterStart {
            serve: options,
            worker_addrs,
        } => serve(options, Some(worker_addrs), out)?,
        Invocation::ClusterAddWorker { worker, server } => {
            print_json(out, &Client::new(server).register_worker(&worker)?)?;
        }
        Invocation::ClusterStatus { server } => {
            print_json(out, &Client::new(server).cluster_status()?)?;
        }
        Invocation::CampaignSubmit {
            spec,
            server,
            watch,
            cluster,
            record,
        } => {
            let text = std::fs::read_to_string(&spec)?;
            let client = Client::new(server);
            if record {
                // Recorded submits ack first (the ack carries the
                // trace id); `--watch` then follows the stream on a
                // second connection. Fetch the sealed trace afterwards
                // with `GET /campaigns/<id>/trace`.
                let ack = client.submit_recorded(&text, cluster)?;
                print_json(out, &ack)?;
                if watch {
                    let id = ack["id"].as_str().ok_or("submit ack carries no job id")?;
                    print_stream(out, |deliver| client.watch(id, deliver))?;
                }
            } else if watch {
                // Submit and stream on ONE connection (`?watch=1`):
                // the ack is the stream's first line, events follow.
                print_stream(out, |deliver| {
                    let watched = if cluster {
                        client.submit_watch_distributed(&text, deliver)
                    } else {
                        client.submit_watch(&text, deliver)
                    };
                    watched.map(|(_ack, summary)| summary)
                })?;
            } else if cluster {
                print_json(out, &client.submit_distributed(&text)?)?;
            } else {
                print_json(out, &client.submit(&text)?)?;
            }
        }
        Invocation::CampaignWatch {
            id,
            server,
            aggregates,
        } => {
            let client = Client::new(server);
            print_stream(out, |deliver| {
                if aggregates {
                    client.watch_aggregates(&id, deliver)
                } else {
                    client.watch(&id, deliver)
                }
            })?;
        }
        Invocation::CampaignAggregates {
            id,
            server,
            axis,
            metric,
            json,
        } => {
            let client = Client::new(server);
            let doc = client.aggregates(&id, axis.as_deref(), metric.as_deref())?;
            if json {
                print_json(out, &doc)?;
            } else {
                write!(out, "{}", render_aggregates_table(&doc))?;
            }
        }
        Invocation::CampaignStatus { id, server } => {
            let client = Client::new(server);
            let doc = match id {
                Some(id) => client.status(&id)?,
                None => client.list()?,
            };
            print_json(out, &doc)?;
        }
        Invocation::CampaignCancel { id, server } => {
            print_json(out, &Client::new(server).cancel(&id)?)?;
        }
        Invocation::CampaignPlan { spec } => {
            let spec = synapse_campaign::CampaignSpec::from_path(&spec)?;
            let points = synapse_campaign::expand(&spec);
            writeln!(
                out,
                "campaign {:?}: {} points ({} workload-steps × {} machines × {} kernels × {} modes × {} widths × {} io blocks × {} rates × {} filesystems × {} atom sets × {} sample orders)",
                spec.name,
                points.len(),
                spec.workloads.iter().map(|w| w.steps.len()).sum::<usize>(),
                spec.machines.len(),
                spec.kernels.len(),
                spec.modes.len(),
                spec.threads.len(),
                spec.io_blocks.len(),
                spec.sample_rates.len(),
                spec.filesystems.len(),
                spec.atoms.len(),
                spec.sample_order.len(),
            )?;
            for p in points.iter().take(10) {
                writeln!(out, "  [{:>4}] {}", p.index, p.label())?;
            }
            if points.len() > 10 {
                writeln!(out, "  ... {} more", points.len() - 10)?;
            }
        }
        Invocation::CampaignCacheStats { cache } => {
            let result_cache = synapse_campaign::ResultCache::open_with_workers(&cache, 0)?;
            let stats = result_cache.stats();
            writeln!(
                out,
                "cache {}: {} results, {} shard files ({}/{} shards occupied, {} dirty), {} bytes on disk, engine {:?}",
                cache.display(),
                stats.docs,
                stats.data_files,
                stats.occupied_shards,
                synapse_store::SHARD_COUNT,
                stats.dirty_shards,
                stats.bytes_on_disk,
                stats.engine,
            )?;
        }
        Invocation::CampaignCacheCompact { cache } => {
            let result_cache = synapse_campaign::ResultCache::open_with_workers(&cache, 0)?;
            let pass = result_cache.compact()?;
            writeln!(
                out,
                "compacted {}: {} -> {} shard files ({} results){}",
                cache.display(),
                pass.files_before,
                pass.files_after,
                pass.docs,
                if pass.changed {
                    ""
                } else {
                    " — already compact"
                },
            )?;
        }
        Invocation::CampaignRun {
            spec,
            cache,
            workers,
            json_out,
            csv_out,
            summary_json,
            timings,
            record,
        } => {
            let spec = synapse_campaign::CampaignSpec::from_path(&spec)?;
            let config = synapse_campaign::RunConfig { workers };
            let mut trace_id = None;
            let outcome = if let Some(trace_path) = &record {
                // Flight-record the run: the recorder sits on the same
                // observer seam the server streams from, then the
                // post-run stage timings are stamped in before sealing.
                let recorder = synapse_trace::TraceRecorder::new(&spec);
                let result_cache =
                    synapse_campaign::ResultCache::open_with_workers(&cache, config.workers)?;
                let outcome = synapse_campaign::run_campaign_on(
                    &spec,
                    &config,
                    &result_cache,
                    &|event| recorder.observe(&event),
                    &synapse_campaign::CancelToken::new(),
                )?;
                recorder.record_stats(&outcome.stats);
                recorder.write_to(trace_path)?;
                trace_id = Some(recorder.trace_id().to_string());
                outcome
            } else {
                synapse_campaign::run_campaign(&spec, &config, Some(&cache))?
            };
            write!(out, "{}", outcome.report.render_summary())?;
            let stats = outcome.stats;
            writeln!(
                out,
                "  {} points in {:.3}s ({:.0} points/s): {} simulated, {} from cache ({:.0}% hit rate)",
                stats.points,
                stats.wall_secs,
                stats.points_per_sec(),
                stats.simulated,
                stats.cache_hits,
                stats.hit_rate() * 100.0,
            )?;
            if timings {
                writeln!(
                    out,
                    "  stages: expansion {:.3}s, sweep {:.3}s, aggregation {:.3}s",
                    stats.expand_secs, stats.sweep_secs, stats.aggregate_secs,
                )?;
                // Per-point latency distributions come from the same
                // process-wide histograms `/metrics` exposes; the
                // registry call returns the series the engine already
                // populated during the run.
                let registry = synapse_telemetry::global();
                let latency = |name: &str| {
                    registry.histogram(
                        name,
                        "Per-point latency.",
                        synapse_telemetry::DURATION_BUCKETS,
                    )
                };
                for (label, hist) in [
                    ("simulate", latency("synapse_engine_simulate_seconds")),
                    (
                        "cache lookup",
                        latency("synapse_engine_cache_lookup_seconds"),
                    ),
                ] {
                    if hist.count() == 0 {
                        writeln!(out, "  {label}: no observations")?;
                        continue;
                    }
                    writeln!(
                        out,
                        "  {label}: p50 {:.3}ms p90 {:.3}ms p99 {:.3}ms ({} observations)",
                        hist.quantile(0.5) * 1e3,
                        hist.quantile(0.9) * 1e3,
                        hist.quantile(0.99) * 1e3,
                        hist.count(),
                    )?;
                }
            }
            if let Some(path) = json_out {
                std::fs::write(&path, outcome.report.to_json_pretty()?)?;
                writeln!(out, "  report written to {}", path.display())?;
            }
            if let Some(path) = csv_out {
                std::fs::write(&path, outcome.report.to_csv())?;
                writeln!(out, "  csv written to {}", path.display())?;
            }
            if let (Some(path), Some(id)) = (&record, &trace_id) {
                writeln!(out, "  trace {id} recorded to {}", path.display())?;
            }
            if let Some(path) = summary_json {
                let mut summary = serde_json::json!({
                    "name": outcome.report.name,
                    "engine_version": synapse_campaign::ENGINE_VERSION,
                    "points": stats.points,
                    "simulated": stats.simulated,
                    "cache_hits": stats.cache_hits,
                    "cache_hit_rate": stats.hit_rate(),
                    "wall_secs": stats.wall_secs,
                    "points_per_sec": stats.points_per_sec(),
                    "timings": stats.timings_json(),
                });
                if let (Some(trace_path), Some(id), Value::Object(doc)) =
                    (&record, &trace_id, &mut summary)
                {
                    doc.insert(
                        "trace".to_string(),
                        serde_json::json!({
                            "path": trace_path.display().to_string(),
                            "trace_id": id,
                        }),
                    );
                }
                std::fs::write(&path, serde_json::to_string_pretty(&summary)?)?;
                writeln!(out, "  summary written to {}", path.display())?;
            }
        }
        Invocation::CampaignReplay {
            trace,
            lenient,
            report,
        } => {
            let loaded = synapse_trace::Trace::load(&trace)?;
            let mode = if lenient {
                synapse_trace::ReplayMode::Lenient
            } else {
                synapse_trace::ReplayMode::Strict
            };
            let summary = loaded.verify(mode)?;
            writeln!(
                out,
                "replayed trace {}: {}/{} points, {} annotations ({})",
                loaded.header.trace_id,
                summary.points,
                summary.total,
                summary.annotations,
                if summary.is_clean() {
                    "clean".to_string()
                } else {
                    format!("{} divergences", summary.divergences.len())
                },
            )?;
            for divergence in &summary.divergences {
                writeln!(out, "  divergence: {divergence}")?;
            }
            if let Some(path) = report {
                // Reconstructed purely from the record — the simulator
                // is never invoked, so this is byte-identical to the
                // live run's report or an error.
                let report = loaded.reconstruct_report()?;
                let rendered = if path.extension().is_some_and(|e| e == "csv") {
                    report.to_csv()
                } else {
                    report.to_json_pretty()?
                };
                std::fs::write(&path, rendered)?;
                writeln!(out, "  report reconstructed to {}", path.display())?;
            }
        }
        Invocation::CampaignTraceSummary { trace } => {
            write!(out, "{}", synapse_trace::Trace::load(&trace)?.summary())?;
        }
        Invocation::Stats {
            command,
            tags,
            store,
        } => {
            let store = FileStore::open(&store)?;
            let key = synapse_model::ProfileKey::new(command.trim(), tags);
            let set = ProfileStore::load_set(&store, &key)?;
            let rt = set.runtime_summary()?;
            let cycles = set.totals_summary(|t| t.cycles as f64)?;
            writeln!(
                out,
                "{} runs: Tx mean={:.3}s std={:.3}s ci99={:.3}s | cycles mean={:.3e} ci99={:.3e}",
                set.len(),
                rt.mean,
                rt.std,
                rt.ci99(),
                cycles.mean,
                cycles.ci99(),
            )?;
        }
        Invocation::Inspect {
            command,
            tags,
            store,
        } => {
            let store = FileStore::open(&store)?;
            let key = synapse_model::ProfileKey::new(command.trim(), tags);
            let profile = store.load_representative(&key)?;
            writeln!(out, "{}", profile.to_json()?)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_profile_with_flags() {
        let inv = parse_args(&argv(&[
            "profile", "sleep 1", "--tags", "a=1,b=2", "--rate", "2.5", "--store", "/tmp/x",
        ]))
        .unwrap();
        match inv {
            Invocation::Profile {
                command,
                tags,
                rate,
                store,
            } => {
                assert_eq!(command, "sleep 1");
                assert_eq!(tags.get("a"), Some("1"));
                assert_eq!(rate, 2.5);
                assert_eq!(store, PathBuf::from("/tmp/x"));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn parses_emulate_with_kernel_and_threads() {
        let inv = parse_args(&argv(&[
            "emulate",
            "app",
            "--kernel",
            "c",
            "--threads",
            "8",
            "--write-block",
            "4096",
        ]))
        .unwrap();
        match inv {
            Invocation::Emulate {
                kernel,
                threads,
                write_block,
                ..
            } => {
                assert_eq!(kernel, "c");
                assert_eq!(threads, 8);
                assert_eq!(write_block, 4096);
            }
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_flags_and_subcommands() {
        assert!(parse_args(&argv(&["profile", "x", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["frobnicate"])).is_err());
        assert!(parse_args(&argv(&["profile"])).is_err()); // no command
        assert!(parse_args(&argv(&["profile", "a", "b"])).is_err()); // two positionals
    }

    #[test]
    fn rejects_flags_another_subcommand_owns() {
        for args in [
            &["stats", "cmd", "--kernel", "c"][..],
            &["inspect", "cmd", "--threads", "8"],
            &["table1", "--rate", "3"],
            &["profile", "cmd", "--write-block", "4096"],
            &["campaign", "plan", "s.toml", "--cache", "/tmp/c"],
        ] {
            let err = parse_args(&argv(args)).unwrap_err();
            assert!(err.contains("unknown"), "{args:?}: {err}");
        }
        // The emulator spawns MPI-analogue workers with exactly this argv.
        assert_eq!(
            parse_args(&argv(&["worker", "--kernel", "spin", "--cycles", "5000"])).unwrap(),
            Invocation::Worker {
                kernel: "spin".into(),
                cycles: 5000,
            }
        );
    }

    /// A subcommand's argv prefix (plus a stand-in for a required
    /// positional argument) and the flags `USAGE` lists for it, with
    /// whether each takes a value.
    type UsageEntry = (Vec<String>, Vec<(String, bool)>);

    fn usage_entries() -> Vec<UsageEntry> {
        let synopsis = USAGE.split("USAGE:\n").nth(1).unwrap();
        let synopsis = synopsis.split("\n\n").next().unwrap();
        let mut entries = Vec::new();
        for entry in synopsis.split("\n  synapse ") {
            let entry = entry.trim_start().trim_start_matches("synapse ");
            let tokens: Vec<&str> = entry.split_whitespace().collect();
            let word = |c: char| c.is_ascii_lowercase() || "-|1".contains(c);
            let words = tokens.iter().take_while(|t| t.chars().all(word));
            let (words, rest) = tokens.split_at(words.count());
            let mut flags = Vec::new();
            for (i, token) in rest.iter().enumerate() {
                let bare = token.trim_start_matches('[');
                if !bare.starts_with("--") {
                    continue;
                }
                let takes_value = !token.ends_with(']') && rest.get(i + 1).is_some();
                for flag in bare.trim_end_matches(']').split('|') {
                    flags.push((flag.to_string(), takes_value));
                }
            }
            let positional = rest
                .first()
                .is_some_and(|t| t.starts_with('<') || t.starts_with('"'));
            let (last, prefix) = words.split_last().unwrap();
            for word in last.split('|') {
                let mut argv: Vec<String> = prefix.iter().map(|w| w.to_string()).collect();
                argv.push(word.to_string());
                if positional {
                    argv.push("x".into());
                }
                entries.push((argv, flags.clone()));
            }
        }
        entries
    }

    #[test]
    fn usage_and_flag_tables_agree() {
        let entries = usage_entries();
        assert!(entries.len() >= 20, "{entries:?}");
        let all_flags: Vec<(String, bool)> = entries.iter().flat_map(|(_, f)| f.clone()).collect();
        let with_flag = |base: &[String], (flag, takes_value): &(String, bool)| {
            let mut args = base.to_vec();
            args.push(flag.clone());
            if *takes_value {
                args.push("1".into());
            }
            args
        };
        for (base, flags) in &entries {
            parse_args(base).unwrap_or_else(|e| panic!("{base:?}: {e}"));
            for flag in flags {
                let args = with_flag(base, flag);
                parse_args(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            }
            for flag in all_flags
                .iter()
                .filter(|(f, _)| !flags.iter().any(|(o, _)| o == f))
            {
                let args = with_flag(base, flag);
                assert!(
                    parse_args(&args).is_err(),
                    "{args:?} parses, but USAGE does not list {}",
                    flag.0
                );
            }
        }
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Invocation::Help);
        assert_eq!(parse_args(&argv(&["--help"])).unwrap(), Invocation::Help);
    }

    #[test]
    fn kernel_names_resolve() {
        assert!(kernel_by_name("ASM").is_ok());
        assert!(kernel_by_name("c").is_ok());
        assert!(kernel_by_name("spin").is_ok());
        assert!(kernel_by_name("fortran").is_err());
    }

    #[test]
    fn table1_and_machines_render() {
        let mut buf = Vec::new();
        run(Invocation::Table1, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("FLOPs"));
        let mut buf2 = Vec::new();
        run(Invocation::Machines, &mut buf2).unwrap();
        let s2 = String::from_utf8(buf2).unwrap();
        assert!(s2.contains("thinkie"));
        assert!(s2.contains("titan"));
    }

    #[test]
    fn help_renders_usage() {
        let mut buf = Vec::new();
        run(Invocation::Help, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn parses_campaign_run_and_plan() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--cache",
            "/tmp/cc",
            "--workers",
            "4",
            "--json",
            "out.json",
            "--csv",
            "out.csv",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun {
                spec,
                cache,
                workers,
                json_out,
                csv_out,
                summary_json,
                timings,
                record,
            } => {
                assert_eq!(spec, PathBuf::from("sweep.toml"));
                assert_eq!(cache, PathBuf::from("/tmp/cc"));
                assert_eq!(workers, 4);
                assert_eq!(json_out, Some(PathBuf::from("out.json")));
                assert_eq!(csv_out, Some(PathBuf::from("out.csv")));
                assert_eq!(summary_json, None);
                assert!(!timings);
                assert_eq!(record, None);
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        let plan = parse_args(&argv(&["campaign", "plan", "sweep.toml"])).unwrap();
        assert_eq!(
            plan,
            Invocation::CampaignPlan {
                spec: PathBuf::from("sweep.toml")
            }
        );
        assert!(parse_args(&argv(&["campaign"])).is_err());
        assert!(parse_args(&argv(&["campaign", "run"])).is_err());
        assert!(parse_args(&argv(&["campaign", "frob", "x.toml"])).is_err());
        assert!(parse_args(&argv(&["campaign", "run", "x.toml", "--bogus"])).is_err());
    }

    #[test]
    fn parses_campaign_run_timings_flag() {
        let inv = parse_args(&argv(&["campaign", "run", "sweep.toml", "--timings"])).unwrap();
        match inv {
            Invocation::CampaignRun { timings, .. } => assert!(timings),
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn parses_campaign_run_summary_json_flag() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--summary-json",
            "summary.json",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun { summary_json, .. } => {
                assert_eq!(summary_json, Some(PathBuf::from("summary.json")));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn parses_campaign_record_and_replay_forms() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--record",
            "run.trace.jsonl",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun { record, .. } => {
                assert_eq!(record, Some(PathBuf::from("run.trace.jsonl")));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        assert!(parse_args(&argv(&["campaign", "run", "s.toml", "--record"])).is_err());

        assert_eq!(
            parse_args(&argv(&["campaign", "replay", "run.trace.jsonl"])).unwrap(),
            Invocation::CampaignReplay {
                trace: PathBuf::from("run.trace.jsonl"),
                lenient: false,
                report: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "replay",
                "run.trace.jsonl",
                "--lenient",
                "--report",
                "out.csv",
            ]))
            .unwrap(),
            Invocation::CampaignReplay {
                trace: PathBuf::from("run.trace.jsonl"),
                lenient: true,
                report: Some(PathBuf::from("out.csv")),
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "trace-summary", "t.jsonl"])).unwrap(),
            Invocation::CampaignTraceSummary {
                trace: PathBuf::from("t.jsonl"),
            }
        );
        assert!(parse_args(&argv(&["campaign", "replay"])).is_err());
        assert!(parse_args(&argv(&["campaign", "replay", "a", "b"])).is_err());
        assert!(parse_args(&argv(&["campaign", "trace-summary", "t", "--lenient"])).is_err());
    }

    #[test]
    fn parses_campaign_cache_actions() {
        assert_eq!(
            parse_args(&argv(&["campaign", "cache", "stats", "--cache", "/tmp/c"])).unwrap(),
            Invocation::CampaignCacheStats {
                cache: PathBuf::from("/tmp/c")
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign", "cache", "compact", "--cache", "/tmp/c"
            ]))
            .unwrap(),
            Invocation::CampaignCacheCompact {
                cache: PathBuf::from("/tmp/c")
            }
        );
        assert!(parse_args(&argv(&["campaign", "cache"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "frob"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "stats", "extra"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "stats", "--cache"])).is_err());
    }

    #[test]
    fn campaign_plan_and_run_through_cli_layer() {
        let dir = std::env::temp_dir().join(format!("synapse-cli-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("sweep.toml");
        std::fs::write(
            &spec_path,
            r#"
            name = "cli-sweep"
            seed = 1
            machines = ["thinkie", "comet"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000]
            "#,
        )
        .unwrap();

        let mut buf = Vec::new();
        run(
            Invocation::CampaignPlan {
                spec: spec_path.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let plan_text = String::from_utf8(buf).unwrap();
        assert!(plan_text.contains("4 points"), "{plan_text}");

        let cache = dir.join("cache");
        let json_path = dir.join("report.json");
        let summary_path = dir.join("summary.json");
        let trace_path = dir.join("run.trace.jsonl");
        let invocation = || Invocation::CampaignRun {
            spec: spec_path.clone(),
            cache: cache.clone(),
            workers: 2,
            json_out: Some(json_path.clone()),
            csv_out: Some(dir.join("report.csv")),
            summary_json: Some(summary_path.clone()),
            timings: true,
            record: Some(trace_path.clone()),
        };
        let mut buf1 = Vec::new();
        run(invocation(), &mut buf1).unwrap();
        let text1 = String::from_utf8(buf1).unwrap();
        assert!(text1.contains("4 simulated, 0 from cache"), "{text1}");
        assert!(json_path.exists());
        assert!(dir.join("report.csv").exists());

        // Second run is served from the persisted cache, and the
        // machine-readable summary says so exactly (what CI asserts).
        let mut buf2 = Vec::new();
        run(invocation(), &mut buf2).unwrap();
        let text2 = String::from_utf8(buf2).unwrap();
        assert!(
            text2.contains("0 simulated, 4 from cache (100% hit rate)"),
            "{text2}"
        );
        let summary: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(summary["cache_hit_rate"].as_f64(), Some(1.0));
        assert_eq!(summary["simulated"].as_u64(), Some(0));
        assert_eq!(summary["cache_hits"].as_u64(), Some(4));
        assert!(summary["points_per_sec"].as_f64().unwrap() > 0.0);
        // `--timings` prints the stage breakdown, and the summary
        // carries the same shape machine-readably.
        assert!(text2.contains("stages: expansion"), "{text2}");
        assert!(text2.contains("cache lookup: p50"), "{text2}");
        assert!(summary["timings"]["wall_secs"].as_f64().unwrap() > 0.0);
        assert!(summary["timings"]["sweep_secs"].as_f64().unwrap() > 0.0);
        // The summary names the engine version and the recorded trace
        // so downstream tooling can gate on compatibility directly.
        assert_eq!(
            summary["engine_version"].as_u64(),
            Some(synapse_campaign::ENGINE_VERSION as u64)
        );
        assert_eq!(
            summary["trace"]["path"].as_str(),
            Some(trace_path.display().to_string().as_str())
        );
        assert!(summary["trace"]["trace_id"].as_str().is_some());

        // Strict replay of the recorded trace reconstructs the report
        // byte-identically without invoking the simulator.
        let reconstructed = dir.join("replayed.json");
        let mut buf_replay = Vec::new();
        run(
            Invocation::CampaignReplay {
                trace: trace_path.clone(),
                lenient: false,
                report: Some(reconstructed.clone()),
            },
            &mut buf_replay,
        )
        .unwrap();
        let replay_text = String::from_utf8(buf_replay).unwrap();
        assert!(replay_text.contains("clean"), "{replay_text}");
        assert_eq!(
            std::fs::read(&json_path).unwrap(),
            std::fs::read(&reconstructed).unwrap(),
            "replayed report must be byte-identical to the live run's"
        );
        let mut buf_ts = Vec::new();
        run(
            Invocation::CampaignTraceSummary {
                trace: trace_path.clone(),
            },
            &mut buf_ts,
        )
        .unwrap();
        let ts_text = String::from_utf8(buf_ts).unwrap();
        assert!(ts_text.contains("campaign \"cli-sweep\""), "{ts_text}");
        assert!(ts_text.contains("stages:"), "{ts_text}");

        // The cache subcommands see the sharded store the runs built.
        let mut buf3 = Vec::new();
        run(
            Invocation::CampaignCacheStats {
                cache: cache.clone(),
            },
            &mut buf3,
        )
        .unwrap();
        let stats_text = String::from_utf8(buf3).unwrap();
        assert!(stats_text.contains("4 results"), "{stats_text}");
        let mut buf4 = Vec::new();
        run(Invocation::CampaignCacheCompact { cache }, &mut buf4).unwrap();
        assert!(
            String::from_utf8(buf4).unwrap().contains("compacted"),
            "compact output"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_serve_and_campaign_client_commands() {
        assert_eq!(
            parse_args(&argv(&["serve"])).unwrap(),
            Invocation::Serve(ServeOptions {
                addr: DEFAULT_SERVER_ADDR.into(),
                cache: default_campaign_cache(),
                queue_workers: 2,
                workers: 0,
                max_connections: synapse_server::DEFAULT_MAX_CONNECTIONS,
                reactor_threads: 0,
            })
        );
        assert_eq!(
            parse_args(&argv(&[
                "serve",
                "--addr",
                "127.0.0.1:9999",
                "--cache",
                "/tmp/srv",
                "--queue-workers",
                "4",
                "--workers",
                "2",
                "--max-connections",
                "64",
                "--reactor-threads",
                "8",
            ]))
            .unwrap(),
            Invocation::Serve(ServeOptions {
                addr: "127.0.0.1:9999".into(),
                cache: PathBuf::from("/tmp/srv"),
                queue_workers: 4,
                workers: 2,
                max_connections: 64,
                reactor_threads: 8,
            })
        );
        assert!(parse_args(&argv(&["serve", "--queue-workers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["serve", "--reactor-threads", "lots"])).is_err());

        assert_eq!(
            parse_args(&argv(&["campaign", "submit", "s.toml", "--watch"])).unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: true,
                cluster: false,
                record: false,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "submit",
                "s.toml",
                "--cluster",
                "--record"
            ]))
            .unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: false,
                cluster: true,
                record: true,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "watch",
                "j3",
                "--server",
                "127.0.0.1:17",
            ]))
            .unwrap(),
            Invocation::CampaignWatch {
                id: "j3".into(),
                server: "127.0.0.1:17".into(),
                aggregates: false,
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "watch", "j3", "--aggregates"])).unwrap(),
            Invocation::CampaignWatch {
                id: "j3".into(),
                server: DEFAULT_SERVER_ADDR.into(),
                aggregates: true,
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "status"])).unwrap(),
            Invocation::CampaignStatus {
                id: None,
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "cancel", "j1"])).unwrap(),
            Invocation::CampaignCancel {
                id: "j1".into(),
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "aggregates",
                "j7",
                "--axis",
                "machine",
                "--metric",
                "error_pct",
                "--json",
            ]))
            .unwrap(),
            Invocation::CampaignAggregates {
                id: "j7".into(),
                server: DEFAULT_SERVER_ADDR.into(),
                axis: Some("machine".into()),
                metric: Some("error_pct".into()),
                json: true,
            }
        );
        assert!(parse_args(&argv(&["campaign", "submit"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cancel"])).is_err());
        assert!(parse_args(&argv(&["campaign", "aggregates"])).is_err());
        // --watch is a submit-only flag.
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--watch"])).is_err());
        // --aggregates is a watch-only flag; --axis belongs to aggregates.
        assert!(parse_args(&argv(&["campaign", "status", "--aggregates"])).is_err());
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--axis", "machine"])).is_err());
    }

    /// A stdout whose reader went away after `room` lines.
    struct ClosingPipe {
        room: usize,
        kind: std::io::ErrorKind,
    }

    impl Write for ClosingPipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(self.kind.into());
            }
            self.room -= usize::from(buf.ends_with(b"\n"));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_printer_checks_the_pipe_first_and_names_failed_jobs() {
        // The client stops at the first refused line and reports the
        // hang-up as a protocol error, as a real watch does.
        let hang_up = |deliver: &mut dyn FnMut(&str) -> bool| {
            for line in ["{\"event\":\"started\"}", "{\"event\":\"point\"}"] {
                if !deliver(line) {
                    return Err(ServerError::Protocol("hung up".into()));
                }
            }
            Ok(serde_json::json!({"event": "completed"}))
        };
        let kind = std::io::ErrorKind::BrokenPipe;
        print_stream(&mut ClosingPipe { room: 1, kind }, hang_up).unwrap();
        let kind = std::io::ErrorKind::PermissionDenied;
        assert!(print_stream(&mut ClosingPipe { room: 1, kind }, hang_up).is_err());

        let failed = |deliver: &mut dyn FnMut(&str) -> bool| {
            deliver("{\"event\":\"failed\"}");
            Ok(serde_json::json!({"event": "failed", "id": "j9", "error": "boom"}))
        };
        let mut out = Vec::new();
        let err = print_stream(&mut out, failed).unwrap_err();
        assert_eq!(err.to_string(), "campaign j9 failed: boom");
        assert_eq!(out, b"{\"event\":\"failed\"}\n");
    }

    #[test]
    fn aggregates_table_renders_overall_and_slices() {
        let doc = serde_json::json!({
            "id": "j1", "name": "sweep", "status": "running",
            "done": 3, "total": 8, "points": 3, "v": 1,
            "overall": {"metrics": {"error_pct": {
                "n": 3, "mean": 4.5, "p50": 4.0, "p95": 6.0, "p99": 6.0,
                "min": 3.0, "max": 6.0,
            }, "tx": {"n": 0}}},
            "slices": [{"axis": "machine", "value": "stampede",
                "metrics": {"error_pct": {
                    "n": 3, "mean": 4.5, "p50": 4.0, "p95": 6.0,
                    "p99": 6.0, "min": 3.0, "max": 6.0,
                }}}],
        });
        let table = render_aggregates_table(&doc);
        assert!(table.contains("j1 \"sweep\" running — 3/8 points aggregated"));
        assert!(table.contains("(overall)"));
        assert!(table.contains("machine"));
        assert!(table.contains("stampede"));
        assert!(table.contains("error_pct"));
        // Empty metrics (n=0) render no row.
        assert!(!table.contains(" tx "));
    }

    #[test]
    fn parses_cluster_commands() {
        assert_eq!(
            parse_args(&argv(&[
                "cluster",
                "start",
                "--worker",
                "127.0.0.1:9001",
                "--worker",
                "127.0.0.1:9002",
                "--max-connections",
                "128",
            ]))
            .unwrap(),
            Invocation::ClusterStart {
                serve: ServeOptions {
                    addr: DEFAULT_SERVER_ADDR.into(),
                    cache: default_campaign_cache(),
                    queue_workers: 2,
                    workers: 0,
                    max_connections: 128,
                    reactor_threads: 0,
                },
                worker_addrs: vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()],
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "cluster",
                "add-worker",
                "127.0.0.1:9001",
                "--server",
                "127.0.0.1:8000",
            ]))
            .unwrap(),
            Invocation::ClusterAddWorker {
                worker: "127.0.0.1:9001".into(),
                server: "127.0.0.1:8000".into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&["cluster", "status"])).unwrap(),
            Invocation::ClusterStatus {
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "submit",
                "s.toml",
                "--cluster",
                "--watch"
            ]))
            .unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: true,
                cluster: true,
                record: false,
            }
        );
        assert!(parse_args(&argv(&["cluster"])).is_err());
        assert!(parse_args(&argv(&["cluster", "frob"])).is_err());
        assert!(parse_args(&argv(&["cluster", "add-worker"])).is_err());
        assert!(parse_args(&argv(&["cluster", "status", "extra"])).is_err());
        // --worker is a cluster-start-only flag.
        assert!(parse_args(&argv(&["serve", "--worker", "x"])).is_err());
        // --cluster is a submit-only flag.
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--cluster"])).is_err());
    }

    #[test]
    fn cluster_client_commands_through_cli_layer() {
        // One in-process worker + one in-process coordinator, driven
        // purely through CLI invocations (what the CI cluster smoke
        // does with real processes).
        let dir = std::env::temp_dir().join(format!("synapse-cli-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("sweep.toml");
        std::fs::write(
            &spec_path,
            r#"
            name = "cli-cluster"
            seed = 17
            machines = ["thinkie", "comet"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000, 50000]
            "#,
        )
        .unwrap();

        let worker = synapse_server::Server::bind(synapse_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        })
        .unwrap();
        let worker_addr = worker.local_addr().unwrap().to_string();
        let worker_handle = worker.handle().unwrap();
        let worker_join = std::thread::spawn(move || worker.run().unwrap());

        let coordinator = std::sync::Arc::new(synapse_cluster::Coordinator::new(
            synapse_cluster::ClusterConfig::default(),
        ));
        let coord = synapse_server::Server::bind(synapse_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        })
        .unwrap()
        .with_cluster(coordinator);
        let coord_addr = coord.local_addr().unwrap().to_string();
        let coord_handle = coord.handle().unwrap();
        let coord_join = std::thread::spawn(move || coord.run().unwrap());

        // add-worker registers over HTTP.
        let mut buf = Vec::new();
        run(
            Invocation::ClusterAddWorker {
                worker: worker_addr.clone(),
                server: coord_addr.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(doc["alive"].as_bool(), Some(true));

        // status shows one live worker.
        let mut buf = Vec::new();
        run(
            Invocation::ClusterStatus {
                server: coord_addr.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let status: serde_json::Value =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(status["live"].as_u64(), Some(1));

        // submit --cluster --watch: distributed, streamed, completed.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignSubmit {
                spec: spec_path,
                server: coord_addr,
                watch: true,
                cluster: true,
                record: false,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["distributed"].as_bool(), Some(true));
        assert_eq!(first["points"].as_u64(), Some(8));
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(last["event"].as_str(), Some("completed"));
        assert_eq!(last["points"].as_u64(), Some(8));

        coord_handle.shutdown();
        coord_join.join().unwrap();
        worker_handle.shutdown();
        worker_join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_watch_status_cancel_through_cli_layer() {
        // Boot a real server, then drive it exclusively through CLI
        // invocations, as the CI smoke step does.
        let dir = std::env::temp_dir().join(format!("synapse-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("sweep.toml");
        std::fs::write(
            &spec_path,
            r#"
            name = "cli-serve"
            seed = 13
            machines = ["thinkie", "comet"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000]
            "#,
        )
        .unwrap();

        let server = synapse_server::Server::bind(synapse_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: Some(dir.join("cache")),
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run().unwrap());

        // submit --watch: one submit reply line + the NDJSON stream.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignSubmit {
                spec: spec_path.clone(),
                server: addr.clone(),
                watch: true,
                cluster: false,
                record: false,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["points"].as_u64(), Some(4));
        let id = first["id"].as_str().unwrap().to_string();
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(last["event"].as_str(), Some("completed"));
        let point_lines = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"point\""))
            .count();
        assert_eq!(point_lines, 4, "{text}");

        // status of that job.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignStatus {
                id: Some(id.clone()),
                server: addr.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let status: serde_json::Value =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(status["status"].as_str(), Some("completed"));
        assert_eq!(status["done"].as_u64(), Some(4));

        // watch replays a finished job's stream.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignWatch {
                id: id.clone(),
                server: addr.clone(),
                aggregates: false,
            },
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("\"event\":\"completed\""));

        // watch --aggregates replays the lifecycle + snapshot ring:
        // terminal snapshot and completed event, but no per-point lines.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignWatch {
                id: id.clone(),
                server: addr.clone(),
                aggregates: true,
            },
            &mut buf,
        )
        .unwrap();
        let stream = String::from_utf8(buf).unwrap();
        assert!(stream.contains("\"event\":\"snapshot\""));
        assert!(stream.contains("\"event\":\"completed\""));
        assert!(!stream.contains("\"event\":\"point\""));

        // aggregates prints the live per-(axis, value) stats table.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignAggregates {
                id: id.clone(),
                server: addr.clone(),
                axis: Some("machine".into()),
                metric: Some("error_pct".into()),
                json: false,
            },
            &mut buf,
        )
        .unwrap();
        let table = String::from_utf8(buf).unwrap();
        assert!(table.contains("(overall)"), "{table}");
        assert!(table.contains("error_pct"), "{table}");

        // cancel on a finished job is a no-op status echo.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignCancel {
                id,
                server: addr.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let echoed: serde_json::Value =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(echoed["status"].as_str(), Some("completed"));

        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_and_stats_through_cli_layer() {
        let dir = std::env::temp_dir().join(format!("synapse-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut buf = Vec::new();
        run(
            Invocation::Profile {
                command: "sleep 0.1".into(),
                tags: Tags::parse("t=cli"),
                rate: 10.0,
                store: dir.clone(),
            },
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("Tx="));
        let mut buf2 = Vec::new();
        run(
            Invocation::Stats {
                command: "sleep 0.1".into(),
                tags: Tags::parse("t=cli"),
                store: dir.clone(),
            },
            &mut buf2,
        )
        .unwrap();
        assert!(String::from_utf8(buf2).unwrap().contains("1 runs"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
