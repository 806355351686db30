//! The three closed-loop workloads: one client, one campaign at a
//! time. Each campaign is timed from call (or submit) until the report
//! returns (or the terminal `completed` event arrives); its correctness
//! checks run after the clock stops.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use synapse_campaign::{
    expand, run_campaign, run_campaign_on, runner, CampaignSpec, CancelToken, PointEvent,
    ResultCache, RunConfig,
};
use synapse_server::{Client, Server, ServerConfig, ServerError, ServerHandle};
use synapse_trace::{ReplayMode, Trace, TraceRecorder};

use crate::inputs::{spec, spec_seed, BACKGROUND_CAMPAIGNS, GRID_POINTS};
use crate::spans::{json_line, SpanId, Tracer};
use crate::stats::counter;

/// Which workload a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `campaign run --record` with a fresh cache per campaign.
    ColdSweep,
    /// A warm in-process `synapse serve`, drained per point.
    WarmServe,
    /// A coordinator fanning leases out to two warm worker servers.
    ClusterFanout,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cold_sweep" => Some(Kind::ColdSweep),
            "warm_serve" => Some(Kind::WarmServe),
            "cluster_fanout" => Some(Kind::ClusterFanout),
            _ => None,
        }
    }
}

/// Where and how a session runs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Scratch directory owned by this run.
    pub work: PathBuf,
    /// The benchmark's `--seed`.
    pub seed: u64,
    /// Sweep workers (one per core).
    pub workers: usize,
}

/// One timed campaign.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Points the campaign completed.
    pub points: usize,
    /// Call or submit until the report or terminal event.
    pub campaign_ms: f64,
    /// Call or submit until the first point result.
    pub first_point_ms: f64,
    /// Submit until the server's ack line (NaN without a server).
    pub ack_ms: f64,
    /// Bytes of event stream drained (0 without a server).
    pub stream_bytes: usize,
}

/// Run `f` in a span when tracing, plainly otherwise. Spans of the
/// workload loop are named `loop.*`, so they never mix into the figures
/// the layer probes derive from their own spans.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Error message prefixer: `map_err(|e| err("context")(&e))`.
pub fn err(context: &str) -> impl Fn(&dyn std::fmt::Display) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// A set-up workload, ready to run campaigns. Dropping it stops its
/// servers and removes its files.
pub enum Session {
    /// `cold_sweep`.
    Cold(Cold),
    /// `warm_serve` and `cluster_fanout`.
    Served(Box<Served>),
}

impl Session {
    /// Set the workload up: bind servers, populate and open caches, and
    /// run [`WARMUP_CAMPAIGNS`] checked campaigns. `slot` keeps the directories
    /// of successive set-ups apart.
    pub fn setup(kind: Kind, ctx: &Ctx, slot: usize) -> Result<Session, String> {
        let dir = ctx.work.join(format!("session-{slot}"));
        std::fs::create_dir_all(&dir).map_err(|e| err("session dir")(&e))?;
        let mut session = match kind {
            Kind::ColdSweep => Session::Cold(Cold {
                dir,
                seed: ctx.seed,
                workers: ctx.workers,
                next: 0,
            }),
            Kind::WarmServe | Kind::ClusterFanout => Session::Served(Box::new(Served::start(
                ctx,
                dir,
                kind == Kind::ClusterFanout,
            )?)),
        };
        for _ in 0..WARMUP_CAMPAIGNS {
            session.campaign(None)?;
        }
        Ok(session)
    }

    /// Run one campaign: timed operation, then untimed checks.
    pub fn campaign(&mut self, tracer: Option<&Tracer>) -> Result<Sample, String> {
        match self {
            Session::Cold(c) => c.campaign(tracer),
            Session::Served(s) => s.campaign(tracer),
        }
    }

    /// The spec whose grid the session's campaigns run (the first one,
    /// for `cold_sweep`, whose every campaign has its own seed).
    pub fn spec(&self) -> CampaignSpec {
        match self {
            Session::Cold(c) => c.spec(0),
            Session::Served(s) => s.spec.clone(),
        }
    }

    /// The program's `/metrics` exposition (the process registry
    /// directly when no server runs).
    pub fn metrics(&self) -> Result<String, String> {
        match self {
            Session::Cold(_) => Ok(synapse_telemetry::global().render()),
            Session::Served(s) => s.client.metrics().map_err(|e| err("GET /metrics")(&e)),
        }
    }
}

/// Checked campaigns run at the end of every set-up.
const WARMUP_CAMPAIGNS: usize = 10;

/// `cold_sweep`: each campaign gets a new spec seed and a fresh cache,
/// and its flight-recorder trace is written to disk.
///
/// The cache lives in memory: a fresh on-disk cache persists ~150 shard
/// files per campaign, and creating that many files on an ext4 disk
/// shared with other tenants took anywhere from 13 to 77 ms within one
/// minute, which buries every other cost. Persist is timed per layer
/// (`store.persist_us_per_point`) instead.
pub struct Cold {
    dir: PathBuf,
    seed: u64,
    workers: usize,
    next: u64,
}

impl Cold {
    fn spec(&self, i: u64) -> CampaignSpec {
        spec("cold-sweep", spec_seed(self.seed, "cold", i))
    }

    fn campaign(&mut self, tracer: Option<&Tracer>) -> Result<Sample, String> {
        let spec = self.spec(self.next);
        let dir = self.dir.join(format!("c{}", self.next));
        self.next += 1;
        std::fs::create_dir_all(&dir).map_err(|e| err("campaign dir")(&e))?;
        let trace_path = dir.join("trace.jsonl");
        let config = RunConfig {
            workers: self.workers,
        };
        let first_point: OnceLock<Instant> = OnceLock::new();

        let started = Instant::now();
        let outcome = traced(tracer, "loop.campaign", None, |root| {
            let cache = traced(tracer, "loop.store.open", root, |_| {
                ResultCache::in_memory()
            });
            let recorder = TraceRecorder::new(&spec);
            let outcome = traced(tracer, "loop.engine.run_campaign_on", root, |run| {
                let observer = |event: PointEvent| {
                    if matches!(event, PointEvent::PointDone { .. }) {
                        first_point.get_or_init(Instant::now);
                    }
                    traced(tracer, "loop.trace.observe", run, |_| {
                        recorder.observe(&event)
                    });
                };
                run_campaign_on(&spec, &config, &cache, &observer, &CancelToken::new())
            })
            .map_err(|e| err("run campaign")(&e))?;
            traced(tracer, "loop.trace.write", root, |_| {
                recorder.record_stats(&outcome.stats);
                recorder.write_to(&trace_path)
            })
            .map_err(|e| err("write trace")(&e))?;
            Ok::<_, String>(outcome)
        })?;
        let elapsed = started.elapsed();

        if outcome.stats.simulated != GRID_POINTS || outcome.report.points != GRID_POINTS {
            return Err(format!(
                "cold campaign simulated {} of {} points",
                outcome.stats.simulated, outcome.report.points
            ));
        }
        let trace = Trace::load(&trace_path).map_err(|e| err("load trace")(&e))?;
        let replay = trace
            .verify(ReplayMode::Strict)
            .map_err(|e| err("strict replay")(&e))?;
        if !replay.is_clean() {
            return Err(format!("trace diverged: {:?}", replay.divergences));
        }
        let rebuilt = trace
            .reconstruct_report()
            .map_err(|e| err("reconstruct report")(&e))?;
        let report = outcome
            .report
            .to_json()
            .map_err(|e| err("report json")(&e))?;
        if rebuilt.to_json().map_err(|e| err("report json")(&e))? != report {
            return Err("reconstructed report differs from the live report".into());
        }
        std::fs::remove_dir_all(&dir).map_err(|e| err("remove campaign dir")(&e))?;
        let first = first_point.get().ok_or("no point landed")?;
        Ok(Sample {
            points: outcome.report.points,
            campaign_ms: elapsed.as_secs_f64() * 1e3,
            first_point_ms: first.duration_since(started).as_secs_f64() * 1e3,
            ack_ms: f64::NAN,
            stream_bytes: 0,
        })
    }
}

/// Fill an on-disk cache with the served grid plus background campaigns
/// of other seeds, and persist it.
pub fn populate_store(
    dir: &Path,
    served: &CampaignSpec,
    seed: u64,
    workers: usize,
) -> Result<(), String> {
    let cache = ResultCache::open_with_workers(dir, workers).map_err(|e| err("open store")(&e))?;
    let config = RunConfig { workers };
    let background = (0..BACKGROUND_CAMPAIGNS as u64)
        .map(|j| spec("background", spec_seed(seed, "background", j)));
    for s in std::iter::once(served.clone()).chain(background) {
        runner::run_points(&expand(&s), &cache, &config).map_err(|e| err("populate")(&e))?;
    }
    cache.persist().map_err(|e| err("persist store")(&e))?;
    Ok(())
}

type ServerThread = (ServerHandle, JoinHandle<Result<(), ServerError>>);

fn start_server(config: ServerConfig) -> Result<(String, ServerThread), String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .map_err(|e| err("bind server")(&e))?;
    let addr = server.local_addr().map_err(|e| err("server addr")(&e))?;
    let handle = server.handle().map_err(|e| err("server handle")(&e))?;
    let join = std::thread::spawn(move || server.run());
    Ok((addr.to_string(), (handle, join)))
}

/// `warm_serve` (one server) and `cluster_fanout` (a coordinator and
/// two workers sharing one warm cache directory).
pub struct Served {
    distributed: bool,
    spec: CampaignSpec,
    spec_json: String,
    expected_report: String,
    addr: String,
    client: Client,
    /// Front server last, so workers outlive the coordinator's drain.
    servers: Vec<ServerThread>,
    dir: PathBuf,
}

impl Served {
    fn start(ctx: &Ctx, dir: PathBuf, distributed: bool) -> Result<Served, String> {
        let name = if distributed {
            "cluster-fanout"
        } else {
            "warm-serve"
        };
        let spec = spec(name, spec_seed(ctx.seed, "served", 0));
        let store = dir.join("store");
        populate_store(&store, &spec, ctx.seed, ctx.workers)?;
        let cached = ServerConfig {
            cache_dir: Some(store),
            ..ServerConfig::default()
        };
        let mut servers = Vec::new();
        let addr = if distributed {
            let coordinator = Arc::new(synapse_cluster::Coordinator::new(
                synapse_cluster::ClusterConfig::default(),
            ));
            for _ in 0..2 {
                let (worker_addr, thread) = start_server(cached.clone())?;
                coordinator.registry().register(&worker_addr);
                servers.push(thread);
            }
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..ServerConfig::default()
            })
            .map_err(|e| err("bind coordinator")(&e))?
            .with_cluster(coordinator);
            let addr = server
                .local_addr()
                .map_err(|e| err("coordinator addr")(&e))?;
            let handle = server.handle().map_err(|e| err("coordinator handle")(&e))?;
            servers.push((handle, std::thread::spawn(move || server.run())));
            addr.to_string()
        } else {
            let (addr, thread) = start_server(cached)?;
            servers.push(thread);
            addr
        };
        let expected_report = run_campaign(&spec, &RunConfig::default(), None)
            .and_then(|o| o.report.to_json())
            .map_err(|e| err("library run")(&e))?;
        Ok(Served {
            distributed,
            spec_json: serde_json::to_string(&spec).map_err(|e| err("spec json")(&e))?,
            spec,
            expected_report,
            client: Client::new(addr.clone()),
            addr,
            servers,
            dir,
        })
    }

    fn failed_leases(&self) -> Result<f64, String> {
        let text = self.client.metrics().map_err(|e| err("GET /metrics")(&e))?;
        Ok(counter(&text, "synapse_cluster_leases_failed_total"))
    }

    fn campaign(&mut self, tracer: Option<&Tracer>) -> Result<Sample, String> {
        let failed_before = if self.distributed {
            self.failed_leases()?
        } else {
            0.0
        };
        let mut ack_ms = f64::NAN;
        let mut first_point_ms = f64::NAN;
        let mut stream_bytes = 0;
        let started = Instant::now();
        let on_line = |line: &str| {
            stream_bytes += line.len() + 1;
            if ack_ms.is_nan() {
                ack_ms = started.elapsed().as_secs_f64() * 1e3;
            } else if first_point_ms.is_nan() && line.contains("\"event\":\"point\"") {
                first_point_ms = started.elapsed().as_secs_f64() * 1e3;
            }
            true
        };
        let submitted = traced(tracer, "loop.campaign", None, |root| {
            if self.distributed {
                traced(
                    tracer,
                    "loop.cluster.submit_watch_distributed",
                    root,
                    |_| {
                        self.client
                            .submit_watch_distributed(&self.spec_json, on_line)
                    },
                )
            } else {
                traced(tracer, "loop.server.submit_watch", root, |_| {
                    self.client.submit_watch(&self.spec_json, on_line)
                })
            }
        });
        let campaign_ms = started.elapsed().as_secs_f64() * 1e3;
        let (ack, done) = submitted.map_err(|e| err("submit and watch")(&e))?;

        if done["event"].as_str() != Some("completed") || done["points"].as_u64() != Some(192) {
            return Err(format!(
                "terminal event is not a 192-point completion: {}",
                json_line(&done)
            ));
        }
        if !self.distributed
            && (done["cache_hit_rate"].as_f64() != Some(1.0)
                || done["simulated"].as_u64() != Some(0))
        {
            return Err(format!(
                "warm campaign was not all cache hits: {}",
                json_line(&done)
            ));
        }
        let id = ack["id"].as_str().ok_or("ack carries no job id")?;
        let report = get_body(&self.addr, &format!("/campaigns/{id}/report"))?;
        if report != self.expected_report {
            return Err(format!(
                "served report of {id} differs from the library run"
            ));
        }
        if self.distributed && self.failed_leases()? != failed_before {
            return Err("a lease failed".into());
        }
        if first_point_ms.is_nan() {
            return Err("stream carried no point event".into());
        }
        Ok(Sample {
            points: GRID_POINTS,
            campaign_ms,
            first_point_ms,
            ack_ms,
            stream_bytes,
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        while let Some((handle, join)) = self.servers.pop() {
            handle.shutdown();
            // A server that failed mid-run has already failed the
            // campaigns that needed it; teardown only has to end it.
            let _ = join.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Cold {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Body of a `GET` answered with `Content-Length`, as raw text, so a
/// report can be compared byte for byte.
fn get_body(addr: &str, path: &str) -> Result<String, String> {
    let io = err("GET report");
    let mut stream = TcpStream::connect(addr).map_err(|e| io(&e))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| io(&e))?;
    let mut reader = BufReader::new(stream);
    let mut length = None;
    let mut status = String::new();
    reader.read_line(&mut status).map_err(|e| io(&e))?;
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path}: {}", status.trim()));
    }
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| io(&e))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or("report response has no Content-Length")?;
    let mut body = vec![0; length];
    reader.read_exact(&mut body).map_err(|e| io(&e))?;
    String::from_utf8(body).map_err(|e| io(&e))
}
