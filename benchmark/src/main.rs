//! The repository benchmark.
//!
//! ```text
//! synapse-benchmark --workload <cold_sweep|warm_serve|cluster_fanout>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up in five child processes (reporting
//! the median set-up time and memory peak), then sets it up once more
//! and runs closed-loop campaigns for `--seconds` with tracing off, and
//! prints the end-to-end metrics. `--trace 1` runs the
//! workload untraced and traced for half the time each, runs short
//! sessions of the served workloads, probes every layer on the
//! workload's grid, and prints the per-layer metrics. Either way the
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when any correctness check failed. See `README.md` here.

mod catalog;
mod host;
mod inputs;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use catalog::{Metric, END_TO_END, PER_LAYER, TAILS};
use spans::{json_line, Tracer};
use stats::{counter, median, min_samples, quantile};
use workloads::{Ctx, Kind, Sample, Session};

/// Set-ups per untraced run, each in a fresh child process so one
/// set-up's leftovers cannot inflate the next; `setup_s` and
/// `peak_rss_mb` are medians over them.
const SETUP_REPS: usize = 5;

/// Campaigns each set-up probe runs after setting up, so its memory
/// high-water mark covers steady operation too.
const PROBE_CAMPAIGNS: usize = 30;

/// Campaigns in a served-workload session a traced run adds when it
/// traces another workload.
const SESSION_CAMPAIGNS: usize = 40;

/// Stretches a timed window's campaigns are cut into, in the order they
/// ran. Each end-to-end rate and percentile is computed per stretch and
/// the median stretch reported, so a burst of load from elsewhere on the
/// host moves one stretch, not the figure. Every stretch holds enough
/// campaigns for its own p90.
const SLICES: usize = 5;

/// A run stops starting campaigns past this, whatever else it wants, so
/// it ends well inside three minutes.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: only set up (see [`setup_probe`]).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        kind,
        seed,
        seconds,
        trace,
        setup_probe: argv.iter().any(|a| a == "--setup-probe"),
    })
}

/// `/metrics` counters each window reads before and after its
/// campaigns.
const COUNTERS: [&str; 4] = [
    "synapse_engine_cache_hits_total",
    "synapse_engine_cache_misses_total",
    "synapse_cluster_leases_assigned_total",
    "synapse_cluster_leases_reassigned_total",
];

/// Campaigns of one measured window.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    attempted: usize,
    failures: Vec<String>,
    /// How much each of [`COUNTERS`] moved during the window.
    deltas: [f64; COUNTERS.len()],
}

impl Window {
    fn failed(&self) -> usize {
        self.failures.len()
    }

    fn us_per_point(&self) -> f64 {
        let ms: f64 = self.samples.iter().map(|s| s.campaign_ms).sum();
        ms * 1e3 / self.points() as f64
    }

    /// Median over [`SLICES`] consecutive, equal-count runs of samples
    /// of `stat` computed on each run.
    fn sliced(&self, stat: impl Fn(&[Sample]) -> Option<f64>) -> f64 {
        let n = self.samples.len();
        let per_slice: Option<Vec<f64>> = (0..SLICES)
            .map(|k| stat(&self.samples[k * n / SLICES..(k + 1) * n / SLICES]))
            .collect();
        per_slice.map_or(f64::NAN, |v| median(&v))
    }

    fn points(&self) -> usize {
        self.samples.iter().map(|s| s.points).sum()
    }

    fn col(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    fn absorb(&mut self, other: &Window) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// When a window stops starting campaigns.
enum Until {
    /// After this long, and once enough samples back a p90.
    Seconds(f64),
    /// After this many campaigns.
    Campaigns(usize),
}

/// Current values of [`COUNTERS`]; a failed scrape is a failed
/// operation.
fn scrape(session: &Session, w: &mut Window) -> [f64; COUNTERS.len()] {
    match session.metrics() {
        Ok(text) => COUNTERS.map(|name| counter(&text, name)),
        Err(e) => {
            w.failures.push(e);
            [f64::NAN; COUNTERS.len()]
        }
    }
}

fn run_window(
    session: &mut Session,
    until: Until,
    tracer: Option<&Tracer>,
    process_start: Instant,
) -> Window {
    let started = Instant::now();
    let mut w = Window::default();
    let before = scrape(session, &mut w);
    loop {
        let more = match until {
            Until::Seconds(s) => {
                started.elapsed().as_secs_f64() < s || w.samples.len() < SLICES * min_samples(0.9)
            }
            Until::Campaigns(n) => w.attempted < n,
        };
        // Stop on the deadline, or when failures dominate.
        if !more || process_start.elapsed() > RUN_DEADLINE || w.failed() > 20 + w.samples.len() {
            let after = scrape(session, &mut w);
            w.deltas = std::array::from_fn(|i| after[i] - before[i]);
            return w;
        }
        w.attempted += 1;
        match session.campaign(tracer) {
            Ok(sample) => w.samples.push(sample),
            Err(e) => w.failures.push(e),
        }
    }
}

struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    attempted: usize,
    failures: Vec<String>,
}

/// Set the workload up in a fresh process and run [`PROBE_CAMPAIGNS`]
/// campaigns there; prints set-up seconds and the memory high-water
/// mark as one JSON line.
fn setup_probe(args: &Args, ctx: &Ctx, process_start: Instant) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut session = Session::setup(args.kind, ctx, 0)?;
    let setup_s = started.elapsed().as_secs_f64();
    let w = run_window(
        &mut session,
        Until::Campaigns(PROBE_CAMPAIGNS),
        None,
        process_start,
    );
    drop(session);
    let metrics = BTreeMap::from([("setup_s", setup_s), ("peak_rss_mb", host::peak_rss_mb())]);
    Ok(Outcome {
        metrics,
        attempted: w.attempted,
        failures: w.failures,
    })
}

/// Run [`setup_probe`] in `SETUP_REPS` child processes, one after
/// another: (set-up seconds, peak MB) of each, plus their failures.
fn setup_reps(args: &Args) -> Result<(Vec<f64>, Vec<f64>, Window), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let (mut secs, mut mb, mut w) = (Vec::new(), Vec::new(), Window::default());
    for _ in 0..SETUP_REPS {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                "0",
                "--setup-probe",
            ])
            .output()
            .map_err(|e| format!("run set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let last: serde_json::Value = text
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok())
            .ok_or_else(|| format!("set-up probe printed no result: {text}"))?;
        let metric = |name: &str| last["metrics"][name]["value"].as_f64();
        w.attempted += last["attempted"].as_u64().unwrap_or(1) as usize;
        match (
            out.status.success(),
            metric("setup_s"),
            metric("peak_rss_mb"),
        ) {
            (true, Some(s), Some(m)) => {
                secs.push(s);
                mb.push(m);
            }
            _ => w.failures.push(format!("set-up probe failed: {text}")),
        }
    }
    Ok((secs, mb, w))
}

fn untraced_run(args: &Args, ctx: &Ctx, process_start: Instant) -> Result<Outcome, String> {
    let (setup_secs, peak_mb, reps) = setup_reps(args)?;
    let mut session = Session::setup(args.kind, ctx, 0)?;
    let mut w = run_window(
        &mut session,
        Until::Seconds(args.seconds),
        None,
        process_start,
    );
    drop(session);
    w.absorb(&reps);

    let mut metrics = BTreeMap::new();
    let rate = |s: &[Sample]| {
        let secs: f64 = s.iter().map(|x| x.campaign_ms / 1e3).sum();
        (secs > 0.0).then(|| s.iter().map(|x| x.points).sum::<usize>() as f64 / secs)
    };
    metrics.insert("points_per_s", w.sliced(rate));
    let campaign: fn(&Sample) -> f64 = |x| x.campaign_ms;
    let first_point: fn(&Sample) -> f64 = |x| x.first_point_ms;
    for (name, pick, q) in [
        ("campaign_ms_p50", campaign, 0.5),
        ("campaign_ms_p90", campaign, 0.9),
        ("first_point_ms_p50", first_point, 0.5),
        ("first_point_ms_p90", first_point, 0.9),
    ] {
        let value = w.sliced(|s| quantile(&s.iter().map(pick).collect::<Vec<_>>(), q));
        metrics.insert(name, value);
    }
    metrics.insert("setup_s", median(&setup_secs));
    metrics.insert("peak_rss_mb", median(&peak_mb));
    println!(
        "{} campaigns timed ({} attempted), {} points; set-ups {setup_secs:?} s, \
         peak {peak_mb:?} MB",
        w.samples.len(),
        w.attempted,
        w.points(),
    );
    Ok(Outcome {
        metrics,
        attempted: w.attempted,
        failures: w.failures,
    })
}

/// A served-workload window for the traced run: the traced workload's
/// own untraced window when it is that workload, else a short session.
fn served_window(
    kind: Kind,
    args: &Args,
    ctx: &Ctx,
    own: &Window,
    process_start: Instant,
) -> Result<Window, String> {
    if kind == args.kind {
        return Ok(Window {
            samples: own.samples.clone(),
            deltas: own.deltas,
            ..Window::default()
        });
    }
    let mut session = Session::setup(kind, ctx, 100 + kind as usize)?;
    let until = Until::Campaigns(SESSION_CAMPAIGNS);
    Ok(run_window(&mut session, until, None, process_start))
}

fn traced_run(args: &Args, ctx: &Ctx, process_start: Instant) -> Result<Outcome, String> {
    let mut session = Session::setup(args.kind, ctx, 0)?;
    let tracer = Tracer::default();
    let half = Until::Seconds(args.seconds / 2.0);
    let plain = run_window(&mut session, half, None, process_start);
    let half = Until::Seconds(args.seconds / 2.0);
    let traced = run_window(&mut session, half, Some(&tracer), process_start);
    let spec = session.spec();
    drop(session);

    let serve = served_window(Kind::WarmServe, args, ctx, &plain, process_start)?;
    let cluster = served_window(Kind::ClusterFanout, args, ctx, &plain, process_start)?;
    let mut all = Window::default();
    for w in [&plain, &traced, &serve, &cluster] {
        all.absorb(w);
    }

    let mut f = layers::probe(
        &tracer,
        &spec,
        args.kind == Kind::ColdSweep,
        &ctx.work,
        ctx.seed,
        ctx.workers,
    )?;
    let [hits, misses, ..] = plain.deltas;
    f.insert("engine.cache_hit_ratio", hits / (hits + misses));
    let serve_us = median(&serve.col(|s| s.campaign_ms)) * 1e3 / inputs::GRID_POINTS as f64;
    let cluster_us = median(&cluster.col(|s| s.campaign_ms)) * 1e3 / inputs::GRID_POINTS as f64;
    f.insert("server.ack_ms_p50", median(&serve.col(|s| s.ack_ms)));
    f.insert(
        "server.overhead_us_per_point",
        serve_us - f["engine.warm_sweep_us_per_point"],
    );
    f.insert(
        "server.stream_bytes_per_point",
        serve.col(|s| s.stream_bytes as f64).iter().sum::<f64>() / serve.points() as f64,
    );
    f.insert("cluster.overhead_us_per_point", cluster_us - serve_us);
    let [.., leases, reassigned] = cluster.deltas;
    let cluster_campaigns = cluster.samples.len() as f64;
    f.insert("cluster.leases_per_campaign", leases / cluster_campaigns);
    f.insert(
        "cluster.reassigned_per_campaign",
        reassigned / cluster_campaigns,
    );
    f.insert(
        "tracing.overhead_us_per_point",
        traced.us_per_point() - plain.us_per_point(),
    );
    f.insert("tracing.untraced_us_per_point", plain.us_per_point());

    let spans_path = ctx
        .work
        .parent()
        .expect("work dir has a parent")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_to(&spans_path)
        .map_err(|e| format!("write spans: {e}"))?;
    println!(
        "traced {}: {} untraced + {} traced campaigns; spans in {}",
        args.workload,
        plain.samples.len(),
        traced.samples.len(),
        spans_path.display()
    );
    Ok(Outcome {
        metrics: f,
        attempted: all.attempted,
        failures: all.failures,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args =
        match parse_args() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                "usage: synapse-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                [&catalog::WORKLOADS[..], &catalog::UNBOUNDED_WORKLOADS].concat().join("|")
            );
                return ExitCode::from(2);
            }
        };
    // Scratch lives in the working directory (the checkout root).
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("error: create {}: {e}", work.0.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        work: work.0.clone(),
        seed: args.seed,
        workers: host::nproc(),
    };
    println!(
        "{}",
        json_line(&serde_json::json!({"host": host::provenance(args.seed, &ctx.work)}))
    );

    // The metrics the result carries, then those only printed.
    let (catalog, printed, outcome): (Vec<Metric>, &[Metric], _) = if args.setup_probe {
        let probed = |m: &&Metric| matches!(m.name, "setup_s" | "peak_rss_mb");
        let metrics = END_TO_END.iter().filter(probed).copied().collect();
        (metrics, &[], setup_probe(&args, &ctx, process_start))
    } else if args.trace {
        (
            PER_LAYER.to_vec(),
            &[],
            traced_run(&args, &ctx, process_start),
        )
    } else {
        let outcome = untraced_run(&args, &ctx, process_start);
        (END_TO_END.to_vec(), &TAILS, outcome)
    };
    let outcome = outcome.unwrap_or_else(|e| Outcome {
        metrics: BTreeMap::new(),
        attempted: 1,
        failures: vec![format!("set-up: {e}")],
    });
    for failure in outcome.failures.iter().take(5) {
        println!("FAILED: {failure}");
    }

    let mut correct = outcome.failures.is_empty();
    let mut metrics = serde_json::Map::<String, serde_json::Value>::new();
    for (m, carried) in catalog
        .iter()
        .map(|m| (m, true))
        .chain(printed.iter().map(|m| (m, false)))
    {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        let moves = match (carried, m.moves) {
            (false, _) => "  (printed only, not bounded)".to_string(),
            (true, "") => String::new(),
            (true, moves) => format!("  -> {moves}"),
        };
        println!(
            "{:<36} {:>14.4} {:<9} ({} is better){moves}",
            m.name, value, m.unit, m.better
        );
        if !value.is_finite() {
            println!("FAILED: {} has no value", m.name);
            correct = false;
        } else if carried {
            let entry = serde_json::json!({"value": value, "unit": m.unit});
            metrics.insert(m.name.into(), entry);
        }
    }
    println!(
        "failed_frac {:.6} ratio ({} of {} operations)",
        outcome.failures.len() as f64 / outcome.attempted.max(1) as f64,
        outcome.failures.len(),
        outcome.attempted
    );
    println!(
        "{}",
        json_line(&serde_json::json!({
            "correct": correct,
            "attempted": outcome.attempted.max(1),
            "failed": outcome.failures.len(),
            "metrics": metrics,
        }))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
