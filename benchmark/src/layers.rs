//! Per-layer probes: the benchmark calls each layer's public functions
//! on a workload's grid, at the workload's worker count, each call in a
//! span. A layer's figure is its spans' self time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use synapse::Emulator;
use synapse_campaign::grid::{app_by_name, fnv1a};
use synapse_campaign::runner::emulation_plan;
use synapse_campaign::{
    expand, fingerprint, simulate_point, CampaignEngine, CampaignReport, CampaignSpec, CancelToken,
    LiveAggregates, PointEvent, PointResult, ResultCache, RunConfig, RunStats, ScenarioPoint,
};
use synapse_cluster::protocol::{parse_event, WorkerEvent};
use synapse_cluster::Collector;
use synapse_server::{lease_batch_line, DEFAULT_BATCH_POINTS};
use synapse_sim::{machine_by_name, Noise};
use synapse_trace::{ReplayMode, Trace, TraceRecorder};

use crate::spans::Tracer;
use crate::workloads::{err, populate_store};

/// Layer figures by metric name.
pub type Figures = BTreeMap<&'static str, f64>;

/// Passes over the grid per probe (more for the cheapest calls).
const PASSES: usize = 10;

/// Call `f` on every item across `workers` threads pulling indices from
/// a shared counter, as the sweep engine does.
fn par<T: Sync>(workers: usize, items: &[T], f: impl Fn(usize, &T) + Sync) {
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { return };
        f(i, item);
    };
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            s.spawn(work);
        }
    });
}

/// The three stages of `simulate_point`, each in its own span: profile
/// synthesis, emulation, and the application baseline.
fn physics_stages(t: &Tracer, point: &ScenarioPoint) -> Result<(), String> {
    let app = app_by_name(&point.workload).ok_or("unknown workload")?;
    let profile_machine = machine_by_name(&point.profile_machine).ok_or("unknown machine")?;
    let machine = machine_by_name(&point.machine).ok_or("unknown machine")?;
    let plan = emulation_plan(point).map_err(|e| err("plan")(&e))?;
    let mode = plan.mode;
    let profile = t.span("physics.profile", None, |_| {
        let mut noise = Noise::new(point.seed, point.noise_cv);
        app.simulate_profile(&profile_machine, point.steps, point.sample_rate, &mut noise)
    });
    t.span("physics.emulate", None, |_| {
        black_box(Emulator::new(plan).simulate(&profile, &machine))
    });
    t.span("physics.baseline", None, |_| {
        let mut noise = Noise::new(fnv1a(b"app-baseline", point.seed), point.noise_cv);
        black_box(if point.threads > 1 {
            app.execute_parallel(&machine, point.steps, point.threads, mode, &mut noise)
        } else {
            app.execute(&machine, point.steps, &mut noise)
        })
    });
    Ok(())
}

/// Total on-disk bytes under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&entry.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Probe every layer on `spec`'s grid. `cold` selects which sweep the
/// engine figures describe: a cold one (fresh cache) or a warm one.
pub fn probe(
    t: &Tracer,
    spec: &CampaignSpec,
    cold: bool,
    work: &Path,
    seed: u64,
    workers: usize,
) -> Result<Figures, String> {
    let mut f = Figures::new();
    let points = expand(spec);
    let n = points.len() as f64;
    let per_point = |name: &str| t.total_self_us(name) / (PASSES as f64 * n);
    let config = RunConfig { workers };

    for _ in 0..PASSES {
        t.span("grid.expand", None, |_| black_box(expand(spec)));
    }
    f.insert("grid.expand_us_per_point", per_point("grid.expand"));

    for _ in 0..PASSES {
        par(workers, &points, |_, p| {
            t.span("identity.fingerprint", None, |_| black_box(fingerprint(p)));
        });
    }
    f.insert(
        "identity.fingerprint_us",
        t.mean_self_us("identity.fingerprint"),
    );

    let results: Vec<PointResult> = points
        .iter()
        .map(simulate_point)
        .collect::<Result<_, _>>()
        .map_err(|e| err("simulate")(&e))?;
    let stage_errors = std::sync::Mutex::new(Vec::new());
    for _ in 0..PASSES {
        par(workers, &points, |_, p| {
            t.span("physics.simulate_point", None, |_| {
                black_box(simulate_point(p)).is_ok()
            });
            if let Err(e) = physics_stages(t, p) {
                stage_errors.lock().expect("error list lock").push(e);
            }
        });
    }
    if let Some(e) = stage_errors.into_inner().expect("error list lock").pop() {
        return Err(e);
    }
    for (metric, span) in [
        ("physics.simulate_point_us", "physics.simulate_point"),
        ("physics.profile_us", "physics.profile"),
        ("physics.emulate_us", "physics.emulate"),
        ("physics.baseline_us", "physics.baseline"),
    ] {
        f.insert(metric, t.mean_self_us(span));
    }

    // Store: misses and puts on fresh in-memory caches, as `cold_sweep`
    // pays them; persist of the same results into a fresh on-disk cache;
    // open and hits on one populated like the served workloads' caches.
    for pass in 0..PASSES {
        let cache = ResultCache::in_memory();
        let disk = work.join(format!("probe-fresh-{pass}"));
        let on_disk =
            ResultCache::open_with_workers(&disk, workers).map_err(|e| err("open")(&e))?;
        par(workers, &results, |_, r| {
            t.span("store.get_miss", None, |_| {
                black_box(cache.get(&r.fingerprint))
            });
            t.span("store.put", None, |_| cache.put(&r.fingerprint, r))
                .expect("put into an in-memory cache");
            on_disk
                .put(&r.fingerprint, r)
                .expect("put into a fresh cache");
        });
        t.span("store.persist", None, |_| on_disk.persist())
            .map_err(|e| err("persist")(&e))?;
        drop(on_disk);
        std::fs::remove_dir_all(&disk).map_err(|e| err("remove probe dir")(&e))?;
    }
    f.insert("store.get_miss_us", t.mean_self_us("store.get_miss"));
    f.insert("store.put_us", t.mean_self_us("store.put"));
    f.insert("store.persist_us_per_point", per_point("store.persist"));

    let populated = work.join("probe-populated");
    populate_store(&populated, spec, seed, workers)?;
    let mut opened = None;
    for _ in 0..PASSES {
        let cache = t
            .span("store.open", None, |_| {
                ResultCache::open_with_workers(&populated, workers)
            })
            .map_err(|e| err("open populated")(&e))?;
        opened = Some(cache);
    }
    let warm = opened.expect("at least one pass");
    f.insert("store.open_ms", t.mean_self_us("store.open") / 1e3);
    f.insert(
        "store.bytes_per_point",
        dir_bytes(&populated) as f64 / warm.len() as f64,
    );
    let misses = AtomicUsize::new(0);
    for _ in 0..PASSES {
        par(workers, &results, |_, r| {
            if t.span("store.get_hit", None, |_| warm.get(&r.fingerprint))
                .is_none()
            {
                misses.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    if misses.into_inner() > 0 {
        return Err("a populated cache missed a served point".into());
    }
    f.insert("store.get_hit_us", t.mean_self_us("store.get_hit"));

    // Engine: whole sweeps. Busy time per point is wall × workers ÷
    // points; what the layers above do not explain is the engine's own.
    let sweep = |name: &'static str, cache: &ResultCache, config: &RunConfig| {
        t.span(name, None, |_| {
            CampaignEngine::new(&points, cache, config).run(&|_| {}, &CancelToken::new())
        })
        .map(|_| ())
        .map_err(|e| err("sweep")(&e))
    };
    for _ in 0..PASSES {
        sweep("engine.sweep_warm", &warm, &config)?;
        sweep("engine.sweep_warm_serial", &warm, &RunConfig { workers: 1 })?;
        if cold {
            sweep("engine.sweep_cold", &ResultCache::in_memory(), &config)?;
        }
    }
    drop(warm);
    std::fs::remove_dir_all(&populated).map_err(|e| err("remove probe dir")(&e))?;
    let busy = workers.min(points.len()) as f64;
    let (sweep_span, callees): (_, &[&str]) = if cold {
        (
            "engine.sweep_cold",
            &[
                "identity.fingerprint_us",
                "store.get_miss_us",
                "physics.simulate_point_us",
                "store.put_us",
            ],
        )
    } else {
        (
            "engine.sweep_warm",
            &["identity.fingerprint_us", "store.get_hit_us"],
        )
    };
    let sweep_busy = t.mean_self_us(sweep_span) * busy / n;
    f.insert("engine.sweep_us_per_point", sweep_busy);
    f.insert(
        "engine.unattributed_us_per_point",
        sweep_busy - callees.iter().map(|c| f[c]).sum::<f64>(),
    );
    f.insert(
        "engine.worker_scaling",
        t.mean_self_us("engine.sweep_warm_serial") / t.mean_self_us("engine.sweep_warm"),
    );
    f.insert(
        "engine.warm_sweep_us_per_point",
        t.mean_self_us("engine.sweep_warm") / n,
    );

    for _ in 0..PASSES {
        t.span("report.assemble", None, |_| {
            black_box(CampaignReport::assemble(spec, &results))
        })
        .map_err(|e| err("assemble")(&e))?;
    }
    f.insert("report.assemble_us_per_point", per_point("report.assemble"));

    for _ in 0..PASSES {
        let live = LiveAggregates::new();
        par(workers, &results, |_, r| {
            t.span("live.record", None, |_| live.record(r))
        });
    }
    f.insert("live.record_us", t.mean_self_us("live.record"));

    // Trace: the recorder on the observer seam, then render and a
    // strict verify of what it rendered.
    let shared: Vec<Arc<PointResult>> = results.iter().cloned().map(Arc::new).collect();
    let mut trace_bytes = 0;
    for _ in 0..PASSES {
        let recorder = TraceRecorder::new(spec);
        recorder.observe(&PointEvent::Started {
            total: shared.len(),
        });
        let done = AtomicUsize::new(0);
        par(workers, &shared, |_, r| {
            let event = PointEvent::PointDone {
                result: r.clone(),
                cached: false,
                done: done.fetch_add(1, Ordering::Relaxed) + 1,
                total: shared.len(),
            };
            t.span("trace.observe", None, |_| recorder.observe(&event));
        });
        recorder.observe(&PointEvent::Finished {
            stats: RunStats::default(),
        });
        let text = t.span("trace.render", None, |_| recorder.render());
        trace_bytes = text.len();
        let clean = t.span("trace.verify", None, |_| {
            Trace::parse(&text).and_then(|trace| trace.verify(ReplayMode::Strict))
        });
        if !clean.map_err(|e| err("verify")(&e))?.is_clean() {
            return Err("probe trace did not verify".into());
        }
    }
    f.insert(
        "trace.observe_us_per_point",
        t.mean_self_us("trace.observe"),
    );
    f.insert("trace.render_us_per_point", per_point("trace.render"));
    f.insert("trace.verify_us_per_point", per_point("trace.verify"));
    f.insert("trace.bytes_per_point", trace_bytes as f64 / n);

    // Cluster transport: batch frames encoded by workers, parsed and
    // merged by the coordinator.
    let cached: Vec<(Arc<PointResult>, bool)> = shared.iter().map(|r| (r.clone(), true)).collect();
    let batches: Vec<&[(Arc<PointResult>, bool)]> = cached.chunks(DEFAULT_BATCH_POINTS).collect();
    let trace_id = synapse_campaign::campaign_trace_id(spec);
    for _ in 0..PASSES {
        let collector = Collector::new(points.len());
        let bad = AtomicUsize::new(0);
        par(workers, &batches, |_, batch| {
            let line = t.span("cluster.batch_encode", None, |_| {
                lease_batch_line(batch, Some(&trace_id))
            });
            match t.span("cluster.batch_parse", None, |_| parse_event(&line)) {
                Some(WorkerEvent::Batch(points)) => {
                    t.span("cluster.collector", None, |_| {
                        collector.record_batch(points, &|_| {})
                    });
                }
                _ => {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        if bad.into_inner() > 0 || !collector.is_complete() {
            return Err("batch frames did not round-trip".into());
        }
    }
    for (metric, span) in [
        ("cluster.batch_encode_us_per_point", "cluster.batch_encode"),
        ("cluster.batch_parse_us_per_point", "cluster.batch_parse"),
        ("cluster.collector_us_per_point", "cluster.collector"),
    ] {
        f.insert(metric, per_point(span));
    }
    Ok(f)
}
