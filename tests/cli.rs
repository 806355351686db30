//! End-to-end tests of the `synapse` command-line binary.

use std::path::PathBuf;
use std::process::Command;

/// Locate the built `synapse` binary next to the test executable
/// (target/<profile>/synapse). Skips the test when it has not been
/// built (e.g. `cargo test -p synapse-repro` alone).
fn cli_binary() -> Option<PathBuf> {
    let mut dir = std::env::current_exe().ok()?;
    dir.pop(); // test binary name
    if dir.ends_with("deps") {
        dir.pop();
    }
    let candidate = dir.join("synapse");
    candidate.exists().then_some(candidate)
}

fn run_cli(args: &[&str]) -> Option<(i32, String, String)> {
    let bin = cli_binary()?;
    let output = Command::new(bin).args(args).output().ok()?;
    Some((
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    ))
}

#[test]
fn table1_subcommand_prints_registry() {
    let Some((code, stdout, _)) = run_cli(&["table1"]) else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    assert_eq!(code, 0);
    assert!(stdout.contains("FLOPs"));
    assert!(stdout.contains("Network"));
}

#[test]
fn machines_subcommand_lists_catalog() {
    let Some((code, stdout, _)) = run_cli(&["machines"]) else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    assert_eq!(code, 0);
    for name in [
        "thinkie", "stampede", "archer", "supermic", "comet", "titan",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn profile_then_stats_then_emulate_through_the_binary() {
    let store = std::env::temp_dir().join(format!("synapse-cli-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let store_s = store.to_str().unwrap();

    let Some((code, stdout, stderr)) = run_cli(&[
        "profile",
        "sleep 0.15",
        "--tags",
        "via=cli",
        "--store",
        store_s,
    ]) else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    assert_eq!(code, 0, "profile failed: {stderr}");
    assert!(stdout.contains("Tx="), "{stdout}");

    let (code, stdout, stderr) = run_cli(&[
        "stats",
        "sleep 0.15",
        "--tags",
        "via=cli",
        "--store",
        store_s,
    ])
    .unwrap();
    assert_eq!(code, 0, "stats failed: {stderr}");
    assert!(stdout.contains("1 runs"), "{stdout}");

    let (code, stdout, stderr) = run_cli(&[
        "emulate",
        "sleep 0.15",
        "--tags",
        "via=cli",
        "--kernel",
        "spin",
        "--store",
        store_s,
    ])
    .unwrap();
    assert_eq!(code, 0, "emulate failed: {stderr}");
    assert!(stdout.contains("emulated"), "{stdout}");

    let (code, stdout, _) = run_cli(&[
        "inspect",
        "sleep 0.15",
        "--tags",
        "via=cli",
        "--store",
        store_s,
    ])
    .unwrap();
    assert_eq!(code, 0);
    assert!(stdout.contains("\"runtime\""));

    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn bad_invocations_exit_nonzero_with_usage() {
    let Some((code, _, stderr)) = run_cli(&["frobnicate"]) else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    assert_ne!(code, 0);
    assert!(stderr.contains("USAGE"));
    let (code, _, stderr) = run_cli(&["emulate", "never profiled"]).unwrap();
    assert_ne!(code, 0);
    assert!(stderr.contains("error"));
}

#[test]
fn unknown_flag_exits_2_with_error_and_usage() {
    let Some((code, stdout, stderr)) = run_cli(&["stats", "cmd", "--kernel", "c"]) else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("error: unknown stats flag --kernel"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:\n  synapse profile"), "{stderr}");
}

#[test]
fn worker_subcommand_consumes_cycles() {
    let Some((code, stdout, stderr)) =
        run_cli(&["worker", "--kernel", "spin", "--cycles", "5000000"])
    else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    assert_eq!(code, 0, "worker failed: {stderr}");
    let consumed: u64 = stdout
        .trim()
        .strip_prefix("consumed=")
        .expect("worker reports consumption")
        .parse()
        .unwrap();
    assert!(consumed >= 5_000_000);
}

#[test]
fn mpi_mode_emulation_spawns_worker_processes() {
    // Drive the MPI-analogue path directly through the emulator with
    // the CLI binary as the worker executable.
    use synapse::emulator::{EmulationPlan, Emulator, KernelChoice};
    use synapse_model::{Profile, ProfileKey, Sample, SystemInfo, Tags};
    use synapse_sim::ParallelMode;

    let Some(worker) = cli_binary() else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    let mut profile = Profile::new(
        ProfileKey::new("mpi-test", Tags::new()),
        SystemInfo::default(),
        1.0,
    );
    profile.runtime = 1.0;
    let mut s = Sample::at(0.0, 1.0);
    s.compute.cycles = 40_000_000;
    profile.push(s).unwrap();

    let plan = EmulationPlan {
        kernel: KernelChoice::Spin,
        threads: 3,
        mode: ParallelMode::Mpi,
        worker_binary: Some(worker),
        emulate_memory: false,
        emulate_storage: false,
        emulate_network: false,
        ..Default::default()
    };
    let report = Emulator::new(plan).emulate(&profile).unwrap();
    assert!(
        report.consumed.cycles >= 40_000_000,
        "workers covered the budget: {}",
        report.consumed.cycles
    );
}

#[test]
fn mpi_mode_without_worker_degrades_to_threads() {
    use synapse::emulator::{EmulationPlan, Emulator, KernelChoice};
    use synapse_model::{Profile, ProfileKey, Sample, SystemInfo, Tags};
    use synapse_sim::ParallelMode;

    let mut profile = Profile::new(
        ProfileKey::new("mpi-degrade", Tags::new()),
        SystemInfo::default(),
        1.0,
    );
    profile.runtime = 1.0;
    let mut s = Sample::at(0.0, 1.0);
    s.compute.cycles = 10_000_000;
    profile.push(s).unwrap();

    let plan = EmulationPlan {
        kernel: KernelChoice::Spin,
        threads: 2,
        mode: ParallelMode::Mpi,
        worker_binary: Some(std::path::PathBuf::from("/no/such/worker")),
        emulate_memory: false,
        emulate_storage: false,
        emulate_network: false,
        ..Default::default()
    };
    let report = Emulator::new(plan).emulate(&profile).unwrap();
    assert!(
        report.consumed.cycles >= 10_000_000,
        "thread fallback covered the budget"
    );
}

#[test]
fn campaign_plan_covers_the_ablation_example() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/ablation.toml");
    let Some((code, stdout, stderr)) = run_cli(&["campaign", "plan", spec]) else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    assert_eq!(code, 0, "campaign plan failed: {stderr}");
    assert!(stdout.contains("72 points"), "{stdout}");
    assert!(stdout.contains("3 filesystems"), "{stdout}");
    assert!(stdout.contains("3 atom sets"), "{stdout}");
    assert!(stdout.contains("2 sample orders"), "{stdout}");
    assert!(
        stdout.contains("fs=local") || stdout.contains("fs=default"),
        "{stdout}"
    );
    assert!(
        stdout.contains("order=preserve") || stdout.contains("order=shuffle"),
        "{stdout}"
    );
}

#[test]
fn serve_submit_watch_cancel_shutdown_through_the_binary() {
    // The full client/server loop against the real `synapse serve`
    // process: submit --watch streams NDJSON, an identical
    // resubmission is all cache hits, and POST /shutdown ends the
    // process cleanly (exit 0, no leak).
    let Some(bin) = cli_binary() else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    let dir = std::env::temp_dir().join(format!("synapse-it-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("sweep.toml");
    std::fs::write(
        &spec_path,
        r#"
        name = "it-serve"
        seed = 3
        machines = ["thinkie", "comet"]
        kernels = ["asm", "c"]
        atoms = ["all", "no-storage"]

        [[workloads]]
        app = "gromacs"
        steps = [10000]
        "#,
    )
    .unwrap();

    let mut child = Command::new(&bin)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cache",
            dir.join("cache").to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn synapse serve");
    // The first stdout line announces the bound (ephemeral) address.
    // Keep the reader (and with it the pipe) alive until the process
    // exits — the server writes a farewell line on shutdown.
    use std::io::{BufRead, BufReader};
    let mut serve_stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let addr = {
        let mut line = String::new();
        serve_stdout.read_line(&mut line).unwrap();
        assert!(line.contains("listening on"), "{line}");
        line.split_whitespace()
            .find(|w| w.contains(':'))
            .expect("address in banner")
            .to_string()
    };

    let submit = |expect_hit_rate: f64| {
        let (code, stdout, stderr) = run_cli(&[
            "campaign",
            "submit",
            spec_path.to_str().unwrap(),
            "--server",
            &addr,
            "--watch",
        ])
        .unwrap();
        assert_eq!(code, 0, "submit --watch failed: {stderr}");
        let last = stdout.lines().last().unwrap();
        let summary: serde_json::Value = serde_json::from_str(last).unwrap();
        assert_eq!(summary["event"].as_str(), Some("completed"), "{stdout}");
        assert_eq!(summary["points"].as_u64(), Some(8));
        assert_eq!(summary["cache_hit_rate"].as_f64(), Some(expect_hit_rate));
        let streamed_points = stdout
            .lines()
            .filter(|l| l.contains("\"event\":\"point\""))
            .count();
        assert_eq!(streamed_points, 8, "{stdout}");
    };
    submit(0.0);
    submit(1.0);

    // Cancel against a finished job echoes its terminal status.
    let (code, stdout, _) = run_cli(&["campaign", "status", "--server", &addr]).unwrap();
    assert_eq!(code, 0);
    let listing: serde_json::Value = serde_json::from_str(stdout.trim()).unwrap();
    assert_eq!(listing["campaigns"].as_array().unwrap().len(), 2);

    // Graceful shutdown: the serve process exits 0.
    synapse_server::Client::new(addr).shutdown().unwrap();
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");
    let mut farewell = String::new();
    serve_stdout.read_line(&mut farewell).unwrap();
    assert!(farewell.contains("shut down"), "{farewell}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn campaign_run_sweeps_and_memoizes_through_the_binary() {
    // The acceptance sweep: examples/campaign.toml expands to ≥100
    // points across ≥3 machines × ≥2 kernels; a second run must serve
    // ≥90 % of points from the result cache.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign.toml");
    let cache =
        std::env::temp_dir().join(format!("synapse-cli-campaign-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let cache_s = cache.to_str().unwrap();

    let Some((code, stdout, stderr)) = run_cli(&["campaign", "plan", spec]) else {
        eprintln!("synapse binary not built; skipping");
        return;
    };
    assert_eq!(code, 0, "campaign plan failed: {stderr}");
    assert!(stdout.contains("192 points"), "{stdout}");

    let (code, stdout, stderr) = run_cli(&["campaign", "run", spec, "--cache", cache_s]).unwrap();
    assert_eq!(code, 0, "campaign run failed: {stderr}");
    assert!(stdout.contains("192 points"), "{stdout}");
    assert!(stdout.contains("192 simulated, 0 from cache"), "{stdout}");
    assert!(stdout.contains("p50="), "aggregates rendered: {stdout}");
    assert!(
        stdout.contains("vs thinkie"),
        "reference errors rendered: {stdout}"
    );

    let (code, stdout, stderr) = run_cli(&["campaign", "run", spec, "--cache", cache_s]).unwrap();
    assert_eq!(code, 0, "cached campaign run failed: {stderr}");
    assert!(
        stdout.contains("0 simulated, 192 from cache (100% hit rate)"),
        "{stdout}"
    );

    let _ = std::fs::remove_dir_all(&cache);
}
