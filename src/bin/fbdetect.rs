//! `fbdetect` — command-line front end to the reproduction.
//!
//! Subcommands:
//!
//! - `simulate` — run the fleet simulator and write a store snapshot;
//! - `scan` — run the detection pipeline over a snapshot and print reports;
//! - `inspect` — list the series in a snapshot;
//! - `demo` — simulate, inject a regression, scan, and report in one shot.
//!
//! Arguments are deliberately simple (`key=value` pairs) so the binary has
//! no dependencies beyond the workspace. Run `fbdetect help` for usage.

use fbdetect::changelog::{ChangeLog, ChangeTrafficConfig, ChangeTrafficGenerator};
use fbdetect::core::{report, DetectorConfig, Pipeline, ScanContext, Threshold};
use fbdetect::fleet::server::Fleet;
use fbdetect::fleet::{ServiceSim, ServiceSimConfig};
use fbdetect::profiler::callgraph::uniform_service_graph;
use fbdetect::tsdb::snapshot::{read_snapshot, write_snapshot};
use fbdetect::tsdb::{TsdbStore, WindowConfig};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn usage() -> &'static str {
    "fbdetect — FBDetect (SOSP 2024) reproduction CLI

USAGE:
    fbdetect <COMMAND> [key=value ...]

COMMANDS:
    simulate out=store.tsdb [hours=12] [subroutines=50] [servers=100]
             [regress=subroutine_00007] [regress-at=36000] [regress-delta=0.02]
        Simulate a service and write a store snapshot.

    scan in=store.tsdb [threshold=0.005] [relative=false]
         [historic=28800] [analysis=7200] [extended=3600] [now=<last>]
        Run the detection pipeline over a snapshot and print reports.

    inspect in=store.tsdb
        List the series in a snapshot.

    demo
        Simulate + inject + scan in one shot (no files).

    help
        Show this message.
"
}

fn parse_args(args: &[String]) -> Result<HashMap<String, String>, String> {
    args.iter()
        .map(|a| {
            a.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("bad argument {a} (expected key=value)"))
        })
        .collect()
}

fn get<T: std::str::FromStr>(
    args: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match args.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad {key}={v}")),
        None => Ok(default),
    }
}

fn simulate(args: &HashMap<String, String>) -> Result<(), String> {
    let out = args.get("out").ok_or("simulate requires out=<path>")?;
    let hours: u64 = get(args, "hours", 12)?;
    let subroutines: usize = get(args, "subroutines", 50)?;
    let servers: usize = get(args, "servers", 100)?;
    let graph = uniform_service_graph(subroutines, 1.0).map_err(|e| e.to_string())?;
    let fleet = Fleet::two_generations(servers).map_err(|e| e.to_string())?;
    let config = ServiceSimConfig {
        name: "svc".to_string(),
        samples_per_tick: 2_000,
        ..Default::default()
    };
    let mut sim = ServiceSim::new(config, graph.clone(), fleet).map_err(|e| e.to_string())?;
    // Background change traffic plus an optional planted regression.
    let mut log = ChangeLog::new();
    let mut traffic = ChangeTrafficGenerator::new(
        ChangeTrafficConfig {
            service: "svc".to_string(),
            subroutine_pool: graph.names().iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        },
        7,
    );
    traffic.generate_background(&mut log, 0, hours * 3_600);
    if let Some(victim) = args.get("regress") {
        let at: u64 = get(args, "regress-at", hours * 3_600 * 5 / 6)?;
        let delta: f64 = get(args, "regress-delta", 0.02)?;
        let frame = graph
            .frame_by_name(victim)
            .map_err(|_| format!("unknown subroutine {victim}"))?;
        let culprit = traffic.plant_culprit(
            &mut log,
            at.saturating_sub(100),
            &[victim.as_str()],
            Some(&format!("Rework {victim}")),
        );
        sim.inject_regression(frame, at, delta, culprit)
            .map_err(|e| e.to_string())?;
        eprintln!("injected +{delta} weight on {victim} at t={at} (change #{culprit})");
    }
    eprintln!("simulating {hours}h of 'svc' ({subroutines} subroutines, {servers} servers)...");
    let store = TsdbStore::new();
    sim.run(&store, 0, hours * 3_600)
        .map_err(|e| e.to_string())?;
    let file = File::create(out).map_err(|e| e.to_string())?;
    write_snapshot(&store, BufWriter::new(file)).map_err(|e| e.to_string())?;
    eprintln!("wrote {} series to {out}", store.series_count());
    Ok(())
}

fn load(args: &HashMap<String, String>) -> Result<TsdbStore, String> {
    let path = args.get("in").ok_or("requires in=<path>")?;
    let file = File::open(path).map_err(|e| e.to_string())?;
    read_snapshot(BufReader::new(file)).map_err(|e| e.to_string())
}

fn scan(args: &HashMap<String, String>) -> Result<(), String> {
    // Arguments first: a typo should not cost a snapshot load.
    let threshold_value: f64 = get(args, "threshold", 0.005)?;
    let relative: bool = get(args, "relative", false)?;
    let threshold = if relative {
        Threshold::Relative(threshold_value)
    } else {
        Threshold::Absolute(threshold_value)
    };
    let windows = WindowConfig {
        historic: get(args, "historic", 28_800)?,
        analysis: get(args, "analysis", 7_200)?,
        extended: get(args, "extended", 3_600)?,
        rerun_interval: get(args, "rerun", 3_600)?,
    };
    let now_arg = args
        .get("now")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad now={v}")))
        .transpose()?;
    let store = load(args)?;
    let ids = store.series_ids();
    let now: u64 = match now_arg {
        Some(now) => now,
        None => {
            ids.iter()
                .filter_map(|id| store.last_timestamp(id).ok().flatten())
                .max()
                .unwrap_or(0)
                + 1
        }
    };
    let config = DetectorConfig::new("cli", windows, threshold);
    let mut pipeline = Pipeline::new(config).map_err(|e| e.to_string())?;
    let outcome = pipeline
        .scan(&store, &ids, now, &ScanContext::default())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "scanned {} series at t={now}: {} change points -> {} reports",
        ids.len(),
        outcome.funnel.change_points,
        outcome.reports.len()
    );
    let health = &outcome.health;
    if health.series_scanned < health.series_total || health.degraded {
        eprintln!(
            "health: {} of {} series scanned ({} skipped for data quality, \
             {} quarantined, {} panicked, {} errored){}",
            health.series_scanned,
            health.series_total,
            health.series_skipped,
            health.series_quarantined,
            health.panicked,
            health.errored,
            if health.degraded {
                format!("; DEGRADED, stages shed: {:?}", health.stages_skipped)
            } else {
                String::new()
            }
        );
    }
    print!("{}", report::render_batch(&outcome.reports, None));
    Ok(())
}

fn inspect(args: &HashMap<String, String>) -> Result<(), String> {
    let store = load(args)?;
    for id in store.series_ids() {
        store
            .with_series(&id, |series| {
                println!(
                    "{}\t{} points\t[{:?}..{:?}]",
                    id.metric_id(),
                    series.len(),
                    series.first_timestamp(),
                    series.last_timestamp()
                );
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn demo() -> Result<(), String> {
    let args: HashMap<String, String> = [
        ("out".to_string(), "/tmp/fbdetect-demo.tsdb".to_string()),
        ("regress".to_string(), "subroutine_00007".to_string()),
    ]
    .into_iter()
    .collect();
    simulate(&args)?;
    let scan_args: HashMap<String, String> =
        [("in".to_string(), "/tmp/fbdetect-demo.tsdb".to_string())]
            .into_iter()
            .collect();
    scan(&scan_args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = parse_args(&argv[1..]).and_then(|args| match command.as_str() {
        "simulate" => simulate(&args),
        "scan" => scan(&args),
        "inspect" => inspect(&args),
        "demo" => demo(),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n\n{}", usage())),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
