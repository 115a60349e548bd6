//! The repository's benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics and a layer-closure check from a traced
//! run. See README.md for the metric glossary and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench [--seed <n>] [--seconds <s>] [--quick]     every workload, both runs
//! perfbench --selfcheck [...]                          the untraced suite twice (A/A)
//! ```
//!
//! The last line of a `--workload` run is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod golden;
mod inputs;
mod json;
mod layers;
mod metrics;
mod openloop;
mod stats;
mod sysinfo;
mod trace;
mod workloads;

use json::{obj, Value};
use metrics::{Better, MetricDef, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{RunArgs, RunResult, WorkloadDef, WORKLOADS};

/// Seed the committed pins in `golden.rs` describe.
pub const DEFAULT_SEED: u64 = 777;
/// Seed held out for checking a claim on inputs it was not developed on.
pub const HELD_OUT_SEED: u64 = 4242;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;
const QUICK_SECONDS: f64 = 1.5;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?.clone()),
            "--seed" => cli.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(cli)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--selfcheck]\n\
         default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}; without --workload every workload runs \
         untraced then traced, each in its own process",
        names.join("|")
    )
}

/// Where a traced run writes its spans: beside the build output, so inside
/// the checkout and already ignored by git.
fn trace_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(
        exe.parent()?
            .parent()?
            .join("perfbench-trace")
            .join(format!("{workload}.jsonl")),
    )
}

fn result_line(result: &RunResult, trace: bool) -> Value {
    let metrics = if trace { &result.per_layer } else { &result.end_to_end };
    obj(vec![
        ("correct", Value::Bool(result.failures.is_empty())),
        ("attempted", Value::Num(result.attempted.max(1) as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", metrics.to_json()),
    ])
}

/// Runs one workload in this process and prints its notes, metrics and, as
/// the last line, the result object.
fn run_one(def: &WorkloadDef, cli: &Cli) -> ExitCode {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli
            .seconds
            .unwrap_or(if cli.quick { QUICK_SECONDS } else { DEFAULT_SECONDS }),
        trace: cli.trace,
        quick: cli.quick,
    };
    println!(
        "workload: {} (trace {}, {} s{})",
        def.name,
        u8::from(args.trace),
        args.seconds,
        if args.quick {
            ", QUICK sizes: not for numbers"
        } else {
            ""
        }
    );
    println!("why: {}", def.why);
    println!("{}", sysinfo::fingerprint(args.seed, 1, 1));
    let result = (def.run)(&args);
    for note in &result.notes {
        println!("{note}");
    }
    if args.trace {
        match trace_path(def.name).map(|p| (trace::write_jsonl(&p, def.name, result.tracer.spans()), p)) {
            Some((Ok(()), path)) => println!(
                "trace: {} spans written to {}",
                result.tracer.spans().len(),
                path.display()
            ),
            Some((Err(e), path)) => println!("trace: could not write {}: {e}", path.display()),
            None => println!("trace: no build directory to write to"),
        }
    }
    let metrics = if args.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    for (def, value) in metrics.iter() {
        println!("  {:<46} {:>18.6} {}", def.name, value, def.unit);
    }
    for failure in &result.failures {
        println!("FAILED CHECK: {failure}");
    }
    println!("{}", result_line(&result, args.trace).render());
    exit_code(result.failures.is_empty())
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's result line as read back from a child process.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a child process of its own, so that peak RSS is
/// the workload's and not the suite's, echoing its output.
fn run_child(workload: &str, cli: &Cli, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &cli.seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let fields = doc.as_obj().ok_or("result line is not an object")?;
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{workload}: result keys are {keys:?}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or(format!("{name}: no unit"))?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Value::as_bool) == Some(true) && out.status.success(),
        metrics,
    })
}

/// Every workload, untraced (end-to-end metrics) then traced (per-layer).
fn run_suite(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut summary = Vec::new();
    for def in WORKLOADS {
        for trace in [false, true] {
            match run_child(def.name, cli, trace) {
                Ok(child) => {
                    ok &= child.correct;
                    if !trace {
                        summary.push((def.name, child));
                    }
                }
                Err(e) => {
                    println!("ERROR: {e}");
                    ok = false;
                }
            }
            println!();
        }
    }
    println!("end-to-end summary (seed {}):", cli.seed);
    for (workload, child) in &summary {
        for (name, value, unit) in &child.metrics {
            println!("  {workload:<18} {name:<26} {value:>16.4} {unit}");
        }
    }
    println!("{}", if ok { "all checks passed" } else { "SOME CHECKS FAILED" });
    exit_code(ok)
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = stats::share(b - a, a.abs());
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// A/A self-check: the untraced suite twice, same code, same seed. Prints
/// the relative difference of every end-to-end metric against its bound;
/// a difference beyond the bound means the instrument cannot resolve a
/// regression of that size on this machine.
fn run_selfcheck(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for def in WORKLOADS {
        let pair = (run_child(def.name, cli, false), run_child(def.name, cli, false));
        match pair {
            (Ok(a), Ok(b)) => {
                ok &= a.correct && b.correct;
                rows.push((def.name, a, b));
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    println!("ERROR: {e}");
                }
                ok = false;
            }
        }
    }
    println!(
        "\nA/A self-check (seed {}): run 2 against run 1, per metric and workload",
        cli.seed
    );
    println!(
        "  {:<18} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "run 1", "run 2", "diff", "bound"
    );
    for (workload, a, b) in &rows {
        for (def, ((_, va, _), (_, vb, _))) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
            let bound = def.bound.unwrap_or(0.0);
            let diff = worsening(def, *va, *vb);
            let verdict = if diff.abs() <= bound { "ok" } else { "unresolved" };
            ok &= diff.abs() <= bound;
            println!(
                "  {workload:<18} {:<26} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                def.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "{}",
        if ok {
            "self-check passed"
        } else {
            "SELF-CHECK: unresolved metrics or failed checks"
        }
    );
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(name) => match workloads::find(name) {
            Some(def) => run_one(def, &cli),
            None => {
                eprintln!("unknown workload {name:?}\n{}", usage());
                ExitCode::from(2)
            }
        },
        None if cli.selfcheck => run_selfcheck(&cli),
        None => run_suite(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let c = cli(&[
            "--workload",
            "cold_scan",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("cold_scan"));
        assert_eq!((c.seed, c.seconds, c.trace, c.quick), (42, Some(10.0), true, false));
        assert_eq!(cli(&[]).unwrap().seed, DEFAULT_SEED);
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }

    /// The result line a quick run prints is well-formed: exactly the four
    /// keys, whole-number counts, and every metric of the table for the
    /// mode, each with a finite value and its unit.
    #[test]
    fn quick_runs_print_well_formed_result_lines() {
        for def in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 31,
                    seconds: 1.0,
                    trace,
                    quick: true,
                };
                let result = (def.run)(&args);
                assert!(result.failures.is_empty(), "{}: {:?}", def.name, result.failures);
                let text = result_line(&result, trace).render();
                assert!(!text.contains('\n') && !text.contains("null"), "{text}");
                let doc = json::parse(&text).unwrap();
                let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
                let attempted = doc.get("attempted").unwrap().as_f64().unwrap();
                assert!(attempted >= 1.0 && attempted.fract() == 0.0);
                assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
                let table = if trace { metrics::PER_LAYER } else { END_TO_END };
                let printed = doc.get("metrics").unwrap().as_obj().unwrap();
                assert_eq!(printed.len(), table.len());
                for ((name, m), d) in printed.iter().zip(table) {
                    assert_eq!(name, d.name);
                    assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit));
                    let v = m.get("value").unwrap().as_f64().unwrap();
                    assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
                    if !trace {
                        assert!(v > 0.0, "{}: end-to-end metric {name} is 0", def.name);
                    }
                }
            }
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[1];
        let higher = &END_TO_END[0];
        assert_eq!((lower.better, higher.better), (Better::Lower, Better::Higher));
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }
}
