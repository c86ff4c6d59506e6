//! The repo's benchmark: four workloads against an in-process
//! `serve_reactor` server over real loopback sockets speaking `DCB1`, every
//! answer checked against a sequential-scan oracle. See `README.md`.
//!
//! ```text
//! dc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dc-benchmark [--quick] [--seed <n>] [--repeat <k>] [--workload <name>]
//! ```
//!
//! With one workload and no `--repeat`, the workload runs in this process
//! and the last line of standard output is the driver's JSON object.
//! Otherwise each (workload, run) is a child process of this one — so
//! `rss_mb` is per workload — and with `--repeat k` the parent prints each
//! end-to-end metric's min / median / max over `k` runs of the same seed.

mod client;
mod gen;
mod harness;
mod layers;
mod oracle;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use spec::{Spec, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: dc-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick] [--repeat <k>] [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 16.0,
        trace: false,
        quick: false,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.quick && !seconds_given {
        args.seconds = 2.0;
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its report.
fn run_here(spec: &Spec, args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let opts = run::Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: args.out_dir.clone(),
    };
    println!(
        "workload {} seed {} seconds {} trace {} cores {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    let outcome = run::run(spec, &opts).map_err(|e| format!("{}: {e}", spec.name))?;
    for note in &outcome.notes {
        println!("note {note}");
    }
    for line in report::human_lines(&outcome) {
        println!("{line}");
    }
    println!("{}", report::json_line(&outcome, args.trace)?);
    Ok(outcome.failed == 0)
}

/// Runs every requested (workload, run) as a child of this process and
/// prints min / median / max per end-to-end metric.
fn run_children(workloads: &[&str], args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in workloads {
        let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for _ in 0..args.repeat {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out_dir)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child to end.
            let out = cmd
                .output()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if args.repeat == 1 {
                print!("{text}");
            }
            all_ok &= out.status.success();
            for line in text.lines() {
                let mut words = line.split_whitespace();
                if let (Some("metric"), Some(name), Some(Ok(value))) = (
                    words.next(),
                    words.next(),
                    words.next().map(str::parse::<f64>),
                ) {
                    runs.entry(name.to_string()).or_default().push(value);
                }
            }
        }
        if args.repeat > 1 {
            println!("{workload}: {} runs of seed {}", args.repeat, args.seed);
            // Every end-to-end metric, bounded or not; the layers too when
            // traced.
            let names = report::END_TO_END
                .iter()
                .chain(report::UNBOUNDED)
                .chain(if args.trace { report::LAYERS } else { &[] });
            for (name, unit) in names {
                let Some(values) = runs.get(*name) else {
                    continue;
                };
                let mut v = values.clone();
                v.sort_by(f64::total_cmp);
                println!(
                    "  {name:<28} min {:>12.3}  median {:>12.3}  max {:>12.3}  {unit}",
                    v[0],
                    stats::median(&v).expect("at least one run"),
                    v[v.len() - 1]
                );
            }
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match (&args.workload, args.repeat) {
        (Some(name), 1) => {
            let spec = Spec::named(name, args.quick).expect("validated workload name");
            run_here(&spec, &args)
        }
        (Some(name), _) => run_children(&[name.as_str()], &args),
        (None, _) => run_children(&WORKLOADS, &args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dc-benchmark: failures — see the FAILED notes above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
