//! `tta-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The line
//! before it holds the machine context. Exits 1 when any run failed its
//! check, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use tta_perfbench::metrics::{end_to_end, per_layer, Metric};
use tta_perfbench::suite::{Bench, Sizes, Workload};
use tta_perfbench::{available_parallelism, execute, Context, TIMED_WORKERS};

/// Snapshot stores live here, relative to the working directory.
const WORK_ROOT: &str = ".ttabench-work";

/// Pool workers of the check repetition and of set-up: the machine's
/// cores, at most two. Timed repetitions run on `TIMED_WORKERS`.
const MAX_WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?);
            }
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => seconds = Some(s),
                _ => return Err(format!("--seconds needs a positive number, got `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(tta_perfbench::suite::DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: tta-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workers = available_parallelism().min(MAX_WORKERS);
    let work_dir = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    let bench = Bench {
        workload: args.workload,
        seed: args.seed,
        sizes: Sizes::BENCH,
        workers,
        work_dir: work_dir.clone(),
    };
    let context = Context::probe(TIMED_WORKERS, workers);
    eprintln!(
        "[ttabench] {} seed {} for {}s, trace {}, context {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        context.json()
    );
    let out = execute(&bench, args.seconds, args.trace);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(WORK_ROOT);
    let walls: Vec<String> = out.untraced().map(|t| format!("{:.3}", t.wall)).collect();
    eprintln!(
        "[ttabench] untraced repetition walls (s): {}",
        walls.join(" ")
    );
    for f in &out.failures {
        eprintln!("[ttabench] FAILED {f}");
    }
    let metrics = if args.trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };
    println!("{{\"context\": {}}}", context.json());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
