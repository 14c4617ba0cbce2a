//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <formation|trading> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` it carries the end-to-end metrics, with `--trace 1`
//! the per-layer ones as well. A broken output invariant exits with 1.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::episode::{self, Workload};

/// Variables that change how the stack executes or what it records; a
/// timed run refuses to start with any of them set.
const REFUSED_ENV: [&str; 4] = ["NOW_SIM_JOBS", "NOW_JOBS", "NOW_TRACE", "NOW_MONITORS"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str) -> Option<(Box<dyn Workload>, usize)> {
    use perfbench::{formation::Formation, trading::Trading};
    Some(match name {
        "formation" => (Box::new(Formation::standard()) as Box<dyn Workload>, 1),
        "trading" => (Box::new(Trading::standard()), 3),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(v) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to time a run with {v} set");
        return ExitCode::from(2);
    }
    let Some((w, min_episodes)) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let report = episode::run(
        w.as_ref(),
        args.seed,
        Duration::from_secs(args.seconds),
        min_episodes,
        args.trace,
    );
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    if !report.correct {
        eprintln!("perfbench: output check failed");
        return ExitCode::from(1);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
