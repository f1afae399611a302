//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The host, the seed, the repetition count and
//! the quartiles of every metric go to standard error. A failed
//! correctness gate prints no metrics and exits with code 1.

use perfbench::bench::{self, Options, WorkloadId};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <swarm_rank|swarm_lossy_churn|trace_sim> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: WorkloadId::SwarmRank,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(WorkloadId::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = bench::run(&opts);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "host: nproc={nproc} rustc=\"{}\" profile={} workload={} seed={} trace={} \
         instances={} step_samples={} step_tail=p{}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.step_tail.0,
        outcome.step_tail.1 * 100.0,
    );
    for (name, q1, med, q3, n) in &outcome.spread {
        eprintln!("spread: {name:28} q1={q1:<14.6} median={med:<14.6} q3={q3:<14.6} n={n}");
    }
    if let Some(e) = &outcome.error {
        eprintln!("error: {e}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
