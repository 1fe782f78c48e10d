//! Benchmark of the nowhere-dense query engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload update-restart --seed 1 --seconds 55 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that times each layer from outside and reports the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line before
//! it holds per-metric sample counts and shortest timer readings. Any
//! wrong answer exits with code 1, bad arguments or set-up errors with 2.

mod bench;
mod inputs;
mod layers;
mod record;
mod trace;

use bench::Ctx;
use record::Samples;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Rounds every run makes, however short `--seconds` is, so no metric
/// comes from a single sample.
const MIN_ROUNDS: u64 = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(55),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = inputs::workload(&args.workload) else {
        let names: Vec<_> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    pin_to_current_cpu();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut ctx = match Ctx::setup(w, args.seed, &out_dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    ctx.gate();
    let budget = Duration::from_secs(args.seconds);
    let samples = if args.trace {
        layers::run(
            &mut ctx,
            budget,
            &out_dir.join(format!("trace-{}.jsonl", w.name)),
        )
    } else {
        timing_run(&mut ctx, budget)
    };
    ctx.cleanup();
    report(&ctx, &samples)
}

/// Pin the process to the CPU it starts on, before the pool worker is
/// spawned (threads inherit the mask). Client and worker take turns in a
/// closed loop, so one CPU serves both; a wake-up on another CPU would
/// cost an inter-processor interrupt, whose latency on a virtual machine
/// varies with the host far more than the work it hands over.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only reports which CPU
    // the calling thread runs on.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return;
    };
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a 1024-bit cpu_set_t that lives across the call,
    // and its size is passed with it; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        eprintln!("perfbench: could not pin to CPU {cpu}; running unpinned");
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() {}

/// Interleave every end-to-end operation over short rounds until the
/// time is up.
fn timing_run(ctx: &mut Ctx, budget: Duration) -> Samples {
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || t0.elapsed() < budget {
        ctx.round(round, &mut s);
        round += 1;
    }
    ctx.sizes(&mut s);
    s
}

fn report(ctx: &Ctx, s: &Samples) -> ExitCode {
    println!("{}", s.diagnostics_json());
    println!("{}", record::result_line(&ctx.tally, &s.values()));
    if ctx.tally.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
