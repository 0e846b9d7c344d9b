//! `ffw-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its metrics; the last stdout line is the
//! JSON result. Exits 1 if any check failed, 2 on a usage error.
//! `ffw-perfbench --catalogue` prints every metric's unit, layer, kind and
//! the end-to-end metric it should move.

use ffw_perfbench::catalogue::{self, Mode};
use ffw_perfbench::report::Report;
use ffw_perfbench::workloads::{hop, rankgrid, recon, serve_mix};
use ffw_perfbench::{RunOpts, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--catalogue" {
            print!("{}", catalogue::render());
            std::process::exit(0);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: ffw-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let tmp = std::path::Path::new(".bench_tmp").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        tmp: tmp.clone(),
    };
    let run: fn(&RunOpts) -> Report = match (args.workload.as_str(), args.trace) {
        ("recon-128", false) => recon::run,
        ("recon-128", true) => recon::run_traced,
        ("rankgrid-64", false) => rankgrid::run,
        ("rankgrid-64", true) => rankgrid::run_traced,
        ("serve-mix", false) => serve_mix::run,
        ("serve-mix", true) => serve_mix::run_traced,
        ("hop-limited", false) => hop::run,
        ("hop-limited", true) => hop::run_traced,
        _ => unreachable!("workload names are validated"),
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = run(&opts);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    let mode = if args.trace {
        Mode::PerLayer
    } else {
        Mode::EndToEnd
    };
    match report.render(mode) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            for f in &report.failures {
                eprintln!("FAILED: {f}");
            }
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if !report.correct() {
        std::process::exit(1);
    }
}
