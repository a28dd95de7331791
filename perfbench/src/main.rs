//! Command-line front end of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload random_1m --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Prints the host record, one line per metric (name, value, unit, how it
//! was obtained) and, last, the one-line JSON result.

use sfcp_perfbench::alloc::Counting;
use sfcp_perfbench::run::{run, Options};
use sfcp_perfbench::workloads::{find, WORKLOADS};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: Counting = Counting;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: sfcp-perfbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(find(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Total RAM in bytes from `/proc/meminfo`, or 0 when unreadable.
fn ram_bytes() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

fn host_record() -> String {
    let topo = sfcp_pram::Topology::probe();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"nproc\":{nproc},\"llc_bytes\":{},\"l2_bytes\":{},\"ram_bytes\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        topo.llc_bytes(),
        topo.l2_bytes(),
        ram_bytes(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let w = options.workload;
    println!("# host {}", host_record());
    println!(
        "# workload {} (n = {}) seed {} seconds {} trace {}",
        w.name,
        w.n,
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    let report = match run(&options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!("{} {} {}  # {}", m.name, m.value, m.unit, m.note);
    }
    for m in &report.logged {
        println!("{} {} {}  # log only; {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "error_rate {} ratio  # {} failed of {} attempted",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (check, ok) in &report.checks {
        println!("check {}: {check}", if *ok { "ok" } else { "FAILED" });
    }
    println!("# wall {:.1} s", started.elapsed().as_secs_f64());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
