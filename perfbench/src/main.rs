//! `perfbench` — SEAL's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <serve-large|batch-paper|churn-sharded>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per invocation. Inputs derive from `--seed`; the timed
//! phases together last `--seconds`. With `--trace 0` the run prints
//! the end-to-end metrics; with `--trace 1` it runs the workload again
//! with the layer probes in place (a recording `QueryEngine` wrapper
//! behind the server, an in-process replay of the engine layers) and
//! prints the per-layer metrics. Either way every answer check runs,
//! outside the timed window, and the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! An answer mismatch exits with status 1, bad arguments with 2.
//!
//! See `README.md` beside this crate for why each workload exists and
//! which end-to-end metric each layer metric should move.

mod batch_paper;
mod churn_sharded;
mod inputs;
mod load;
mod oracle;
mod replay;
mod report;
mod serve_large;
mod serving;
mod stats;
mod traced;
mod wire;

use seal_core::{FilterKind, SealEngine};
use std::path::PathBuf;
use std::time::Instant;

/// The filter every workload builds: Seal's hierarchical hybrid
/// signatures at the settings the repository's benches use.
pub const KIND: FilterKind = FilterKind::Hierarchical {
    max_level: 8,
    budget: 16,
};

/// Set-up repetitions per run; `setup_s` is their median. Five
/// one-second set-ups keep the median steady where the host's speed
/// drifts from one second to the next.
pub const SETUPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phases, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| bad(&e))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <serve-large|batch-paper|churn-sharded> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {cores} core(s)",
        args.workload, args.seed, args.seconds, args.trace
    );
    let report = match args.workload.as_str() {
        "serve-large" => serve_large::run(&args),
        "batch-paper" => batch_paper::run(&args),
        "churn-sharded" => churn_sharded::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (have serve-large, batch-paper, churn-sharded)");
            std::process::exit(2);
        }
    };
    report.print();
    std::process::exit(if report.correct() { 0 } else { 1 });
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A save-then-load round trip through a `.seal` container.
pub struct Persisted {
    /// Seconds in `SealEngine::save`.
    pub save_s: f64,
    /// Seconds in `SealEngine::load_with_threads`.
    pub load_s: f64,
    /// Container size in bytes.
    pub bytes: u64,
    /// The loaded engine.
    pub loaded: SealEngine,
}

/// Saves `engine` to a scratch file, loads it back with 2 threads and
/// removes the file. The file lives under the working directory: the
/// benchmark reads and writes nothing outside it.
pub fn persist(engine: &SealEngine, name: &str) -> Result<Persisted, String> {
    let dir = PathBuf::from(".bench_build").join("perfbench-tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-{}.seal", std::process::id()));
    let t = Instant::now();
    let bytes = engine
        .save(&path)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    let save_s = secs(t);
    let t = Instant::now();
    let loaded = SealEngine::load_with_threads(&path, 2);
    let load_s = secs(t);
    let _ = std::fs::remove_file(&path);
    Ok(Persisted {
        save_s,
        load_s,
        bytes,
        loaded: loaded.map_err(|e| format!("load {}: {e}", path.display()))?,
    })
}

/// Saves and loads `engine` once and records the `persist.*` metrics.
pub fn record_persist(report: &mut report::Report, engine: &SealEngine, name: &str) {
    match persist(engine, name) {
        Ok(p) => {
            report.metric("persist.save_s", p.save_s, "s");
            report.metric("persist.load_s", p.load_s, "s");
            report.metric("persist.container_bytes", p.bytes as f64, "B");
        }
        Err(e) => report.error(e),
    }
}

/// Bytes per object of `engine`'s `.seal` container, serialized in
/// memory.
pub fn container_bytes_per_object(engine: &SealEngine) -> Result<f64, String> {
    let bytes = engine
        .to_container_bytes()
        .map_err(|e| format!("serialize the engine: {e}"))?;
    Ok(bytes.len() as f64 / engine.store().len() as f64)
}

/// Prints a progress line to standard error.
pub fn note(msg: impl AsRef<str>) {
    eprintln!("perfbench: {}", msg.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve-large --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "serve-large".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload x --seed 1 --seconds 10",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed -1 --seconds 5 --trace 0",
            "--workload x --seed 1 --seconds 5 --trace 2",
            "--workload x --seed 1 --seconds 5 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
