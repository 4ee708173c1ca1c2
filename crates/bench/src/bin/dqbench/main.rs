//! `dqbench`: the repository benchmark.  It times the paper's cleaning
//! loop and the engine's other user-facing paths end to end and layer by
//! layer, and checks every operation's output.  `README.md` beside this
//! file has the workload and metric tables and a baseline.
//!
//! ```text
//! dqbench --workload <name|all> --seed <u64> [--seconds <s>] [--trace 0|1]
//!         [--spans <file>] [--smoke]
//! dqbench --compare <a.json> <b.json>
//! ```
//!
//! Built and run from the repository root with
//! `cargo run --release --offline --manifest-path crates/bench/src/bin/dqbench/Cargo.toml -- <flags>`
//! (the command `BENCHMARK.json` names).
//!
//! # Workloads
//!
//! Inputs come from the `dq_gen` generators, seeded with `--seed`.  One
//! client thread issues ops back to back (a closed loop) for `--seconds`
//! of wall time; the engines use their default worker count, one per core.
//!
//! * `clean-master-20k` — the cleaning loop with master data (Fan 2008,
//!   §5.1 and §6): parse 20k dirty customer records from CSV, vet the rules
//!   with `analyze_cfds`, then detect, match against the master, fuse,
//!   repair and verify.  Six `[CC, AC]` groups make detection emit about
//!   3M violation pairs per pass, so the op is bound by violation emission
//!   and matching.
//! * `monitor-delta-100k` — writes beside reads: each op is a round of 48
//!   row writes (16 corrupting edits, 16 reverts, 16 appends) followed by
//!   `maintain_cfd_violations` on 100k customers; every tenth round also
//!   removes the rows appended since the last such round, which forces a
//!   rebuild and sets the tail latency.
//! * `profile-rules-100k` — rule discovery and vetting: FD and CFD
//!   discovery on 100k customers, then `analyze_cfds` with minimal-cover
//!   pruning of the mined rules.  It emits no violations, so it is the
//!   workload a detection-output change should leave unchanged.
//! * `ooc-shards-200k` — the out-of-core path: stream a 200k-row CSV file
//!   into on-disk shards, map them, detect CFD violations and discover FDs
//!   shard by shard, remove the shards.
//!
//! # Metrics
//!
//! An untraced run (`--trace 0`) reports `setup_s` (median of three
//! set-ups: the program work before the measured loop), `tuples_per_s`,
//! `op_p50_ms` and `peak_heap_mib` (heap high-water mark of the measured
//! loop); the result record adds `op_p95_ms`.  A traced run (`--trace 1`)
//! traces every second op
//! with spans the benchmark records around each call into a library layer
//! and reports the per-layer metrics: each layer's share of op wall time,
//! the unattributed remainder, the tracing overhead and per-op counts.
//!
//! Every op is checked against an oracle computed outside the timers; an
//! op that returns an error or fails its oracle counts as failed and the
//! run goes on.  The last line of standard output is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`; the
//! line before it is the full result record that `--compare` reads.

mod alloc;
mod compare;
mod json;
mod measure;
mod trace;
mod workloads;

use json::{quote, Json};
use measure::{RunConfig, RunResult};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::WORKLOADS;

#[global_allocator]
static HEAP: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured seconds per run unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: dqbench --workload <name|all> --seed <u64> [--seconds <s>] [--trace 0|1] [--spans <file>] [--smoke]
       dqbench --compare <a.json> <b.json>
workloads: clean-master-20k, monitor-delta-100k, profile-rules-100k, ooc-shards-200k";

/// What the command line asks for.
enum Command {
    /// Run these workloads, each with the same settings.
    Run(Vec<RunConfig>),
    /// Compare two result sets against the bounds in `BENCHMARK.json`
    /// of the working directory.
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload: Option<&str> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<f64> = None;
    let mut trace: Option<bool> = None;
    let mut spans: Option<PathBuf> = None;
    let mut smoke = false;
    let mut compare: Option<(PathBuf, PathBuf)> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn once<T>(slot: &mut Option<T>, name: &str, value: T) -> Result<(), String> {
            match slot.replace(value) {
                Some(_) => Err(format!("{name} given twice")),
                None => Ok(()),
            }
        }
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let known = WORKLOADS.iter().chain(["all"].iter()).find(|w| **w == name);
                let name = *known.ok_or_else(|| format!("unknown workload '{name}'"))?;
                once(&mut workload, "--workload", name)?;
            }
            "--seed" => {
                let text = value("--seed")?;
                let parsed = text
                    .parse::<u64>()
                    .map_err(|_| format!("--seed '{text}' is not an unsigned 64-bit integer"))?;
                once(&mut seed, "--seed", parsed)?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                let parsed = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds '{text}' is not a non-negative number"))?;
                once(&mut seconds, "--seconds", parsed)?;
            }
            "--trace" => {
                let parsed = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
                once(&mut trace, "--trace", parsed)?;
            }
            "--spans" => {
                let path = PathBuf::from(value("--spans")?);
                once(&mut spans, "--spans", path)?;
            }
            "--smoke" => {
                if std::mem::replace(&mut smoke, true) {
                    return Err("--smoke given twice".into());
                }
            }
            "--compare" => {
                let a = PathBuf::from(value("--compare")?);
                let b = PathBuf::from(value("--compare")?);
                once(&mut compare, "--compare", (a, b))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some((a, b)) = compare {
        if workload.is_some() || seed.is_some() || seconds.is_some() || trace.is_some() || smoke {
            return Err("--compare takes no run flags".into());
        }
        return Ok(Command::Compare(a, b));
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let names: Vec<&'static str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    if names.len() > 1 && spans.is_some() {
        return Err("--spans names one file, so it needs one workload".into());
    }
    let trace = trace.unwrap_or(false);
    Ok(Command::Run(
        names
            .into_iter()
            .map(|workload| RunConfig {
                workload,
                seed,
                seconds: seconds.unwrap_or(if smoke { 0.0 } else { DEFAULT_SECONDS }),
                trace,
                smoke,
                spans: spans
                    .clone()
                    .or_else(|| trace.then(|| default_spans(workload, seed))),
            })
            .collect(),
    ))
}

/// Where a traced run writes its spans unless `--spans` says otherwise:
/// beside the executable, inside the build directory.
fn default_spans(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    dir.join("dqbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metrics_json(result: &RunResult) -> String {
    let items: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The full result record: settings, machine stamp, tallies, metrics.
fn record_json(cfg: &RunConfig, result: &RunResult) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut fields = vec![
        format!("\"workload\": {}", quote(cfg.workload)),
        format!("\"seed\": {}", cfg.seed),
        format!("\"trace\": {}", u8::from(cfg.trace)),
        format!("\"smoke\": {}", cfg.smoke),
        format!("\"seconds\": {}", cfg.seconds),
        format!("\"commit\": {}", quote(&commit())),
        format!("\"nproc\": {}", nproc()),
        format!("\"profile\": \"{profile}\""),
        "\"threads\": 1".to_string(),
        format!("\"engine_threads\": {}", nproc()),
        format!("\"ops_attempted\": {}", result.attempted),
        format!("\"ops_failed\": {}", result.failed),
    ];
    fields.extend(
        result
            .fields
            .iter()
            .map(|(name, value)| format!("{}: {value}", quote(name))),
    );
    fields.push(format!("\"metrics\": {}", metrics_json(result)));
    format!("{{{}}}", fields.join(", "))
}

/// The last line of standard output.
fn result_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics_json(result)
    )
}

fn run_one(cfg: RunConfig) -> ExitCode {
    let result = workloads::run(cfg.clone());
    eprintln!(
        "dqbench: {} seed {}: {} ops, {} failed",
        cfg.workload, cfg.seed, result.attempted, result.failed
    );
    for (name, value, unit) in &result.metrics {
        eprintln!("  {name:<44} {value:>16.4} {unit}");
    }
    if let Some(table) = &result.table {
        eprint!("{table}");
    }
    println!("{}", record_json(&cfg, &result));
    println!("{}", result_line(&result));
    ExitCode::SUCCESS
}

/// Runs each workload in a fresh process of its own, forwarding its output;
/// fails when a child fails or reports an incorrect run.
fn run_each(configs: &[RunConfig]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dqbench: cannot find the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for cfg in configs {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", cfg.workload])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .stdout(std::process::Stdio::piped());
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        let child = cmd.spawn().and_then(|mut child| {
            let mut out = String::new();
            let read = child
                .stdout
                .take()
                .expect("stdout is piped")
                .read_to_string(&mut out);
            let status = child.wait()?;
            read.map(|_| (status, out))
        });
        match child {
            Ok((status, out)) => {
                print!("{out}");
                let correct = out
                    .lines()
                    .last()
                    .and_then(|l| Json::parse(l).ok())
                    .and_then(|j| j.get("correct").cloned())
                    == Some(Json::Bool(true));
                ok &= status.success() && correct;
            }
            Err(e) => {
                eprintln!("dqbench: cannot run {}: {e}", cfg.workload);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let specs = compare::end_to_end_specs(&Json::parse(&read(Path::new("BENCHMARK.json"))?)?)?;
    let (set_a, set_b) = (
        compare::read_results(&read(a)?),
        compare::read_results(&read(b)?),
    );
    if set_a.values.is_empty() || set_b.values.is_empty() {
        return Err("a result set holds no dqbench records".into());
    }
    let (table, any_worse) = compare::render(&set_a, &set_b, &specs);
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(reason) => {
            eprintln!("dqbench: {reason}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Compare(a, b)) => match run_compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(reason) => {
                eprintln!("dqbench: {reason}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(configs)) if configs.len() == 1 => {
            run_one(configs.into_iter().next().expect("one config"))
        }
        Ok(Command::Run(configs)) => run_each(&configs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// `BENCHMARK.json` at the repository root, found by walking up from
    /// the package (this file builds in two packages at different depths).
    fn benchmark() -> Json {
        let mut dir = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(candidate).expect("readable BENCHMARK.json");
                return Json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(dir.pop(), "no BENCHMARK.json above the package");
        }
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn parser_rejects_unknown_flags_workloads_and_seeds() {
        for bad in [
            "--workload clean-master-20k --seed 1 --fast",
            "--workload nope --seed 1",
            "--workload all --seed -3",
            "--workload all --seed 1 --seed 2",
            "--workload all --seed 1 --trace yes",
            "--workload all",
            "--compare a.json",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
        let Ok(Command::Run(configs)) = parse_args(&args(
            "--workload profile-rules-100k --seed 7 --seconds 10 --trace 0",
        )) else {
            panic!("a valid command line was rejected");
        };
        assert_eq!(configs.len(), 1);
        assert_eq!((configs[0].seed, configs[0].seconds), (7, 10.0));
    }

    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics_without_failures() {
        let bench = benchmark();
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(names(bench.get("workloads").unwrap()), WORKLOADS);
        let end_to_end = names(bench.get("end_to_end").unwrap());
        let per_layer = names(bench.get("per_layer").unwrap());
        let start = Instant::now();
        for workload in WORKLOADS {
            for (trace, declared) in [(false, &end_to_end), (true, &per_layer)] {
                let result = workloads::run(RunConfig {
                    workload,
                    seed: 42,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    spans: None,
                });
                let emitted: Vec<String> = result.metrics.iter().map(|m| m.0.clone()).collect();
                assert_eq!(&emitted, declared, "{workload} trace={trace}");
                assert!(result.attempted > 0, "{workload}: no ops ran");
                assert_eq!(result.failed, 0, "{workload} trace={trace}: failed ops");
                assert!(result.correct, "{workload} trace={trace}: incorrect run");
            }
        }
        assert!(
            start.elapsed().as_secs_f64() < 10.0,
            "smoke runs took {:?}",
            start.elapsed()
        );
    }
}
