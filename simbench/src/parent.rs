//! The parent process: runs one workload in child processes for the
//! requested time, checks every run's outputs and prints the result.
//!
//! Each child is one run of the workload with nothing else in its
//! address space, so its `VmHWM` is that run's peak memory. Timed
//! children run with the benchmark's tracing off; with `--trace 1` a
//! single traced child follows them and supplies the per-layer split.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::workloads::{self, Sample, Size, Workload};

/// Children a timed run makes at least, so every metric is a median.
const MIN_TIMED_CHILDREN: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: u64,
    /// Report the per-layer split (`--trace 1`) instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Internal: run once in this process and print the sample.
    pub child: bool,
    /// Internal: record spans in this child.
    pub traced: bool,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds`, `--trace` and
    /// `--size`, plus the internal `--child` and `--traced` flags.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut switches = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--child" | "--traced" => switches.push(arg),
                "--workload" | "--seed" | "--seconds" | "--trace" | "--size" => {
                    let value = it.next().ok_or(format!("{arg} needs a value"))?;
                    flags.insert(arg, value);
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let get = |name: &str| flags.get(name).ok_or(format!("missing {name}"));
        let number = |name: &str| -> Result<u64, String> {
            get(name)?.parse().map_err(|_| format!("{name} takes a whole number"))
        };
        let workload = get("--workload")?;
        let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
        let trace = match flags.get("--trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
        };
        let size = match flags.get("--size").map(String::as_str) {
            None | Some("full") => Size::Full,
            Some("tiny") => Size::Tiny,
            Some(other) => return Err(format!("--size takes full or tiny, not {other}")),
        };
        Ok(Args {
            workload,
            seed: number("--seed")?,
            seconds: number("--seconds")?,
            trace,
            size,
            child: switches.iter().any(|s| s == "--child"),
            traced: switches.iter().any(|s| s == "--traced"),
        })
    }
}

/// A sample as the lines a child prints: `fingerprint <hex>`,
/// `failure <text>`, `info <text>` and `value <name> <number>`.
pub fn encode(sample: &Sample) -> String {
    let mut out = format!("fingerprint {}\n", sample.fingerprint);
    for f in &sample.failures {
        let _ = writeln!(out, "failure {f}");
    }
    for i in &sample.info {
        let _ = writeln!(out, "info {i}");
    }
    for (name, value) in &sample.values {
        let _ = writeln!(out, "value {name} {value}");
    }
    out
}

/// Parses what [`encode`] printed.
fn decode(text: &str) -> Result<Sample, String> {
    let mut sample = Sample::default();
    for line in text.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "fingerprint" => sample.fingerprint = rest.to_string(),
            "failure" => sample.failures.push(rest.to_string()),
            "info" => sample.info.push(rest.to_string()),
            "value" => {
                let (name, value) = rest.split_once(' ').ok_or(format!("bad line: {line}"))?;
                let value = value.parse().map_err(|_| format!("bad number: {line}"))?;
                sample.values.insert(name.to_string(), value);
            }
            _ => return Err(format!("unexpected child output: {line}")),
        }
    }
    if sample.fingerprint.is_empty() {
        return Err("child printed no fingerprint".to_string());
    }
    Ok(sample)
}

/// Where a traced child writes its spans.
fn spans_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

/// Writes the traced child's spans (see [`crate::spans::to_jsonl`]).
pub fn write_spans(args: &Args) {
    let path = spans_path(args);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, crate::spans::to_jsonl()));
    if let Err(e) = written {
        eprintln!("simbench: could not write {}: {e}", path.display());
    }
}

/// Runs one child and waits for it.
fn spawn(args: &Args, traced: bool, threads: usize) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--size", if args.size == Size::Tiny { "tiny" } else { "full" }])
        .env("MYRTUS_EVAL_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    decode(&String::from_utf8_lossy(&out.stdout))
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One child's outcome: its sample, or why it produced none.
struct Child {
    traced: bool,
    sample: Result<Sample, String>,
}

/// Runs the benchmark and prints its result.
pub fn run(args: &Args) -> Result<(), String> {
    // Placement evaluation fans out over at most this many threads.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "simbench: workload={} seed={} size={} seconds={} trace={} eval_threads={threads}",
        args.workload.name(),
        args.seed,
        if args.size == Size::Tiny { "tiny" } else { "full" },
        args.seconds,
        u8::from(args.trace),
    );
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // A traced run spends half its time on timed children, which give
    // the tracing overhead its baseline, and then runs one traced child.
    let (timed_budget, min_timed) =
        if args.trace { (budget / 2, 2) } else { (budget, MIN_TIMED_CHILDREN) };
    let mut children = Vec::new();
    loop {
        let sample = spawn(args, false, threads);
        let crashed = sample.is_err();
        children.push(Child { traced: false, sample });
        let n = children.len() as u32;
        let per_child = start.elapsed() / n;
        if crashed || (n as usize >= min_timed && start.elapsed() + per_child > timed_budget) {
            break;
        }
    }
    if args.trace {
        children.push(Child { traced: true, sample: spawn(args, true, threads) });
    }

    // Output checks: each child's own, values the inputs determine,
    // and equal fingerprints for the equal seed across every child.
    let expected = workloads::expected(args.workload, args.seed, args.size);
    let reference =
        children.iter().find_map(|c| c.sample.as_ref().ok()).map(|s| s.fingerprint.clone());
    let mut failed = 0u64;
    for (i, child) in children.iter().enumerate() {
        let label = if child.traced { "traced" } else { "timed" };
        let mut problems = Vec::new();
        match &child.sample {
            Err(e) => problems.push(e.clone()),
            Ok(s) => {
                if i == 0 {
                    for line in &s.info {
                        println!("{line}");
                    }
                }
                let v = |name: &str| s.values.get(name).copied().unwrap_or(f64::NAN);
                println!(
                    "run {} ({label}): wall_s={:.4} setup_s={:.4} run_s={:.4} export_s={:.4} \
                     events={} events_per_s={:.0} peak_rss_mb={:.1} fingerprint={}",
                    i + 1,
                    v("wall_s"),
                    v("setup_s"),
                    v("run_s"),
                    v("export_s"),
                    v("events"),
                    v("events_per_s"),
                    v("peak_rss_mb"),
                    s.fingerprint
                );
                problems.extend(s.failures.iter().cloned());
                for &(name, want) in &expected {
                    let got = s.values.get(name).copied().unwrap_or(f64::NAN);
                    if got != want {
                        problems.push(format!("{name} is {got}, the inputs give {want}"));
                    }
                }
                if Some(&s.fingerprint) != reference.as_ref() {
                    problems.push(format!(
                        "fingerprint {} differs from the first run's {}",
                        s.fingerprint,
                        reference.as_deref().unwrap_or("-")
                    ));
                }
            }
        }
        for p in &problems {
            println!("run {} FAILED: {p}", i + 1);
        }
        failed += u64::from(!problems.is_empty());
    }
    let attempted = children.len() as u64;
    println!(
        "outputs: attempted={attempted} failed={failed} fail_frac={}",
        failed as f64 / attempted as f64
    );

    let timed: Vec<&Sample> =
        children.iter().filter(|c| !c.traced).filter_map(|c| c.sample.as_ref().ok()).collect();
    let Some(first) = timed.first() else {
        return Err("no timed run produced a result".to_string());
    };
    // Simulated results repeat exactly for a seed: printed in full so a
    // behaviour change shows as a diff, not only as a time.
    let simulated = [
        "generated",
        "completed",
        "failed",
        "shed",
        "deadline_misses",
        "sim_goodput",
        "sim_slo",
        "sim_latency_p99_ms",
        "sim_latency_samples",
        "events",
        "vm.steps",
        "vm.migrations_live",
        "vm.migrations_cold",
    ];
    let mut line = format!("simulated (seed {}): fingerprint={}", args.seed, first.fingerprint);
    for name in simulated {
        if let Some(v) = first.values.get(name) {
            let _ = write!(line, " {name}={v}");
        }
    }
    println!("{line}");

    let mut metrics = BTreeMap::new();
    if args.trace {
        let traced = children
            .iter()
            .find(|c| c.traced)
            .and_then(|c| c.sample.as_ref().ok())
            .ok_or("the traced run produced no result")?;
        let timed_wall = median(timed.iter().map(|s| s.values["wall_s"]).collect());
        for &(name, unit) in PER_LAYER {
            let value = if name == "trace_overhead_frac" {
                traced.values["wall_s"] / timed_wall
            } else {
                traced.values.get(name).copied().unwrap_or(0.0)
            };
            metrics.insert(name, (value, unit));
        }
        println!("spans: {}", spans_path(args).display());
    } else {
        for &(name, unit) in END_TO_END {
            let values: Option<Vec<f64>> =
                timed.iter().map(|s| s.values.get(name).copied()).collect();
            let values = values.ok_or(format!("a run did not report {name}"))?;
            metrics.insert(name, (median(values), unit));
        }
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}
