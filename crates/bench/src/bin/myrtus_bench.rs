//! The per-PR perf trajectory: the 50k-node / 1M-task engine-core
//! benchmark plus the task-VM interpreter and checkpoint round-trip
//! microbenchmarks, serialized to `BENCH_<pr>.json` at the repo root
//! (`--pr` selects the trajectory point, currently 15).
//!
//! ```sh
//! cargo run --release --bin myrtus-bench                 # full profile
//! cargo run --release --bin myrtus-bench -- --quick      # CI profile
//! cargo run --release --bin myrtus-bench -- --quick \
//!     --check crates/bench/baseline/BENCH_7.json         # regression gate
//! ```
//!
//! The workload is a deterministic open-loop storm: `tasks` timers are
//! pre-scheduled with pseudo-random firing times across a fixed spread,
//! and each firing submits one task (pseudo-random node, varying
//! service demand) through the full dispatch path with a retry policy
//! armed — so both backends pay their event-queue *and* task-table
//! costs (~4 queue ops and ~6 table ops per task). Each backend runs in
//! a child process (`--phase`), so peak RSS (`VmHWM`) is attributed per
//! backend instead of being smeared by whichever ran first. Each child
//! also records its `VmRSS` once the nodes are built, so the growth
//! from there to the peak, per task, is the backend's bytes per task.
//!
//! Gates built into every run:
//! * **double-run identity** — each backend phase runs twice and must
//!   reproduce its completion fingerprint byte-for-byte;
//! * **cross-backend identity** — the heap phases must produce the same
//!   fingerprint, completion count and event count as the wheel;
//! * `--check <baseline>` — exits non-zero when wheel events/sec or VM
//!   steps/sec drops more than 20% below the checked-in baseline.
//!
//! Each backend's reported numbers are the *faster* of its two runs —
//! the minimum is the standard noise-robust wall-clock estimator (the
//! identity gates make the two runs interchangeable by construction).

use std::process::Command;
use std::time::{Duration, Instant};

use myrtus::continuum::engine::EngineBackend;
use myrtus::continuum::engine::{Driver, SimCore, SimEvent};
use myrtus::continuum::ids::NodeId;
use myrtus::continuum::node::NodeSpec;
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::task::TaskInstance;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::obs::{Obs, ObsConfig};
use myrtus::vm::{CostTable, IsaClass, VmState};
use myrtus::workload::scenarios::programs::{program_for, Mix};
use myrtus_bench::{num, render_table};

/// Arrival spread of the task storm, microseconds of simulated time.
const SPREAD_US: u64 = 500_000;

/// Per-attempt timeout: far above every service time, so the timeout
/// events all fire stale — pure queue + table-lookup traffic that keeps
/// the event queue deep for the whole run.
const ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(250);

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv1a(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A KiB figure of this process from procfs (`"VmHWM:"` is the peak
/// resident set, `"VmRSS:"` the current one); 0 when unavailable
/// (non-Linux).
fn proc_status_kb(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The storm driver: submits one task per timer firing and folds every
/// completion into an order-sensitive fingerprint.
struct StormDriver {
    node_count: u64,
    completed: u64,
    fingerprint: u64,
}

impl Driver for StormDriver {
    fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
        match event {
            SimEvent::Timer { tag, .. } => {
                let node = NodeId::from_raw((splitmix(tag) % self.node_count) as u32);
                let work_mc = 0.2 + (tag % 64) as f64 * 0.05;
                let id = sim.fresh_task_id();
                sim.submit_local(node, TaskInstance::new(id, work_mc).with_tag(tag))
                    .expect("storm nodes never go down");
            }
            SimEvent::TaskCompleted(outcome) => {
                self.completed += 1;
                self.fingerprint = fnv1a(self.fingerprint, outcome.task.id.as_raw());
                self.fingerprint = fnv1a(self.fingerprint, outcome.at.as_micros());
                self.fingerprint = fnv1a(self.fingerprint, outcome.node.as_raw() as u64);
            }
            _ => {}
        }
    }
}

struct PhaseResult {
    events: u64,
    completed: u64,
    wall_s: f64,
    events_per_sec: f64,
    tasks_per_sec: f64,
    peak_rss_kb: u64,
    /// Resident set once the nodes are built, before any event.
    base_rss_kb: u64,
    fingerprint: u64,
}

impl PhaseResult {
    /// Peak resident growth over the node-setup base, bytes per task.
    fn bytes_per_task(&self) -> f64 {
        self.peak_rss_kb.saturating_sub(self.base_rss_kb) as f64 * 1024.0 / self.completed as f64
    }
}

/// One measured engine run (executed inside a `--phase` child process).
fn run_phase(backend: EngineBackend, nodes: u64, tasks: u64) -> PhaseResult {
    let mut sim = SimCore::new();
    sim.set_backend(backend);
    sim.reserve_nodes(nodes as usize);
    sim.reserve_events(tasks as usize);
    for i in 0..nodes {
        sim.add_node(NodeSpec::preset_edge_multicore(format!("n{i}")));
    }
    sim.set_retry_policy(Some(RetryPolicy {
        attempt_timeout: Some(ATTEMPT_TIMEOUT),
        ..RetryPolicy::default()
    }));
    let base_rss_kb = proc_status_kb("VmRSS:");
    let mut driver =
        StormDriver { node_count: nodes, completed: 0, fingerprint: 0xcbf2_9ce4_8422_2325 };

    let wall = Instant::now();
    for i in 0..tasks {
        let delay = splitmix(i ^ 0x5eed) % SPREAD_US;
        sim.set_timer(SimDuration::from_micros(delay), i);
    }
    sim.run_to_quiescence(SimTime::from_secs(3_600), &mut driver);
    let wall_s = wall.elapsed().as_secs_f64();

    assert_eq!(driver.completed, tasks, "every storm task completes");
    let events = sim.processed_events();
    PhaseResult {
        events,
        completed: driver.completed,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        tasks_per_sec: driver.completed as f64 / wall_s,
        peak_rss_kb: proc_status_kb("VmHWM:"),
        base_rss_kb,
        fingerprint: driver.fingerprint,
    }
}

/// Scrape overhead on an obs-enabled continuum of `nodes` nodes:
/// nanoseconds per recorded time-series sample.
fn scrape_overhead(nodes: u64) -> (u64, f64) {
    let mut sim = SimCore::new();
    sim.set_backend(EngineBackend::Wheel);
    sim.reserve_nodes(nodes as usize);
    for i in 0..nodes {
        sim.add_node(NodeSpec::preset_edge_multicore(format!("n{i}")));
    }
    sim.set_obs(Obs::new(ObsConfig::on()));
    sim.scrape(); // warm-up: builds the label caches
    let before = sim.obs().ts_sample_count();
    const ROUNDS: u32 = 4;
    let wall = Instant::now();
    for _ in 0..ROUNDS {
        sim.scrape();
    }
    let elapsed = wall.elapsed();
    let samples = sim.obs().ts_sample_count() - before;
    (samples as u64, elapsed.as_nanos() as f64 / samples as f64)
}

/// Task-VM host costs for one program mix.
struct VmMixBench {
    /// Interpreter steps per second retiring the program end to end.
    steps_per_sec: f64,
    /// Mean nanoseconds per `remaining_cycles` call on a fresh image:
    /// the price every bodied task pays at its first dispatch.
    fresh_price_ns: f64,
}

/// Task-VM interpreter throughput and fresh-boot pricing for every
/// standard program mix, plus the mean checkpoint round-trip (snapshot
/// a mid-flight compute image, serialize to canonical bytes, parse
/// back, resume) in microseconds — the host-side cost floor under
/// every simulated live migration.
fn vm_microbench(reps: u32) -> ([VmMixBench; 3], f64) {
    let table = CostTable::for_isa(IsaClass::Arm, 1.0);
    let mixes = Mix::ALL.map(|mix| {
        let program = program_for(mix, 7, 100.0);
        let mut steps = 0u64;
        let mut digest = 0u64;
        let wall = Instant::now();
        for rep in 0..reps {
            let mut vm = VmState::new(&program, 7 ^ u64::from(rep));
            vm.run_to_halt(&program, &table);
            steps += vm.steps();
            digest = digest.wrapping_add(vm.out_digest());
        }
        let steps_per_sec = steps as f64 / wall.elapsed().as_secs_f64();
        assert_ne!(digest, 0, "the interpreter actually ran");

        // At least `reps` calls and 20 ms, so a memoized price is timed
        // over enough calls to resolve it.
        let mut calls = 0u64;
        let mut cycles = 0u64;
        let wall = Instant::now();
        while calls < u64::from(reps) || wall.elapsed() < Duration::from_millis(20) {
            let fresh = VmState::new(&program, 7 ^ calls);
            cycles = cycles.wrapping_add(fresh.remaining_cycles(&program, &table));
            calls += 1;
        }
        let fresh_price_ns = wall.elapsed().as_nanos() as f64 / calls as f64;
        assert_ne!(cycles, 0, "pricing actually ran");
        VmMixBench { steps_per_sec, fresh_price_ns }
    });

    // Round-trip from the program's midpoint: a representative image
    // (live stack + locals + PRNG cursor), not a trivial fresh one.
    let program = program_for(Mix::Compute, 7, 100.0);
    let mut vm = VmState::new(&program, 7);
    let (_, total_cycles) = program.full_cost(7, &table);
    vm.advance_to(&program, &table, total_cycles / 2);
    let wall = Instant::now();
    for _ in 0..reps {
        let bytes = vm.checkpoint(&program).to_bytes();
        let cp = myrtus::vm::Checkpoint::from_bytes(&bytes).expect("canonical bytes parse");
        let resumed = VmState::from_checkpoint(&cp, &program).expect("image matches program");
        assert_eq!(resumed.steps(), vm.steps(), "resume preserves the step ledger");
    }
    let round_trip_us = wall.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    (mixes, round_trip_us)
}

/// Minimal extractor for the flat JSON this binary writes: the number
/// following `"key":`.
fn json_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"').parse().ok()
}

fn json_str(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &json[json.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn phase_json(backend: &str, r: &PhaseResult) -> String {
    format!(
        "{{\"backend\":\"{backend}\",\"events\":{},\"completed\":{},\"wall_s\":{:.4},\
         \"events_per_sec\":{:.1},\"tasks_per_sec\":{:.1},\"peak_rss_kb\":{},\
         \"base_rss_kb\":{},\"fingerprint\":\"{:016x}\"}}",
        r.events,
        r.completed,
        r.wall_s,
        r.events_per_sec,
        r.tasks_per_sec,
        r.peak_rss_kb,
        r.base_rss_kb,
        r.fingerprint,
    )
}

fn parse_phase(json: &str) -> PhaseResult {
    PhaseResult {
        events: json_f64(json, "events").expect("events") as u64,
        completed: json_f64(json, "completed").expect("completed") as u64,
        wall_s: json_f64(json, "wall_s").expect("wall_s"),
        events_per_sec: json_f64(json, "events_per_sec").expect("events_per_sec"),
        tasks_per_sec: json_f64(json, "tasks_per_sec").expect("tasks_per_sec"),
        peak_rss_kb: json_f64(json, "peak_rss_kb").expect("peak_rss_kb") as u64,
        base_rss_kb: json_f64(json, "base_rss_kb").expect("base_rss_kb") as u64,
        fingerprint: u64::from_str_radix(&json_str(json, "fingerprint").expect("fp"), 16)
            .expect("hex fingerprint"),
    }
}

/// Runs one backend phase in a child process so its peak RSS is its
/// own, not inherited from an earlier phase.
fn spawn_phase(backend: &str, nodes: u64, tasks: u64) -> PhaseResult {
    let exe = std::env::current_exe().expect("current exe");
    let out = Command::new(exe)
        .args(["--phase", backend, "--nodes", &nodes.to_string(), "--tasks", &tasks.to_string()])
        .output()
        .expect("spawn phase");
    assert!(
        out.status.success(),
        "{backend} phase failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse_phase(&String::from_utf8_lossy(&out.stdout))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_val = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };

    // Child mode: run one backend and print its result as JSON.
    if let Some(backend) = flag_val("--phase") {
        let backend = match backend.as_str() {
            "wheel" => EngineBackend::Wheel,
            "heap" => EngineBackend::Heap,
            other => panic!("unknown backend {other}"),
        };
        let nodes: u64 = flag_val("--nodes").expect("--nodes").parse().expect("node count");
        let tasks: u64 = flag_val("--tasks").expect("--tasks").parse().expect("task count");
        let r = run_phase(backend, nodes, tasks);
        let name = if backend == EngineBackend::Wheel { "wheel" } else { "heap" };
        println!("{}", phase_json(name, &r));
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    // The quick profile still runs long enough (~0.3 s per phase) for
    // the 20% regression floor to sit above run-to-run noise.
    let (nodes, tasks) = if quick { (10_000, 200_000) } else { (50_000, 1_000_000) };
    let pr: u32 = flag_val("--pr").map_or(15, |v| v.parse().expect("--pr takes a PR number"));
    let out_path = flag_val("--out").unwrap_or_else(|| format!("BENCH_{pr}.json"));

    eprintln!("engine-core storm: {nodes} nodes, {tasks} tasks, 2 runs per backend");
    let wheel = spawn_phase("wheel", nodes, tasks);
    let wheel2 = spawn_phase("wheel", nodes, tasks);
    let heap = spawn_phase("heap", nodes, tasks);
    let heap2 = spawn_phase("heap", nodes, tasks);

    // Identity gates: double-run and cross-backend.
    assert_eq!(
        wheel.fingerprint, wheel2.fingerprint,
        "double-run identity gate: wheel runs must be bit-identical"
    );
    assert_eq!(
        heap.fingerprint, heap2.fingerprint,
        "double-run identity gate: heap runs must be bit-identical"
    );
    assert_eq!(
        (wheel.events, wheel.completed, wheel.fingerprint),
        (heap.events, heap.completed, heap.fingerprint),
        "cross-backend identity gate: wheel and heap must process identical event sequences"
    );

    // Report the faster (noise-robust) run of each backend.
    let pick = |a: PhaseResult, b: PhaseResult| if b.wall_s < a.wall_s { b } else { a };
    let wheel = pick(wheel, wheel2);
    let heap = pick(heap, heap2);

    let (scrape_samples, scrape_ns) = scrape_overhead(nodes.min(50_000));
    let speedup = wheel.events_per_sec / heap.events_per_sec;
    let ([compute, branch, io], vm_rt_us) = vm_microbench(if quick { 20 } else { 100 });
    // The gated `vm_steps_per_sec` key keeps its meaning: the compute mix.
    let vm_steps_per_sec = compute.steps_per_sec;

    let json = format!(
        "{{\n  \"schema\": \"myrtus-bench/v1\",\n  \"pr\": {pr},\n  \"quick\": {quick},\n  \
         \"nodes\": {nodes},\n  \"tasks\": {tasks},\n  \"events\": {},\n  \
         \"wheel_wall_s\": {:.4},\n  \"wheel_events_per_sec\": {:.1},\n  \
         \"wheel_tasks_per_sec\": {:.1},\n  \"wheel_peak_rss_kb\": {},\n  \
         \"wheel_bytes_per_task\": {:.1},\n  \
         \"heap_wall_s\": {:.4},\n  \"heap_events_per_sec\": {:.1},\n  \
         \"heap_tasks_per_sec\": {:.1},\n  \"heap_peak_rss_kb\": {},\n  \
         \"heap_bytes_per_task\": {:.1},\n  \
         \"speedup_events_per_sec\": {:.2},\n  \
         \"scrape_samples_per_pass\": {},\n  \"scrape_ns_per_sample\": {:.1},\n  \
         \"vm_steps_per_sec\": {:.1},\n  \"vm_branch_steps_per_sec\": {:.1},\n  \
         \"vm_io_steps_per_sec\": {:.1},\n  \"vm_compute_fresh_price_ns\": {:.1},\n  \
         \"vm_branch_fresh_price_ns\": {:.1},\n  \"vm_io_fresh_price_ns\": {:.1},\n  \
         \"vm_migration_round_trip_us\": {:.2},\n  \
         \"fingerprint\": \"{:016x}\"\n}}\n",
        wheel.events,
        wheel.wall_s,
        wheel.events_per_sec,
        wheel.tasks_per_sec,
        wheel.peak_rss_kb,
        wheel.bytes_per_task(),
        heap.wall_s,
        heap.events_per_sec,
        heap.tasks_per_sec,
        heap.peak_rss_kb,
        heap.bytes_per_task(),
        speedup,
        scrape_samples / 4,
        scrape_ns,
        vm_steps_per_sec,
        branch.steps_per_sec,
        io.steps_per_sec,
        compute.fresh_price_ns,
        branch.fresh_price_ns,
        io.fresh_price_ns,
        vm_rt_us,
        wheel.fingerprint,
    );
    std::fs::write(&out_path, &json).expect("write bench json");

    let rows = vec![
        vec![
            "wheel+slab".to_string(),
            num(wheel.wall_s, 3),
            num(wheel.events_per_sec / 1e6, 2),
            num(wheel.tasks_per_sec / 1e6, 2),
            format!("{}", wheel.peak_rss_kb / 1024),
            num(wheel.bytes_per_task(), 0),
        ],
        vec![
            "heap+hash".to_string(),
            num(heap.wall_s, 3),
            num(heap.events_per_sec / 1e6, 2),
            num(heap.tasks_per_sec / 1e6, 2),
            format!("{}", heap.peak_rss_kb / 1024),
            num(heap.bytes_per_task(), 0),
        ],
    ];
    println!(
        "{}",
        render_table(
            &format!("engine core — {nodes} nodes, {tasks} tasks ({} events)", wheel.events),
            &["backend", "wall s", "Mevents/s", "Mtasks/s", "peak RSS MiB", "B/task"],
            &rows,
        )
    );
    println!("speedup (events/sec, wheel over heap): {:.2}x", speedup);
    println!("scrape: {:.1} ns/sample ({} samples/pass)", scrape_ns, scrape_samples / 4);
    for (name, m) in [("compute", &compute), ("branch", &branch), ("io", &io)] {
        println!(
            "task VM {name}: {:.1} Msteps/s, fresh price {:.1} ns/call",
            m.steps_per_sec / 1e6,
            m.fresh_price_ns
        );
    }
    println!("task VM checkpoint round-trip {vm_rt_us:.2} us");
    println!("wrote {out_path}");

    if let Some(baseline_path) = flag_val("--check") {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let base_eps =
            json_f64(&baseline, "wheel_events_per_sec").expect("baseline wheel_events_per_sec");
        let floor = 0.8 * base_eps;
        println!(
            "regression check: {:.0} events/s vs baseline {:.0} (floor {:.0})",
            wheel.events_per_sec, base_eps, floor
        );
        if wheel.events_per_sec < floor {
            eprintln!(
                "REGRESSION: wheel events/sec dropped >20% below the checked-in baseline \
                 ({:.0} < {:.0})",
                wheel.events_per_sec, floor
            );
            std::process::exit(1);
        }
        // The VM gate only arms once the baseline records the metric,
        // so old baselines keep checking the engine numbers alone.
        if let Some(base_vm) = json_f64(&baseline, "vm_steps_per_sec") {
            let vm_floor = 0.8 * base_vm;
            println!(
                "regression check: {vm_steps_per_sec:.0} VM steps/s vs baseline {base_vm:.0} \
                 (floor {vm_floor:.0})"
            );
            if vm_steps_per_sec < vm_floor {
                eprintln!(
                    "REGRESSION: VM steps/sec dropped >20% below the checked-in baseline \
                     ({vm_steps_per_sec:.0} < {vm_floor:.0})"
                );
                std::process::exit(1);
            }
        }
    }
}
