//! The three workloads, each run once per child process: set-up, the
//! simulator run, the exports, the output checks and — in the traced
//! child only — the layer replays behind the per-layer split.
//!
//! * `storm` — the engine-core storm on the default `SimCore` backend:
//!   pre-scheduled timers, each submitting one task with a retry
//!   timeout guard, driven by a [`Driver`] this benchmark owns.
//! * `surge` — the E12b surge mix at 2× bulk load on the standard
//!   Fig. 2 continuum with admission, elasticity, retry with a
//!   per-attempt timeout and observability on.
//! * `burst-vm` — the E15 live arm: three federated regions, the hot
//!   one at 4× bulk load, VM-bodied batch stages, live migration.
//!
//! Inputs derive from the seed (`burst-vm` keeps E15's own arrival mix,
//! see `burst_mix`). Arrivals are open loop: they are generated
//! before the run and do not depend on how fast the continuum drains.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use myrtus_continuum::admission::AdmissionPolicy;
use myrtus_continuum::engine::{Driver, SimCore, SimEvent, VmConfig};
use myrtus_continuum::federation::FederatedContinuumBuilder;
use myrtus_continuum::ids::{NodeId, RegionId};
use myrtus_continuum::monitor::MonitoringReport;
use myrtus_continuum::node::NodeSpec;
use myrtus_continuum::retry::RetryPolicy;
use myrtus_continuum::task::TaskInstance;
use myrtus_continuum::time::{SimDuration, SimTime};
use myrtus_continuum::topology::{ContinuumBuilder, HopSpec};
use myrtus_kb::KnowledgeBase;
use myrtus_mirto::engine::{EngineConfig, OrchestrationEngine, OrchestrationReport};
use myrtus_mirto::managers::elasticity::ElasticityConfig;
use myrtus_mirto::managers::privsec::node_security_level;
use myrtus_mirto::placement::{Placement, PlanContext};
use myrtus_mirto::policies::{GreedyBestFit, PlaceError, PlacementPolicy};
use myrtus_mirto::{FederationConfig, MigrationMode};
use myrtus_obs::ObsConfig;
use myrtus_vm::{Checkpoint, CostTable, IsaClass, Program, VmState};
use myrtus_workload::compile::compile_requests;
use myrtus_workload::scenarios::federation::BATCH_WORK_MC;
use myrtus_workload::scenarios::programs::{self, bodied_region_mix};
use myrtus_workload::scenarios::surge::surge_mix_scaled;
use myrtus_workload::tosca::Application;

use crate::spans::{self, timed};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Engine-core storm (no MIRTO, VM or obs).
    Storm,
    /// MIRTO under the E12b surge mix.
    Surge,
    /// The E15 live-migration arm (VM-bodied federation bursts).
    BurstVm,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "storm" => Some(Workload::Storm),
            "surge" => Some(Workload::Surge),
            "burst-vm" => Some(Workload::BurstVm),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::Surge => "surge",
            Workload::BurstVm => "burst-vm",
        }
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` is for the
/// smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A second or two per workload run.
    Tiny,
}

/// What one child run reports to the parent.
#[derive(Debug, Default)]
pub struct Sample {
    /// Digest of the run's outputs; equal seeds must reproduce it.
    pub fingerprint: String,
    /// Output checks that failed (empty when the run is correct).
    pub failures: Vec<String>,
    /// Input sizes and counts, printed once for the reader.
    pub info: Vec<String>,
    /// Every measured value, end-to-end and per-layer, by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Sample {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// Runs `workload` once in this process.
pub fn run(workload: Workload, seed: u64, size: Size, traced: bool) -> Sample {
    if traced {
        spans::enable();
    }
    match workload {
        Workload::Storm => storm(seed, size, traced),
        Workload::Surge => surge(seed, size, traced),
        Workload::BurstVm => burst_vm(seed, size, traced),
    }
}

/// `VmRSS` or `VmHWM` of this process from procfs, KiB.
fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Host-time split of one run phase, in nanoseconds. The residual is
/// the run minus every attributed part.
#[derive(Debug, Default)]
struct Split {
    run: u64,
    core_self: u64,
    driver: u64,
    place: u64,
    collect_est: u64,
    ingest_est: u64,
    scrape_est: u64,
    vm_exec_est: u64,
    vm_price_est: u64,
}

impl Split {
    fn residual_ns(&self) -> i128 {
        let attributed = [
            self.core_self,
            self.driver,
            self.place,
            self.collect_est,
            self.ingest_est,
            self.scrape_est,
            self.vm_exec_est,
            self.vm_price_est,
        ];
        i128::from(self.run) - attributed.iter().map(|&ns| i128::from(ns)).sum::<i128>()
    }

    fn write(&self, s: &mut Sample) {
        s.set("continuum.core_self_s", secs(self.core_self));
        s.set("workload.driver_s", secs(self.driver));
        s.set("mirto.place_s", secs(self.place));
        s.set("mirto.monitor_collect_s_est", secs(self.collect_est));
        s.set("kb.ingest_s_est", secs(self.ingest_est));
        s.set("obs.scrape_s_est", secs(self.scrape_est));
        s.set("vm.exec_s_est", secs(self.vm_exec_est));
        s.set("vm.price_s_est", secs(self.vm_price_est));
        s.set("mirto.residual_s", self.residual_ns() as f64 / 1e9);
    }
}

/// Replays `f` inside a span named `name` and returns its median cost
/// per call in nanoseconds. Calls run in batches of at least 100 µs, so
/// the clock reads are negligible, for at least 15 batches and 50 ms;
/// the median batch keeps a transient host stall out of the estimate.
fn replay(name: &'static str, mut f: impl FnMut()) -> f64 {
    timed(name, || {
        let mut batch = 1u32;
        loop {
            let start = Instant::now();
            (0..batch).for_each(|_| f());
            if start.elapsed().as_micros() >= 100 {
                break;
            }
            batch *= 2;
        }
        let mut per_call = Vec::new();
        let start = Instant::now();
        while per_call.len() < 15 || start.elapsed().as_millis() < 50 {
            let t = Instant::now();
            (0..batch).for_each(|_| f());
            per_call.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
        }
        per_call.sort_by(f64::total_cmp);
        per_call[per_call.len() / 2]
    })
    .0
}

/// Times `setup` at least `min_reps` times and for at least `min_ms`
/// milliseconds in all (each inside a `setup` span) and keeps the last
/// result; returns it with the median set-up nanoseconds.
fn repeated_setup<T>(min_reps: usize, min_ms: u64, mut setup: impl FnMut() -> T) -> (T, u64) {
    let mut times: Vec<u64> = Vec::new();
    let mut last = None;
    while times.len() < min_reps || times.iter().sum::<u64>() < min_ms * 1_000_000 {
        drop(last.take());
        let (value, ns) = timed("setup", &mut setup);
        times.push(ns);
        last = Some(value);
    }
    times.sort_unstable();
    (last.expect("at least one set-up"), times[times.len() / 2])
}

/// Writes the end-to-end values every workload shares.
fn end_to_end(
    s: &mut Sample,
    setup_ns: u64,
    run_ns: u64,
    export_ns: u64,
    events: u64,
    peak_kb: u64,
) {
    s.set("setup_s", secs(setup_ns));
    s.set("run_s", secs(run_ns));
    s.set("export_s", secs(export_ns));
    s.set("wall_s", secs(setup_ns + run_ns + export_ns));
    s.set("events", events as f64);
    s.set("events_per_s", events as f64 / secs(run_ns));
    s.set("peak_rss_mb", peak_kb as f64 / 1024.0);
    s.set("continuum.events", events as f64);
    s.set("continuum.ns_per_event", run_ns as f64 / events.max(1) as f64);
}

// ---------------------------------------------------------------- storm

/// Arrival spread of the storm's timers, simulated microseconds.
const STORM_SPREAD_US: u64 = 500_000;

/// Per-attempt timeout guard on every storm task: far above every
/// service time, so the guards fire stale and keep the queue deep. It
/// doubles as the storm's latency objective for `sim_slo`.
const STORM_ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(250);

/// When the storm's timer `tag` fires, simulated microseconds.
fn storm_fire_us(seed: u64, tag: u64) -> u64 {
    splitmix(tag ^ seed.wrapping_mul(0x5eed)) % STORM_SPREAD_US
}

/// Submits one task per timer firing and folds every completion into an
/// order-sensitive fingerprint.
struct StormDriver {
    nodes: u64,
    seed: u64,
    traced: bool,
    submitted: u64,
    completed: u64,
    fingerprint: u64,
    /// Completions per simulated microsecond of latency, up to the
    /// attempt timeout; later completions count in `late`.
    latency_us: Vec<u32>,
    late: u64,
    calls: u64,
    driver_ns: u64,
}

impl StormDriver {
    fn handle(&mut self, sim: &mut SimCore, event: SimEvent) {
        match event {
            SimEvent::Timer { tag, .. } => {
                let h = splitmix(tag ^ self.seed.rotate_left(17));
                let node = NodeId::from_raw((h % self.nodes) as u32);
                let work_mc = 0.2 + ((h >> 32) % 64) as f64 * 0.05;
                let id = sim.fresh_task_id();
                sim.submit_local(node, TaskInstance::new(id, work_mc).with_tag(tag))
                    .expect("storm nodes never go down");
                self.submitted += 1;
            }
            SimEvent::TaskCompleted(outcome) => {
                self.completed += 1;
                let fields = [
                    outcome.task.id.as_raw(),
                    outcome.at.as_micros(),
                    u64::from(outcome.node.as_raw()),
                ];
                for v in fields {
                    self.fingerprint = fnv1a(self.fingerprint, &v.to_le_bytes());
                }
                // Latency from the timer firing that submitted the task.
                let latency = outcome.at.as_micros() - storm_fire_us(self.seed, outcome.task.tag);
                match self.latency_us.get_mut(latency as usize) {
                    Some(bucket) => *bucket += 1,
                    None => self.late += 1,
                }
            }
            _ => {}
        }
    }

    /// Latency (ms) at or below which `q` of the completions finished.
    fn quantile_ms(&self, q: f64) -> f64 {
        let rank = (q * self.completed as f64).ceil() as u64;
        let mut seen = 0u64;
        for (us, &n) in self.latency_us.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return us as f64 / 1e3;
            }
        }
        STORM_ATTEMPT_TIMEOUT.as_micros() as f64 / 1e3
    }
}

impl Driver for StormDriver {
    fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
        if self.traced {
            let start = Instant::now();
            self.handle(sim, event);
            self.driver_ns += start.elapsed().as_nanos() as u64;
            self.calls += 1;
        } else {
            self.handle(sim, event);
        }
    }
}

fn storm(seed: u64, size: Size, traced: bool) -> Sample {
    let (nodes, tasks) = match size {
        Size::Full => (50_000u64, 1_000_000u64),
        Size::Tiny => (500, 5_000),
    };
    let mut s = Sample::default();
    s.info.push(format!(
        "input: {nodes} edge nodes, {tasks} timers over {} ms, one task each, {} ms attempt timeout",
        STORM_SPREAD_US / 1000,
        STORM_ATTEMPT_TIMEOUT.as_micros() / 1000
    ));
    // One set-up per child: a second one would blur the memory-per-task
    // reading. The parent takes the median over its children. The
    // orchestrated workloads set up in milliseconds, so they repeat it
    // for a steady median within each child.
    let ((mut sim, base_rss_kb, gen_ns), setup_ns) = repeated_setup(1, 0, || {
        let (mut sim, _) = timed("setup.topology", || {
            let mut sim = SimCore::new();
            sim.reserve_nodes(nodes as usize);
            for i in 0..nodes {
                sim.add_node(NodeSpec::preset_edge_multicore(format!("n{i}")));
            }
            sim.set_retry_policy(Some(RetryPolicy {
                attempt_timeout: Some(STORM_ATTEMPT_TIMEOUT),
                ..RetryPolicy::default()
            }));
            sim
        });
        let base_rss_kb = proc_status_kb("VmRSS:");
        let ((), gen_ns) = timed("setup.workload", || {
            sim.reserve_events(tasks as usize);
            for i in 0..tasks {
                sim.set_timer(SimDuration::from_micros(storm_fire_us(seed, i)), i);
            }
        });
        (sim, base_rss_kb, gen_ns)
    });

    let mut driver = StormDriver {
        nodes,
        seed,
        traced,
        submitted: 0,
        completed: 0,
        fingerprint: FNV_OFFSET,
        latency_us: vec![0; STORM_ATTEMPT_TIMEOUT.as_micros() as usize + 1],
        late: 0,
        calls: 0,
        driver_ns: 0,
    };
    let ((), run_ns) = timed("engine.run_to_quiescence", || {
        sim.run_to_quiescence(SimTime::from_secs(3_600), &mut driver);
        spans::tally("storm.on_event", driver.calls, driver.driver_ns);
    });
    let (p99_ms, export_ns) = timed("export", || driver.quantile_ms(0.99));
    let peak_kb = proc_status_kb("VmHWM:");

    s.fingerprint = format!("{:016x}", driver.fingerprint);
    s.check(driver.completed == tasks, || {
        format!("storm: {} of {tasks} tasks completed", driver.completed)
    });
    end_to_end(&mut s, setup_ns, run_ns, export_ns, sim.processed_events(), peak_kb);
    let done = driver.completed as f64;
    s.set("sim_goodput", done / tasks as f64);
    s.set("sim_slo", (done - driver.late as f64) / tasks as f64);
    s.set("sim_latency_p99_ms", p99_ms);
    s.set("sim_latency_samples", done);
    s.set("generated", tasks as f64);
    s.set("completed", done);

    s.set(
        "continuum.bytes_per_task",
        (peak_kb.saturating_sub(base_rss_kb) * 1024) as f64 / tasks as f64,
    );
    s.set("continuum.tasks_dispatched", driver.submitted as f64);
    s.set("continuum.tasks_completed", done);
    s.set("continuum.useful_ratio", done / driver.submitted.max(1) as f64);
    s.set("workload.gen_s", secs(gen_ns));
    // The benchmark owns the storm's driver, so the event core's self
    // time is the run minus the driver's span.
    let core_self = if traced { run_ns - driver.driver_ns } else { 0 };
    Split { run: run_ns, core_self, driver: driver.driver_ns, ..Split::default() }.write(&mut s);
    s
}

// ------------------------------------------------------- orchestrated

/// The engine's placement policy, wrapped in the traced child so every
/// call is a `mirto.place` span.
struct TimedPolicy<P>(P);

impl<P: PlacementPolicy> PlacementPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        timed("mirto.place", || self.0.place(ctx)).0
    }

    fn adaptive(&self) -> bool {
        self.0.adaptive()
    }
}

fn policy(traced: bool) -> Box<dyn PlacementPolicy + Send> {
    if traced {
        Box::new(TimedPolicy(GreedyBestFit::new()))
    } else {
        Box::new(GreedyBestFit::new())
    }
}

/// Requests the generated applications will release.
fn generated_requests<'a>(apps: impl IntoIterator<Item = &'a Application>) -> u64 {
    apps.into_iter().map(|a| a.arrival.expected_count() as u64).sum()
}

/// The bodied programs of a VM workload and how many generated
/// requests run each.
struct VmLoad {
    library: Vec<Program>,
    requests_per_program: Vec<u64>,
    seed: u64,
}

/// Everything an orchestrated run hands to [`orchestrated_sample`].
struct Orchestrated<'a> {
    report: OrchestrationReport,
    sim: &'a mut SimCore,
    generated: u64,
    setup_ns: u64,
    gen_ns: u64,
    run_ns: u64,
    traced: bool,
    vm: Option<VmLoad>,
}

fn orchestrated_sample(run: Orchestrated<'_>, s: &mut Sample) {
    let Orchestrated { report, sim, generated, setup_ns, gen_ns, run_ns, traced, vm } = run;
    let obs = &report.obs;
    let (exports, export_ns) = timed("export", || {
        [
            timed("export.trace", || obs.export_trace_jsonl()).0,
            timed("export.metrics", || obs.export_metrics_jsonl()).0,
            timed("export.timeseries", || obs.export_timeseries_csv()).0,
        ]
    });
    let peak_kb = proc_status_kb("VmHWM:");
    let fingerprint = exports.iter().fold(FNV_OFFSET, |h, e| fnv1a(h, e.as_bytes()));
    s.fingerprint = format!("{fingerprint:016x}");

    let completed: u64 = report.apps.iter().map(|a| a.completed).sum();
    let failed: u64 = report.apps.iter().map(|a| a.failed).sum();
    let shed: u64 = report.apps.iter().map(|a| a.shed).sum();
    let misses: u64 = report.apps.iter().map(|a| a.deadline_misses).sum();
    let terminal = completed + failed + shed;
    s.check(terminal == generated, || {
        format!(
            "accounting: completed {completed} + failed {failed} + shed {shed} = {terminal}, \
             generated {generated}"
        )
    });
    end_to_end(s, setup_ns, run_ns, export_ns, report.events, peak_kb);
    s.set("sim_goodput", completed as f64 / terminal.max(1) as f64);
    s.set("sim_slo", (completed - misses) as f64 / terminal.max(1) as f64);
    let protected = report.apps[0].latency_ms.as_ref();
    s.set("sim_latency_p99_ms", protected.map_or(0.0, |l| l.p99));
    s.set("sim_latency_samples", protected.map_or(0, |l| l.count) as f64);
    s.set("generated", generated as f64);
    s.set("completed", completed as f64);
    s.set("failed", failed as f64);
    s.set("shed", shed as f64);
    s.set("deadline_misses", misses as f64);

    let count = |name: &'static str, label: &'static str| obs.counter_value(name, label) as f64;
    let dispatched = count("sim_tasks_dispatched", "");
    let tasks_completed = count("sim_tasks_completed", "");
    s.set("continuum.tasks_dispatched", dispatched);
    s.set("continuum.tasks_completed", tasks_completed);
    s.set("continuum.useful_ratio", tasks_completed / dispatched.max(1.0));
    s.set("continuum.retries", count("task_retries", ""));
    s.set("continuum.timeouts", count("task_timeouts", ""));
    s.set("continuum.shed", obs.counter_sum("tasks_shed") as f64);
    let rounds = obs.counter_value("mape_rounds", "");
    s.set("mirto.mape_rounds", rounds as f64);
    s.set("mirto.route_cache_invalidations", count("route_cache_invalidations", ""));
    s.set("mirto.placement_rejected", count("placement_rejected_total", ""));
    s.set("mirto.scale_ups", count("scale_ups", ""));
    s.set("mirto.bursts", report.bursts as f64);
    s.set("mirto.tasks_migrated", report.tasks_migrated as f64);
    let steps = obs.counter_value("vm_steps_total", "");
    let live = obs.counter_value("task_migrations_live", "");
    s.set("vm.steps", steps as f64);
    s.set("vm.migrations_live", live as f64);
    s.set("vm.migrations_cold", count("task_migrations_cold", ""));
    s.set("vm.checkpoint_bytes", count("migration_bytes", "live"));
    let scrapes = obs.counter_value("obs_scrapes", "");
    s.set("obs.scrapes", scrapes as f64);
    s.set("obs.export_s", secs(export_ns));
    s.set("obs.export_bytes", exports.iter().map(|e| e.len()).sum::<usize>() as f64);
    s.set("obs.trace_events", obs.trace_len() as f64);
    s.set("obs.trace_dropped", obs.trace_dropped() as f64);
    s.set("workload.gen_s", secs(gen_ns));

    let mut split = Split { run: run_ns, ..Split::default() };
    if traced {
        let (calls, place_ns) = spans::total("mirto.place");
        split.place = place_ns;
        s.set("mirto.place_calls", calls as f64);
        // Each MAPE round collects one monitoring report and ingests it
        // into the KB; the run's final report adds one more of each.
        let reports = rounds + 1;
        let collect_ns = replay("replay.monitor_collect", || {
            black_box(MonitoringReport::collect(black_box(&*sim)));
        });
        let snapshot = MonitoringReport::collect(sim);
        let tiers: Vec<u8> =
            sim.nodes().iter().map(|n| node_security_level(n.spec().kind()).tier()).collect();
        let mut kb = KnowledgeBase::new();
        let ingest_ns = replay("replay.kb_ingest", || {
            kb.ingest_report(black_box(&snapshot), |id| {
                tiers.get(id.index()).copied().unwrap_or(0)
            });
        });
        let scrape_ns = replay("replay.scrape", || sim.scrape());
        s.set("mirto.monitor_collect_us", collect_ns / 1e3);
        s.set("kb.ingest_us", ingest_ns / 1e3);
        s.set("obs.scrape_us", scrape_ns / 1e3);
        split.collect_est = (reports as f64 * collect_ns) as u64;
        split.ingest_est = (reports as f64 * ingest_ns) as u64;
        split.scrape_est = (scrapes as f64 * scrape_ns) as u64;
        if let Some(vm) = vm {
            let r = vm_replays(&vm);
            // Every bodied request is priced once when it first lands
            // on a node, and again wherever a live migration resumes it
            // (cold migrations move body-less tasks, see `expected`).
            let price_calls = vm.requests_per_program.iter().sum::<u64>() + live;
            s.set("vm.ns_per_step", r.ns_per_step);
            s.set("vm.price_calls_est", price_calls as f64);
            s.set("vm.checkpoint_round_trip_us", r.round_trip_ns / 1e3);
            split.vm_exec_est = (steps as f64 * r.ns_per_step) as u64;
            split.vm_price_est = (price_calls as f64 * r.price_ns) as u64;
        }
    }
    split.write(s);
}

/// Host costs of the VM layer, replayed over the workload's library and
/// weighted by how many requests run each program.
struct VmReplay {
    ns_per_step: f64,
    price_ns: f64,
    round_trip_ns: f64,
}

/// Replays pricing — `VmState::remaining_cycles` on a fresh image, which
/// is `run_to_halt` on a scratch clone — for every program. One replay
/// gives both the cost of a price call and the cost per executed step,
/// so the execution and pricing estimates share one measurement.
fn vm_replays(vm: &VmLoad) -> VmReplay {
    let table = CostTable::for_isa(IsaClass::Arm, 1.0);
    let (mut price_ns, mut steps, mut trip_ns, mut weight) = (0.0, 0.0, 0.0, 0.0);
    for (program, &requests) in vm.library.iter().zip(&vm.requests_per_program) {
        if requests == 0 {
            continue;
        }
        let w = requests as f64;
        let fresh = VmState::new(program, vm.seed);
        price_ns += w * replay("replay.vm_remaining_cycles", || {
            black_box(black_box(&fresh).remaining_cycles(program, &table));
        });
        let mut full = fresh.clone();
        full.run_to_halt(program, &table);
        steps += w * full.steps() as f64;
        // A mid-flight image: live stack, locals and PRNG cursor.
        let mut mid = fresh.clone();
        mid.advance_to(program, &table, full.consumed_cycles() / 2);
        trip_ns += w * replay("replay.vm_checkpoint_round_trip", || {
            let bytes = mid.checkpoint(program).to_bytes();
            let cp = Checkpoint::from_bytes(&bytes).expect("canonical bytes parse");
            black_box(VmState::from_checkpoint(&cp, program).expect("image matches program"));
        });
        weight += w;
    }
    VmReplay {
        ns_per_step: price_ns / steps,
        price_ns: price_ns / weight,
        round_trip_ns: trip_ns / weight,
    }
}

// ---------------------------------------------------------------- surge

/// Bulk offered-load factor of the surge mix (E12b's top row).
const SURGE_LOAD: f64 = 2.0;

/// Simulated time after the last generated arrival for the continuum
/// to drain, so every request reaches a final state.
const SURGE_DRAIN: SimDuration = SimDuration::from_secs(30);

fn surge_config(seed: u64) -> EngineConfig {
    EngineConfig {
        obs: ObsConfig::on(),
        seed,
        admission: Some(AdmissionPolicy { rate_per_window: 20, ..AdmissionPolicy::default() }),
        elasticity: Some(ElasticityConfig {
            scale_up_queue: 2.0,
            scale_up_utilization: 0.5,
            ..ElasticityConfig::default()
        }),
        retry: Some(RetryPolicy {
            attempt_timeout: Some(SimDuration::from_millis(150)),
            ..RetryPolicy::default()
        }),
        ..EngineConfig::default()
    }
}

fn surge(seed: u64, size: Size, traced: bool) -> Sample {
    let horizon = match size {
        Size::Full => SimTime::from_secs(600),
        Size::Tiny => SimTime::from_secs(10),
    };
    let ((apps, mut continuum, engine, gen_ns), setup_ns) = repeated_setup(5, 50, || {
        let (apps, gen_ns) =
            timed("setup.workload", || surge_mix_scaled(seed, horizon, SURGE_LOAD));
        let (continuum, _) = timed("setup.topology", || ContinuumBuilder::new().build());
        let (engine, _) =
            timed("setup.engine", || OrchestrationEngine::new(policy(traced), surge_config(seed)));
        (apps, continuum, engine, gen_ns)
    });
    let generated = generated_requests(&apps);
    let mut s = Sample::default();
    s.info.push(format!(
        "input: Fig. 2 continuum ({} nodes), surge mix at {SURGE_LOAD}x bulk load, {} s of \
         arrivals + {} s drain, {generated} requests",
        continuum.sim().node_count(),
        horizon.as_micros() / 1_000_000,
        SURGE_DRAIN.as_micros() / 1_000_000
    ));
    let (report, run_ns) = timed("engine.run", || {
        engine.run(&mut continuum, apps, horizon + SURGE_DRAIN).expect("surge mix is placeable")
    });
    let run = Orchestrated {
        report,
        sim: continuum.sim_mut(),
        generated,
        setup_ns,
        gen_ns,
        run_ns,
        traced,
        vm: None,
    };
    orchestrated_sample(run, &mut s);
    s
}

// ------------------------------------------------------------- burst-vm

/// Federated regions of the E15 fabric.
const REGIONS: u16 = 3;
/// The region whose batch tenant is overloaded.
const HOT: u16 = 0;
/// Batch offered-load factor of the hot region.
const OVERLOAD: f64 = 4.0;

/// Seed of the E15 arrival mix (the seed `exp_vm` runs by default).
const E15_MIX_SEED: u64 = 7;

/// Simulated time after the last generated arrival for the backlog to
/// drain, so every request reaches a final state.
const BURST_DRAIN: SimDuration = SimDuration::from_secs(3);

/// E14/E15 escalation tuning: only a drowned region escalates, and only
/// peers with real spare capacity win the auction.
fn burst_config(seed: u64) -> EngineConfig {
    EngineConfig {
        obs: ObsConfig::on(),
        seed,
        elasticity: Some(ElasticityConfig {
            scale_up_utilization: 0.5,
            scale_up_queue: 2.0,
            cooldown_rounds: 1,
            max_replicas: 4,
            ..ElasticityConfig::default()
        }),
        federation: Some(FederationConfig {
            burst_queue: 8.0,
            release_queue: 4.0,
            escalation_rounds: 1,
            min_headroom_mc_per_s: 2_000.0,
            ..FederationConfig::default()
        }),
        migration: MigrationMode::Live,
        ..EngineConfig::default()
    }
}

fn burst_horizon(size: Size) -> SimTime {
    match size {
        Size::Full => SimTime::from_secs(4),
        Size::Tiny => SimTime::from_millis(1_000),
    }
}

/// The E15 tenants, each pinned to its home region and deployed at
/// time zero, and the program library their batch stages run.
///
/// The seed generates the library and, through the engine seed, every
/// task body's input stream; the arrival mix is E15's own (seed
/// [`E15_MIX_SEED`]). The federation's burst and migration decisions
/// swing with the arrival mix — mix seeds 1–5 span 77k–100k events —
/// which would drown a host-time change in input variation. Bodies re-price from cost-balanced programs, so the
/// simulated schedule is the same for every seed while the interpreted
/// instruction streams differ.
fn burst_mix(seed: u64, horizon: SimTime) -> (Vec<(Application, RegionId, SimTime)>, Vec<Program>) {
    let (mix, _) = bodied_region_mix(E15_MIX_SEED, REGIONS, horizon, HOT, OVERLOAD);
    let library = programs::library(seed, BATCH_WORK_MC);
    let apps =
        mix.into_iter().map(|(app, r)| (app, RegionId::from_raw(r), SimTime::ZERO)).collect();
    (apps, library)
}

/// Values every run of `workload` at `seed` must report exactly,
/// derived from the generated inputs alone. The parent computes them
/// once per run and checks each child against them.
pub fn expected(workload: Workload, seed: u64, size: Size) -> Vec<(&'static str, f64)> {
    match workload {
        Workload::Storm | Workload::Surge => Vec::new(),
        // The live arm never restarts a bodied task, so it interprets
        // exactly one full run of each; a cold restart would add steps.
        // (Its cold migrations are body-less tasks, which the live mode
        // moves cold by design.)
        Workload::BurstVm => {
            let (apps, library) = burst_mix(seed, burst_horizon(size));
            vec![("vm.steps", one_run_steps(&apps, &library, seed) as f64)]
        }
    }
}

fn burst_vm(seed: u64, size: Size, traced: bool) -> Sample {
    let horizon = burst_horizon(size);
    let run_horizon = horizon + BURST_DRAIN;
    let ((apps, library, mut fed, engine, gen_ns), setup_ns) = repeated_setup(5, 50, || {
        let ((apps, library), gen_ns) = timed("setup.workload", || burst_mix(seed, horizon));
        let (fed, _) = timed("setup.topology", || {
            // Small regions over a 10 ms / 400 Mbit/s metro WAN, so
            // checkpoint images pay a real transfer delay.
            let shape = ContinuumBuilder::new()
                .edge_multicores(2)
                .edge_hmpsocs(2)
                .edge_riscvs(0)
                .gateways(1)
                .fmdcs(0)
                .cloud_servers(0);
            FederatedContinuumBuilder::new()
                .regions(REGIONS as usize)
                .region_shape(shape)
                .wan_hop(HopSpec::new(SimDuration::from_millis(10), 400.0))
                .build()
        });
        let (engine, _) =
            timed("setup.engine", || OrchestrationEngine::new(policy(traced), burst_config(seed)));
        (apps, library, fed, engine, gen_ns)
    });
    // Bodied tasks re-price themselves from their program on first
    // dispatch, so the library is installed before deployment.
    let ((), vm_ns) = timed("setup.vm", || fed.sim_mut().set_vm(VmConfig::new(library.clone())));
    let generated = generated_requests(apps.iter().map(|(a, _, _)| a));
    let mut requests_per_program = vec![0u64; library.len()];
    for (app, _, _) in &apps {
        let bodied = app.components.iter().find_map(|c| c.requirements.program);
        if let Some(p) = bodied {
            requests_per_program[p as usize] += app.arrival.expected_count() as u64;
        }
    }
    let mut s = Sample::default();
    s.info.push(format!(
        "input: {REGIONS} federated regions ({} nodes), hot region at {OVERLOAD}x batch load, \
         {} ms of arrivals, {generated} requests of which {} VM-bodied, live migration",
        fed.continuum().sim().node_count(),
        horizon.as_micros() / 1000,
        requests_per_program.iter().sum::<u64>()
    ));
    let (report, run_ns) = timed("engine.run_federated", || {
        engine.run_federated(&mut fed, apps, run_horizon).expect("E15 mix is placeable")
    });
    let live = report.obs.counter_value("task_migrations_live", "");
    let cold = report.obs.counter_value("task_migrations_cold", "");
    s.check(live > 0, || format!("live-arm shape: no live migration ({cold} cold)"));
    let run = Orchestrated {
        report,
        sim: fed.sim_mut(),
        generated,
        setup_ns: setup_ns + vm_ns,
        gen_ns,
        run_ns,
        traced,
        vm: Some(VmLoad { library, requests_per_program, seed }),
    };
    orchestrated_sample(run, &mut s);
    s
}

/// Interpreter steps of exactly one full run of every bodied stage the
/// generated requests contain — what the live arm must execute when no
/// bodied task restarts from scratch.
fn one_run_steps(apps: &[(Application, RegionId, SimTime)], library: &[Program], seed: u64) -> u64 {
    let table = CostTable::for_isa(IsaClass::Arm, 1.0);
    let mut steps = 0;
    for (app_id, (app, _, _)) in apps.iter().enumerate() {
        let requests =
            compile_requests(app, app_id as u16, seed, None).expect("generated apps compile");
        for stage in requests.iter().flat_map(|r| &r.stages) {
            if let Some(p) = stage.program {
                // The engine seeds each body from the run seed and the
                // stage's correlation tag.
                steps += library[p as usize].full_cost(seed ^ stage.tag.encode(), &table).0;
            }
        }
    }
    steps
}
