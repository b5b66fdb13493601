//! Pinned bodied-run golden: a small `SimCore` run whose every bodied
//! task is priced and executed by the task VM, hashed over its exported
//! trace, metrics and completion ledger. The constant below was taken
//! from the per-op interpreter, so any drift in VM pricing, execution
//! or checkpoint handling — on any ISA class or DVFS point, live or
//! cold — fails here rather than only in a double-run diff.

use myrtus_continuum::engine::{Driver, SimCore, SimEvent, VmConfig};
use myrtus_continuum::ids::NodeId;
use myrtus_continuum::net::Protocol;
use myrtus_continuum::node::NodeSpec;
use myrtus_continuum::task::{TaskBody, TaskInstance, TaskOutcome};
use myrtus_continuum::time::{SimDuration, SimTime};
use myrtus_obs::{Obs, ObsConfig};
use myrtus_workload::scenarios::programs::{library, Mix};

/// Hash of the golden run's exports (see [`golden_run`]).
const GOLDEN_HASH: u64 = 0xfad1_e8bb_6ccf_505b;

#[derive(Default)]
struct Completions(Vec<TaskOutcome>);

impl Driver for Completions {
    fn on_event(&mut self, _sim: &mut SimCore, event: SimEvent) {
        if let SimEvent::TaskCompleted(o) = event {
            self.0.push(o);
        }
    }
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Arm, RISC-V and Server-class nodes, each at two DVFS points, fully
/// meshed; 24 tasks cycling through every `Mix` body at ~2 Mc; one
/// live and one cold migration of running bodied tasks. Returns the
/// export text that the golden hash covers.
fn golden_run() -> String {
    let mut sim = SimCore::new();
    sim.set_obs(Obs::new(ObsConfig::on()));
    let specs = [
        (NodeSpec::preset_edge_multicore("arm-nominal"), 0),
        (NodeSpec::preset_edge_multicore("arm-eco"), 1),
        (NodeSpec::preset_edge_riscv("rv-nominal"), 0),
        (NodeSpec::preset_edge_riscv("rv-sleepy"), 1),
        (NodeSpec::preset_fog_fmdc("srv-nominal"), 0),
        (NodeSpec::preset_fog_fmdc("srv-boost"), 1),
    ];
    let nodes: Vec<NodeId> = specs
        .into_iter()
        .map(|(spec, point)| {
            let n = sim.add_node(spec);
            sim.switch_operating_point(n, point).expect("preset has two points");
            n
        })
        .collect();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            sim.network_mut().add_duplex(a, b, SimDuration::from_millis(2), 100.0);
        }
    }
    let lib = library(11, 2.0);
    assert_eq!(lib.len(), Mix::ALL.len());
    sim.set_vm(VmConfig::new(lib).with_slice(SimDuration::from_micros(500)));

    let mut ids = Vec::new();
    for i in 0..24u64 {
        let id = sim.fresh_task_id();
        let body = TaskBody::new((i % 3) as u32, 1_000 + i);
        let t = TaskInstance::new(id, 1.0).with_body(body).with_io_bytes(20_000, 0);
        sim.submit_local(nodes[i as usize % nodes.len()], t).expect("submit");
        ids.push(id);
    }
    let mut done = Completions::default();
    sim.run_until(SimTime::from_micros(600), &mut done);
    // Task 0 runs on arm-nominal, task 2 on rv-nominal: both are
    // mid-execution at 0.6 ms.
    sim.migrate_task(nodes[0], nodes[5], ids[0], Protocol::Mqtt, true).expect("live move");
    sim.migrate_task(nodes[2], nodes[1], ids[2], Protocol::Mqtt, false).expect("cold move");
    sim.run_until(SimTime::from_secs(5), &mut done);
    assert_eq!(done.0.len(), ids.len(), "every task completes exactly once");

    let mut out = sim.obs().export_trace_jsonl();
    out += &sim.obs().export_metrics_jsonl();
    for o in &done.0 {
        let steps = sim.vm_steps_of(o.task.id).expect("bodied task retired");
        out += &format!(
            "{} {} {} {:016x} {}\n",
            o.task.id.as_raw(),
            o.node.as_raw(),
            o.at.as_micros(),
            o.task.work_mc.to_bits(),
            steps
        );
    }
    out
}

#[test]
fn bodied_run_matches_the_pinned_golden() {
    let out = golden_run();
    assert!(out.contains("\"type\":\"task_checkpoint\""), "the live move checkpoints");
    assert!(out.contains("\"type\":\"task_resume\""), "the live move resumes");
    let hash = fnv(0xcbf2_9ce4_8422_2325, out.as_bytes());
    assert_eq!(hash, GOLDEN_HASH, "bodied-run exports drifted: {hash:#018x}");
}
