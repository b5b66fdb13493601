//! Monitoring and observability (EU-CEI building block).
//!
//! The paper distinguishes three monitor classes: **application**
//! monitoring (per-application performance), **telemetry** monitoring
//! (connectivity and information loss) and **infrastructure/resource**
//! monitoring (component status). [`MonitoringReport::collect`] snapshots
//! the latter two directly from the simulation core; the
//! [`ApplicationMonitor`] is fed by the driver from task outcomes.
//! Snapshots feed the Knowledge Base's Resource Registry.

use std::collections::HashMap;

use crate::engine::SimCore;
use crate::ids::{LinkId, NodeId};
use crate::node::Layer;
use crate::stats::{OnlineStats, Summary};
use crate::task::TaskOutcome;
use crate::time::{SimDuration, SimTime};

/// Infrastructure-monitor snapshot of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Node id.
    pub node: NodeId,
    /// Node name.
    pub name: String,
    /// Continuum layer.
    pub layer: Layer,
    /// Whether the node is up.
    pub up: bool,
    /// Core utilization in `[0, 1]`.
    pub utilization: f64,
    /// Waiting tasks.
    pub queue_len: usize,
    /// Free memory in MiB.
    pub mem_free_mb: u64,
    /// Active operating-point index.
    pub point_idx: usize,
    /// Total energy consumed so far, joules.
    pub energy_j: f64,
    /// Completed task count.
    pub completed: u64,
    /// Accelerator reconfiguration count.
    pub reconfigurations: u64,
}

/// Telemetry-monitor snapshot of one link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSnapshot {
    /// Link id.
    pub link: LinkId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Bytes transmitted.
    pub bytes_sent: u64,
    /// Messages transmitted.
    pub messages: u64,
    /// Utilization over the observation horizon.
    pub utilization: f64,
}

/// Full infrastructure + telemetry report at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoringReport {
    /// Snapshot instant.
    pub at: SimTime,
    /// Per-node infrastructure snapshots.
    pub nodes: Vec<NodeSnapshot>,
    /// Per-link telemetry snapshots.
    pub links: Vec<LinkSnapshot>,
}

impl MonitoringReport {
    /// Collects a snapshot of every node and link from the core.
    pub fn collect(sim: &SimCore) -> MonitoringReport {
        let horizon = sim.now().saturating_since(SimTime::ZERO);
        // Both snapshot vectors are sized from the topology up front so
        // large-continuum collection never re-allocates mid-walk.
        let mut nodes = Vec::with_capacity(sim.node_count());
        nodes.extend(sim.nodes().iter().map(|n| NodeSnapshot {
            node: n.id(),
            name: n.spec().name().to_string(),
            layer: n.spec().layer(),
            up: n.is_up(),
            utilization: n.utilization(),
            queue_len: n.queue_len(),
            mem_free_mb: n.mem_free_mb(),
            point_idx: n.point_idx(),
            energy_j: n.energy_j(),
            completed: n.completed(),
            reconfigurations: n.reconfigurations(),
        }));
        let mut links = Vec::with_capacity(sim.network().link_count());
        links.extend(sim.network().iter_links().map(|(id, spec, state)| LinkSnapshot {
            link: id,
            from: spec.from(),
            to: spec.to(),
            bytes_sent: state.bytes_sent(),
            messages: state.messages(),
            utilization: state.utilization(horizon),
        }));
        MonitoringReport { at: sim.now(), nodes, links }
    }

    /// Aggregated energy over all nodes, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.energy_j).sum()
    }

    /// Mean utilization of the up nodes in a layer.
    pub fn layer_utilization(&self, layer: Layer) -> f64 {
        let mut s = OnlineStats::new();
        for n in self.nodes.iter().filter(|n| n.layer == layer && n.up) {
            s.push(n.utilization);
        }
        s.mean()
    }
}

/// Application-monitor: per-application (tag) latency/deadline accounting,
/// fed by the driver from [`TaskOutcome`]s.
#[derive(Debug, Clone, Default)]
pub struct ApplicationMonitor {
    per_app: HashMap<u64, AppStats>,
}

#[derive(Debug, Clone, Default)]
struct AppStats {
    latencies_us: Vec<f64>,
    completed: u64,
    lost: u64,
    deadline_misses: u64,
}

impl ApplicationMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        ApplicationMonitor::default()
    }

    /// Records a completed task outcome.
    pub fn record(&mut self, outcome: &TaskOutcome) {
        let s = self.per_app.entry(outcome.task.tag).or_default();
        if outcome.completed {
            s.completed += 1;
            s.latencies_us.push(outcome.latency.as_micros() as f64);
            if !outcome.deadline_met {
                s.deadline_misses += 1;
            }
        } else {
            s.lost += 1;
        }
    }

    /// Records a task lost to a node failure.
    pub fn record_lost(&mut self, tag: u64) {
        self.per_app.entry(tag).or_default().lost += 1;
    }

    /// Latency summary (µs) for one application tag.
    pub fn latency_summary(&self, tag: u64) -> Option<Summary> {
        self.per_app.get(&tag).and_then(|s| Summary::of(&s.latencies_us))
    }

    /// Completed-task count for a tag.
    pub fn completed(&self, tag: u64) -> u64 {
        self.per_app.get(&tag).map_or(0, |s| s.completed)
    }

    /// Lost-task count for a tag.
    pub fn lost(&self, tag: u64) -> u64 {
        self.per_app.get(&tag).map_or(0, |s| s.lost)
    }

    /// Deadline misses for a tag.
    pub fn deadline_misses(&self, tag: u64) -> u64 {
        self.per_app.get(&tag).map_or(0, |s| s.deadline_misses)
    }

    /// Fraction of completed tasks that met their deadline, across all
    /// applications (1.0 when nothing completed).
    pub fn global_qos(&self) -> f64 {
        let (mut done, mut miss) = (0u64, 0u64);
        for s in self.per_app.values() {
            done += s.completed;
            miss += s.deadline_misses;
        }
        if done == 0 {
            1.0
        } else {
            1.0 - miss as f64 / done as f64
        }
    }

    /// Tags seen so far, sorted.
    pub fn tags(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.per_app.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Mean latency across every application, in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        let mut s = OnlineStats::new();
        for app in self.per_app.values() {
            for &l in &app.latencies_us {
                s.push(l);
            }
        }
        s.mean()
    }
}

/// Duration helper: observation horizon between two report instants.
pub fn horizon_between(a: &MonitoringReport, b: &MonitoringReport) -> SimDuration {
    b.at.saturating_since(a.at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NullDriver, SimCore};
    use crate::node::NodeSpec;
    use crate::task::TaskInstance;

    #[test]
    fn report_covers_every_node_and_link() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let b = sim.add_node(NodeSpec::preset_fog_gateway("b"));
        sim.network_mut().add_duplex(a, b, SimDuration::from_millis(1), 10.0);
        let r = MonitoringReport::collect(&sim);
        assert_eq!(r.nodes.len(), 2);
        assert_eq!(r.links.len(), 2);
        assert_eq!(r.nodes[0].layer, Layer::Edge);
    }

    #[test]
    fn report_reflects_executed_work() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let t = TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(a, t).expect("submit");
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        let r = MonitoringReport::collect(&sim);
        assert_eq!(r.nodes[0].completed, 1);
        assert!(r.total_energy_j() > 0.0);
    }

    #[test]
    fn application_monitor_tracks_tags_independently() {
        let mut mon = ApplicationMonitor::new();
        let mk = |tag: u64, us: u64, met: bool| TaskOutcome {
            task: TaskInstance::new(crate::ids::TaskId::from_raw(tag), 1.0).with_tag(tag),
            node: NodeId::from_raw(0),
            at: SimTime::from_micros(us),
            completed: true,
            latency: SimDuration::from_micros(us),
            deadline_met: met,
        };
        mon.record(&mk(1, 100, true));
        mon.record(&mk(1, 200, false));
        mon.record(&mk(2, 50, true));
        mon.record_lost(2);
        assert_eq!(mon.completed(1), 2);
        assert_eq!(mon.deadline_misses(1), 1);
        assert_eq!(mon.lost(2), 1);
        assert_eq!(mon.tags(), vec![1, 2]);
        let s = mon.latency_summary(1).expect("has samples");
        assert_eq!(s.count, 2);
        assert!((mon.global_qos() - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_monitor_is_benign() {
        let mon = ApplicationMonitor::new();
        assert_eq!(mon.completed(9), 0);
        assert_eq!(mon.global_qos(), 1.0);
        assert!(mon.latency_summary(9).is_none());
        assert_eq!(mon.mean_latency_us(), 0.0);
    }
}
