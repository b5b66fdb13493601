//! Structured trace spans: sim-time-stamped events with typed payloads,
//! retained in a bounded ring so long runs cannot exhaust memory.
//!
//! Events use raw ids (`u32` nodes/links, `u64` tasks) rather than the
//! continuum's newtypes so this crate stays a dependency-free leaf.

use std::collections::VecDeque;

/// Typed payload of a trace event. Each variant maps to one `"type"`
/// tag in the JSONL export — see [`TraceKind::type_name`] and the
/// catalogue in DESIGN.md § Observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A task was submitted towards a node (locally or via the network).
    TaskDispatch {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task arrived at its destination node (after any network
    /// transfer); `dispatch → arrive` measures transfer time and
    /// `arrive → start` queue wait.
    TaskArrive {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task started executing on a node.
    TaskStart {
        /// Executing node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task ran to completion.
    TaskComplete {
        /// Executing node (raw id).
        node: u32,
        /// Task id.
        task: u64,
        /// Whether the task met its deadline (always `true` for
        /// deadline-free tasks).
        deadline_met: bool,
    },
    /// A task was lost (crash of its host, or arrival at a down node).
    /// Emitted once per task so span reconstruction can attribute every
    /// loss.
    TaskLost {
        /// Node that lost it (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A previously lost or timed-out task was re-offered for another
    /// attempt after its backoff elapsed.
    TaskRetry {
        /// Node the failed attempt targeted (raw id).
        node: u32,
        /// Task id.
        task: u64,
        /// Retry number (1-based: the first retry is attempt 1).
        attempt: u32,
    },
    /// An attempt exceeded its per-attempt timeout and was cancelled.
    TaskTimeout {
        /// Node the attempt was running or queued on (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task was cancelled (straggler timeout or replica dedup); the
    /// span ends without completing, but the task is not lost work —
    /// another attempt or replica carries it.
    TaskCancelled {
        /// Node the cancelled attempt targeted (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A node went down (fault injection or scheduled outage).
    NodeCrash {
        /// The crashed node (raw id).
        node: u32,
    },
    /// A node came back up.
    NodeRecover {
        /// The recovered node (raw id).
        node: u32,
    },
    /// A link went down.
    LinkDown {
        /// The cut link (raw id).
        link: u32,
    },
    /// A link came back up.
    LinkUp {
        /// The restored link (raw id).
        link: u32,
    },
    /// A MAPE loop phase boundary (monitor → analyze → plan → execute).
    MapePhase {
        /// One of `"monitor"`, `"analyze"`, `"plan"`, `"execute"`.
        phase: &'static str,
    },
    /// A manager took an adaptation action.
    ManagerAction {
        /// Which manager: `"node"`, `"network"`, `"wl"`, `"app"`.
        manager: &'static str,
        /// What it did (e.g. `"op_switch"`, `"detour"`, `"reallocate"`).
        action: &'static str,
        /// The acted-on entity (raw node id, component index, …).
        subject: u64,
    },
    /// A component was bound to a node at deployment time.
    Deploy {
        /// Application id.
        app: u16,
        /// Component index within the app.
        component: u32,
        /// Host node (raw id).
        node: u32,
    },
    /// A deployed component was migrated between nodes.
    Migrate {
        /// Application id.
        app: u16,
        /// Component index within the app.
        component: u32,
        /// Previous host (raw id).
        from: u32,
        /// New host (raw id).
        to: u32,
    },
    /// A task passed admission control (schema v4; only emitted when an
    /// admission policy is installed).
    TaskAdmitted {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task was shed by admission control instead of dispatched
    /// (schema v4). Shed tasks are terminal: no arrival, no retry.
    TaskShed {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
        /// Why: `"queue_full"`, `"rate_limit"`, or `"slo_hopeless"`.
        reason: &'static str,
    },
    /// A running task body was checkpointed at its source node for a
    /// live migration (schema v5). The execution state travels with
    /// the checkpoint, so span reconstruction archives the source
    /// attempt without counting it as lost work: checkpoint →
    /// re-dispatch → resume is one logical span.
    TaskCheckpoint {
        /// Source node being vacated (raw id).
        node: u32,
        /// Task id.
        task: u64,
        /// Canonical checkpoint size in bytes (the payload that
        /// crosses the network instead of the task's input).
        bytes: u64,
    },
    /// A checkpointed task body resumed execution at its destination
    /// node (schema v5); paired with the preceding `task_checkpoint`.
    TaskResume {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
}

impl TraceKind {
    /// Every `"type"` tag that can appear in a JSONL export, in the
    /// order of the DESIGN.md catalogue, with the trace schema version
    /// that introduced it: v1 the base lifecycle, v2 `task_arrive`, v3
    /// retries, v4 admission control, v5 live migration of task bodies.
    /// Golden-coverage tests filter by version, so a scenario that
    /// predates a feature is never asked to emit its tags.
    pub const CATALOGUE: &'static [(&'static str, u32)] = &[
        ("task_dispatch", 1),
        ("task_arrive", 2),
        ("task_start", 1),
        ("task_complete", 1),
        ("task_lost", 1),
        ("task_retry", 3),
        ("task_timeout", 3),
        ("task_cancelled", 3),
        ("node_crash", 1),
        ("node_recover", 1),
        ("link_down", 1),
        ("link_up", 1),
        ("mape_phase", 1),
        ("manager_action", 1),
        ("deploy", 1),
        ("migrate", 1),
        ("task_admitted", 4),
        ("task_shed", 4),
        ("task_checkpoint", 5),
        ("task_resume", 5),
    ];

    /// The `"type"` tag this payload serializes under.
    pub const fn type_name(&self) -> &'static str {
        match self {
            TraceKind::TaskDispatch { .. } => "task_dispatch",
            TraceKind::TaskArrive { .. } => "task_arrive",
            TraceKind::TaskStart { .. } => "task_start",
            TraceKind::TaskComplete { .. } => "task_complete",
            TraceKind::TaskLost { .. } => "task_lost",
            TraceKind::TaskRetry { .. } => "task_retry",
            TraceKind::TaskTimeout { .. } => "task_timeout",
            TraceKind::TaskCancelled { .. } => "task_cancelled",
            TraceKind::NodeCrash { .. } => "node_crash",
            TraceKind::NodeRecover { .. } => "node_recover",
            TraceKind::LinkDown { .. } => "link_down",
            TraceKind::LinkUp { .. } => "link_up",
            TraceKind::MapePhase { .. } => "mape_phase",
            TraceKind::ManagerAction { .. } => "manager_action",
            TraceKind::Deploy { .. } => "deploy",
            TraceKind::Migrate { .. } => "migrate",
            TraceKind::TaskAdmitted { .. } => "task_admitted",
            TraceKind::TaskShed { .. } => "task_shed",
            TraceKind::TaskCheckpoint { .. } => "task_checkpoint",
            TraceKind::TaskResume { .. } => "task_resume",
        }
    }
}

/// One recorded span: a payload stamped with simulated time and a
/// buffer-global sequence number (monotonic even across ring eviction,
/// so gaps reveal dropped events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// Simulated time of the event, in microseconds.
    pub at_us: u64,
    /// The typed payload.
    pub kind: TraceKind,
}

/// Bounded ring of [`TraceEvent`]s: pushing beyond capacity evicts the
/// oldest event and counts it as dropped.
#[derive(Debug)]
pub struct TraceBuffer {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceBuffer {
    /// A ring retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, at_us: u64, kind: TraceKind) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent { seq: self.next_seq, at_us, kind });
        self.next_seq += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq_monotonic() {
        let mut buf = TraceBuffer::new(2);
        buf.push(0, TraceKind::NodeCrash { node: 0 });
        buf.push(1, TraceKind::NodeCrash { node: 1 });
        buf.push(2, TraceKind::NodeCrash { node: 2 });
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 1);
        let seqs: Vec<u64> = buf.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut buf = TraceBuffer::new(0);
        buf.push(0, TraceKind::LinkDown { link: 3 });
        assert_eq!(buf.len(), 1);
        buf.push(1, TraceKind::LinkUp { link: 3 });
        assert_eq!(buf.events()[0].kind, TraceKind::LinkUp { link: 3 });
    }

    #[test]
    fn type_names_cover_every_variant() {
        let samples = [
            TraceKind::TaskDispatch { node: 0, task: 0 },
            TraceKind::TaskArrive { node: 0, task: 0 },
            TraceKind::TaskStart { node: 0, task: 0 },
            TraceKind::TaskComplete { node: 0, task: 0, deadline_met: true },
            TraceKind::TaskLost { node: 0, task: 0 },
            TraceKind::TaskRetry { node: 0, task: 0, attempt: 1 },
            TraceKind::TaskTimeout { node: 0, task: 0 },
            TraceKind::TaskCancelled { node: 0, task: 0 },
            TraceKind::NodeCrash { node: 0 },
            TraceKind::NodeRecover { node: 0 },
            TraceKind::LinkDown { link: 0 },
            TraceKind::LinkUp { link: 0 },
            TraceKind::MapePhase { phase: "monitor" },
            TraceKind::ManagerAction { manager: "node", action: "op_switch", subject: 0 },
            TraceKind::Deploy { app: 0, component: 0, node: 0 },
            TraceKind::Migrate { app: 0, component: 0, from: 0, to: 1 },
            TraceKind::TaskAdmitted { node: 0, task: 0 },
            TraceKind::TaskShed { node: 0, task: 0, reason: "queue_full" },
            TraceKind::TaskCheckpoint { node: 0, task: 0, bytes: 64 },
            TraceKind::TaskResume { node: 1, task: 0 },
        ];
        let names: Vec<&str> = samples.iter().map(|k| k.type_name()).collect();
        let catalogue: Vec<&str> = TraceKind::CATALOGUE.iter().map(|&(ty, _)| ty).collect();
        assert_eq!(names, catalogue);
    }
}
