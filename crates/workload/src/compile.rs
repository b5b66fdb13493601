//! Compiling TOSCA applications into executable request streams.
//!
//! The DPE hands MIRTO a deployment specification; at run time each
//! arrival of an [`crate::tosca::Application`] becomes a
//! [`CompiledRequest`]: the per-request DAG instantiated with concrete
//! work, data volumes and a correlation [`Tag`] per stage, ready for the
//! WL Manager to place onto continuum nodes.

use myrtus_continuum::time::{SimDuration, SimTime};

use crate::graph::RequestDag;
use crate::opset::AppOperatingPoint;
use crate::tosca::{Application, SecurityTier, ValidateAppError};

/// Packed correlation tag: `application (16 bit) | request (32 bit) |
/// stage (16 bit)`. Travels in
/// [`TaskInstance::tag`](myrtus_continuum::task::TaskInstance) so drivers
/// can attribute completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Application id.
    pub app: u16,
    /// Request ordinal within the application.
    pub request: u32,
    /// Stage (DAG node) ordinal.
    pub stage: u16,
}

impl Tag {
    /// Packs the tag into a `u64`.
    pub fn encode(self) -> u64 {
        ((self.app as u64) << 48) | ((self.request as u64) << 16) | self.stage as u64
    }

    /// Unpacks a tag.
    pub fn decode(raw: u64) -> Tag {
        Tag {
            app: (raw >> 48) as u16,
            request: ((raw >> 16) & 0xFFFF_FFFF) as u32,
            stage: (raw & 0xFFFF) as u16,
        }
    }

    /// A tag that identifies the application only (request/stage zeroed);
    /// useful as a monitoring key.
    pub fn app_key(app: u16) -> u64 {
        Tag { app, request: 0, stage: 0 }.encode()
    }
}

/// One stage (DAG node) of a compiled request.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStage {
    /// Index into the application's component list.
    pub component_idx: usize,
    /// Component name.
    pub name: String,
    /// Work after operating-point scaling, megacycles.
    pub work_mc: f64,
    /// Memory reservation, MiB.
    pub mem_mb: u64,
    /// Accelerator configuration, if exploitable.
    pub accel_cfg: Option<u32>,
    /// Input bytes (sum of incoming edges after scaling).
    pub input_bytes: u64,
    /// Output bytes (sum of outgoing edges after scaling).
    pub output_bytes: u64,
    /// Relative deadline of this stage, if QoS-constrained.
    pub max_latency: Option<SimDuration>,
    /// Minimum security tier.
    pub security: SecurityTier,
    /// Portable task body: VM program library index, if any.
    pub program: Option<u32>,
    /// Indices (into `stages`) of upstream stages.
    pub preds: Vec<usize>,
    /// Correlation tag.
    pub tag: Tag,
}

/// One request instance: a released DAG of stages in topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRequest {
    /// Release instant.
    pub released: SimTime,
    /// Request ordinal.
    pub request_idx: u32,
    /// Stages in a valid topological order.
    pub stages: Vec<CompiledStage>,
}

impl CompiledRequest {
    /// End-to-end relative deadline: the strictest stage deadline, if any.
    pub fn deadline(&self) -> Option<SimDuration> {
        end_to_end_deadline(&self.stages)
    }

    /// Total work of the request, megacycles.
    pub fn total_work_mc(&self) -> f64 {
        self.stages.iter().map(|s| s.work_mc).sum()
    }
}

/// End-to-end relative deadline of a request made of `stages`: the
/// strictest stage deadline, if any.
pub fn end_to_end_deadline(stages: &[CompiledStage]) -> Option<SimDuration> {
    stages.iter().filter_map(|s| s.max_latency).min()
}

impl CompiledStage {
    /// `(work_mc, input_bytes, output_bytes)` under `point`'s scaling.
    pub fn scaled(&self, point: &AppOperatingPoint) -> (f64, u64, u64) {
        (
            self.work_mc * point.work_scale,
            (self.input_bytes as f64 * point.bytes_scale) as u64,
            (self.output_bytes as f64 * point.bytes_scale) as u64,
        )
    }
}

/// Compiles an application's stage templates once: one stage per DAG
/// node in topological order, `preds` remapped to positions in that
/// order, tags with a zero request field, and nominal work/bytes
/// (see [`CompiledStage::scaled`] for an operating point's scaling).
///
/// # Errors
///
/// Returns the application's validation error if the topology is
/// malformed.
pub fn compile_stages(
    app: &Application,
    app_id: u16,
) -> Result<Vec<CompiledStage>, ValidateAppError> {
    let dag = RequestDag::from_application(app)?;
    let topo = dag.topo_order();
    let mut pos_in_topo = vec![0usize; dag.nodes().len()];
    for (rank, &i) in topo.iter().enumerate() {
        pos_in_topo[i] = rank;
    }
    Ok(topo
        .iter()
        .enumerate()
        .map(|(si, &i)| {
            let n = &dag.nodes()[i];
            let comp = &app.components[n.component_idx];
            let input: u64 = n
                .preds
                .iter()
                .map(|&p| {
                    dag.nodes()[p].succs.iter().find(|(s, _)| *s == i).map(|(_, b)| *b).unwrap_or(0)
                })
                .sum();
            CompiledStage {
                component_idx: n.component_idx,
                name: n.name.clone(),
                work_mc: n.work_mc,
                mem_mb: comp.requirements.mem_mb,
                accel_cfg: comp.requirements.accel_cfg,
                input_bytes: input,
                output_bytes: n.succs.iter().map(|(_, b)| *b).sum(),
                max_latency: comp.requirements.max_latency,
                security: comp.requirements.security,
                program: comp.requirements.program,
                preds: n.preds.iter().map(|&p| pos_in_topo[p]).collect(),
                tag: Tag { app: app_id, request: 0, stage: si as u16 },
            }
        })
        .collect())
}

/// Expands an application into its full request stream: the
/// [`compile_stages`] templates instantiated once per arrival.
///
/// `app_id` namespaces the tags; `seed` drives stochastic arrivals;
/// `point` optionally applies an operating point's work/bytes scaling.
///
/// # Errors
///
/// Returns the application's validation error if the topology is
/// malformed.
///
/// # Examples
///
/// ```
/// use myrtus_workload::compile::compile_requests;
/// use myrtus_workload::scenarios;
///
/// let app = scenarios::telerehab();
/// let reqs = compile_requests(&app, 1, 42, None)?;
/// assert_eq!(reqs.len(), app.arrival.expected_count());
/// assert!(reqs[0].stages.len() >= 3);
/// # Ok::<(), myrtus_workload::tosca::ValidateAppError>(())
/// ```
pub fn compile_requests(
    app: &Application,
    app_id: u16,
    seed: u64,
    point: Option<&AppOperatingPoint>,
) -> Result<Vec<CompiledRequest>, ValidateAppError> {
    let mut templates = compile_stages(app, app_id)?;
    if let Some(p) = point {
        for t in &mut templates {
            (t.work_mc, t.input_bytes, t.output_bytes) = t.scaled(p);
        }
    }
    Ok(app
        .arrival
        .generate(seed)
        .into_iter()
        .zip(0u32..)
        .map(|(released, request)| CompiledRequest {
            released,
            request_idx: request,
            stages: templates
                .iter()
                .map(|t| CompiledStage { tag: Tag { request, ..t.tag }, ..t.clone() })
                .collect(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalSpec;
    use crate::opset::AppOperatingPoint;
    use crate::tosca::{Component, ComponentKind};
    use myrtus_continuum::net::Protocol;

    fn chain() -> Application {
        Application::new("c", ArrivalSpec::periodic(SimDuration::from_millis(10), 3))
            .with_component(Component::new("s", ComponentKind::Sensor).with_work_mc(0.5))
            .with_component(
                Component::new("f", ComponentKind::Function)
                    .with_work_mc(4.0)
                    .with_max_latency(SimDuration::from_millis(20)),
            )
            .with_component(Component::new("k", ComponentKind::Storage).with_work_mc(1.0))
            .with_connection("s", "f", 1_000, Protocol::Mqtt)
            .with_connection("f", "k", 200, Protocol::Mqtt)
    }

    #[test]
    fn tag_round_trips() {
        let t = Tag { app: 513, request: 0xDEADBEEF, stage: 77 };
        assert_eq!(Tag::decode(t.encode()), t);
        assert_eq!(Tag::decode(Tag::app_key(7)).app, 7);
    }

    #[test]
    fn one_request_per_arrival() {
        let reqs = compile_requests(&chain(), 2, 0, None).expect("valid");
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].released, SimTime::from_millis(10));
        assert_eq!(reqs[2].request_idx, 2);
    }

    #[test]
    fn stages_follow_topology_with_io() {
        let reqs = compile_requests(&chain(), 2, 0, None).expect("valid");
        let st = &reqs[0].stages;
        assert_eq!(st.len(), 3);
        assert_eq!(st[0].name, "s");
        assert_eq!(st[0].input_bytes, 0);
        assert_eq!(st[0].output_bytes, 1_000);
        assert_eq!(st[1].name, "f");
        assert_eq!(st[1].input_bytes, 1_000);
        assert_eq!(st[1].preds, vec![0]);
        assert_eq!(st[2].input_bytes, 200);
    }

    #[test]
    fn tags_identify_app_request_stage() {
        let reqs = compile_requests(&chain(), 9, 0, None).expect("valid");
        let t = reqs[1].stages[2].tag;
        assert_eq!((t.app, t.request, t.stage), (9, 1, 2));
    }

    #[test]
    fn operating_point_scales_work_and_bytes() {
        let p = AppOperatingPoint::new("eco", 0.5, 0.25, 0.8);
        let nominal = compile_requests(&chain(), 1, 0, None).expect("valid");
        let scaled = compile_requests(&chain(), 1, 0, Some(&p)).expect("valid");
        assert!((scaled[0].stages[1].work_mc - nominal[0].stages[1].work_mc * 0.5).abs() < 1e-9);
        assert_eq!(scaled[0].stages[1].input_bytes, nominal[0].stages[1].input_bytes / 4);
    }

    #[test]
    fn requests_expand_the_stage_templates_under_any_point() {
        // The engine keeps nominal templates and scales at submission;
        // that must equal what `compile_requests` emits for the point.
        let app = chain();
        let nominal = compile_stages(&app, 5).expect("valid");
        let eco = AppOperatingPoint::new("eco", 0.55, 0.3, 0.8);
        let arrivals = app.arrival.generate(11);
        for point in [None, Some(&eco)] {
            let reqs = compile_requests(&app, 5, 11, point).expect("valid");
            assert_eq!(reqs.len(), arrivals.len());
            for (ri, req) in reqs.iter().enumerate() {
                assert_eq!((req.released, req.request_idx), (arrivals[ri], ri as u32));
                assert_eq!(req.stages.len(), nominal.len());
                for (si, (s, t)) in req.stages.iter().zip(&nominal).enumerate() {
                    let (work_mc, input_bytes, output_bytes) =
                        point.map_or((t.work_mc, t.input_bytes, t.output_bytes), |p| t.scaled(p));
                    let tag = Tag { app: 5, request: ri as u32, stage: si as u16 };
                    let want =
                        CompiledStage { work_mc, input_bytes, output_bytes, tag, ..t.clone() };
                    assert_eq!(*s, want, "request {ri} stage {si} under {point:?}");
                }
            }
        }
    }

    #[test]
    fn request_deadline_is_strictest_stage() {
        let reqs = compile_requests(&chain(), 1, 0, None).expect("valid");
        assert_eq!(reqs[0].deadline(), Some(SimDuration::from_millis(20)));
        assert!((reqs[0].total_work_mc() - 5.5).abs() < 1e-9);
    }
}
