//! The `serve-fleet` workload: two open-loop phases through
//! `gnn_serve::serve_fleet`.
//!
//! Arrivals are generated up front on the simulated clock, so the
//! generator is never late and every latency is timed from when its
//! request was due.

use std::collections::BTreeMap;

use gnn_device::{session, CostModel, DeviceReport, Session};
use gnn_faults::FaultPlan;
use gnn_models::config::FrameworkKind;
use gnn_serve::{
    default_endpoints, serve_fleet, BatchPolicy, FleetConfig, ModelRegistry, RoutingPolicy,
    ServeReport,
};

use crate::trace::span;

/// Requests per phase: 2000 latency samples leave 20 beyond p99.
const REQUESTS: usize = 2000;
/// SLO target of the nominal phase, seconds.
pub const SLO_S: f64 = 0.025;
/// Dataset scale of the served cells.
const SCALE: f64 = 0.03;

/// One serving phase: a fleet config and the fault plan armed around it.
pub struct ServePhase {
    pub name: &'static str,
    pub cfg: FleetConfig,
    pub plan: Option<FaultPlan>,
}

/// `nominal` (4000 req/s under the canonical fleet chaos plan) and
/// `overload` (32000 req/s, no faults, caps high enough that the backlog
/// queues instead of being shed, so throughput reads the fleet's capacity).
pub fn phases(seed: u64) -> Vec<ServePhase> {
    let base = FleetConfig {
        endpoints: default_endpoints(),
        shards: 3,
        replicas_per_shard: 2,
        routing: RoutingPolicy::LeastLoaded,
        policy: BatchPolicy {
            max_batch: 8,
            max_delay: 0.002,
        },
        slo_target: SLO_S,
        requests: REQUESTS,
        seed,
        scale: SCALE,
        ..FleetConfig::default()
    };
    vec![
        ServePhase {
            name: "nominal",
            cfg: FleetConfig {
                rate: 4000.0,
                ..base.clone()
            },
            plan: Some(FaultPlan::canonical_fleet()),
        },
        ServePhase {
            name: "overload",
            cfg: FleetConfig {
                rate: 32000.0,
                queue_cap: REQUESTS,
                admission_cap: REQUESTS,
                ..base
            },
            plan: None,
        },
    ]
}

/// Lints both phases' fleet configs and the nominal fault plan.
pub fn lint(phases: &[ServePhase]) -> Vec<String> {
    let mut findings = Vec::new();
    for p in phases {
        let paths: Vec<String> = p.cfg.endpoints.iter().map(|c| c.path()).collect();
        gnn_lint::check_fleet_config(&paths, &p.cfg, &mut findings);
        if let Some(plan) = &p.plan {
            gnn_lint::check_fleet_fault_plan(plan, &p.cfg, &mut findings);
        }
    }
    findings.iter().map(|f| f.to_string()).collect()
}

/// What one phase produced.
#[derive(Debug, Clone)]
pub struct ServeOut {
    pub phase: &'static str,
    pub report: ServeReport,
    pub faults_fired: usize,
}

impl ServeOut {
    /// Bit pattern of every simulated quantity of the run, for exact
    /// comparison between runs.
    pub fn fingerprint(&self) -> Vec<u64> {
        let r = &self.report;
        let mut fp = vec![self.faults_fired as u64, r.makespan.to_bits()];
        for q in &r.requests {
            fp.extend([
                q.id,
                q.enqueue.to_bits(),
                q.dispatch.to_bits(),
                q.reply.to_bits(),
            ]);
            fp.push(q.batch.map_or(u64::MAX, |b| b));
            fp.push(u64::from(q.served()));
            fp.extend(q.output.iter().map(|v| u64::from(v.to_bits())));
        }
        for b in &r.batches {
            fp.extend([b.id, b.duration.to_bits(), b.size as u64, b.peak_memory]);
        }
        if let Some(f) = &r.fleet {
            fp.extend([f.dispatched, f.retries, f.hedges, f.sheds, f.ejections].map(|v| v as u64));
            fp.extend([f.scale_ups, f.scale_downs].map(|v| v as u64));
        }
        fp
    }
}

/// Serves one phase through the program's fleet engine.
pub fn run_phase(phase: &ServePhase) -> Result<ServeOut, String> {
    let injector = phase.plan.clone().map(gnn_faults::install);
    let report = span("serve.serve_fleet", || serve_fleet(&phase.cfg));
    let faults_fired = injector.map_or(0, |h| gnn_faults::finish(h).len());
    let report = report.map_err(|e| format!("serve_fleet: {e}"))?;
    Ok(ServeOut {
        phase: phase.name,
        report,
        faults_fired,
    })
}

/// Replays of reported batches through `Endpoint::serve_batch`.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub batches: usize,
    /// Replies that differ from the fleet's reply for the same target.
    pub output_mismatches: usize,
    /// Fault-free batches whose replayed device time differs.
    pub duration_mismatches: usize,
    /// Device report of every replayed batch, with its framework.
    pub reports: Vec<(FrameworkKind, DeviceReport)>,
}

/// Replays every `stride`-th batch of `out` on a fresh device session and
/// compares each reply with the one the fleet sent.
pub fn replay(
    registry: &ModelRegistry,
    cost: &CostModel,
    out: &ServeOut,
    stride: usize,
) -> Result<Replay, String> {
    let mut members: BTreeMap<u64, Vec<&gnn_serve::RequestRecord>> = BTreeMap::new();
    for q in out.report.requests.iter().filter(|q| q.served()) {
        if let Some(b) = q.batch {
            members.entry(b).or_default().push(q);
        }
    }
    let mut rep = Replay::default();
    for batch in out.report.batches.iter().step_by(stride.max(1)) {
        let reqs = members
            .get(&batch.id)
            .ok_or_else(|| format!("batch {} answered no request", batch.id))?;
        if reqs.len() != batch.size {
            return Err(format!(
                "batch {} reports size {} but answered {} requests",
                batch.id,
                batch.size,
                reqs.len()
            ));
        }
        let endpoint = registry
            .iter()
            .find(|e| e.cell.path() == batch.endpoint)
            .ok_or_else(|| {
                format!(
                    "batch {} names unknown endpoint {}",
                    batch.id, batch.endpoint
                )
            })?;
        let targets: Vec<u32> = reqs.iter().map(|q| q.target).collect();
        let handle = session::install(Session::new(cost.clone()));
        let outputs = span("serve.serve_batch", || endpoint.serve_batch(&targets));
        let report = session::finish(handle);
        for (q, row) in reqs.iter().zip(&outputs) {
            if !bits_eq(&q.output, row) {
                rep.output_mismatches += 1;
            }
        }
        let clean = batch.oom_splits == 0 && batch.kernel_retries == 0;
        if clean && report.total_time.to_bits() != batch.duration.to_bits() {
            rep.duration_mismatches += 1;
        }
        rep.batches += 1;
        rep.reports.push((endpoint.cell.framework, report));
    }
    Ok(rep)
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
