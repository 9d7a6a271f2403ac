//! Every metric the benchmark reports: name, unit, direction and kind.
//! `BENCHMARK.json` lists the same names, units and directions (a test
//! keeps the two in step); `README.md` gives each metric's workloads and
//! the end-to-end metric a per-layer metric should move.

use gnn_device::KernelKind;

/// What a number measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cost of the Rust program on the machine running the benchmark.
    Host,
    /// Time or memory of the modelled RTX 2080Ti; deterministic per seed.
    Sim,
    /// A count or ratio of counts; deterministic per seed.
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
        }
    }
}

/// One metric of the catalog.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

fn m(name: &str, unit: &'static str, better: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        better,
        kind,
    }
}

/// The kernel kinds the device model prices, in report order.
pub const KERNEL_KINDS: [KernelKind; 11] = [
    KernelKind::Gemm,
    KernelKind::Elementwise,
    KernelKind::Reduction,
    KernelKind::Gather,
    KernelKind::Scatter,
    KernelKind::Segment,
    KernelKind::Softmax,
    KernelKind::Norm,
    KernelKind::SpMM,
    KernelKind::SDDMM,
    KernelKind::Transfer,
];

/// Metrics every workload reports with tracing off. Each is non-zero on
/// every workload.
pub fn end_to_end() -> Vec<Metric> {
    use Kind::*;
    vec![
        m("wall_s", "s", "lower", Host),
        m("setup_s", "s", "lower", Host),
        m("peak_rss_mb", "MB", "lower", Host),
        m("sim_work_s", "s", "lower", Sim),
        m("sim_peak_mem_p50_mb", "MB", "lower", Sim),
    ]
}

/// Per-layer entries that are workload results rather than layer
/// measurements; the untraced run prints them too.
pub const RESULTS: [&str; 8] = [
    "failed_frac",
    "sim_train_s",
    "test_acc_pct",
    "sim_scaling_eff",
    "p50_ms",
    "p99_ms",
    "slo_attainment",
    "saturation_rps",
];

/// Metrics of the traced run. A workload that does not exercise a layer
/// reports 0 for it.
pub fn per_layer() -> Vec<Metric> {
    use Kind::*;
    let mut v = vec![
        // Workload results that do not apply to every workload.
        m("failed_frac", "ratio", "lower", Count),
        m("sim_train_s", "s", "lower", Sim),
        m("test_acc_pct", "%", "higher", Sim),
        m("sim_scaling_eff", "ratio", "higher", Sim),
        m("p50_ms", "ms", "lower", Sim),
        m("p99_ms", "ms", "lower", Sim),
        m("slo_attainment", "ratio", "higher", Sim),
        m("saturation_rps", "1/s", "higher", Sim),
        m("trace.overhead_s", "s", "lower", Host),
        // Set-up.
        m("lint.host_s", "s", "lower", Host),
        m("datasets.gen_s", "s", "lower", Host),
        m("sample.rmat_gen_s", "s", "lower", Host),
        m("serve.registry_build_s", "s", "lower", Host),
        // Host self time per measured pass.
        m("models.forward_host_s", "s", "lower", Host),
        m("tensor.backward_host_s", "s", "lower", Host),
        m("train.optim_host_s", "s", "lower", Host),
        m("models.infer_host_s", "s", "lower", Host),
        m("serve.batch_host_ms", "ms", "lower", Host),
        m("rustyg.collate_host_s", "s", "lower", Host),
        m("rgl.collate_host_s", "s", "lower", Host),
        m("multi.host_s", "s", "lower", Host),
        m("sample.block_host_s", "s", "lower", Host),
        m("serve.fleet_host_s", "s", "lower", Host),
        // Framework split of simulated time.
        m("rustyg.sim_data_load_s", "s", "lower", Sim),
        m("rgl.sim_data_load_s", "s", "lower", Sim),
        m("rustyg.sim_s", "s", "lower", Sim),
        m("rgl.sim_s", "s", "lower", Sim),
        // Device model totals.
        m("device.sim_phase_s.data_load", "s", "lower", Sim),
        m("device.sim_phase_s.forward", "s", "lower", Sim),
        m("device.sim_phase_s.backward", "s", "lower", Sim),
        m("device.sim_phase_s.update", "s", "lower", Sim),
        m("device.sim_phase_s.other", "s", "lower", Sim),
        m("device.kernel_launches", "count", "lower", Count),
        m("device.sim_kernel_s", "s", "lower", Sim),
        m("device.sim_transfer_s", "s", "lower", Sim),
        m("device.sim_idle_s", "s", "lower", Sim),
        m("device.flops", "flop", "lower", Count),
        m("device.bytes", "B", "lower", Count),
        m("device.sim_util", "ratio", "higher", Sim),
        m("device.peak_mem_max_mb", "MB", "lower", Sim),
    ];
    for kind in KERNEL_KINDS {
        let label = kind.label();
        v.push(m(&format!("kernel.{label}.count"), "count", "lower", Count));
        v.push(m(&format!("kernel.{label}.sim_s"), "s", "lower", Sim));
    }
    v.extend([
        // Sampler and feature cache.
        m("sample.blocks", "count", "lower", Count),
        m("sample.union_nodes", "count", "lower", Count),
        m("sample.union_edges", "count", "lower", Count),
        m("cache.hit_rate.rmat-1m", "ratio", "higher", Count),
        m("cache.hit_rate.rmat-64k", "ratio", "higher", Count),
        m("cache.remote_miss_rows", "count", "lower", Count),
        m("cache.transfer_mb", "MB", "lower", Count),
        // Data-parallel training.
        m("multi.sim_epoch_s.w1", "s", "lower", Sim),
        m("multi.sim_epoch_s.w4", "s", "lower", Sim),
        // Batcher and engine.
        m("serve.batches", "count", "lower", Count),
        m("serve.mean_batch_size", "count", "higher", Count),
        m("serve.occupancy", "ratio", "higher", Count),
        m("serve.queue_wait_p50_ms", "ms", "lower", Sim),
        m("serve.queue_wait_p99_ms", "ms", "lower", Sim),
        m("serve.max_queue_depth", "count", "lower", Count),
        m("serve.exec_p50_ms", "ms", "lower", Sim),
        m("serve.exec_p99_ms", "ms", "lower", Sim),
        // Fleet: router, health, autoscale, faults.
        m("fleet.dispatch_ratio", "ratio", "lower", Count),
        m("fleet.retries", "count", "lower", Count),
        m("fleet.hedges", "count", "lower", Count),
        m("fleet.sheds", "count", "lower", Count),
        m("fleet.rejected", "count", "lower", Count),
        m("fleet.ejections", "count", "lower", Count),
        m("fleet.failover_p99_ms", "ms", "lower", Sim),
        m("autoscale.scale_ups", "count", "lower", Count),
        m("autoscale.scale_downs", "count", "lower", Count),
        m("faults.fired", "count", "lower", Count),
        m("serve.oom_splits", "count", "lower", Count),
        m("serve.kernel_retries", "count", "lower", Count),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_obs::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit, better)` of every entry of a BENCHMARK.json list.
    fn listed(json: &Value, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
        json.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn catalogued(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned(), m.better.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), catalogued(&end_to_end()));
        assert_eq!(listed(&json, "per_layer"), catalogued(&per_layer()));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn names_are_unique_and_results_are_catalogued() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        for r in RESULTS {
            assert!(names.iter().any(|n| n == r), "{r} not catalogued");
        }
    }
}
