//! Workload set-up, the measured loop, output checks and metric values.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use gnn_core::RunConfig;
use gnn_datasets::{stratified_kfold, CitationSpec, Fold, GraphDataset, NodeDataset, TudSpec};
use gnn_device::DeviceReport;
use gnn_models::config::{FrameworkKind, ModelKind, ALL_FRAMEWORKS, ALL_MODELS};
use gnn_sample::{RmatGraph, SampleSpec, SamplerKind};
use gnn_serve::ModelRegistry;

use crate::catalog::KERNEL_KINDS;
use crate::serve::{Replay, ServeOut, ServePhase};
use crate::stats::{fastest, median, percentile};
use crate::train::{BlockStats, CellOut, DpOut, DpPoint, GraphCell, NodeCell, SampledCell};
use crate::{trace, Args};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["paper-sweep", "sampled-rmat", "serve-fleet"];

/// Set-up repetitions per run: at least `MIN_SETUPS`, more while their
/// total stays under `SETUP_BUDGET_S`, at most `MAX_SETUPS`. `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 51;
const SETUP_BUDGET_S: f64 = 1.0;
/// Serving batches replayed by the untraced run's output check: every
/// `VERIFY_STRIDE`-th one (the traced run replays all of them).
const VERIFY_STRIDE: usize = 8;

/// Generator seed of the `paper-sweep` datasets. The paper's datasets are
/// fixed and its protocol randomizes folds, weight init and batch order;
/// `--seed` drives those, so the graph sizes (and with them the cost of a
/// pass) do not change with the seed.
const PAPER_DATA_SEED: u64 = 0;
/// `paper-sweep` dataset scale of the Table IV/V cells. ENZYMES and DD
/// sit at their generators' floors (72 and 24 graphs) at this scale.
const PAPER_SCALE: f64 = 0.02;
/// Full-batch epochs per Table IV cell.
const NODE_EPOCHS: usize = 4;
/// Epochs per Table V cell (one fold).
const GRAPH_EPOCHS: usize = 1;
/// ENZYMES scale of the data-parallel points: enough graphs for batch 128.
const DP_SCALE: f64 = 0.25;
const DP_BATCH: usize = 128;
/// `sampled-rmat` specs and seed batches per cell.
const SAMPLED_SPECS: [&str; 2] = ["rmat-1m", "rmat-64k"];
const SAMPLED_BATCHES: usize = 16;

const MB: f64 = 1024.0 * 1024.0;

/// The generated inputs of one workload.
enum Data {
    Paper {
        node: Vec<NodeDataset>,
        graph: Vec<(GraphDataset, Fold)>,
        dp: GraphDataset,
    },
    Sampled {
        graphs: Vec<(SampleSpec, Rc<RmatGraph>)>,
    },
    Serve {
        phases: Vec<ServePhase>,
        registry: ModelRegistry,
    },
}

/// Host seconds of one set-up, split by layer.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    total: f64,
    lint: f64,
    datasets: f64,
    rmat: f64,
    registry: f64,
}

fn timed<T>(name: &'static str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = trace::span(name, f);
    *acc += t.elapsed().as_secs_f64();
    out
}

fn lint_gate(findings: Vec<String>) -> Result<(), String> {
    if findings.is_empty() {
        Ok(())
    } else {
        Err(format!("lint gate: {}", findings.join("; ")))
    }
}

/// The sampled specs with the RMAT seed offset by the workload seed (seed
/// 0 keeps the catalog graphs).
fn sampled_specs(seed: u64) -> Result<Vec<SampleSpec>, String> {
    SAMPLED_SPECS
        .iter()
        .map(|name| {
            let mut spec = SampleSpec::get(name).map_err(|e| e.to_string())?;
            spec.rmat.seed = spec.rmat.seed.wrapping_add(seed);
            Ok(spec)
        })
        .collect()
}

fn setup_once(workload: &str, seed: u64) -> Result<(Data, SetupTimes), String> {
    let start = Instant::now();
    let mut t = SetupTimes::default();
    let data = match workload {
        "paper-sweep" => {
            let node = timed("datasets.generate", &mut t.datasets, || {
                [CitationSpec::cora(), CitationSpec::pubmed()]
                    .into_iter()
                    .map(|s| s.scaled(PAPER_SCALE).generate(PAPER_DATA_SEED))
                    .collect()
            });
            let graph = timed("datasets.generate", &mut t.datasets, || {
                [TudSpec::enzymes(), TudSpec::dd()]
                    .into_iter()
                    .map(|s| {
                        let ds = s.scaled(PAPER_SCALE).generate(PAPER_DATA_SEED);
                        let fold = stratified_kfold(&ds.labels(), 10, seed).swap_remove(0);
                        (ds, fold)
                    })
                    .collect()
            });
            let dp = timed("datasets.generate", &mut t.datasets, || {
                TudSpec::enzymes()
                    .scaled(DP_SCALE)
                    .generate(PAPER_DATA_SEED)
            });
            let cfg = RunConfig::smoke()
                .with_scale(PAPER_SCALE)
                .with_seed(PAPER_DATA_SEED);
            let report = timed("lint", &mut t.lint, || gnn_lint::lint_run(&cfg));
            lint_gate(report.findings.iter().map(|f| f.to_string()).collect())?;
            Data::Paper { node, graph, dp }
        }
        "sampled-rmat" => {
            let specs = sampled_specs(seed)?;
            let mut findings = Vec::new();
            timed("lint", &mut t.lint, || {
                for spec in &specs {
                    gnn_lint::check_sample_spec(spec, &mut findings);
                    for fw in ALL_FRAMEWORKS {
                        for kind in SamplerKind::all() {
                            let cert = gnn_lint::certify_sample_cell(fw, spec, kind);
                            gnn_lint::memory::check_device_fit(&cert, &mut findings);
                        }
                    }
                }
            });
            lint_gate(findings.iter().map(|f| f.to_string()).collect())?;
            let mut graphs = Vec::new();
            for spec in specs {
                let g = timed("sample.rmat_generate", &mut t.rmat, || {
                    RmatGraph::generate(spec.rmat)
                })
                .map_err(|e| format!("{}: {e}", spec.name))?;
                graphs.push((spec, Rc::new(g)));
            }
            Data::Sampled { graphs }
        }
        "serve-fleet" => {
            let phases = crate::serve::phases(seed);
            let findings = timed("lint", &mut t.lint, || crate::serve::lint(&phases));
            lint_gate(findings)?;
            let cfg = &phases[0].cfg;
            let registry = timed("serve.registry_build", &mut t.registry, || {
                ModelRegistry::build(&cfg.endpoints, cfg.scale, cfg.seed, None)
            })
            .map_err(|e| format!("registry: {e}"))?;
            Data::Serve { phases, registry }
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    t.total = start.elapsed().as_secs_f64();
    Ok((data, t))
}

/// One unit of measured work.
enum Unit<'a> {
    Node(NodeCell<'a>),
    Graph(GraphCell<'a>),
    Dp(DpPoint<'a>),
    Sampled(SampledCell<'a>),
    Serve(&'a ServePhase, &'a ModelRegistry),
}

/// What a unit produced.
enum Out {
    Cell(CellOut),
    Dp(DpOut),
    Serve(ServeOut),
}

impl Out {
    /// Exact equality of every simulated quantity.
    fn same(&self, other: &Out) -> bool {
        match (self, other) {
            (Out::Cell(a), Out::Cell(b)) => a == b,
            (Out::Dp(a), Out::Dp(b)) => a == b,
            (Out::Serve(a), Out::Serve(b)) => a.fingerprint() == b.fingerprint(),
            _ => false,
        }
    }

    /// Operations the execution attempted and how many of them failed: one
    /// per cell or point (a failed one aborts the run), one per submitted
    /// request (rejected and shed ones failed).
    fn operations(&self) -> (u64, u64) {
        match self {
            Out::Serve(s) => {
                let submitted = s.report.requests.len() as u64;
                (submitted, (s.report.rejected() + s.report.shed()) as u64)
            }
            _ => (1, 0),
        }
    }
}

/// What only the harness path observes.
enum Extra {
    None,
    Blocks(BlockStats),
    Replay(Replay),
}

fn units(data: &Data, seed: u64) -> Vec<Unit<'_>> {
    let mut units = Vec::new();
    match data {
        Data::Paper { node, graph, dp } => {
            for ds in node {
                for model in ALL_MODELS {
                    for framework in ALL_FRAMEWORKS {
                        units.push(Unit::Node(NodeCell {
                            ds,
                            model,
                            framework,
                            epochs: NODE_EPOCHS,
                            seed,
                        }));
                    }
                }
            }
            for (ds, fold) in graph {
                for model in ALL_MODELS {
                    for framework in ALL_FRAMEWORKS {
                        units.push(Unit::Graph(GraphCell {
                            ds,
                            fold,
                            model,
                            framework,
                            epochs: GRAPH_EPOCHS,
                            seed,
                        }));
                    }
                }
            }
            for model in [ModelKind::Gcn, ModelKind::Gat] {
                for framework in ALL_FRAMEWORKS {
                    for n_gpus in [1, 4] {
                        units.push(Unit::Dp(DpPoint {
                            ds: dp,
                            model,
                            framework,
                            n_gpus,
                            batch_size: DP_BATCH,
                            seed,
                        }));
                    }
                }
            }
        }
        Data::Sampled { graphs } => {
            for (spec, graph) in graphs {
                for kind in SamplerKind::all() {
                    for framework in ALL_FRAMEWORKS {
                        units.push(Unit::Sampled(SampledCell {
                            graph,
                            spec,
                            kind,
                            framework,
                            batches: SAMPLED_BATCHES,
                            seed,
                        }));
                    }
                }
            }
        }
        Data::Serve { phases, registry } => {
            units.extend(phases.iter().map(|p| Unit::Serve(p, registry)));
        }
    }
    units
}

impl Unit<'_> {
    fn name(&self) -> String {
        match self {
            Unit::Node(c) => format!(
                "table4/{}/{}/{}",
                c.ds.name,
                c.model.label(),
                c.framework.label()
            ),
            Unit::Graph(c) => format!(
                "table5/{}/{}/{}",
                c.ds.name,
                c.model.label(),
                c.framework.label()
            ),
            Unit::Dp(p) => format!(
                "fig6/{}/{}/w{}",
                p.model.label(),
                p.framework.label(),
                p.n_gpus
            ),
            Unit::Sampled(c) => format!(
                "sample/{}-{}/SAGE/{}",
                c.spec.name,
                c.kind.label(),
                c.framework.label()
            ),
            Unit::Serve(p, _) => format!("serve/{}", p.name),
        }
    }

    /// Runs the unit through the program's own runner.
    fn library(&self) -> Result<Out, String> {
        Ok(match self {
            Unit::Node(c) => Out::Cell(c.library()?),
            Unit::Graph(c) => Out::Cell(c.library()?),
            Unit::Dp(p) => Out::Dp(p.run()),
            Unit::Sampled(c) => Out::Cell(c.library()?),
            Unit::Serve(p, _) => Out::Serve(crate::serve::run_phase(p)?),
        })
    }

    /// Runs the unit through the benchmark's own loop, replaying every
    /// `stride`-th served batch.
    fn harness(&self, stride: usize) -> Result<(Out, Extra), String> {
        Ok(match self {
            Unit::Node(c) => (Out::Cell(c.harness()), Extra::None),
            Unit::Graph(c) => (Out::Cell(c.harness()), Extra::None),
            Unit::Dp(p) => (Out::Dp(p.run()), Extra::None),
            Unit::Sampled(c) => {
                let (out, blocks) = c.harness()?;
                (Out::Cell(out), Extra::Blocks(blocks))
            }
            Unit::Serve(p, registry) => {
                let out = crate::serve::run_phase(p)?;
                let replay = crate::serve::replay(registry, &p.cfg.cost, &out, stride)?;
                (Out::Serve(out), Extra::Replay(replay))
            }
        })
    }

    /// Output checks on one library execution.
    fn check_library(&self, out: &Out, failures: &mut Vec<String>) {
        let name = self.name();
        match out {
            Out::Cell(c) => {
                if c.losses.is_empty() || !c.losses.iter().all(|l| l.is_finite()) {
                    failures.push(format!("{name}: loss curve not finite: {:?}", c.losses));
                }
                if !c.test_acc.is_finite() {
                    failures.push(format!("{name}: test accuracy {}", c.test_acc));
                }
            }
            Out::Dp(d) => {
                if !(d.epoch_s.is_finite() && d.epoch_s > 0.0) {
                    failures.push(format!("{name}: data-parallel epoch {}", d.epoch_s));
                }
            }
            Out::Serve(s) => {
                let Unit::Serve(p, _) = self else { return };
                let r = &s.report;
                let submitted = p.cfg.requests;
                if r.requests.len() != submitted {
                    failures.push(format!(
                        "{name}: {} of {submitted} requests dropped",
                        submitted.saturating_sub(r.requests.len())
                    ));
                }
                let terminal = r.answered() + r.rejected() + r.shed();
                if terminal != submitted {
                    failures.push(format!(
                        "{name}: answered {} + rejected {} + shed {} != submitted {submitted}",
                        r.answered(),
                        r.rejected(),
                        r.shed()
                    ));
                }
                match &r.fleet {
                    Some(f) => {
                        let bound = (1.0 + f.retry_budget) * f.submitted as f64;
                        if f.dispatched as f64 > bound + 1e-9 {
                            failures.push(format!(
                                "{name}: dispatched {} > (1 + {}) x submitted {}",
                                f.dispatched, f.retry_budget, f.submitted
                            ));
                        }
                    }
                    None => failures.push(format!("{name}: report has no fleet counters")),
                }
            }
        }
    }

    /// Output checks only the harness path can make.
    fn check_harness(&self, out: &Out, extra: &Extra, failures: &mut Vec<String>) {
        let name = self.name();
        match (out, extra) {
            (Out::Cell(c), Extra::Blocks(b)) => {
                if let Some((_, cache)) = &c.cache {
                    let fetched = cache.hits + cache.local_misses + cache.remote_misses;
                    if fetched != b.union_nodes {
                        failures.push(format!(
                            "{name}: cache hits + misses {fetched} != rows requested {}",
                            b.union_nodes
                        ));
                    }
                }
                if b.over_bound > 0 {
                    failures.push(format!(
                        "{name}: {} block(s) exceed max_union_nodes/max_union_edges",
                        b.over_bound
                    ));
                }
            }
            (Out::Serve(_), Extra::Replay(r)) => {
                if r.batches == 0 {
                    failures.push(format!("{name}: no batch replayed"));
                }
                if r.output_mismatches > 0 {
                    failures.push(format!(
                        "{name}: {} served replies differ from Endpoint::serve_batch",
                        r.output_mismatches
                    ));
                }
                if r.duration_mismatches > 0 {
                    failures.push(format!(
                        "{name}: {} replayed batches differ in simulated time",
                        r.duration_mismatches
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Everything a run measured.
pub struct RunResult {
    pub values: BTreeMap<String, f64>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    pub spans: Option<String>,
}

/// Builds the workload's inputs at least [`MIN_SETUPS`] times, and more
/// while they stay under [`SETUP_BUDGET_S`] in total, so cheap set-ups
/// get a median over many repetitions. Returns the last inputs.
fn repeated_setup(args: &Args) -> Result<(Data, Vec<SetupTimes>), String> {
    let mut setups = Vec::new();
    let mut spent = 0.0;
    loop {
        let (data, t) = setup_once(&args.workload, args.seed)?;
        spent += t.total;
        setups.push(t);
        let enough = setups.len() >= MIN_SETUPS
            && (setups.len() >= MAX_SETUPS || spent + t.total > SETUP_BUDGET_S);
        if enough {
            return Ok((data, setups));
        }
        // `data` drops here, before the next repetition builds its own.
    }
}

/// Runs one workload as `args` asks.
pub fn run(args: &Args) -> Result<RunResult, String> {
    trace::set_enabled(args.trace);
    let (data, setups) = repeated_setup(args)?;
    let units = units(&data, args.seed);

    let mut failures = Vec::new();
    let mut lib_times: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut lib_outs: Vec<Option<Out>> = units.iter().map(|_| None).collect();
    let mut traced = Traced::new(units.len());
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Whole passes run until `--seconds` have been measured.
    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for (i, unit) in units.iter().enumerate() {
            trace::set_group(i as u64);
            // Alternate which path runs first, so neither always inherits
            // the other's heap and cache state.
            let traced_first = args.trace && !passes.is_multiple_of(2);
            if traced_first {
                traced.run(unit, i)?;
            }
            trace::set_enabled(false);
            let t = Instant::now();
            let out = unit
                .library()
                .map_err(|e| format!("{}: {e}", unit.name()))?;
            lib_times[i].push(t.elapsed().as_secs_f64());
            trace::set_enabled(args.trace);
            let (a, f) = out.operations();
            attempted += a;
            failed += f;
            unit.check_library(&out, &mut failures);
            match &lib_outs[i] {
                None => lib_outs[i] = Some(out),
                Some(first) if !first.same(&out) => failures.push(format!(
                    "{}: repeated run differs in simulated results",
                    unit.name()
                )),
                Some(_) => {}
            }
            if args.trace && !traced_first {
                traced.run(unit, i)?;
            }
        }
        passes += 1;
    }

    let lib_outs: Vec<Out> = lib_outs.into_iter().map(|o| o.expect("ran")).collect();
    let harness_outs: Vec<(Out, Extra)> = std::mem::take(&mut traced.outs)
        .into_iter()
        .flatten()
        .collect();
    for ((unit, lib), (out, extra)) in units.iter().zip(&lib_outs).zip(&harness_outs) {
        if !lib.same(out) {
            failures.push(format!(
                "{}: harness loop differs from the program's runner in simulated results",
                unit.name()
            ));
        }
        unit.check_harness(out, extra, &mut failures);
    }
    if !args.trace {
        // The untraced run checks a sample of served replies, after timing.
        for (unit, out) in units.iter().zip(&lib_outs) {
            if let (Unit::Serve(p, registry), Out::Serve(s)) = (unit, out) {
                let replay = crate::serve::replay(registry, &p.cfg.cost, s, VERIFY_STRIDE)?;
                unit.check_harness(out, &Extra::Replay(replay), &mut failures);
            }
        }
    }

    for (unit, times) in units.iter().zip(&lib_times) {
        println!(
            "# unit {:<40} fastest_s={:.6} median_s={:.6} runs={}",
            unit.name(),
            fastest(times),
            median(times),
            times.len()
        );
    }
    let mut values = BTreeMap::new();
    // Each unit's fastest run: on a shared machine other tenants only ever
    // add time, and the machine's speed drifts over tens of seconds, so the
    // fastest run is the steadiest estimate of what the program costs.
    let wall: f64 = lib_times.iter().map(|t| fastest(t)).sum();
    values.insert("wall_s".to_owned(), wall);
    values.insert(
        "setup_s".to_owned(),
        median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()),
    );
    let rss = crate::stats::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
    values.insert("peak_rss_mb".to_owned(), rss);
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    values.insert("lint.host_s".to_owned(), setup_median(|t| t.lint));
    values.insert("datasets.gen_s".to_owned(), setup_median(|t| t.datasets));
    values.insert("sample.rmat_gen_s".to_owned(), setup_median(|t| t.rmat));
    values.insert(
        "serve.registry_build_s".to_owned(),
        setup_median(|t| t.registry),
    );
    sim_values(&lib_outs, &harness_outs, &mut values);
    values.insert(
        "failed_frac".to_owned(),
        failed as f64 / attempted.max(1) as f64,
    );

    let mut spans = None;
    if args.trace {
        let traced_wall: f64 = traced.times.iter().map(|t| fastest(t)).sum();
        values.insert("trace.overhead_s".to_owned(), traced_wall - wall);
        host_layer_values(&traced.self_time, passes, &harness_outs, &mut values);
        let path = format!(
            "{}/out/spans-{}-seed{}.json",
            env!("CARGO_MANIFEST_DIR"),
            args.workload,
            args.seed
        );
        trace::write_json(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        spans = Some(path);
    }

    Ok(RunResult {
        values,
        failures,
        attempted,
        failed,
        passes,
        spans,
    })
}

/// Span names of work the harness adds only to check outputs; their time
/// is left out of the traced wall time.
const CHECK_SPANS: [&str; 2] = ["sample.sample_block", "serve.serve_batch"];

/// What the traced executions of the harness loop recorded.
struct Traced {
    /// Host seconds per execution of each unit, check-only spans excluded.
    times: Vec<Vec<f64>>,
    /// The first harness output of each unit.
    outs: Vec<Option<(Out, Extra)>>,
    /// Self time per span name, summed over all executions.
    self_time: BTreeMap<&'static str, f64>,
}

impl Traced {
    fn new(units: usize) -> Self {
        Traced {
            times: vec![Vec::new(); units],
            outs: (0..units).map(|_| None).collect(),
            self_time: BTreeMap::new(),
        }
    }

    /// Runs unit `i` through the harness loop with spans on.
    fn run(&mut self, unit: &Unit, i: usize) -> Result<(), String> {
        let mark = trace::mark();
        let t = Instant::now();
        let out = unit.harness(1)?;
        let elapsed = t.elapsed().as_secs_f64();
        let selfs = trace::self_times_since(mark);
        let checking: f64 = CHECK_SPANS.iter().filter_map(|n| selfs.get(n)).sum();
        self.times[i].push(elapsed - checking);
        for (name, s) in selfs {
            *self.self_time.entry(name).or_insert(0.0) += s;
        }
        if self.outs[i].is_none() {
            self.outs[i] = Some(out);
        }
        Ok(())
    }
}

/// Host per-layer values: span self time per measured pass.
fn host_layer_values(
    layer_self: &BTreeMap<&'static str, f64>,
    passes: usize,
    harness_outs: &[(Out, Extra)],
    values: &mut BTreeMap<String, f64>,
) {
    let per_pass = |name: &str| layer_self.get(name).copied().unwrap_or(0.0) / passes.max(1) as f64;
    let serve_batch = per_pass("serve.serve_batch");
    let replayed: usize = harness_outs
        .iter()
        .map(|(_, e)| match e {
            Extra::Replay(r) => r.batches,
            _ => 0,
        })
        .sum();
    for (key, v) in [
        ("models.forward_host_s", per_pass("models.forward")),
        ("tensor.backward_host_s", per_pass("tensor.backward")),
        ("train.optim_host_s", per_pass("train.optim")),
        (
            "models.infer_host_s",
            per_pass("models.infer") + serve_batch,
        ),
        (
            "serve.batch_host_ms",
            if replayed == 0 {
                0.0
            } else {
                1e3 * serve_batch / replayed as f64
            },
        ),
        ("rustyg.collate_host_s", per_pass("rustyg.load")),
        ("rgl.collate_host_s", per_pass("rgl.load")),
        ("multi.host_s", per_pass("multi.data_parallel_epoch")),
        ("sample.block_host_s", per_pass("sample.sample_block")),
        ("serve.fleet_host_s", per_pass("serve.serve_fleet")),
    ] {
        values.insert(key.to_owned(), v);
    }
}

#[derive(Default)]
struct DeviceTotals {
    phases: [f64; 5],
    launches: u64,
    kernel_s: f64,
    transfer_s: f64,
    idle_s: f64,
    busy_s: f64,
    total_s: f64,
    flops: u64,
    bytes: u64,
    kind_count: [u64; 11],
    kind_s: [f64; 11],
}

impl DeviceTotals {
    fn add(&mut self, r: &DeviceReport) {
        for (acc, p) in self.phases.iter_mut().zip(r.phase_times) {
            *acc += p;
        }
        self.launches += r.kernel_count;
        self.kernel_s += r.kernel_exec_time();
        self.transfer_s += r.transfer_time();
        self.idle_s += r.idle_time();
        self.busy_s += r.busy_time;
        self.total_s += r.total_time;
        self.flops += r.total_flops;
        self.bytes += r.total_bytes;
        for (i, kind) in KERNEL_KINDS.iter().enumerate() {
            if let Some(p) = r.profile.iter().find(|p| p.kind == *kind) {
                self.kind_count[i] += p.launches;
                self.kind_s[i] += p.device_time;
            }
        }
    }
}

/// Simulated and count values. Library outputs give the end-to-end
/// numbers; harness outputs (bit-identical where both exist) add what
/// only the harness sees: union blocks and serving replays.
fn sim_values(lib: &[Out], harness: &[(Out, Extra)], values: &mut BTreeMap<String, f64>) {
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_owned(), v);
    };
    let mut dev = DeviceTotals::default();
    let mut fw_sim = [0.0f64; 2];
    let mut fw_load = [0.0f64; 2];
    let fw_index = |fw: FrameworkKind| usize::from(fw == FrameworkKind::Rgl);
    let (mut work, mut train) = (0.0f64, 0.0f64);
    // Device high-water mark of every training cell and served batch.
    let mut peaks: Vec<f64> = Vec::new();
    let mut accs = Vec::new();
    let mut dp: BTreeMap<(String, String), [f64; 2]> = BTreeMap::new();
    let mut hit_rate: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let (mut remote_rows, mut moved_bytes) = (0u64, 0u64);
    let mut serve: BTreeMap<&str, &ServeOut> = BTreeMap::new();

    for out in lib {
        match out {
            Out::Cell(c) => {
                work += c.report.total_time;
                train += c.report.total_time;
                peaks.push(c.report.peak_memory as f64);
                accs.push(c.test_acc);
                dev.add(&c.report);
                fw_sim[fw_index(c.framework)] += c.report.total_time;
                fw_load[fw_index(c.framework)] += c.report.phase_times[0];
                if let Some((spec, s)) = &c.cache {
                    let e = hit_rate.entry(spec).or_insert((0, 0));
                    e.0 += s.hits;
                    e.1 += s.hits + s.local_misses + s.remote_misses;
                    remote_rows += s.remote_misses;
                    moved_bytes += s.bytes_moved;
                }
            }
            Out::Dp(d) => {
                work += d.epoch_s;
                let key = (d.model.label().to_owned(), d.framework.label().to_owned());
                dp.entry(key).or_insert([0.0; 2])[usize::from(d.n_gpus > 1)] = d.epoch_s;
            }
            Out::Serve(s) => {
                work += s.report.batches.iter().map(|b| b.duration).sum::<f64>();
                peaks.extend(s.report.batches.iter().map(|b| b.peak_memory as f64));
                serve.insert(s.phase, s);
            }
        }
    }
    let mut blocks = BlockStats::default();
    for (_, extra) in harness {
        match extra {
            Extra::Blocks(b) => {
                blocks.blocks += b.blocks;
                blocks.union_nodes += b.union_nodes;
                blocks.union_edges += b.union_edges;
            }
            Extra::Replay(r) => {
                for (fw, report) in &r.reports {
                    dev.add(report);
                    fw_sim[fw_index(*fw)] += report.total_time;
                }
            }
            Extra::None => {}
        }
    }

    put("sim_work_s", work);
    put("sim_peak_mem_p50_mb", median(&peaks) / MB);
    put(
        "device.peak_mem_max_mb",
        peaks.iter().copied().fold(0.0, f64::max) / MB,
    );
    put("sim_train_s", train);
    put(
        "test_acc_pct",
        if accs.is_empty() {
            0.0
        } else {
            accs.iter().sum::<f64>() / accs.len() as f64
        },
    );
    let effs: Vec<f64> = dp.values().map(|[w1, w4]| w1 / (4.0 * w4)).collect();
    put(
        "sim_scaling_eff",
        if effs.is_empty() {
            0.0
        } else {
            effs.iter().sum::<f64>() / effs.len() as f64
        },
    );
    put(
        "multi.sim_epoch_s.w1",
        dp.values().fold(0.0, |acc, v| acc + v[0]),
    );
    put(
        "multi.sim_epoch_s.w4",
        dp.values().fold(0.0, |acc, v| acc + v[1]),
    );

    put("rustyg.sim_s", fw_sim[0]);
    put("rgl.sim_s", fw_sim[1]);
    put("rustyg.sim_data_load_s", fw_load[0]);
    put("rgl.sim_data_load_s", fw_load[1]);
    for (label, v) in ["data_load", "forward", "backward", "update", "other"]
        .iter()
        .zip(dev.phases)
    {
        put(&format!("device.sim_phase_s.{label}"), v);
    }
    put("device.kernel_launches", dev.launches as f64);
    put("device.sim_kernel_s", dev.kernel_s);
    put("device.sim_transfer_s", dev.transfer_s);
    put("device.sim_idle_s", dev.idle_s);
    put("device.flops", dev.flops as f64);
    put("device.bytes", dev.bytes as f64);
    put(
        "device.sim_util",
        if dev.total_s > 0.0 {
            dev.busy_s / dev.total_s
        } else {
            0.0
        },
    );
    for (i, kind) in KERNEL_KINDS.iter().enumerate() {
        put(
            &format!("kernel.{}.count", kind.label()),
            dev.kind_count[i] as f64,
        );
        put(&format!("kernel.{}.sim_s", kind.label()), dev.kind_s[i]);
    }

    put("sample.blocks", blocks.blocks as f64);
    put("sample.union_nodes", blocks.union_nodes as f64);
    put("sample.union_edges", blocks.union_edges as f64);
    for spec in SAMPLED_SPECS {
        let (hits, rows) = hit_rate.get(spec).copied().unwrap_or((0, 0));
        put(
            &format!("cache.hit_rate.{spec}"),
            if rows == 0 {
                0.0
            } else {
                hits as f64 / rows as f64
            },
        );
    }
    put("cache.remote_miss_rows", remote_rows as f64);
    put("cache.transfer_mb", moved_bytes as f64 / MB);

    serve_values(
        serve.get("nominal").copied(),
        serve.get("overload").copied(),
        &mut put,
    );
}

/// Serving values: latency from the `nominal` phase, saturation from
/// `overload`, counters over both.
fn serve_values(
    nominal: Option<&ServeOut>,
    overload: Option<&ServeOut>,
    put: &mut impl FnMut(&str, f64),
) {
    let ms = |s: f64| s * 1e3;
    let phases: Vec<&ServeOut> = nominal.iter().chain(overload.iter()).copied().collect();
    let sum = |f: &dyn Fn(&ServeOut) -> f64| phases.iter().map(|s| f(s)).sum::<f64>();
    let fleet = |f: fn(&gnn_serve::FleetStats) -> usize| {
        sum(&|s: &ServeOut| s.report.fleet.as_ref().map_or(0, f) as f64)
    };

    let (mut p50, mut p99, mut slo, mut qw50, mut qw99, mut ex50, mut ex99, mut failover) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some(n) = nominal {
        let (a, _, c) = n.report.latency_percentiles();
        (p50, p99) = (ms(a), ms(c));
        slo = n.report.slo_attainment(crate::serve::SLO_S);
        let served: Vec<_> = n.report.requests.iter().filter(|q| q.served()).collect();
        let waits: Vec<f64> = served.iter().map(|q| q.dispatch - q.enqueue).collect();
        let execs: Vec<f64> = served.iter().map(|q| q.reply - q.dispatch).collect();
        (qw50, qw99) = (ms(percentile(&waits, 50.0)), ms(percentile(&waits, 99.0)));
        (ex50, ex99) = (ms(percentile(&execs, 50.0)), ms(percentile(&execs, 99.0)));
        failover = n
            .report
            .fleet
            .as_ref()
            .map_or(0.0, |f| ms(f.failover_p99()));
    }
    put("p50_ms", p50);
    put("p99_ms", p99);
    put("slo_attainment", slo);
    put(
        "saturation_rps",
        overload.map_or(0.0, |o| o.report.throughput()),
    );
    put("serve.queue_wait_p50_ms", qw50);
    put("serve.queue_wait_p99_ms", qw99);
    put("serve.exec_p50_ms", ex50);
    put("serve.exec_p99_ms", ex99);
    put("fleet.failover_p99_ms", failover);

    let batches = sum(&|s: &ServeOut| s.report.batches.len() as f64);
    let sizes = sum(&|s: &ServeOut| s.report.batches.iter().map(|b| b.size as f64).sum());
    let max_batch = phases.first().map_or(1, |s| s.report.policy.max_batch) as f64;
    put("serve.batches", batches);
    put(
        "serve.mean_batch_size",
        if batches > 0.0 { sizes / batches } else { 0.0 },
    );
    put(
        "serve.occupancy",
        if batches > 0.0 {
            sizes / batches / max_batch
        } else {
            0.0
        },
    );
    put(
        "serve.max_queue_depth",
        phases
            .iter()
            .flat_map(|s| s.report.queues.iter().map(|q| q.max_depth))
            .max()
            .unwrap_or(0) as f64,
    );
    let submitted = fleet(|f| f.submitted);
    put(
        "fleet.dispatch_ratio",
        if submitted > 0.0 {
            fleet(|f| f.dispatched) / submitted
        } else {
            0.0
        },
    );
    put("fleet.retries", fleet(|f| f.retries));
    put("fleet.hedges", fleet(|f| f.hedges));
    put("fleet.sheds", sum(&|s: &ServeOut| s.report.shed() as f64));
    put(
        "fleet.rejected",
        sum(&|s: &ServeOut| s.report.rejected() as f64),
    );
    put("fleet.ejections", fleet(|f| f.ejections));
    put("autoscale.scale_ups", fleet(|f| f.scale_ups));
    put("autoscale.scale_downs", fleet(|f| f.scale_downs));
    put("faults.fired", sum(&|s: &ServeOut| s.faults_fired as f64));
    put(
        "serve.oom_splits",
        sum(&|s: &ServeOut| s.report.oom_splits() as f64),
    );
    put(
        "serve.kernel_retries",
        sum(&|s: &ServeOut| s.report.kernel_retries() as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `unit` twice through the program's runner and once through the
    /// harness: all three must agree bit for bit and pass every check.
    fn assert_repeats_and_matches(unit: &Unit) {
        let a = unit.library().unwrap();
        let b = unit.library().unwrap();
        assert!(a.same(&b), "{}: library runs differ", unit.name());
        let (h, extra) = unit.harness(1).unwrap();
        assert!(a.same(&h), "{}: harness differs from library", unit.name());
        let mut failures = Vec::new();
        unit.check_library(&a, &mut failures);
        unit.check_harness(&h, &extra, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn training_cells_repeat_and_the_harness_matches_the_runner() {
        let cora = CitationSpec::cora().scaled(0.02).generate(0);
        let enzymes = TudSpec::enzymes().scaled(0.02).generate(0);
        let fold = stratified_kfold(&enzymes.labels(), 10, 3).swap_remove(0);
        for framework in ALL_FRAMEWORKS {
            for model in [ModelKind::Gat, ModelKind::GatedGcn] {
                assert_repeats_and_matches(&Unit::Node(NodeCell {
                    ds: &cora,
                    model,
                    framework,
                    epochs: 2,
                    seed: 3,
                }));
                assert_repeats_and_matches(&Unit::Graph(GraphCell {
                    ds: &enzymes,
                    fold: &fold,
                    model,
                    framework,
                    epochs: 2,
                    seed: 3,
                }));
            }
        }
    }

    #[test]
    fn sampled_cells_conserve_cache_rows_and_respect_block_bounds() {
        let spec = SampleSpec::get("rmat-4k").unwrap();
        let graph = Rc::new(RmatGraph::generate(spec.rmat).unwrap());
        for framework in ALL_FRAMEWORKS {
            for kind in SamplerKind::all() {
                assert_repeats_and_matches(&Unit::Sampled(SampledCell {
                    graph: &graph,
                    spec: &spec,
                    kind,
                    framework,
                    batches: 3,
                    seed: 3,
                }));
            }
        }
    }

    #[test]
    fn serving_phases_repeat_and_replies_replay_exactly() {
        let mut phases = crate::serve::phases(5);
        for p in &mut phases {
            p.cfg.requests = 300;
        }
        let cfg = &phases[0].cfg;
        let registry = ModelRegistry::build(&cfg.endpoints, cfg.scale, cfg.seed, None).unwrap();
        for p in &phases {
            assert_repeats_and_matches(&Unit::Serve(p, &registry));
        }
    }

    #[test]
    fn sim_values_are_identical_for_identical_outputs() {
        let cora = CitationSpec::cora().scaled(0.02).generate(0);
        let unit = Unit::Node(NodeCell {
            ds: &cora,
            model: ModelKind::Gcn,
            framework: FrameworkKind::Rgl,
            epochs: 2,
            seed: 9,
        });
        let values = || {
            let mut v = BTreeMap::new();
            sim_values(&[unit.library().unwrap()], &[], &mut v);
            v.into_iter()
                .map(|(k, x)| (k, x.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(values(), values());
    }
}
