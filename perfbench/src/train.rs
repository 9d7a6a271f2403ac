//! Training cells of the `paper-sweep` and `sampled-rmat` workloads.
//!
//! Every cell runs two ways. The *library* path calls the program's own
//! supervised runner (`gnn_train::run_*_supervised`), the code users run.
//! The *harness* path repeats the same protocol step by step from public
//! calls, so spans can sit around each layer call. The harness must do
//! exactly the program's work: its device report, accuracy and loss curve
//! are compared bit for bit with the library path's.

use std::rc::Rc;

use gnn_datasets::{Fold, GraphDataset, NodeDataset};
use gnn_device::{session, DeviceReport, FetchStats, Phase, Session};
use gnn_models::adapt::{RglLoader, RustygLoader};
use gnn_models::config::{graph_hparams, node_hparams, FrameworkKind, ModelKind};
use gnn_models::{build, GnnStack, Loader, ModelBatch};
use gnn_sample::{sample_block, RmatGraph, SampleSpec, SamplerKind};
use gnn_tensor::{accuracy, cross_entropy, Ids};
use gnn_train::{
    data_parallel_epoch_time, run_graph_fold_supervised, run_node_task_supervised,
    run_sampled_task_supervised, Adam, GraphTaskConfig, MultiGpuConfig, NodeTaskConfig,
    ReduceLrOnPlateau, SampledLoader, SampledTaskConfig, Supervised, Supervisor, TrainError,
    EVAL_SALT, TEST_POOL_SALT, TRAIN_POOL_SALT, VAL_POOL_SALT,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::trace::span;

/// What one training cell produced. Everything here is simulated or
/// deterministic, so two runs of one cell must agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    pub framework: FrameworkKind,
    pub report: DeviceReport,
    pub test_acc: f64,
    /// Per-epoch loss curve (training loss for node and sampled cells,
    /// validation loss for graph cells, as the supervisor records it).
    pub losses: Vec<f64>,
    /// Sampled cells: feature-cache totals and the spec's name.
    pub cache: Option<(&'static str, FetchStats)>,
}

/// Union-block statistics only the harness path can see.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStats {
    pub blocks: u64,
    /// Union nodes over all blocks: the rows the feature cache is asked for.
    pub union_nodes: u64,
    pub union_edges: u64,
    /// Blocks whose union exceeded the closed-form bounds.
    pub over_bound: u64,
}

/// Accepts a supervised run only if it ended `ok`: no error, no
/// degradation, no retried step.
fn status<T>(run: Result<Supervised<T>, TrainError>) -> Result<Supervised<T>, String> {
    let run = run.map_err(|e| format!("cell failed: {e}"))?;
    if run.degraded || run.retries > 0 {
        return Err(format!(
            "cell did not end ok (degraded {}, retries {})",
            run.degraded, run.retries
        ));
    }
    Ok(run)
}

/// Reads the session clock the way the supervisor does; the read syncs
/// the device, so it moves the simulated timeline.
fn sync_now() {
    gnn_device::with(|s| {
        s.now();
    });
}

fn optim_step(opt: &mut Adam) {
    gnn_device::set_phase(Phase::Update);
    span("train.optim", || {
        opt.step();
        opt.zero_grad();
    });
    gnn_device::set_phase(Phase::Other);
    gnn_device::with(|s| s.end_step());
}

// ---------------------------------------------------------------------------
// Full-batch node classification (Table IV cells)
// ---------------------------------------------------------------------------

/// One Table IV cell: `model` under `framework` on a citation dataset.
pub struct NodeCell<'a> {
    pub ds: &'a NodeDataset,
    pub model: ModelKind,
    pub framework: FrameworkKind,
    pub epochs: usize,
    pub seed: u64,
}

impl NodeCell<'_> {
    fn cfg(&self) -> NodeTaskConfig {
        NodeTaskConfig {
            max_epochs: self.epochs,
            lr: node_hparams(self.model).lr,
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed + 1)
    }

    /// The program's supervised runner.
    pub fn library(&self) -> Result<CellOut, String> {
        let (f, c) = (self.ds.features.cols(), self.ds.num_classes);
        let cfg = self.cfg();
        let sup = Supervisor::default();
        let run = match self.framework {
            FrameworkKind::RustyG => {
                let stack = build::node_model_rustyg(self.model, f, c, &mut self.rng());
                let batch = rustyg::loader::full_graph_batch(self.ds);
                status(run_node_task_supervised(
                    &stack, &batch, self.ds, &cfg, &sup,
                ))?
            }
            FrameworkKind::Rgl => {
                let stack = build::node_model_rgl(self.model, f, c, &mut self.rng());
                let batch = rgl::loader::full_graph_batch(self.ds);
                status(run_node_task_supervised(
                    &stack, &batch, self.ds, &cfg, &sup,
                ))?
            }
        };
        Ok(CellOut {
            framework: self.framework,
            report: run.outcome.report,
            test_acc: run.outcome.test_acc,
            losses: run.losses,
            cache: None,
        })
    }

    /// The same protocol from public calls, with spans.
    pub fn harness(&self) -> CellOut {
        let (f, c) = (self.ds.features.cols(), self.ds.num_classes);
        let cfg = self.cfg();
        let (report, test_acc, losses) = match self.framework {
            FrameworkKind::RustyG => {
                let stack = build::node_model_rustyg(self.model, f, c, &mut self.rng());
                let batch = span("rustyg.load", || rustyg::loader::full_graph_batch(self.ds));
                node_loop(&stack, &batch, self.ds, &cfg)
            }
            FrameworkKind::Rgl => {
                let stack = build::node_model_rgl(self.model, f, c, &mut self.rng());
                let batch = span("rgl.load", || rgl::loader::full_graph_batch(self.ds));
                node_loop(&stack, &batch, self.ds, &cfg)
            }
        };
        CellOut {
            framework: self.framework,
            report,
            test_acc,
            losses,
            cache: None,
        }
    }
}

fn node_loop<B: ModelBatch>(
    model: &GnnStack<B>,
    batch: &B,
    ds: &NodeDataset,
    cfg: &NodeTaskConfig,
) -> (DeviceReport, f64, Vec<f64>) {
    let handle = session::install(Session::new(gnn_device::default_cost_model()));
    gnn_device::with(|s| s.alloc_persistent(2 * model.param_bytes() + batch.feature_bytes()));
    let mut opt = Adam::new(model.params(), cfg.lr);
    let train_idx: Ids = Rc::new(ds.train_idx.clone());
    let val_idx: Ids = Rc::new(ds.val_idx.clone());
    let test_idx: Ids = Rc::new(ds.test_idx.clone());
    let train_labels = ds.labels_at(&ds.train_idx);
    let val_labels = ds.labels_at(&ds.val_idx);
    let test_labels = ds.labels_at(&ds.test_idx);
    let (mut best_val, mut test_at_best) = (0.0f64, 0.0f64);
    let mut losses = Vec::with_capacity(cfg.max_epochs);
    // The supervisor reads the clock for its rollback snapshot and its
    // first epoch mark; reading it syncs the device, so do the same.
    sync_now();
    sync_now();
    for _ in 0..cfg.max_epochs {
        gnn_device::set_phase(Phase::DataLoad);
        gnn_device::host(20e-6);
        gnn_device::set_phase(Phase::Forward);
        let logits = span("models.forward", || model.forward(batch, true));
        let loss = cross_entropy(&logits.gather_rows(&train_idx), &train_labels);
        gnn_device::set_phase(Phase::Backward);
        span("tensor.backward", || loss.backward());
        let loss_val = loss.item();
        optim_step(&mut opt);

        let eval = span("models.infer", || {
            gnn_tensor::no_grad(|| model.forward(batch, false))
        });
        let val_acc = accuracy(&eval.gather_rows(&val_idx), &val_labels) * 100.0;
        if val_acc > best_val {
            best_val = val_acc;
            test_at_best = accuracy(&eval.gather_rows(&test_idx), &test_labels) * 100.0;
        }
        gnn_device::with(|s| s.end_step());
        sync_now();
        losses.push(f64::from(loss_val));
        sync_now();
    }
    (session::finish(handle), test_at_best, losses)
}

// ---------------------------------------------------------------------------
// Mini-batch graph classification (Table V cells)
// ---------------------------------------------------------------------------

/// One Table V cell: one fold of `model` under `framework`.
pub struct GraphCell<'a> {
    pub ds: &'a GraphDataset,
    pub fold: &'a Fold,
    pub model: ModelKind,
    pub framework: FrameworkKind,
    pub epochs: usize,
    pub seed: u64,
}

impl GraphCell<'_> {
    fn cfg(&self) -> GraphTaskConfig {
        let mut task =
            GraphTaskConfig::from_hparams(&graph_hparams(self.model), self.epochs, self.seed);
        // Several batches per epoch at reduced dataset scale, as Table V runs.
        task.batch_size = task.batch_size.min((self.fold.train.len() / 3).max(8));
        task
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed + 10)
    }

    /// The program's supervised runner.
    pub fn library(&self) -> Result<CellOut, String> {
        let (f, c) = (self.ds.feature_dim, self.ds.num_classes);
        let cfg = self.cfg();
        let sup = Supervisor::default();
        let run = match self.framework {
            FrameworkKind::RustyG => {
                let stack = build::graph_model_rustyg(self.model, f, c, &mut self.rng());
                let loader = RustygLoader::new(self.ds);
                status(run_graph_fold_supervised(
                    &stack, &loader, self.fold, &cfg, &sup,
                ))?
            }
            FrameworkKind::Rgl => {
                let stack = build::graph_model_rgl(self.model, f, c, &mut self.rng());
                let loader = RglLoader::new(self.ds);
                status(run_graph_fold_supervised(
                    &stack, &loader, self.fold, &cfg, &sup,
                ))?
            }
        };
        Ok(CellOut {
            framework: self.framework,
            report: run.outcome.report,
            test_acc: run.outcome.test_acc,
            losses: run.losses,
            cache: None,
        })
    }

    /// The same protocol from public calls, with spans.
    pub fn harness(&self) -> CellOut {
        let (f, c) = (self.ds.feature_dim, self.ds.num_classes);
        let cfg = self.cfg();
        let (report, test_acc, losses) = match self.framework {
            FrameworkKind::RustyG => {
                let stack = build::graph_model_rustyg(self.model, f, c, &mut self.rng());
                let loader = RustygLoader::new(self.ds);
                graph_loop(&stack, &loader, "rustyg.load", self.fold, &cfg)
            }
            FrameworkKind::Rgl => {
                let stack = build::graph_model_rgl(self.model, f, c, &mut self.rng());
                let loader = RglLoader::new(self.ds);
                graph_loop(&stack, &loader, "rgl.load", self.fold, &cfg)
            }
        };
        CellOut {
            framework: self.framework,
            report,
            test_acc,
            losses,
            cache: None,
        }
    }
}

fn graph_loop<L: Loader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    load_span: &'static str,
    fold: &Fold,
    cfg: &GraphTaskConfig,
) -> (DeviceReport, f64, Vec<f64>) {
    let handle = session::install(Session::new(gnn_device::default_cost_model()));
    gnn_device::with(|s| s.alloc_persistent(2 * model.param_bytes()));
    let mut opt = Adam::new(model.params(), cfg.init_lr);
    let mut sched = ReduceLrOnPlateau::new(cfg.decay_factor, cfg.patience, cfg.min_lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order = fold.train.clone();
    let mut losses = Vec::new();
    sync_now();
    sync_now();
    for epoch in 0..cfg.max_epochs {
        if epoch > 0 && sched.should_stop(opt.lr()) {
            break;
        }
        if cfg.shuffle {
            order.shuffle(&mut rng);
        }
        for chunk in order.chunks(cfg.batch_size) {
            gnn_device::set_phase(Phase::DataLoad);
            let batch = span(load_span, || loader.load(chunk));
            gnn_device::set_phase(Phase::Forward);
            let logits = span("models.forward", || model.forward(&batch, true));
            let loss = cross_entropy(&logits, batch.labels());
            gnn_device::set_phase(Phase::Backward);
            span("tensor.backward", || loss.backward());
            loss.item();
            optim_step(&mut opt);
        }
        let (val_loss, _) = evaluate(model, loader, load_span, &fold.val, cfg.batch_size);
        let new_lr = sched.step(val_loss, opt.lr());
        if new_lr != opt.lr() {
            opt.set_lr(new_lr);
        }
        sync_now();
        losses.push(f64::from(val_loss));
        sync_now();
        if sched.should_stop(opt.lr()) {
            break;
        }
    }
    let (_, test_acc) = evaluate(model, loader, load_span, &fold.test, cfg.batch_size);
    (session::finish(handle), test_acc * 100.0, losses)
}

/// `gnn_train::graph_task::evaluate` with spans around the load and the
/// no-grad forward.
fn evaluate<L: Loader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    load_span: &'static str,
    indices: &[u32],
    batch_size: usize,
) -> (f32, f64) {
    if indices.is_empty() {
        return (f32::INFINITY, 0.0);
    }
    let (mut total_loss, mut total_correct, mut total) = (0.0f64, 0.0f64, 0usize);
    for chunk in indices.chunks(batch_size) {
        let batch = span(load_span, || loader.load(chunk));
        let logits = span("models.infer", || {
            gnn_tensor::no_grad(|| model.forward(&batch, false))
        });
        let loss = cross_entropy(&logits, batch.labels());
        total_loss += f64::from(loss.item()) * chunk.len() as f64;
        total_correct += accuracy(&logits, batch.labels()) * chunk.len() as f64;
        total += chunk.len();
        gnn_device::with(|s| s.end_step());
    }
    (
        (total_loss / total as f64) as f32,
        total_correct / total as f64,
    )
}

// ---------------------------------------------------------------------------
// Data-parallel points (Fig. 6)
// ---------------------------------------------------------------------------

/// One Fig. 6 point: simulated data-parallel epoch time of `model`.
pub struct DpPoint<'a> {
    pub ds: &'a GraphDataset,
    pub model: ModelKind,
    pub framework: FrameworkKind,
    pub n_gpus: usize,
    pub batch_size: usize,
    pub seed: u64,
}

/// A data-parallel point's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpOut {
    pub model: ModelKind,
    pub framework: FrameworkKind,
    pub n_gpus: usize,
    /// Simulated seconds per epoch.
    pub epoch_s: f64,
}

impl DpPoint<'_> {
    /// Runs the point. The runner is one public call, so the library and
    /// harness paths are the same call.
    pub fn run(&self) -> DpOut {
        let cfg = MultiGpuConfig {
            n_gpus: self.n_gpus,
            batch_size: self.batch_size.min(self.ds.samples.len()),
            epoch_samples: self.ds.samples.len(),
        };
        let (f, c) = (self.ds.feature_dim, self.ds.num_classes);
        let mut rng = StdRng::seed_from_u64(self.seed + 6);
        let epoch_s = span("multi.data_parallel_epoch", || match self.framework {
            FrameworkKind::RustyG => {
                let stack = build::graph_model_rustyg(self.model, f, c, &mut rng);
                data_parallel_epoch_time(&stack, &RustygLoader::new(self.ds), &cfg)
            }
            FrameworkKind::Rgl => {
                let stack = build::graph_model_rgl(self.model, f, c, &mut rng);
                data_parallel_epoch_time(&stack, &RglLoader::new(self.ds), &cfg)
            }
        });
        DpOut {
            model: self.model,
            framework: self.framework,
            n_gpus: self.n_gpus,
            epoch_s,
        }
    }
}

// ---------------------------------------------------------------------------
// Neighbor-sampled SAGE training (sampled-rmat cells)
// ---------------------------------------------------------------------------

/// One sampled cell: SAGE under `framework` with sampler `kind`.
pub struct SampledCell<'a> {
    pub graph: &'a Rc<RmatGraph>,
    pub spec: &'a SampleSpec,
    pub kind: SamplerKind,
    pub framework: FrameworkKind,
    /// Seed mini-batches per training epoch.
    pub batches: usize,
    pub seed: u64,
}

impl SampledCell<'_> {
    fn cfg(&self) -> SampledTaskConfig {
        SampledTaskConfig {
            max_epochs: 1,
            lr: node_hparams(ModelKind::Sage).lr,
            batch_seeds: self.spec.batch_seeds,
            train_seeds: self.spec.batch_seeds * self.batches,
            eval_seeds: self.spec.batch_seeds,
            seed: self.seed,
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed + 1)
    }

    fn dims(&self) -> (usize, usize) {
        (self.spec.rmat.feature_dim, self.spec.rmat.num_classes)
    }

    fn loader_error(e: gnn_sample::SampleConfigError) -> String {
        format!("sampled loader: {e}")
    }

    /// The program's supervised runner.
    pub fn library(&self) -> Result<CellOut, String> {
        let (f, c) = self.dims();
        let cfg = self.cfg();
        let sup = Supervisor::default();
        let (run, cache) = match self.framework {
            FrameworkKind::RustyG => {
                let stack = build::node_model_rustyg(ModelKind::Sage, f, c, &mut self.rng());
                let loader =
                    rustyg::sampled::SampledLoader::new(self.graph.clone(), self.spec, self.kind)
                        .map_err(Self::loader_error)?;
                let run = status(run_sampled_task_supervised(&stack, &loader, &cfg, &sup))?;
                (run, loader.cache_totals())
            }
            FrameworkKind::Rgl => {
                let stack = build::node_model_rgl(ModelKind::Sage, f, c, &mut self.rng());
                let loader =
                    rgl::sampled::SampledLoader::new(self.graph.clone(), self.spec, self.kind)
                        .map_err(Self::loader_error)?;
                let run = status(run_sampled_task_supervised(&stack, &loader, &cfg, &sup))?;
                (run, loader.cache_totals())
            }
        };
        Ok(CellOut {
            framework: self.framework,
            report: run.outcome.report,
            test_acc: run.outcome.test_acc,
            losses: run.losses,
            cache: Some((self.spec.name, cache)),
        })
    }

    /// The same protocol from public calls, with spans, plus the
    /// union-block statistics of every block the loop loads.
    pub fn harness(&self) -> Result<(CellOut, BlockStats), String> {
        let (f, c) = self.dims();
        let cfg = self.cfg();
        let mut blocks = BlockStats::default();
        let (report, test_acc, losses, cache) = match self.framework {
            FrameworkKind::RustyG => {
                let stack = build::node_model_rustyg(ModelKind::Sage, f, c, &mut self.rng());
                let loader =
                    rustyg::sampled::SampledLoader::new(self.graph.clone(), self.spec, self.kind)
                        .map_err(Self::loader_error)?;
                let load = |seeds: &[u32], salt: u64| {
                    span("rustyg.load", || loader.try_load_block(seeds, salt))
                };
                let (r, a, l) = self.sampled_loop(&stack, &loader, load, &cfg, &mut blocks)?;
                (r, a, l, loader.cache_totals())
            }
            FrameworkKind::Rgl => {
                let stack = build::node_model_rgl(ModelKind::Sage, f, c, &mut self.rng());
                let loader =
                    rgl::sampled::SampledLoader::new(self.graph.clone(), self.spec, self.kind)
                        .map_err(Self::loader_error)?;
                let load = |seeds: &[u32], salt: u64| {
                    span("rgl.load", || loader.try_load_block(seeds, salt))
                };
                let (r, a, l) = self.sampled_loop(&stack, &loader, load, &cfg, &mut blocks)?;
                (r, a, l, loader.cache_totals())
            }
        };
        let out = CellOut {
            framework: self.framework,
            report,
            test_acc,
            losses,
            cache: Some((self.spec.name, cache)),
        };
        Ok((out, blocks))
    }

    /// Samples the block `load` is about to build, as its own call, to
    /// read its size and check it against the closed-form bounds.
    fn observe_block(
        &self,
        seeds: &[u32],
        salt: u64,
        stats: &mut BlockStats,
    ) -> Result<(), String> {
        let block = span("sample.sample_block", || {
            sample_block(self.graph, seeds, &self.spec.fanouts, self.kind, salt)
        })
        .map_err(|e| format!("sample_block: {e}"))?;
        let (n, e) = (block.num_nodes() as u64, block.num_edges() as u64);
        stats.blocks += 1;
        stats.union_nodes += n;
        stats.union_edges += e;
        let max_n = gnn_sample::max_union_nodes(seeds.len(), &self.spec.fanouts);
        let max_e = gnn_sample::max_union_edges(seeds.len(), &self.spec.fanouts);
        if n > max_n || e > max_e {
            stats.over_bound += 1;
        }
        Ok(())
    }

    fn sampled_loop<L, F>(
        &self,
        model: &GnnStack<L::Batch>,
        loader: &L,
        load: F,
        cfg: &SampledTaskConfig,
        stats: &mut BlockStats,
    ) -> Result<(DeviceReport, f64, Vec<f64>), String>
    where
        L: SampledLoader,
        F: Fn(&[u32], u64) -> Result<L::Batch, gnn_sample::SampleConfigError>,
    {
        let load_block = |seeds: &[u32], salt: u64, stats: &mut BlockStats| {
            self.observe_block(seeds, salt, stats)?;
            load(seeds, salt).map_err(|e| format!("try_load_block: {e}"))
        };
        let handle = session::install(Session::new(gnn_device::default_cost_model()));
        gnn_device::with(|s| {
            s.alloc_persistent(2 * model.param_bytes() + loader.resident_bytes());
        });
        let mut opt = Adam::new(model.params(), cfg.lr);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order = loader.seed_pool(cfg.train_seeds, TRAIN_POOL_SALT);
        let val_pool = loader.seed_pool(cfg.eval_seeds, VAL_POOL_SALT);
        let test_pool = loader.seed_pool(cfg.eval_seeds, TEST_POOL_SALT);
        let (mut best_val, mut test_at_best) = (0.0f64, 0.0f64);
        let mut losses = Vec::new();
        sync_now();
        sync_now();
        for epoch in 0..cfg.max_epochs as u64 {
            order.shuffle(&mut rng);
            let mut last_loss = 0.0f32;
            for chunk in order.chunks(cfg.batch_seeds) {
                gnn_device::set_phase(Phase::DataLoad);
                let batch = load_block(chunk, epoch, stats)?;
                gnn_device::set_phase(Phase::Forward);
                let logits = span("models.forward", || model.forward(&batch, true));
                let ids: Ids = Rc::new((0..chunk.len() as u32).collect());
                let labels: Vec<u32> = batch.labels()[..chunk.len()].to_vec();
                let loss = cross_entropy(&logits.gather_rows(&ids), &labels);
                gnn_device::set_phase(Phase::Backward);
                span("tensor.backward", || loss.backward());
                last_loss = loss.item();
                optim_step(&mut opt);
            }
            gnn_device::set_phase(Phase::Other);
            let mut eval = |pool: &[u32]| -> Result<f64, String> {
                let (mut correct, mut total) = (0.0f64, 0usize);
                for chunk in pool.chunks(cfg.batch_seeds) {
                    let batch = load_block(chunk, EVAL_SALT + epoch, stats)?;
                    let logits = span("models.infer", || {
                        gnn_tensor::no_grad(|| model.forward(&batch, false))
                    });
                    let ids: Ids = Rc::new((0..chunk.len() as u32).collect());
                    let labels = &batch.labels()[..chunk.len()];
                    correct += accuracy(&logits.gather_rows(&ids), labels) * chunk.len() as f64;
                    total += chunk.len();
                }
                Ok(if total == 0 {
                    0.0
                } else {
                    correct / total as f64
                })
            };
            let val_acc = eval(&val_pool)? * 100.0;
            if val_acc > best_val {
                best_val = val_acc;
                test_at_best = eval(&test_pool)? * 100.0;
            }
            gnn_device::with(|s| s.end_step());
            sync_now();
            losses.push(f64::from(last_loss));
            sync_now();
        }
        Ok((session::finish(handle), test_at_best, losses))
    }
}
