//! Parallel suite runner with compilation caching.
//!
//! The benchmark matrix (chips x backends x tasks) is embarrassingly
//! parallel: every run owns its mutable state ([`soc_sim::soc::SocState`],
//! battery, logs) and everything shared — the SoC description and the
//! compiled deployment — is immutable after construction. The runner
//! exploits both facts:
//!
//! * [`CompileCache`] memoizes `ChipId::build()` per chip,
//!   `ModelId::build()` per model and `Backend::compile()` per
//!   `(chip, backend, model)` triple behind `Arc`s, so a sweep builds each
//!   reference graph once and compiles each deployment once instead of
//!   once per run — and memoizes the lowered [`PlannedDeployment`]
//!   (query + offline plans) alongside, so per-query graph traversal
//!   happens once per triple too.
//! * [`SuiteRunner::run`] executes run specs on a fixed-size worker pool
//!   (`std::thread::scope` + an atomic work index — no external
//!   dependencies), merging results back into spec order.
//!
//! Determinism: a parallel sweep is bit-identical to a serial loop over
//! [`crate::harness::run_benchmark`]. Compilation is a pure function of
//! `(chip, backend, model)`; the simulated inference draws from RNGs
//! seeded only by run-rule settings and sample indices; and per-run state
//! is created fresh inside [`crate::harness::run_benchmark_planned`]. The
//! only cross-thread communication is handing out shared immutable
//! deployments. The `suite_integration` test suite enforces this by
//! comparing serialized reports.

use crate::app::{submission_backend, AppConfig, SuiteReport};
use crate::harness::{run_benchmark_planned, BenchmarkScore, RunRules, ScenarioMix};
use crate::metrics::{metrics, TraceCollector};
use crate::sut_impl::{DatasetScale, PlannedDeployment};
use crate::task::{suite, BenchmarkDef, SuiteVersion, Task};
use mobile_backend::backend::{BackendId, CompileError, Deployment};
use mobile_backend::registry::create;
use mobile_backend::tune::{tune, TuneOutcome, TunerConfig};
use nn_graph::models::ModelId;
use nn_graph::Graph;
use soc_sim::catalog::ChipId;
use soc_sim::plan::SweepPlan;
use soc_sim::soc::Soc;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Memoizes SoC construction, reference-graph construction and backend
/// compilation.
///
/// Deployments are immutable once compiled (all run-time mutation lives in
/// `SocState`), so a cached `Arc<Deployment>` can back any number of
/// concurrent runs. Compile *failures* are cached too: the codepath matrix
/// deliberately probes unsupported (chip, backend) pairs, and re-deriving
/// the same `CompileError` per run is wasted work.
#[derive(Debug, Default)]
pub struct CompileCache {
    socs: Mutex<HashMap<ChipId, Arc<Soc>>>,
    graphs: Mutex<HashMap<ModelId, Arc<Graph>>>,
    deployments: Mutex<HashMap<DeploymentKey, CompileOutcome>>,
    plans: Mutex<HashMap<DeploymentKey, PlannedDeployment>>,
    sweeps: Mutex<HashMap<DeploymentKey, Arc<SweepPlan>>>,
    tuned: Mutex<HashMap<TunedKey, Arc<TunedDeployment>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    plan_hits: AtomicUsize,
    plan_misses: AtomicUsize,
    tuned_hits: AtomicUsize,
    tuned_misses: AtomicUsize,
}

/// Identity of one compiled deployment.
type DeploymentKey = (ChipId, BackendId, ModelId);

/// A memoized compile result — failures are first-class cache entries.
type CompileOutcome = Result<Arc<Deployment>, CompileError>;

/// Identity of one auto-tuned deployment: the compile triple plus the
/// tuner configuration that searched it (different objectives or beam
/// widths may land on different schedules).
type TunedKey = (ChipId, BackendId, ModelId, TunerConfig);

/// An auto-tuned deployment: the search outcome (gap numbers, search
/// statistics) together with the re-planned deployment that runs the
/// tuned schedule.
#[derive(Debug)]
pub struct TunedDeployment {
    /// What the search found: heuristic vs tuned scores and statistics.
    pub outcome: TuneOutcome,
    /// The heuristic deployment with its schedule replaced by the tuned
    /// one (the compiled graph and backend identity are shared).
    pub deployment: Arc<Deployment>,
    /// The tuned deployment lowered to query + offline plans, ready for
    /// the harness.
    pub planned: PlannedDeployment,
}

impl CompileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The SoC description for a chip, built at most once.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking worker.
    #[must_use]
    pub fn soc(&self, chip: ChipId) -> Arc<Soc> {
        let mut socs = self.socs.lock().unwrap();
        Arc::clone(socs.entry(chip).or_insert_with(|| Arc::new(chip.build())))
    }

    /// The reference graph of a model, built at most once per cache.
    /// Built outside the cache lock; when two workers race on the same
    /// model the first insert wins (both builds are identical).
    fn graph(&self, model: ModelId) -> Arc<Graph> {
        if let Some(cached) = self.graphs.lock().unwrap().get(&model) {
            return Arc::clone(cached);
        }
        let graph = Arc::new(model.build());
        Arc::clone(self.graphs.lock().unwrap().entry(model).or_insert(graph))
    }

    /// The compiled deployment for a `(chip, backend, model)` triple,
    /// compiled at most once via the backend registry from the model's
    /// cached reference graph (backends retype the reference into a
    /// graph of their own, so sharing it changes no deployment).
    ///
    /// Compilation runs outside the cache lock so distinct triples never
    /// wait on each other; when two workers race on the same triple the
    /// first insert wins (both compiles produce identical deployments, so
    /// either result is correct).
    ///
    /// # Errors
    ///
    /// Returns the backend's (cached) compile failure.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking worker.
    pub fn deployment(
        &self,
        chip: ChipId,
        backend: BackendId,
        model: ModelId,
    ) -> Result<Arc<Deployment>, CompileError> {
        let key = (chip, backend, model);
        if let Some(cached) = self.deployments.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            metrics().compile_hits.inc();
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        metrics().compile_misses.inc();
        let _span = crate::obs::span::span(crate::obs::span::Phase::Compile, || {
            format!("{chip}/{backend}/{model:?}")
        });
        let soc = self.soc(chip);
        let compiled = create(backend).compile(&self.graph(model), &soc).map(Arc::new);
        self.deployments
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(compiled)
            .clone()
    }

    /// The planned deployment (query + offline plans) for a
    /// `(chip, backend, model)` triple, lowered at most once. Backed by
    /// [`Self::deployment`], so a plan miss also touches the compile
    /// cache (the deployment lookup counts a compile hit or miss of its
    /// own). Compile *failures* are not cached here — the deployment
    /// cache already memoizes the error.
    ///
    /// # Errors
    ///
    /// Returns the backend's (cached) compile failure.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned, or if plan lowering finds
    /// an invalid schedule (backends never emit one).
    pub fn planned(
        &self,
        chip: ChipId,
        backend: BackendId,
        model: ModelId,
    ) -> Result<PlannedDeployment, CompileError> {
        let key = (chip, backend, model);
        if let Some(cached) = self.plans.lock().unwrap().get(&key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            metrics().plan_hits.inc();
            return Ok(cached.clone());
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        metrics().plan_misses.inc();
        let deployment = self.deployment(chip, backend, model)?;
        let _span = crate::obs::span::span(crate::obs::span::Phase::Plan, || {
            format!("{chip}/{backend}/{model:?}")
        });
        let soc = self.soc(chip);
        // Lower outside the cache lock; racing workers produce identical
        // plans, first insert wins.
        let planned = PlannedDeployment::compile(&soc, deployment);
        Ok(self.plans.lock().unwrap().entry(key).or_insert(planned).clone())
    }

    /// The sweep-ready lowering for a `(chip, backend, model)` triple:
    /// shared op arrays plus the cached per-stage lowering inputs, so
    /// [`soc_sim::plan::PlanDelta`] re-lowerings are O(stages) instead of
    /// a graph walk. Lowered at most once per triple; lookups count into
    /// the sweep-cache metrics. The fleet executor leans on this so a
    /// million perturbed units never pay a second full lowering.
    ///
    /// # Errors
    ///
    /// Returns the backend's (cached) compile failure.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking worker.
    pub fn sweep_plan(
        &self,
        chip: ChipId,
        backend: BackendId,
        model: ModelId,
    ) -> Result<Arc<SweepPlan>, CompileError> {
        let key = (chip, backend, model);
        if let Some(cached) = self.sweeps.lock().unwrap().get(&key) {
            metrics().sweep_hits.inc();
            return Ok(Arc::clone(cached));
        }
        metrics().sweep_misses.inc();
        let deployment = self.deployment(chip, backend, model)?;
        let _span = crate::obs::span::span(crate::obs::span::Phase::Plan, || {
            format!("sweep/{chip}/{backend}/{model:?}")
        });
        let soc = self.soc(chip);
        // Lower outside the cache lock; racing workers produce identical
        // plans, first insert wins.
        let sweep = Arc::new(SweepPlan::new(&soc, &deployment.graph, &deployment.schedule));
        Ok(Arc::clone(self.sweeps.lock().unwrap().entry(key).or_insert(sweep)))
    }

    /// The auto-tuned deployment for a `(chip, backend, model)` triple
    /// under a [`TunerConfig`]: runs the beam/branch-and-bound schedule
    /// search ([`mobile_backend::tune::tune`]) seeded with the backend's
    /// heuristic schedule, at most once per `(triple, config)` key, and
    /// memoizes the re-planned result. Lookups count into the tuned-cache
    /// metrics; each search records its candidate/prune counters.
    ///
    /// # Errors
    ///
    /// Returns the backend's (cached) compile failure.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking worker, or
    /// if the backend emitted an invalid schedule (backends never do).
    pub fn tuned(
        &self,
        chip: ChipId,
        backend: BackendId,
        model: ModelId,
        config: &TunerConfig,
    ) -> Result<Arc<TunedDeployment>, CompileError> {
        let key = (chip, backend, model, *config);
        if let Some(cached) = self.tuned.lock().unwrap().get(&key) {
            self.tuned_hits.fetch_add(1, Ordering::Relaxed);
            metrics().tuned_hits.inc();
            return Ok(Arc::clone(cached));
        }
        self.tuned_misses.fetch_add(1, Ordering::Relaxed);
        metrics().tuned_misses.inc();
        let deployment = self.deployment(chip, backend, model)?;
        let _span = crate::obs::span::span(crate::obs::span::Phase::Plan, || {
            format!("tune/{chip}/{backend}/{model:?}")
        });
        let soc = self.soc(chip);
        // Search and re-plan outside the cache lock; racing workers
        // produce identical outcomes, first insert wins.
        let outcome = tune(&soc, &deployment.graph, &deployment.schedule, config);
        metrics().tuner_candidates.add(outcome.stats.candidates);
        metrics().tuner_pruned.add(outcome.stats.pruned);
        let mut tuned_dep = (*deployment).clone();
        // Offline runs reuse the single-stream schedule whenever the
        // backend didn't compile a dedicated offline stream; keep that
        // coupling for the tuned deployment.
        for stream in &mut tuned_dep.offline_streams {
            if *stream == deployment.schedule {
                stream.clone_from(&outcome.schedule);
            }
        }
        tuned_dep.schedule = outcome.schedule.clone();
        let tuned_dep = Arc::new(tuned_dep);
        let planned = PlannedDeployment::compile(&soc, Arc::clone(&tuned_dep));
        let entry = Arc::new(TunedDeployment { outcome, deployment: tuned_dep, planned });
        Ok(Arc::clone(self.tuned.lock().unwrap().entry(key).or_insert(entry)))
    }

    /// Number of deployment lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of deployment lookups that triggered a compile.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of plan lookups answered from the cache.
    #[must_use]
    pub fn plan_hits(&self) -> usize {
        self.plan_hits.load(Ordering::Relaxed)
    }

    /// Number of plan lookups that triggered plan lowering.
    #[must_use]
    pub fn plan_misses(&self) -> usize {
        self.plan_misses.load(Ordering::Relaxed)
    }

    /// Number of tuned-deployment lookups answered from the cache.
    #[must_use]
    pub fn tuned_hits(&self) -> usize {
        self.tuned_hits.load(Ordering::Relaxed)
    }

    /// Number of tuned-deployment lookups that ran the schedule search.
    #[must_use]
    pub fn tuned_misses(&self) -> usize {
        self.tuned_misses.load(Ordering::Relaxed)
    }
}

/// The default harness worker count: `MLPERF_WORKERS` when set to a
/// positive integer, otherwise one worker per available core.
///
/// The override exists for observability work — forcing a multi-worker
/// pool on a small machine (or pinning to one worker on a big one) to
/// inspect per-worker tracks in a `--self-profile` timeline. Worker
/// count never affects scores, only wall-clock and pool telemetry.
#[must_use]
pub fn default_threads() -> usize {
    std::env::var("MLPERF_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Runs `f` over `items` on up to `threads` workers, returning results in
/// item order.
///
/// Work distribution is a shared atomic index (dynamic scheduling: long
/// runs — big chips, segmentation — don't straggle behind a static
/// partition). Each worker tags results with their item index; the merged
/// output is sorted back to input order, so parallel execution is
/// invisible to callers.
///
/// Every pass records pool telemetry into [`crate::obs::pool::pool`] —
/// per-worker task/busy/steal counters and the ready-queue depth — and
/// tags each worker thread with its observability track, so harness spans
/// opened inside `f` land on one stable Perfetto lane per worker. A task
/// counts as *stolen* when dynamic scheduling moved it off the worker
/// that a static fair-share split would have given it: with `n` items on
/// `t` workers, item `i` "belongs" to worker `i / ceil(n/t)`. Telemetry
/// is host-side only and recorded strictly outside `f`, so results and
/// their order are bit-identical with or without it (unit-tested here,
/// suite-level in `tests/parallel_determinism.rs`).
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    let telemetry = crate::obs::pool::pool();
    if threads <= 1 {
        if !items.is_empty() {
            telemetry.record_call();
        }
        // Serial fallback: the caller's thread is "worker 0"; nothing can
        // be stolen.
        return items
            .iter()
            .map(|item| {
                let started = std::time::Instant::now();
                let r = f(item);
                telemetry.record_task(0, started.elapsed(), false);
                r
            })
            .collect();
    }
    telemetry.record_call();
    telemetry.set_queue_depth(items.len() as u64);
    let fair = items.len().div_ceil(threads);
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    // Spans opened inside `f` aggregate on this worker's
                    // Perfetto lane (track 0 is the driving thread).
                    crate::obs::span::set_track(w as u32 + 1);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        telemetry.set_queue_depth(items.len().saturating_sub(i + 1) as u64);
                        let started = std::time::Instant::now();
                        out.push((i, f(item)));
                        telemetry.record_task(w, started.elapsed(), i / fair != w);
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("suite worker panicked"))
            .collect()
    });
    telemetry.set_queue_depth(0);
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// One cell of the benchmark matrix: which deployment to run on which
/// chip, and which scenarios follow the single-stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Platform.
    pub chip: ChipId,
    /// Code path.
    pub backend: BackendId,
    /// Benchmark definition (task, model, quality target).
    pub def: BenchmarkDef,
    /// Scenarios to run after the mandatory single-stream leg.
    pub mix: ScenarioMix,
    /// When set, run on the auto-tuned schedule for this config instead
    /// of the backend's heuristic schedule.
    pub tuner: Option<TunerConfig>,
}

impl RunSpec {
    /// The specs for one suite run on one chip, in the prescribed task
    /// order, using the per-task submission backends of paper Table 2.
    /// Offline rides along with classification when the config enables
    /// it; the server and multi-stream searches ride along with
    /// classification when `config.scenario_matrix` is set.
    #[must_use]
    pub fn suite(chip: ChipId, version: SuiteVersion, config: &AppConfig) -> Vec<RunSpec> {
        suite(version)
            .into_iter()
            .map(|def| {
                let classification = def.task == Task::ImageClassification;
                RunSpec {
                    chip,
                    backend: submission_backend(chip, version, def.task),
                    mix: ScenarioMix {
                        offline: config.offline_classification && classification,
                        server: config.scenario_matrix && classification,
                        multi_stream: config.scenario_matrix && classification,
                    },
                    def,
                    tuner: config.tuner,
                }
            })
            .collect()
    }
}

/// Executes benchmark-matrix runs in parallel over a shared
/// [`CompileCache`].
///
/// # Examples
///
/// ```no_run
/// use mlperf_mobile::app::AppConfig;
/// use mlperf_mobile::runner::SuiteRunner;
/// use mlperf_mobile::sut_impl::DatasetScale;
/// use mlperf_mobile::task::SuiteVersion;
/// use soc_sim::catalog::ChipId;
///
/// let runner = SuiteRunner::new();
/// let reports = runner.sweep(
///     &[ChipId::Snapdragon888, ChipId::Exynos2100],
///     SuiteVersion::V1_0,
///     &AppConfig::default(),
///     DatasetScale::Full,
/// )?;
/// assert_eq!(reports.len(), 2);
/// # Ok::<(), mobile_backend::backend::CompileError>(())
/// ```
#[derive(Debug)]
pub struct SuiteRunner {
    cache: CompileCache,
    threads: usize,
    trace_sink: Option<Arc<TraceCollector>>,
}

impl Default for SuiteRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SuiteRunner {
    /// A runner using [`default_threads`] workers.
    #[must_use]
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// A runner with an explicit worker count (`1` = serial execution on
    /// the calling thread, still through the cache).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        SuiteRunner { cache: CompileCache::new(), threads: threads.max(1), trace_sink: None }
    }

    /// Attaches a trace sink: every subsequent run records a per-query
    /// [`crate::harness::BenchmarkTrace`] into `sink` alongside its score.
    ///
    /// Tracing is purely observational — scores from a traced runner are
    /// bit-identical to an untraced one (`parallel_determinism` locks
    /// this down).
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<TraceCollector>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// The attached trace sink, if any.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&Arc<TraceCollector>> {
        self.trace_sink.as_ref()
    }

    /// The compilation cache (shared across every run this runner makes).
    #[must_use]
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Runs every spec, in parallel, returning per-spec results in spec
    /// order. Each run compiles through the cache and otherwise behaves
    /// exactly like [`crate::harness::run_benchmark`].
    #[must_use]
    pub fn run(
        &self,
        specs: &[RunSpec],
        rules: &RunRules,
        scale: DatasetScale,
    ) -> Vec<Result<BenchmarkScore, CompileError>> {
        par_map(specs, self.threads, |spec| {
            let planned = if let Some(cfg) = &spec.tuner {
                self.cache.tuned(spec.chip, spec.backend, spec.def.model, cfg)?.planned.clone()
            } else {
                self.cache.planned(spec.chip, spec.backend, spec.def.model)?
            };
            let soc = self.cache.soc(spec.chip);
            let started = std::time::Instant::now();
            let score = run_benchmark_planned(
                spec.chip,
                soc,
                planned,
                &spec.def,
                rules,
                scale,
                spec.mix,
                self.trace_sink.as_deref(),
            );
            let label = format!("{}/{:?}/{}", spec.chip, spec.def.task, spec.backend);
            metrics().record_spec_wall(label, started.elapsed().as_secs_f64() * 1e3);
            Ok(score)
        })
    }

    /// Runs the full suite on one chip — the parallel equivalent of
    /// [`crate::app::run_suite`], with scores in the prescribed task
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the first backend compilation failure (in task order,
    /// matching the serial app).
    pub fn suite_report(
        &self,
        chip: ChipId,
        version: SuiteVersion,
        config: &AppConfig,
        scale: DatasetScale,
    ) -> Result<SuiteReport, CompileError> {
        let specs = RunSpec::suite(chip, version, config);
        let scores: Result<Vec<_>, _> =
            self.run(&specs, &config.rules, scale).into_iter().collect();
        Ok(SuiteReport { chip, version, scores: scores? })
    }

    /// Runs the suite on every chip, parallelizing across the whole
    /// chips x tasks matrix (not chip-by-chip, so a big chip's slow task
    /// overlaps the other chips' work). Reports come back in chip order.
    ///
    /// # Errors
    ///
    /// Propagates the first compilation failure in (chip, task) order.
    ///
    /// # Panics
    ///
    /// Never — the flat result list always splits evenly per chip.
    pub fn sweep(
        &self,
        chips: &[ChipId],
        version: SuiteVersion,
        config: &AppConfig,
        scale: DatasetScale,
    ) -> Result<Vec<SuiteReport>, CompileError> {
        let specs: Vec<RunSpec> = chips
            .iter()
            .flat_map(|&chip| RunSpec::suite(chip, version, config))
            .collect();
        let per_chip = specs.len() / chips.len().max(1);
        let mut results = self.run(&specs, &config.rules, scale).into_iter();
        chips
            .iter()
            .map(|&chip| {
                let scores: Result<Vec<_>, _> = results.by_ref().take(per_chip).collect();
                Ok(SuiteReport { chip, version, scores: scores? })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = par_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_serial() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[7], 4, |&x| x + 1), vec![8]);
        assert_eq!(par_map(&[1, 2, 3], 1, |&x| x), vec![1, 2, 3]);
    }

    #[test]
    fn compile_cache_compiles_each_triple_once() {
        let cache = CompileCache::new();
        let a = cache
            .deployment(ChipId::Snapdragon888, BackendId::Snpe, ModelId::MobileNetEdgeTpu)
            .unwrap();
        let b = cache
            .deployment(ChipId::Snapdragon888, BackendId::Snpe, ModelId::MobileNetEdgeTpu)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be the cached Arc");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn plan_cache_lowers_each_triple_once() {
        let cache = CompileCache::new();
        let a = cache
            .planned(ChipId::Snapdragon888, BackendId::Snpe, ModelId::MobileNetEdgeTpu)
            .unwrap();
        let b = cache
            .planned(ChipId::Snapdragon888, BackendId::Snpe, ModelId::MobileNetEdgeTpu)
            .unwrap();
        assert!(Arc::ptr_eq(&a.query, &b.query), "second lookup must share the cached plan");
        assert!(a.offline.is_some(), "submission deployments carry offline streams");
        assert_eq!(cache.plan_misses(), 1);
        assert_eq!(cache.plan_hits(), 1);
        // The one plan miss compiled through the deployment cache once.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn sweep_cache_lowers_each_triple_once() {
        let cache = CompileCache::new();
        let a = cache
            .sweep_plan(ChipId::Snapdragon888, BackendId::Snpe, ModelId::MobileNetEdgeTpu)
            .unwrap();
        let b = cache
            .sweep_plan(ChipId::Snapdragon888, BackendId::Snpe, ModelId::MobileNetEdgeTpu)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be the cached Arc");
        // And a failure propagates instead of lowering anything.
        assert!(cache
            .sweep_plan(ChipId::Exynos990, BackendId::Snpe, ModelId::MobileNetEdgeTpu)
            .is_err());
    }

    #[test]
    fn plan_cache_propagates_compile_failures() {
        let cache = CompileCache::new();
        // SNPE refuses non-Qualcomm silicon; the plan lookup surfaces the
        // deployment cache's memoized error instead of lowering anything.
        let err = cache.planned(ChipId::Exynos990, BackendId::Snpe, ModelId::MobileNetEdgeTpu);
        assert!(err.is_err());
        assert_eq!(cache.plan_misses(), 1);
        assert_eq!(cache.plan_hits(), 0);
    }

    #[test]
    fn compile_cache_caches_failures() {
        let cache = CompileCache::new();
        // SNPE refuses non-Qualcomm silicon; the error must be cached.
        let first = cache.deployment(ChipId::Exynos990, BackendId::Snpe, ModelId::MobileNetEdgeTpu);
        let second = cache.deployment(ChipId::Exynos990, BackendId::Snpe, ModelId::MobileNetEdgeTpu);
        assert!(first.is_err());
        assert_eq!(first.unwrap_err(), second.unwrap_err());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn soc_cache_returns_shared_instance() {
        let cache = CompileCache::new();
        let a = cache.soc(ChipId::Dimensity1100);
        let b = cache.soc(ChipId::Dimensity1100);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.name, ChipId::Dimensity1100.build().name);
    }

    #[test]
    fn suite_specs_follow_table2() {
        let config = AppConfig::default();
        let specs = RunSpec::suite(ChipId::Exynos990, SuiteVersion::V0_7, &config);
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().all(|s| s.backend == BackendId::Enn));
        // Offline rides along with classification only; the server and
        // multi-stream searches stay off without `scenario_matrix`.
        assert!(specs[0].mix.offline && specs[0].def.task == Task::ImageClassification);
        assert!(specs[1..].iter().all(|s| !s.mix.offline));
        assert!(specs.iter().all(|s| !s.mix.server && !s.mix.multi_stream));
    }
}
