//! The four workloads: what each sets up, what its timed phase calls,
//! and what it outputs.
//!
//! Every workload is a closed batch job: a fixed work list on the
//! runner's pool, with no arrival schedule on the host (the server
//! scenario's Poisson arrivals happen in simulated time only).

use crate::trace::Tracer;
use mlperf_mobile::app::submission_backend;
use mlperf_mobile::fleet::{render_fleet_report, run_fleet, FleetConfig, FleetReport};
use mlperf_mobile::harness::{BenchmarkScore, RunRules, ScenarioMix};
use mlperf_mobile::runner::{CompileCache, RunSpec, SuiteRunner};
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::{suite, SuiteVersion, Task};
use mlperf_mobile::tuning::{run_tuning, TuningConfig, TuningReport};
use mobile_backend::backend::CompileError;
use soc_sim::catalog::{ChipId, Generation};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every catalog chip's four-task submission suite (32 cells).
    Submission,
    /// Every chip's classification cell under all four scenarios.
    Scenarios,
    /// The 64-cell schedule-tuning gap table.
    Tune,
    /// The 400k-device mixed-profile fleet sweep.
    Fleet,
}

/// The LoadGen run-rule seed (`TestSettings::default().seed`).
pub const RUN_RULE_SEED: u64 = 0x4D4C_5065_7266;

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Submission,
        Workload::Scenarios,
        Workload::Tune,
        Workload::Fleet,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Submission => "submission",
            Workload::Scenarios => "scenarios",
            Workload::Tune => "tune",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the committed references were made with.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Submission | Workload::Scenarios => RUN_RULE_SEED,
            Workload::Tune => 0,
            Workload::Fleet => 7,
        }
    }

    /// The seed kept back from tuning work, for confirming a gain.
    #[must_use]
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::Submission | Workload::Scenarios => 0x0BAD_5EED,
            Workload::Tune => 0,
            Workload::Fleet => 1009,
        }
    }

    /// Whether the seed changes the inputs (the tuning table's input is
    /// the catalog).
    #[must_use]
    pub fn seeded(self) -> bool {
        self != Workload::Tune
    }
}

/// How big the inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark workloads.
    Full,
    /// Tiny inputs for the self-test.
    Smoke,
}

impl Size {
    /// The chips a workload covers at this size.
    fn chips(self, workload: Workload) -> Vec<ChipId> {
        match (self, workload) {
            (Size::Full, _) => ChipId::ALL.to_vec(),
            // The chips behind the five published outputs.
            (Size::Smoke, Workload::Submission) => {
                vec![
                    ChipId::Dimensity1100,
                    ChipId::Exynos990,
                    ChipId::Snapdragon865Plus,
                ]
            }
            (Size::Smoke, Workload::Scenarios) => vec![ChipId::Dimensity1100],
            (Size::Smoke, Workload::Tune) => vec![ChipId::CoreI7_1165G7],
            (Size::Smoke, Workload::Fleet) => ChipId::ALL.to_vec(),
        }
    }

    /// Fleet population.
    fn devices(self) -> u64 {
        match self {
            Size::Full => 400_000,
            Size::Smoke => 4096,
        }
    }
}

/// The suite version a chip's generation runs.
#[must_use]
pub fn version_of(chip: ChipId) -> SuiteVersion {
    match chip.generation() {
        Generation::V0_7 => SuiteVersion::V0_7,
        Generation::V1_0 => SuiteVersion::V1_0,
    }
}

/// Everything set up before the timed phase.
pub enum Prepared {
    /// `submission` and `scenarios`: a runner whose cache holds every
    /// cell's SoC, deployment and plans.
    Suite {
        /// The runner, with its warm cache.
        runner: SuiteRunner,
        /// The cells.
        specs: Vec<RunSpec>,
        /// Run rules (seeded).
        rules: RunRules,
    },
    /// `tune`: a cache holding every cell's deployment.
    Tune {
        /// The warm cache.
        cache: CompileCache,
        /// The tuning table's configuration.
        config: TuningConfig,
    },
    /// `fleet`: a cache holding every chip's sweep plan.
    Fleet {
        /// The warm cache.
        cache: CompileCache,
        /// The population's configuration.
        config: FleetConfig,
    },
}

/// What a timed phase returned.
pub enum Output {
    /// Per-cell `chip/task/backend` labels and scores, in spec order.
    Suite(Vec<(String, Result<BenchmarkScore, CompileError>)>),
    /// The gap table.
    Tune(TuningReport),
    /// The merged population report.
    Fleet(FleetReport),
}

/// The cells of a suite workload.
fn suite_specs(workload: Workload, size: Size) -> Vec<RunSpec> {
    let chips = size.chips(workload);
    match workload {
        Workload::Submission => {
            let config = mlperf_mobile::app::AppConfig::default();
            chips
                .iter()
                .flat_map(|&chip| RunSpec::suite(chip, version_of(chip), &config))
                .collect()
        }
        _ => chips
            .iter()
            .map(|&chip| {
                let version = version_of(chip);
                let def = suite(version)
                    .into_iter()
                    .find(|d| d.task == Task::ImageClassification)
                    .expect("every suite version defines image classification");
                RunSpec {
                    chip,
                    backend: submission_backend(chip, version, def.task),
                    def,
                    mix: ScenarioMix::all(),
                    tuner: None,
                }
            })
            .collect(),
    }
}

/// Builds SoCs and compiles and lowers every deployment the workload
/// uses, through the same cache the timed phase runs on.
///
/// # Errors
///
/// Returns the first compile failure.
pub fn setup(
    workload: Workload,
    size: Size,
    seed: u64,
    workers: usize,
    tracer: &mut Tracer,
) -> Result<Prepared, CompileError> {
    let chips = size.chips(workload);
    match workload {
        Workload::Submission | Workload::Scenarios => {
            let runner = SuiteRunner::with_threads(workers);
            let specs = suite_specs(workload, size);
            let cache = runner.cache();
            tracer.call("CompileCache::soc", "runner.soc", || {
                for &chip in &chips {
                    let _ = cache.soc(chip);
                }
            });
            tracer.call("CompileCache::deployment", "runner.cache", || {
                specs
                    .iter()
                    .try_for_each(|s| cache.deployment(s.chip, s.backend, s.def.model).map(drop))
            })?;
            tracer.call("CompileCache::planned", "runner.cache", || {
                specs
                    .iter()
                    .try_for_each(|s| cache.planned(s.chip, s.backend, s.def.model).map(drop))
            })?;
            let mut rules = RunRules::default();
            rules.settings.seed = seed;
            Ok(Prepared::Suite {
                runner,
                specs,
                rules,
            })
        }
        Workload::Tune => {
            let cache = CompileCache::new();
            let config = TuningConfig {
                chips: chips.clone(),
                threads: workers,
                ..TuningConfig::new()
            };
            tracer.call("CompileCache::deployment", "runner.cache", || {
                chips.iter().try_for_each(|&chip| {
                    let version = version_of(chip);
                    suite(version).into_iter().try_for_each(|def| {
                        let backend = submission_backend(chip, version, def.task);
                        cache.deployment(chip, backend, def.model).map(drop)
                    })
                })
            })?;
            Ok(Prepared::Tune { cache, config })
        }
        Workload::Fleet => {
            let cache = CompileCache::new();
            let mut config = FleetConfig::new(size.devices(), seed);
            config.threads = workers;
            config.chips = chips.clone();
            tracer.call("CompileCache::sweep_plan", "runner.cache", || {
                chips.iter().try_for_each(|&chip| {
                    let version = version_of(chip);
                    let backend = submission_backend(chip, version, Task::ImageClassification);
                    let def = suite(version)
                        .into_iter()
                        .find(|d| d.task == Task::ImageClassification)
                        .expect("every suite version defines image classification");
                    cache.sweep_plan(chip, backend, def.model).map(drop)
                })
            })?;
            Ok(Prepared::Fleet { cache, config })
        }
    }
}

/// The name of the timed call, as the traced run prints it.
#[must_use]
pub fn timed_call(workload: Workload) -> &'static str {
    match workload {
        Workload::Submission | Workload::Scenarios => "SuiteRunner::run",
        Workload::Tune => "run_tuning",
        Workload::Fleet => "run_fleet",
    }
}

/// The timed phase: one call into the program's public entry point.
///
/// # Errors
///
/// Returns a compile failure from the tuning table or the fleet.
pub fn run(
    prepared: &Prepared,
    workload: Workload,
    tracer: &mut Tracer,
) -> Result<Output, CompileError> {
    let name = timed_call(workload);
    Ok(match prepared {
        Prepared::Suite {
            runner,
            specs,
            rules,
        } => {
            let scores = tracer.call(name, "runner.par_map", || {
                runner.run(specs, rules, DatasetScale::Full)
            });
            let labels = specs
                .iter()
                .map(|s| format!("{}/{:?}/{}", s.chip, s.def.task, s.backend));
            Output::Suite(labels.zip(scores).collect())
        }
        Prepared::Tune { cache, config } => {
            Output::Tune(tracer.call(name, "runner.par_map", || run_tuning(cache, config))?)
        }
        Prepared::Fleet { cache, config } => {
            Output::Fleet(tracer.call(name, "fleet.merge", || run_fleet(cache, config))?)
        }
    })
}

/// Renders the fleet report (the output the fleet check compares).
#[must_use]
pub fn render_fleet(report: &FleetReport, tracer: &mut Tracer) -> String {
    tracer.call("render_fleet_report", "fleet.render", || {
        render_fleet_report(report)
    })
}
