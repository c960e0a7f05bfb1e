//! The parallel suite runner's contract: running the benchmark matrix on
//! a worker pool with a shared compile cache must be *bit-identical* to a
//! serial loop of fresh compiles — parallelism and caching are pure
//! performance optimisations, invisible in every score.

use mlperf_mobile::harness::{run_benchmark, run_benchmark_planned, RunRules, ScenarioMix};
use mlperf_mobile::metrics::TraceCollector;
use mlperf_mobile::runner::{CompileCache, RunSpec, SuiteRunner};
use mlperf_mobile::sut_impl::{DatasetScale, PlannedDeployment};
use mlperf_mobile::task::{suite, SuiteVersion, Task};
use mobile_backend::registry::create;
use soc_sim::catalog::ChipId;
use std::sync::Arc;

/// A 2-chip x 2-task matrix with distinct vendors, backends and models —
/// small enough to run at smoke scale, varied enough that any cross-run
/// state leakage or ordering bug would desynchronize at least one score.
/// Classification cells run all four scenarios (offline plus the server
/// and multi-stream searches), so every determinism check in this file
/// also covers the discrete-event executor.
fn matrix() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for chip in [ChipId::Dimensity1100, ChipId::Snapdragon888] {
        for def in suite(SuiteVersion::V1_0) {
            if matches!(def.task, Task::ImageClassification | Task::ImageSegmentation) {
                specs.push(RunSpec {
                    chip,
                    backend: mlperf_mobile::app::submission_backend(
                        chip,
                        SuiteVersion::V1_0,
                        def.task,
                    ),
                    mix: if def.task == Task::ImageClassification {
                        ScenarioMix::all()
                    } else {
                        ScenarioMix::offline_only(false)
                    },
                    def,
                    tuner: None,
                });
            }
        }
    }
    assert_eq!(specs.len(), 4);
    specs
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial_loop() {
    let specs = matrix();
    let rules = RunRules::smoke_test();
    let scale = DatasetScale::Reduced(48);

    // Serial reference: fresh compile per run, no cache, no threads.
    let serial: Vec<String> = specs
        .iter()
        .map(|spec| {
            let score = run_benchmark(
                spec.chip,
                create(spec.backend).as_ref(),
                &spec.def,
                &rules,
                scale,
                spec.mix,
            )
            .expect("matrix spec compiles");
            serde_json::to_string(&score).expect("score serializes")
        })
        .collect();

    // Parallel: more workers than specs, shared cache, dynamic scheduling.
    let runner = SuiteRunner::with_threads(8);
    let parallel: Vec<String> = runner
        .run(&specs, &rules, scale)
        .into_iter()
        .map(|r| serde_json::to_string(&r.expect("matrix spec compiles")).unwrap())
        .collect();

    assert_eq!(serial, parallel, "parallel sweep must be bit-identical to the serial loop");
}

#[test]
fn tracing_does_not_perturb_scores() {
    // Attaching a trace sink is purely observational: every score from a
    // traced sweep must be bit-identical to the untraced sweep, while the
    // sink fills with one valid trace per spec.
    let specs = matrix();
    let rules = RunRules::smoke_test();
    let scale = DatasetScale::Reduced(48);

    let untraced: Vec<String> = SuiteRunner::with_threads(8)
        .run(&specs, &rules, scale)
        .into_iter()
        .map(|r| serde_json::to_string(&r.expect("matrix spec compiles")).unwrap())
        .collect();

    let sink = Arc::new(TraceCollector::new());
    let traced: Vec<String> = SuiteRunner::with_threads(8)
        .with_trace(Arc::clone(&sink))
        .run(&specs, &rules, scale)
        .into_iter()
        .map(|r| serde_json::to_string(&r.expect("matrix spec compiles")).unwrap())
        .collect();

    assert_eq!(untraced, traced, "tracing must be invisible in every score");

    let traces = sink.drain();
    assert_eq!(traces.len(), specs.len(), "one trace per spec");
    for trace in &traces {
        trace.validate().expect("trace invariants hold");
        assert!(trace.single_stream.span_count() > 0);
        // Classification cells ran the full scenario mix: the server and
        // multi-stream probe timelines ride along and validate, and the
        // server probe never exceeds the scenario's concurrency bound.
        if trace.task == Task::ImageClassification {
            let server = trace.server.as_ref().expect("server trace for classification");
            assert!(server.span_count() > 0);
            assert!(server.max_concurrent() <= rules.settings.server_concurrency);
            let ms = trace.multi_stream.as_ref().expect("multi-stream trace");
            assert!(ms.span_count() > 0);
        } else {
            assert!(trace.server.is_none() && trace.multi_stream.is_none());
        }
    }
    assert!(sink.is_empty(), "drain empties the sink");

    // The traces themselves are deterministic too: a second traced sweep
    // reproduces them bit-for-bit (span timings, telemetry and all).
    let sink2 = Arc::new(TraceCollector::new());
    let _ = SuiteRunner::with_threads(4)
        .with_trace(Arc::clone(&sink2))
        .run(&specs, &rules, scale);
    let again = sink2.drain();
    assert_eq!(
        serde_json::to_string(&traces).unwrap(),
        serde_json::to_string(&again).unwrap(),
        "traced sweeps must reproduce identical traces"
    );

    // Profiling those traces is just as deterministic: the Perfetto
    // timeline and the rendered profile report come out byte-identical
    // across repeated profiled sweeps.
    assert_eq!(
        mlperf_mobile::profile::benchmark_perfetto_json(&traces),
        mlperf_mobile::profile::benchmark_perfetto_json(&again),
        "repeated profiled sweeps must export byte-identical Perfetto timelines"
    );
    assert_eq!(
        mlperf_mobile::profile::profile_report(&traces),
        mlperf_mobile::profile::profile_report(&again),
        "repeated profiled sweeps must render byte-identical profile reports"
    );
}

#[test]
fn repeated_parallel_sweeps_are_stable() {
    // Thread scheduling varies run to run; scores must not.
    let specs = matrix();
    let rules = RunRules::smoke_test();
    let sweep = || {
        SuiteRunner::with_threads(4)
            .run(&specs, &rules, DatasetScale::Reduced(32))
            .into_iter()
            .map(|r| serde_json::to_string(&r.unwrap()).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(sweep(), sweep());
}

#[test]
fn cache_hit_scores_match_fresh_compile_scores() {
    // A cache *hit* must hand back a deployment indistinguishable from a
    // fresh compile — checked end-to-end through a benchmark run.
    let def = suite(SuiteVersion::V1_0)
        .into_iter()
        .find(|d| d.task == Task::ImageClassification)
        .unwrap();
    let chip = ChipId::Exynos2100;
    let backend = mlperf_mobile::app::submission_backend(chip, SuiteVersion::V1_0, def.task);
    let rules = RunRules::smoke_test();

    let cache = CompileCache::new();
    let _warm = cache.deployment(chip, backend, def.model).expect("compiles");
    let hit = cache.deployment(chip, backend, def.model).expect("compiles");
    assert_eq!(cache.hits(), 1, "second lookup must hit");

    let fresh = create(backend)
        .compile(&def.model.build(), &cache.soc(chip))
        .expect("compiles");
    assert_eq!(hit.scheme, fresh.scheme);
    assert_eq!(hit.offline_streams.len(), fresh.offline_streams.len());
    let soc = cache.soc(chip);
    assert!((hit.estimate_ms(&soc) - fresh.estimate_ms(&soc)).abs() < f64::EPSILON);

    let from_hit = run_benchmark_planned(
        chip,
        Arc::clone(&soc),
        PlannedDeployment::compile(&soc, hit),
        &def,
        &rules,
        DatasetScale::Reduced(48),
        ScenarioMix::offline_only(false),
        None,
    );
    let from_fresh = run_benchmark(
        chip,
        create(backend).as_ref(),
        &def,
        &rules,
        DatasetScale::Reduced(48),
        ScenarioMix::offline_only(false),
    )
    .expect("compiles");
    assert_eq!(
        serde_json::to_string(&from_hit).unwrap(),
        serde_json::to_string(&from_fresh).unwrap(),
        "a cached deployment must score identically to a fresh compile"
    );
}

#[test]
fn planned_runs_match_fresh_compiles_bit_identically() {
    // Three routes into the same benchmark — a fresh compile (plans built
    // inside the harness), an explicitly pre-planned deployment, and a
    // plan-cache hit — must produce bit-identical scores. Compiled query
    // plans are a pure performance optimisation, invisible in every score.

    let specs = matrix();
    let rules = RunRules::smoke_test();
    let scale = DatasetScale::Reduced(48);
    let cache = CompileCache::new();

    for spec in &specs {
        let fresh = run_benchmark(
            spec.chip,
            create(spec.backend).as_ref(),
            &spec.def,
            &rules,
            scale,
            spec.mix,
        )
        .expect("matrix spec compiles");

        // Hand-built plan, bypassing the cache entirely.
        let soc = cache.soc(spec.chip);
        let deployment = create(spec.backend)
            .compile(&spec.def.model.build(), &soc)
            .expect("matrix spec compiles");
        let hand_planned = PlannedDeployment::compile(&soc, Arc::new(deployment));
        let planned = run_benchmark_planned(
            spec.chip,
            Arc::clone(&soc),
            hand_planned,
            &spec.def,
            &rules,
            scale,
            spec.mix,
            None,
        );

        // Cached plan: second lookup of the same triple is a hit.
        let cached_plan = cache.planned(spec.chip, spec.backend, spec.def.model).unwrap();
        let from_cache = run_benchmark_planned(
            spec.chip,
            soc,
            cached_plan,
            &spec.def,
            &rules,
            scale,
            spec.mix,
            None,
        );

        let want = serde_json::to_string(&fresh).unwrap();
        assert_eq!(want, serde_json::to_string(&planned).unwrap(), "{:?}", spec.chip);
        assert_eq!(want, serde_json::to_string(&from_cache).unwrap(), "{:?}", spec.chip);
    }
    assert_eq!(cache.plan_misses(), specs.len(), "one plan compilation per distinct triple");
}

#[test]
fn fast_forwarded_hot_loop_matches_unmemoized_walk() {
    // The production single-stream hot loop fast-forwards steady-state
    // queries through a DVFS-keyed memo ([`DeviceSut`] ->
    // `QueryPlan::execute_memo`). Driving the loadgen loop over the
    // identical compiled plan *without* the memo must reproduce the exact
    // PerformanceResult and the exact final device state — which, chained
    // with `planned_runs_match_fresh_compiles_bit_identically` above,
    // closes the planned == fresh == fast-forwarded identity.
    use loadgen::{run_single_stream, RunLog, SystemUnderTest};
    use mlperf_mobile::sut_impl::DeviceSut;
    use soc_sim::plan::QueryPlan;
    use soc_sim::soc::SocState;
    use soc_sim::time::SimDuration;

    struct UnmemoizedSut {
        plan: Arc<QueryPlan>,
        state: SocState,
        desc: String,
    }
    impl SystemUnderTest for UnmemoizedSut {
        fn issue_query(&mut self, _sample_index: usize) -> SimDuration {
            self.plan.execute(&mut self.state).latency
        }
        fn description(&self) -> String {
            self.desc.clone()
        }
    }

    let rules = RunRules::smoke_test();
    let cache = CompileCache::new();
    for spec in matrix() {
        let soc = cache.soc(spec.chip);
        let planned = cache.planned(spec.chip, spec.backend, spec.def.model).unwrap();
        let mut device = DeviceSut::with_plans(Arc::clone(&soc), planned.clone(), 22.0);
        let mut oracle = UnmemoizedSut {
            plan: Arc::clone(&planned.query),
            state: soc.new_state(22.0),
            desc: device.description(),
        };

        let mut device_log = RunLog::new();
        let fast = run_single_stream(&mut device, 48, &rules.settings, &mut device_log, None);
        let mut oracle_log = RunLog::new();
        let walked = run_single_stream(&mut oracle, 48, &rules.settings, &mut oracle_log, None);

        assert_eq!(
            format!("{fast:?}"),
            format!("{walked:?}"),
            "{:?}: fast-forwarded result must match the unmemoized walk",
            spec.chip
        );
        assert_eq!(
            device.state, oracle.state,
            "{:?}: device state must stay in lockstep",
            spec.chip
        );
        // Every query is accounted for as a memo replay or a first-visit
        // recording walk, and steady state actually engaged the memo.
        assert_eq!(
            device.fast_forward_hits() + device.fast_forward_operating_points() as u64,
            fast.queries,
            "{:?}",
            spec.chip
        );
        assert!(
            device.fast_forward_hits() > 0,
            "{:?}: steady-state queries must replay from the memo",
            spec.chip
        );
    }
}

#[test]
fn self_observability_is_bit_invisible_to_scores_logs_and_traces() {
    // The harness self-observability layer — wall-clock span recording,
    // pool telemetry, and the live /metrics endpoint under concurrent
    // scraping — is purely host-side. A suite run with all of it switched
    // on must be byte-identical (scores, logs, device traces) to one with
    // none of it.
    use mlperf_mobile::obs;
    use std::io::{Read, Write as _};
    use std::sync::atomic::{AtomicBool, Ordering};

    let specs = matrix();
    let rules = RunRules::smoke_test();
    let scale = DatasetScale::Reduced(48);
    let sweep = |sink: &Arc<TraceCollector>| -> Vec<String> {
        SuiteRunner::with_threads(8)
            .with_trace(Arc::clone(sink))
            .run(&specs, &rules, scale)
            .into_iter()
            .map(|r| serde_json::to_string(&r.expect("matrix spec compiles")).unwrap())
            .collect()
    };

    // Baseline: spans off, no server.
    let baseline_sink = Arc::new(TraceCollector::new());
    let baseline_scores = sweep(&baseline_sink);
    let baseline_traces = serde_json::to_string(&baseline_sink.drain()).unwrap();

    // Observed: span recording on, endpoint live, and a scraper hammering
    // every route for the duration of the sweep.
    obs::set_enabled(true);
    let mut server = obs::ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();
    let done = AtomicBool::new(false);
    let (observed_scores, observed_traces) = std::thread::scope(|scope| {
        let done = &done;
        let scraper = scope.spawn(move || {
            let mut scrapes = 0u32;
            while !done.load(Ordering::Relaxed) {
                for path in ["/metrics", "/runs", "/healthz"] {
                    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                        .expect("send");
                    let mut response = String::new();
                    stream.read_to_string(&mut response).expect("read");
                    assert!(response.starts_with("HTTP/1.1 200"), "{path}: {response}");
                    scrapes += 1;
                }
            }
            scrapes
        });
        let observed_sink = Arc::new(TraceCollector::new());
        let scores = sweep(&observed_sink);
        let traces = serde_json::to_string(&observed_sink.drain()).unwrap();
        done.store(true, Ordering::Relaxed);
        assert!(scraper.join().expect("scraper thread") > 0, "the endpoint was scraped mid-run");
        (scores, traces)
    });
    server.stop();
    obs::set_enabled(false);
    let profile = obs::drain();

    assert_eq!(
        baseline_scores, observed_scores,
        "self-profiling + live scraping must be invisible in every score"
    );
    assert_eq!(
        baseline_traces, observed_traces,
        "self-profiling + live scraping must be invisible in every device trace"
    );

    // The observability layer did observe the sweep: one cell span per
    // spec (at least — concurrent tests may add more), with calibrate and
    // execute phases inside.
    assert!(
        profile.phase_spans(obs::Phase::Cell).count() >= specs.len(),
        "expected >= {} cell spans, got {:?}",
        specs.len(),
        profile.phase_spans(obs::Phase::Cell).count()
    );
    assert!(profile.phase_spans(obs::Phase::Calibrate).count() >= specs.len());
    assert!(profile.phase_spans(obs::Phase::Execute).count() >= specs.len());
    assert!(
        profile.phase_spans(obs::Phase::SearchProbe).count() >= 2,
        "classification cells ran server + multi-stream searches"
    );
}

#[test]
fn fleet_sweep_is_bit_identical_across_worker_counts() {
    // The fleet executor holds the same contract as the suite runner:
    // worker count is a pure wall-clock knob. The same seed must
    // reproduce the byte-identical population report — serialized
    // scores AND rendered text — whether the shards run serially or on
    // a contended pool, and a uniform sub-population must fast-forward
    // through the unit memo without perturbing that identity.
    use mlperf_mobile::fleet::{render_fleet_report, run_fleet, FleetConfig};
    use soc_sim::fleet::{sample_unit, FleetProfile};

    let cache = CompileCache::new();
    let config_for = |threads: usize| {
        let mut config = FleetConfig::new(600, 11);
        config.threads = threads;
        config.shard_devices = 128;
        config.chips = vec![ChipId::Dimensity1100, ChipId::Exynos2100, ChipId::Snapdragon888];
        config
    };

    // Sampling itself is a pure function of (seed, index) — spot-check
    // before comparing whole runs, so a regression points at the
    // generator rather than the executor.
    let profile = FleetProfile::default();
    for index in [0u64, 1, 127, 128, 599] {
        assert_eq!(
            sample_unit(11, index, &profile),
            sample_unit(11, index, &profile),
            "unit {index} must resample identically"
        );
    }

    let serial = run_fleet(&cache, &config_for(1)).expect("fleet compiles");
    let pooled = run_fleet(&cache, &config_for(8)).expect("fleet compiles");
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&pooled).unwrap(),
        "fleet report must serialize byte-identically across worker counts"
    );
    assert_eq!(
        render_fleet_report(&serial),
        render_fleet_report(&pooled),
        "rendered fleet report must be byte-identical across worker counts"
    );
    // Re-running on the shared cache reuses the sweeps without drift.
    let again = run_fleet(&cache, &config_for(4)).expect("fleet compiles");
    assert_eq!(serial, again, "repeated fleet sweeps must be stable");

    // Uniform sub-population: every unit is bit-equal, so all devices
    // after the first wave replay from the memo — and the determinism
    // contract still holds.
    let uniform_for = |threads: usize| {
        let mut config = config_for(threads);
        config.chips = vec![ChipId::Exynos2100];
        config.profile = FleetProfile::uniform(24.0);
        config
    };
    let uniform_serial = run_fleet(&cache, &uniform_for(1)).expect("fleet compiles");
    let uniform_pooled = run_fleet(&cache, &uniform_for(8)).expect("fleet compiles");
    assert_eq!(uniform_serial, uniform_pooled);
    assert!(
        uniform_serial.memo_hits > 0,
        "bit-equal units must fast-forward through the unit memo"
    );
}

#[test]
fn tuning_report_is_bit_identical_across_worker_counts() {
    // The gap table holds the same contract as every other artifact:
    // `threads` is a pure wall-clock knob. The same config must produce
    // the byte-identical report — serialized cells AND rendered text —
    // serially or on a contended pool, from a cold or a warm tuned
    // cache. This is the in-process form of the `make tune` byte-diff
    // across MLPERF_WORKERS settings.
    use mlperf_mobile::tuning::{render_tuning_report, run_tuning, TuningConfig};

    let config_for = |threads: usize| {
        let mut config = TuningConfig::new();
        config.chips = vec![ChipId::Exynos990, ChipId::Snapdragon888];
        config.threads = threads;
        config
    };
    let serial = run_tuning(&CompileCache::new(), &config_for(1)).expect("cells compile");
    let cache = CompileCache::new();
    let pooled = run_tuning(&cache, &config_for(8)).expect("cells compile");
    assert_eq!(
        serial.to_json(),
        pooled.to_json(),
        "tuning report must serialize byte-identically across worker counts"
    );
    assert_eq!(
        render_tuning_report(&serial),
        render_tuning_report(&pooled),
        "rendered gap table must be byte-identical across worker counts"
    );
    // A warm tuned cache replays the memoized searches without drift.
    let again = run_tuning(&cache, &config_for(4)).expect("cells compile");
    assert_eq!(pooled, again, "repeated tuning sweeps must be stable");
    assert!(
        serial.cells.iter().any(|c| c.improved && c.gap_pct > 0.0),
        "the searched chips must show a real scheduling gap"
    );
}

#[test]
fn sweep_matches_per_chip_suite_reports() {
    // The cross-chip sweep parallelizes over the flat matrix but must
    // regroup into exactly the reports a chip-by-chip loop produces.
    let config = mlperf_mobile::app::AppConfig {
        rules: RunRules::smoke_test(),
        offline_classification: false,
        scenario_matrix: false,
        tuner: None,
    };
    let chips = [ChipId::Dimensity1100, ChipId::Exynos2100];
    let swept = SuiteRunner::new()
        .sweep(&chips, SuiteVersion::V1_0, &config, DatasetScale::Reduced(32))
        .expect("sweep compiles");
    for (chip, report) in chips.iter().zip(&swept) {
        let solo = SuiteRunner::new()
            .suite_report(*chip, SuiteVersion::V1_0, &config, DatasetScale::Reduced(32))
            .expect("suite compiles");
        assert_eq!(
            serde_json::to_string(report).unwrap(),
            serde_json::to_string(&solo).unwrap(),
            "{chip:?}"
        );
    }
}
