//! The extended suite (paper Appendix E): run the four published tasks
//! plus speech recognition and super-resolution, then file the results
//! into a rolling-submission registry.
//!
//! ```sh
//! cargo run --release --example extended_suite
//! ```

use mlperf_mobile::extensions::extended_suite;
use mlperf_mobile::harness::{run_benchmark, RunRules, ScenarioMix};
use mlperf_mobile::report::score_line;
use mlperf_mobile::submission::{Date, SubmissionEntry, SubmissionRegistry};
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::SuiteVersion;
use mobile_backend::registry::create;
use soc_sim::catalog::ChipId;

fn main() {
    let chip = ChipId::Exynos2100;
    let version = SuiteVersion::V1_0;
    let rules = RunRules::default();
    let mut registry = SubmissionRegistry::new();

    println!("extended MLPerf Mobile suite on {chip} (6 tasks)\n");
    for def in extended_suite(version) {
        let backend = create(mlperf_mobile::app::submission_backend(chip, version, def.task));
        let score = run_benchmark(
            chip,
            backend.as_ref(),
            &def,
            &rules,
            DatasetScale::Reduced(256),
            ScenarioMix::offline_only(false),
        )
        .expect("benchmark runs");
        println!("{}", score_line(&score));

        // Rolling submission (Appendix E): file the result immediately
        // instead of waiting for the next formal round.
        let entry =
            SubmissionEntry::from_score(Date::new(2021, 9, 14), "example-org", version, &score);
        match registry.submit(entry) {
            Ok(()) => {}
            Err(reason) => println!("  -> registry refused: {reason}"),
        }
    }

    println!("\nrolling registry now holds {} entries:", registry.entries().len());
    let board = registry.leaderboard(version, Date::new(2021, 12, 31));
    for (task, e) in &board {
        println!("  {task:30} {:8.2} ms  ({} via {})", e.latency_ms, e.chip, e.backend);
    }
    println!("\nregistry JSON export:\n{}", &registry.to_json()[..400.min(registry.to_json().len())]);
}
