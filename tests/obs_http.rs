//! End-to-end checks on the live observability endpoint: the hand-rolled
//! HTTP server serves `/metrics`, `/healthz` and `/runs` while a suite is
//! actually running, and a mid-run scrape is *streaming-consistent* with
//! the end-of-run snapshot — every scraped counter is monotone
//! non-decreasing and never overtakes what the registry finally reports.

use mlperf_mobile::harness::{RunRules, ScenarioMix};
use mlperf_mobile::metrics::{metrics, MetricsSnapshot};
use mlperf_mobile::obs::ObsServer;
use mlperf_mobile::runner::{RunSpec, SuiteRunner};
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::{suite, SuiteVersion, Task};
use soc_sim::catalog::ChipId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One raw HTTP GET — no client library, mirroring what `curl` sends.
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to obs server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: obs-test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or("").to_owned();
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

/// Extracts the value of an unlabelled counter sample from an exposition.
fn counter(body: &str, name: &str) -> u64 {
    body.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in:\n{body}"))
}

fn smoke_specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for chip in [ChipId::Dimensity1100, ChipId::Snapdragon888] {
        for def in suite(SuiteVersion::V1_0) {
            if def.task == Task::ImageClassification {
                specs.push(RunSpec {
                    chip,
                    backend: mlperf_mobile::app::submission_backend(
                        chip,
                        SuiteVersion::V1_0,
                        def.task,
                    ),
                    mix: ScenarioMix::offline_only(true),
                    def,
                    tuner: None,
                });
            }
        }
    }
    specs
}

#[test]
fn endpoint_serves_all_routes_with_curl_shaped_requests() {
    let mut server = ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(body, "ok\n");

    let (status, body) = get(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    for (family, _, _) in MetricsSnapshot::default().families() {
        assert!(body.contains(&format!("# TYPE {family} counter\n")), "missing TYPE for {family}");
    }
    for family in [
        "mlperf_pool_par_map_calls_total",
        "mlperf_pool_queue_depth",
        "mlperf_run_wall_ns",
        "mlperf_obs_requests_total",
    ] {
        assert!(body.contains(&format!("# TYPE {family} ")), "missing TYPE for {family}");
    }
    // The run-wall summary always carries its count sample.
    assert!(body.contains("mlperf_run_wall_ns_count "));

    let (status, body) = get(addr, "/runs");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(body.contains("\"total\"") && body.contains("\"runs\""));

    let (status, _) = get(addr, "/definitely-not-a-route");
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");

    server.stop();
}

#[test]
fn live_scrapes_during_a_suite_are_consistent_with_the_final_snapshot() {
    let server = ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();
    let specs = smoke_specs();
    let rules = RunRules::smoke_test();

    let before_runs = metrics().snapshot().runs_completed;
    let done = std::sync::atomic::AtomicBool::new(false);
    let (scrapes, results) = std::thread::scope(|scope| {
        let done = &done;
        let scraper = scope.spawn(move || {
            let mut scrapes: Vec<u64> = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let (status, body) = get(addr, "/metrics");
                assert!(status.starts_with("HTTP/1.1 200"), "{status}");
                scrapes.push(counter(&body, "mlperf_runs_completed_total"));
            }
            // One final scrape strictly after the suite finished.
            let (_, body) = get(addr, "/metrics");
            scrapes.push(counter(&body, "mlperf_runs_completed_total"));
            scrapes
        });
        let results = SuiteRunner::with_threads(4).run(&specs, &rules, DatasetScale::Reduced(48));
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (scraper.join().expect("scraper thread"), results)
    });
    let after_runs = metrics().snapshot().runs_completed;

    assert!(results.iter().all(Result::is_ok), "suite runs under live scraping");
    assert_eq!(after_runs - before_runs, specs.len() as u64, "every spec recorded a completed run");

    // Streaming consistency: scraped counters never decrease, never run
    // ahead of the final registry snapshot, and the post-suite scrape has
    // caught up with every run this suite completed. (Other tests in this
    // binary may bump the shared registry concurrently, so bounds — not
    // exact equality — are the contract.)
    assert!(!scrapes.is_empty());
    assert!(scrapes.windows(2).all(|w| w[0] <= w[1]), "scrapes must be monotone: {scrapes:?}");
    let last = *scrapes.last().unwrap();
    assert!(
        last >= before_runs + specs.len() as u64,
        "final scrape {last} must include all {} suite runs (baseline {before_runs})",
        specs.len()
    );
    assert!(
        last <= after_runs,
        "scrape {last} cannot overtake the registry snapshot {after_runs}"
    );

    // The /runs board saw the same cells the suite ran.
    let (_, runs_body) = get(addr, "/runs");
    assert!(runs_body.contains("ImageClassification"), "{runs_body}");
}
