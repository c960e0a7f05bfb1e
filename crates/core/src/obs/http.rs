//! A hand-rolled HTTP endpoint for live observability.
//!
//! `std::net` only — no crates.io (same discipline as `third_party/`).
//! [`ObsServer`] binds a TCP listener and serves, while a suite runs:
//!
//! - `GET /metrics` — Prometheus text exposition of the process-wide
//!   [`crate::metrics::MetricsRegistry`] snapshot, the runner-pool
//!   telemetry, the per-run host wall-clock summary, and the endpoint's
//!   own request counters,
//! - `GET /healthz` — liveness (`ok`),
//! - `GET /runs` — JSON of recently completed benchmark runs.
//!
//! Every read path is non-destructive ([`crate::metrics::MetricsRegistry::snapshot`],
//! never `take_spec_timings`) and purely host-side, so a live scraper
//! cannot perturb scores — `tests/parallel_determinism.rs` runs a suite
//! under concurrent scraping and holds the results byte-identical to an
//! unobserved run. This endpoint is the first brick of the ROADMAP
//! benchmark-as-a-service daemon.

use crate::metrics::{metrics, Counter};
use crate::obs::pool::{pool, run_wall_hist, runs_board};
use crate::profile::prometheus::{hist_exposition, pool_exposition, prometheus_exposition};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-route request counters, exposed on `/metrics` itself. Only the
/// `obs-http` thread increments them, one request at a time, so the
/// relaxed counters never contend.
#[derive(Debug, Default)]
struct RouteCounters {
    healthz: Counter,
    metrics: Counter,
    runs: Counter,
    not_found: Counter,
}

fn route_counters() -> &'static RouteCounters {
    static COUNTERS: std::sync::OnceLock<RouteCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(RouteCounters::default)
}

/// Renders the `/metrics` page: registry snapshot + pool telemetry +
/// run-wall summary + request counters. Shared by the server and by
/// tests that want the page without a socket.
#[must_use]
pub fn metrics_page() -> String {
    let counters = route_counters();
    let mut out = prometheus_exposition(&metrics().snapshot(), &[]);
    out.push_str(&pool_exposition(&pool().snapshot()));
    out.push_str(&hist_exposition(
        "mlperf_run_wall_ns",
        "Host wall-clock per completed benchmark run (ns).",
        &run_wall_hist().merged(),
    ));
    out.push_str("# HELP mlperf_obs_requests_total Requests served by the observability endpoint.\n");
    out.push_str("# TYPE mlperf_obs_requests_total counter\n");
    for (route, counter) in [
        ("/healthz", &counters.healthz),
        ("/metrics", &counters.metrics),
        ("/runs", &counters.runs),
        ("404", &counters.not_found),
    ] {
        out.push_str(&format!(
            "mlperf_obs_requests_total{{route=\"{route}\"}} {}\n",
            counter.get()
        ));
    }
    out
}

/// Dispatches one request path to `(status line, content type, body)`.
fn respond(path: &str) -> (&'static str, &'static str, String) {
    let counters = route_counters();
    match path {
        "/healthz" => {
            counters.healthz.inc();
            ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned())
        }
        "/metrics" => {
            counters.metrics.inc();
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", metrics_page())
        }
        "/runs" => {
            counters.runs.inc();
            ("200 OK", "application/json; charset=utf-8", runs_board().to_json())
        }
        _ => {
            counters.not_found.inc();
            ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_owned())
        }
    }
}

/// Reads the request line, writes the response, closes the connection.
/// Malformed or slow requests are dropped silently — the endpoint must
/// never take the harness down.
fn handle(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 2048];
    let mut filled = 0usize;
    // Read until the request line is complete (first CRLF) or the buffer
    // fills; the body of a GET is irrelevant.
    loop {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if buf[..filled].windows(2).any(|w| w == b"\r\n") || filled == buf.len() {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf[..filled]);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method == "GET" {
        respond(path)
    } else {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_owned())
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// The live observability endpoint: a listener thread serving `/metrics`,
/// `/healthz`, and `/runs` until [`ObsServer::stop`] (or drop).
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(addr: &str) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("obs-http".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    match stream {
                        Ok(stream) => handle(stream),
                        Err(_) => continue,
                    }
                }
            })?;
        Ok(ObsServer { addr: local, shutdown, handle: Some(handle) })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shutdown.store(true, Ordering::Relaxed);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Issues one HTTP GET over a raw socket and returns (status line,
    /// body).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response.lines().next().unwrap_or("").to_owned();
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_healthz_metrics_runs_and_404() {
        let mut server = ObsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("mlperf_runs_completed_total"));
        assert!(body.contains("mlperf_pool_par_map_calls_total"));
        assert!(body.contains("mlperf_run_wall_ns_count"));
        assert!(body.contains("mlperf_obs_requests_total{route=\"/metrics\"}"));

        let (status, body) = get(addr, "/runs");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"total\""));

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        server.stop();
        // Stop is idempotent and the port is released.
        server.stop();
    }

    #[test]
    fn concurrent_scrapes_all_succeed() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    let (status, body) = get(addr, "/metrics");
                    assert!(status.contains("200"));
                    assert!(body.contains("mlperf_runs_completed_total"));
                });
            }
        });
    }

    #[test]
    fn metrics_page_counts_requests_monotonically() {
        let before = route_counters().metrics.get();
        let page = metrics_page();
        assert!(page.contains("mlperf_obs_requests_total{route=\"/healthz\"}"));
        assert!(route_counters().metrics.get() >= before);
    }
}
