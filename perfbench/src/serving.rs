//! Driving `seal-server` over the wire: query phases (open and closed
//! loop, one keep-alive connection per lane) and the push/refresh
//! writer, on top of `HttpClient::request` except for `/refresh`.

use crate::inputs::Corpus;
use crate::load::{self, Clock, Sample, Schedule};
use crate::oracle;
use crate::report::Report;
use crate::wire;
use seal_server::HttpClient;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// One query phase: the timed samples and every 200 response body,
/// tagged with its query index, for checking afterwards.
pub struct WireRun {
    /// One sample per request.
    pub samples: Vec<Sample>,
    /// `(request index, body)` of every successful response.
    pub bodies: Vec<(usize, Vec<u8>)>,
}

impl WireRun {
    /// Requests that got no 200 response.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Latencies from the due time, µs (`+∞` for failures).
    pub fn latency_us(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_us).collect()
    }

    /// Checks every response against `expected[index % expected.len()]`.
    pub fn check(&self, what: &str, expected: &[Vec<u32>]) -> Result<(), String> {
        for (i, body) in &self.bodies {
            let want = &expected[i % expected.len()];
            match wire::answers(body) {
                Some(got) if &got == want => {}
                got => {
                    return Err(format!(
                        "{what}: request {i} answered {got:?} over the wire, expected {want:?}"
                    ))
                }
            }
        }
        Ok(())
    }

    /// Checks only that every response carries an answer list (the
    /// answers themselves move while pushes are staged).
    pub fn check_well_formed(&self, what: &str) -> Result<(), String> {
        match self.bodies.iter().find(|(_, b)| wire::answers(b).is_none()) {
            None => Ok(()),
            Some((i, b)) => Err(format!(
                "{what}: request {i} got a malformed body {:?}",
                String::from_utf8_lossy(b)
            )),
        }
    }
}

struct Lane {
    client: HttpClient,
    bodies: Vec<(usize, Vec<u8>)>,
}

fn lanes(addr: &str, n: usize) -> Vec<Lane> {
    (0..n)
        .map(|_| Lane {
            client: HttpClient::connect(addr).expect("connect to the benchmark's own server"),
            bodies: Vec::new(),
        })
        .collect()
}

fn query(lane: &mut Lane, targets: &[String], i: usize) -> bool {
    match lane.client.request("GET", &targets[i % targets.len()], b"") {
        Ok(r) if r.status == 200 => {
            lane.bodies.push((i, r.body));
            true
        }
        _ => false,
    }
}

fn collect(samples: Vec<Sample>, lanes: Vec<Lane>) -> WireRun {
    let mut bodies: Vec<(usize, Vec<u8>)> = lanes.into_iter().flat_map(|l| l.bodies).collect();
    bodies.sort_by_key(|b| b.0);
    WireRun { samples, bodies }
}

/// Sends `targets` (cycling) at `rate` per second for `seconds` over
/// `n` connections, each request at its due time.
pub fn open_queries(
    clock: &Clock,
    addr: &str,
    targets: &[String],
    rate: f64,
    seconds: f64,
    n: usize,
) -> WireRun {
    let schedule = Schedule::new(clock.now_ns() + 2_000_000, rate, seconds);
    let (samples, lanes) = load::open_loop(clock, &schedule, lanes(addr, n), |l, i| {
        query(l, targets, i)
    });
    collect(samples, lanes)
}

/// Sends `targets` (cycling) at `rate` per second over one connection,
/// each request at its due time, until `until()` holds (checked before
/// each request) or [`REFRESH_TIMEOUT_S`] has passed.
pub fn open_queries_until(
    clock: &Clock,
    addr: &str,
    targets: &[String],
    rate: f64,
    until: impl Fn() -> bool,
) -> WireRun {
    let schedule = Schedule::new(clock.now_ns() + 2_000_000, rate, REFRESH_TIMEOUT_S as f64);
    let lane = lanes(addr, 1).remove(0);
    let (samples, lane) =
        load::open_loop_until(clock, &schedule, lane, |l, i| query(l, targets, i), until);
    collect(samples, vec![lane])
}

/// Sends `targets` (cycling) back to back for `seconds` over `n`
/// connections. Returns the run and its start time.
pub fn closed_queries(
    clock: &Clock,
    addr: &str,
    targets: &[String],
    seconds: f64,
    n: usize,
) -> (WireRun, u64) {
    let lanes = lanes(addr, n);
    let start = clock.now_ns();
    let deadline = start + (seconds * 1e9) as u64;
    let (samples, lanes) = load::closed_loop(clock, deadline, lanes, |l, i| query(l, targets, i));
    (collect(samples, lanes), start)
}

/// What the writer connection did.
#[derive(Debug, Default)]
pub struct PushLog {
    /// One sample per `/push`.
    pub samples: Vec<Sample>,
    /// Client-side seconds of each `/refresh`.
    pub refresh_s: Vec<f64>,
    /// `/refresh` requests that got no 200.
    pub refresh_failed: usize,
}

impl PushLog {
    /// Push latencies from the send time, µs.
    pub fn push_us(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::service_us).collect()
    }

    /// Operations attempted and failed.
    pub fn counts(&self) -> (usize, usize) {
        let failed = self.samples.iter().filter(|s| !s.ok).count() + self.refresh_failed;
        (self.samples.len() + self.refresh_s.len(), failed)
    }
}

/// The writer: `POST /push` held-back batch `first_batch + i` at `rate`
/// per second for `seconds`. Push latency is timed from the send so it
/// measures the push path alone.
pub fn pusher(
    clock: &Clock,
    addr: &str,
    corpus: &Corpus,
    first_batch: usize,
    rate: f64,
    seconds: f64,
) -> PushLog {
    let schedule = Schedule::new(clock.now_ns() + 2_000_000, rate, seconds);
    let bodies: Vec<Vec<u8>> = (0..schedule.count)
        .map(|i| wire::push_body(&corpus.push_batch(first_batch + i)))
        .collect();
    let mut client = HttpClient::connect(addr).expect("connect to the benchmark's own server");
    let mut log = PushLog::default();
    for (i, body) in bodies.iter().enumerate() {
        let due_ns = schedule.due_ns(i);
        load::wait_until(clock, due_ns);
        log.samples.push(push(clock, &mut client, i, due_ns, body));
    }
    log
}

/// Sends one `POST /push` and times it from the send.
fn push(clock: &Clock, client: &mut HttpClient, index: usize, due_ns: u64, body: &[u8]) -> Sample {
    let sent_ns = clock.now_ns();
    let ok = matches!(client.request("POST", "/push", body), Ok(r) if r.status == 200);
    Sample {
        index,
        due_ns,
        sent_ns,
        done_ns: clock.now_ns(),
        ok,
    }
}

/// How the query side steers a [`pusher_on_request`] writer.
#[derive(Debug, Default)]
pub struct WriterControl {
    asked: AtomicUsize,
    done: AtomicUsize,
    stop: AtomicBool,
}

impl WriterControl {
    /// Asks the writer for one `/refresh`.
    pub fn ask_refresh(&self) {
        self.asked.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether every refresh asked for has been answered.
    pub fn refreshed(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.asked.load(Ordering::Acquire)
    }

    /// Tells the writer to finish.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// The writer for a window whose length the query side decides:
/// `POST /push` held-back batch `i` at `rate` per second until
/// `control` says stop, and a `POST /refresh` whenever `control` asks
/// for one, sent in place of the next push. Pushes that fell due during
/// a refresh are skipped, not sent in a burst after it.
pub fn pusher_on_request(
    clock: &Clock,
    addr: &str,
    corpus: &Corpus,
    rate: f64,
    control: &WriterControl,
) -> PushLog {
    let mut client = HttpClient::connect(addr).expect("connect to the benchmark's own server");
    let mut log = PushLog::default();
    let period_ns = (1e9 / rate) as u64;
    let mut due_ns = clock.now_ns() + 2_000_000;
    loop {
        let body = wire::push_body(&corpus.push_batch(log.samples.len()));
        while clock.now_ns() < due_ns && control.refreshed() {
            if control.stop.load(Ordering::Acquire) {
                return log;
            }
            std::thread::yield_now();
        }
        if control.stop.load(Ordering::Acquire) {
            return log;
        }
        if !control.refreshed() {
            let (s, ok) = refresh(clock, addr);
            log.refresh_s.push(s);
            log.refresh_failed += usize::from(!ok);
            control.done.fetch_add(1, Ordering::AcqRel);
            due_ns = due_ns.max(clock.now_ns());
            continue;
        }
        let i = log.samples.len();
        log.samples.push(push(clock, &mut client, i, due_ns, &body));
        due_ns += period_ns;
    }
}

/// One client-side timed `POST /refresh`: seconds and success.
///
/// `HttpClient` gives up on a read after 5 s and then sends the request
/// again, and refreshing a 200k-object store takes about that long: a
/// slow refresh would be sent twice and its time would include the
/// timeout. So the request goes out by hand on a connection of its own,
/// with `Connection: close` and a longer read timeout, and the response
/// is read to the end.
pub fn refresh(clock: &Clock, addr: &str) -> (f64, bool) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (0.0, false);
    };
    if stream
        .set_read_timeout(Some(Duration::from_secs(REFRESH_TIMEOUT_S)))
        .is_err()
    {
        return (0.0, false);
    }
    let t = clock.now_ns();
    let mut response = Vec::new();
    let sent = stream
        .write_all(b"POST /refresh HTTP/1.1\r\nHost: seal\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
        .and_then(|()| stream.read_to_end(&mut response));
    let secs = (clock.now_ns() - t) as f64 / 1e9;
    (secs, sent.is_ok() && response.starts_with(b"HTTP/1.1 200 "))
}

/// Longest a `/refresh` may take before it counts as failed.
const REFRESH_TIMEOUT_S: u64 = 60;

/// Sends every query once, back to back on one connection, and checks
/// the answers against `expected` (warm-up, and the wire side of
/// post-run checks).
pub fn check_wire(
    what: &str,
    addr: &str,
    targets: &[String],
    expected: &[Vec<u32>],
) -> Result<(), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let got = targets
        .iter()
        .map(|t| {
            let r = client
                .request("GET", t, b"")
                .map_err(|e| format!("GET {t}: {e}"))?;
            if r.status != 200 {
                return Err(format!("GET {t}: status {} {}", r.status, r.text()));
            }
            wire::answers(&r.body).ok_or_else(|| format!("GET {t}: malformed body {}", r.text()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    oracle::check_equal(what, &got, expected)
}

/// Counts the query phases' requests, and their failures, in `report`.
pub fn count(report: &mut Report, runs: &[&WireRun]) {
    for r in runs {
        report.count(r.samples.len(), r.failed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves one connection: reads the request head, answers with
    /// `response` and closes; returns the request it read.
    fn serve_once(response: &'static [u8]) -> (String, std::thread::JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut request = Vec::new();
            let mut chunk = [0u8; 256];
            while !request.ends_with(b"\r\n\r\n") {
                let n = conn.read(&mut chunk).expect("read");
                assert!(n > 0, "request cut short");
                request.extend_from_slice(&chunk[..n]);
            }
            conn.write_all(response).expect("write");
            request
        });
        (addr, server)
    }

    #[test]
    fn refresh_reads_the_response_to_the_end() {
        let clock = Clock::start();
        let (addr, server) =
            serve_once(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}");
        let (secs, ok) = refresh(&clock, &addr);
        assert!(ok && secs >= 0.0);
        let request = String::from_utf8(server.join().expect("server")).expect("utf-8");
        assert!(
            request.starts_with("POST /refresh HTTP/1.1\r\n"),
            "{request}"
        );
        assert!(request.contains("Connection: close\r\n"), "{request}");

        let (addr, server) =
            serve_once(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n");
        assert!(!refresh(&clock, &addr).1, "a 503 is a failed refresh");
        server.join().expect("server");
    }

    #[test]
    fn the_writer_refreshes_on_request_while_queries_run() {
        use crate::inputs::{object_queries, PUSH_BATCH};
        use seal_core::{BuildOpts, LiveEngine, SimilarityConfig};
        use seal_server::{Server, ServerConfig};
        use std::sync::Arc;

        let corpus = Corpus::twitter(400, 40, 7);
        let engine = Arc::new(LiveEngine::with_opts(
            corpus.base_store(),
            crate::KIND,
            SimilarityConfig::default(),
            BuildOpts::with_threads(1),
        ));
        let server = Server::spawn(engine.clone(), ServerConfig::default()).expect("bind server");
        let addr = server.addr().to_string();
        let targets: Vec<String> = object_queries(&corpus.base, 20, 7, 0.5)
            .iter()
            .map(wire::query_target)
            .collect();
        let clock = Clock::start();
        let control = WriterControl::default();
        let (log, during) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| pusher_on_request(&clock, &addr, &corpus, 200.0, &control));
            load::wait_until(&clock, clock.now_ns() + 30_000_000);
            control.ask_refresh();
            let during = open_queries_until(&clock, &addr, &targets, 500.0, || control.refreshed());
            assert!(control.refreshed());
            control.stop();
            (writer.join().expect("writer thread"), during)
        });
        server.shutdown();
        assert_eq!(log.refresh_s.len(), 1);
        assert_eq!(log.refresh_failed, 0);
        assert!(log.samples.len() >= 2, "{} pushes", log.samples.len());
        assert!(log.samples.iter().all(|s| s.ok));
        assert_eq!(engine.len(), 400 + PUSH_BATCH * log.samples.len());
        assert_eq!(during.failed(), 0);
        assert!(during.check_well_formed("during the refresh").is_ok());
    }
}
