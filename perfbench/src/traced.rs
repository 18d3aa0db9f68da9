//! The server-boundary trace: a [`QueryEngine`] wrapper handed to
//! `Server::spawn` in the traced run. It forwards every call to the
//! real engine and records a span around each `search_batch`,
//! `push_all` and `refresh` dispatch on the load generator's clock, so
//! a request's wire time can be split into the engine's share and the
//! server's own.

use crate::load::{Clock, Sample};
use crate::report::Report;
use crate::serving::WireRun;
use crate::stats::{mean, median, p50, p99};
use seal_core::{
    EngineStatus, ObjectId, Query, QueryEngine, RefreshStats, RoiObject, SearchResult,
};
use seal_geom::Rect;
use seal_text::{TokenId, TokenSet};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// One `search_batch` dispatch.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Span start on the shared clock.
    pub start_ns: u64,
    /// Span end on the shared clock.
    pub end_ns: u64,
    /// [`query_key`] of every query in the batch.
    pub keys: Vec<u64>,
    /// Objects staged in the engine when the batch was dispatched.
    pub staged: usize,
}

impl Dispatch {
    /// The span's length in µs.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Everything the wrapper recorded since it was last drained.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// `search_batch` dispatches in completion order.
    pub dispatches: Vec<Dispatch>,
    /// `push_all` span lengths, µs.
    pub push_us: Vec<f64>,
    /// `RefreshStats::build_seconds` of every refresh.
    pub refresh_build_s: Vec<f64>,
}

impl TraceLog {
    /// Moves everything in `other` to the end of this log.
    pub fn append(&mut self, mut other: TraceLog) {
        self.dispatches.append(&mut other.dispatches);
        self.push_us.append(&mut other.push_us);
        self.refresh_build_s.append(&mut other.refresh_build_s);
    }
}

/// The recording wrapper.
pub struct Traced {
    inner: Arc<dyn QueryEngine>,
    clock: Clock,
    log: Mutex<TraceLog>,
}

impl Traced {
    /// Wraps `inner`, timing on `clock`.
    pub fn new(inner: Arc<dyn QueryEngine>, clock: Clock) -> Self {
        Traced {
            inner,
            clock,
            log: Mutex::new(TraceLog::default()),
        }
    }

    /// Takes the recorded spans, leaving the log empty.
    pub fn drain(&self) -> TraceLog {
        std::mem::take(&mut *self.log.lock().expect("trace log lock"))
    }

    fn record(&self, f: impl FnOnce(&mut TraceLog)) {
        f(&mut self.log.lock().expect("trace log lock"));
    }
}

/// Identifies a query by value, so a client request can be matched to
/// the dispatch that carried it.
pub fn query_key(q: &Query) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in [
        q.region.min().x,
        q.region.min().y,
        q.region.max().x,
        q.region.max().y,
    ] {
        v.to_bits().hash(&mut h);
    }
    q.tokens.ids().hash(&mut h);
    q.tau_spatial.to_bits().hash(&mut h);
    q.tau_textual.to_bits().hash(&mut h);
    h.finish()
}

impl QueryEngine for Traced {
    fn search(&self, q: &Query) -> SearchResult {
        self.inner.search(q)
    }

    fn search_batch(&self, queries: &[Query], threads: usize) -> Vec<SearchResult> {
        let start_ns = self.clock.now_ns();
        let results = self.inner.search_batch(queries, threads);
        let end_ns = self.clock.now_ns();
        let keys = queries.iter().map(query_key).collect();
        let staged = self.inner.staged_len();
        self.record(|log| {
            log.dispatches.push(Dispatch {
                start_ns,
                end_ns,
                keys,
                staged,
            })
        });
        results
    }

    fn search_top_k(
        &self,
        region: Rect,
        tokens: TokenSet,
        k: usize,
        alpha: f64,
    ) -> Vec<(ObjectId, f64)> {
        self.inner.search_top_k(region, tokens, k, alpha)
    }

    fn push(&self, object: RoiObject) -> ObjectId {
        self.inner.push(object)
    }

    fn push_all(&self, objects: Vec<RoiObject>) -> Option<ObjectId> {
        let start_ns = self.clock.now_ns();
        let first = self.inner.push_all(objects);
        let us = self.clock.now_ns().saturating_sub(start_ns) as f64 / 1e3;
        self.record(|log| log.push_us.push(us));
        first
    }

    fn refresh(&self) -> RefreshStats {
        let stats = self.inner.refresh();
        self.record(|log| log.refresh_build_s.push(stats.build_seconds));
        stats
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn staged_len(&self) -> usize {
        self.inner.staged_len()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn resolve_token(&self, token: &str) -> Option<TokenId> {
        self.inner.resolve_token(token)
    }

    fn status(&self) -> EngineStatus {
        self.inner.status()
    }
}

/// The server's own share of each successful request, in µs: the time
/// from send to response minus the span of the dispatch that carried
/// the request (the one holding its query key that lies inside the
/// request's window). `key_of(index)` gives a sample's query key.
/// Returns the self times and the number of requests no dispatch could
/// be matched to.
pub fn server_self_us(
    samples: &[Sample],
    key_of: impl Fn(usize) -> u64,
    dispatches: &[Dispatch],
) -> (Vec<f64>, usize) {
    let mut by_key: HashMap<u64, Vec<&Dispatch>> = HashMap::new();
    for d in dispatches {
        for &k in &d.keys {
            by_key.entry(k).or_default().push(d);
        }
    }
    let mut out = Vec::with_capacity(samples.len());
    let mut unmatched = 0;
    for s in samples.iter().filter(|s| s.ok) {
        let span = by_key.get(&key_of(s.index)).and_then(|ds| {
            ds.iter()
                .find(|d| d.start_ns >= s.sent_ns && d.end_ns <= s.done_ns)
        });
        match span {
            Some(d) => out.push(s.service_us() - d.us()),
            None => unmatched += 1,
        }
    }
    (out, unmatched)
}

/// Records the layer metrics both wire workloads read from the trace:
/// the client's tail and lateness and the server's self time over the
/// traced open-loop phases (`traced`, whose dispatches are in `open`);
/// coalescing over the closed-loop dispatches (`closed`); and the push
/// and refresh spans in all three logs (`writes` holds those recorded
/// outside the query phases). `trace.overhead_frac` compares the traced
/// phases' median with the `untraced` ones'.
pub fn record_wire_layers(
    report: &mut Report,
    queries: &[Query],
    untraced: &[WireRun],
    traced: &[WireRun],
    open: &TraceLog,
    closed: &TraceLog,
    writes: &TraceLog,
) {
    let keys: Vec<u64> = queries.iter().map(query_key).collect();
    let samples: Vec<Sample> = traced.iter().flat_map(|r| r.samples.clone()).collect();
    let (self_us, unmatched) = server_self_us(&samples, |i| keys[i % keys.len()], &open.dispatches);
    crate::note(format!("{unmatched} request(s) matched no dispatch span"));
    let lat: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
    let late: Vec<f64> = samples.iter().map(Sample::late_us).collect();
    report.metric("client.query_p99_us", p99(&lat), "us");
    report.metric("client.late_p99_us", p99(&late), "us");
    report.metric("server.self_us_p50", p50(&self_us), "us");
    let sizes: Vec<f64> = closed
        .dispatches
        .iter()
        .map(|d| d.keys.len() as f64)
        .collect();
    report.metric("batcher.queries_per_dispatch", mean(&sizes), "count");
    report.metric("batcher.dispatches", sizes.len() as f64, "count");
    let spans: Vec<f64> = open.dispatches.iter().map(Dispatch::us).collect();
    report.metric("query_engine.search_batch_us_p50", p50(&spans), "us");
    let staged: Vec<f64> = open.dispatches.iter().map(|d| d.staged as f64).collect();
    report.metric("live.staged_mean", mean(&staged), "count");
    let logs = [open, closed, writes];
    let push_us: Vec<f64> = logs.iter().flat_map(|l| l.push_us.clone()).collect();
    let build_s: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.refresh_build_s.clone())
        .collect();
    report.metric("live.push_all_us_p50", p50(&push_us), "us");
    report.metric("live.refresh_build_s", median(&build_s), "s");
    let u = p50(&untraced
        .iter()
        .flat_map(WireRun::latency_us)
        .collect::<Vec<_>>());
    report.metric("trace.overhead_frac", (p50(&lat) - u) / u, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: usize, sent_ns: u64, done_ns: u64) -> Sample {
        Sample {
            index,
            due_ns: sent_ns,
            sent_ns,
            done_ns,
            ok: true,
        }
    }

    fn dispatch(start_ns: u64, end_ns: u64, keys: &[u64]) -> Dispatch {
        Dispatch {
            start_ns,
            end_ns,
            keys: keys.to_vec(),
            staged: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_matching_dispatch() {
        // Two requests for the same query, 10 µs apart; each must be
        // matched to the dispatch inside its own window.
        let samples = [sample(0, 0, 50_000), sample(1, 60_000, 100_000)];
        let dispatches = [
            dispatch(10_000, 30_000, &[7]),
            dispatch(70_000, 75_000, &[7, 8]),
        ];
        let (us, unmatched) = server_self_us(&samples, |_| 7, &dispatches);
        assert_eq!(us, vec![30.0, 35.0]);
        assert_eq!(unmatched, 0);
        let (us, unmatched) = server_self_us(&samples, |i| [9, 7][i], &dispatches);
        assert_eq!(us, vec![35.0]);
        assert_eq!(unmatched, 1);
    }

    #[test]
    fn query_keys_distinguish_queries() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        let a = Query::with_token_ids(r, [TokenId(1)], 0.5, 0.5).unwrap();
        let b = Query::with_token_ids(r, [TokenId(2)], 0.5, 0.5).unwrap();
        let c = Query::with_token_ids(r, [TokenId(1)], 0.5, 0.4).unwrap();
        assert_eq!(query_key(&a), query_key(&a.clone()));
        assert_ne!(query_key(&a), query_key(&b));
        assert_ne!(query_key(&a), query_key(&c));
    }
}
