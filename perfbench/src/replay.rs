//! The engine-layer replay: the workload's queries answered in-process
//! one layer call at a time, each call timed from outside —
//! `LiveEngine::snapshot`, `QueryContext::with_capacity`,
//! `CandidateFilter::candidates_into` and `seal_core::verify::verify`
//! — next to the same query sent as a singleton `search_batch`. The
//! singleton is the reference the parts must add up to, and the
//! replay's `SearchStats` counters feed the paper's cost-model fit
//! (§4.3: `π1·postings + π2·candidates`).

use crate::report::Report;
use crate::stats::{mean, median, p50, r_squared, slope_through_origin};
use seal_core::{LiveEngine, Query, QueryContext, SealEngine, SearchStats};
use std::time::Instant;

/// How far the sum of the timed parts may drift from the singleton
/// `search_batch` time before the run is refused: the parts omit only
/// the result vector hand-off and add a few clock reads.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// One query answered through the timed parts and as a singleton.
#[derive(Debug, Clone, Default)]
struct Row {
    query: usize,
    snapshot_ns: f64,
    scratch_ns: f64,
    filter_ns: f64,
    verify_ns: f64,
    singleton_ns: f64,
    stats: SearchStats,
}

/// What the replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Median `LiveEngine::snapshot` time, ns (0 for a bare engine).
    pub snapshot_ns_p50: f64,
    /// Median `QueryContext::with_capacity(store.len())` time, µs.
    pub scratch_us_p50: f64,
    /// Median `candidates_into` time, µs.
    pub filter_us_p50: f64,
    /// Median `verify` time, µs.
    pub verify_us_p50: f64,
    /// Mean inverted lists probed per query.
    pub lists_per_query: f64,
    /// Mean postings scanned per query.
    pub postings_per_query: f64,
    /// Mean candidates per query.
    pub candidates_per_query: f64,
    /// Mean answers per query.
    pub answers_per_query: f64,
    /// Answers ÷ candidates over all queries.
    pub precision: f64,
    /// Σ(snapshot + scratch + filter + verify) ÷ Σ singleton.
    pub reconcile_ratio: f64,
    /// Fitted cost per posting, ns.
    pub pi1_ns: f64,
    /// Fitted cost per candidate, ns.
    pub pi2_ns: f64,
    /// R² of the fit.
    pub r2: f64,
}

/// Replays and records; `live.snapshot_ns_p50` too when the replay
/// goes through `live`.
pub fn record_replay(
    report: &mut Report,
    live: Option<&LiveEngine>,
    engine: &SealEngine,
    queries: &[Query],
    rounds: usize,
) {
    match replay(live, engine, queries, rounds) {
        Ok(r) => {
            r.record(report);
            if live.is_some() {
                report.metric("live.snapshot_ns_p50", r.snapshot_ns_p50, "ns");
            }
        }
        Err(e) => report.error(e),
    }
}

/// Replays `queries` `rounds` times against `engine` (through `live`'s
/// snapshot when given, which must then be the engine's owner with an
/// empty staged delta). Every part-wise answer set is checked against
/// the singleton's; a mismatch is an error.
pub fn replay(
    live: Option<&LiveEngine>,
    engine: &SealEngine,
    queries: &[Query],
    rounds: usize,
) -> Result<Replay, String> {
    let mut rows = Vec::with_capacity(queries.len() * rounds);
    for round in 0..rounds {
        for (i, q) in queries.iter().enumerate() {
            // Alternate which side runs first so neither always finds
            // the query's postings warm in cache.
            let (row, mut parts, mut single) = if (round + i) % 2 == 0 {
                let (row, parts) = timed_parts(live, engine, q);
                let (ns, single) = timed_singleton(live, engine, q);
                (
                    Row {
                        singleton_ns: ns,
                        ..row
                    },
                    parts,
                    single,
                )
            } else {
                let (ns, single) = timed_singleton(live, engine, q);
                let (row, parts) = timed_parts(live, engine, q);
                (
                    Row {
                        singleton_ns: ns,
                        ..row
                    },
                    parts,
                    single,
                )
            };
            parts.sort_unstable();
            single.sort_unstable();
            if parts != single {
                return Err(format!(
                    "replay: query {i} answered {parts:?} through the layer calls but {single:?} through search_batch"
                ));
            }
            rows.push(Row { query: i, ..row });
        }
    }
    Ok(summarize(&rows, queries.len()))
}

fn timed_parts(live: Option<&LiveEngine>, engine: &SealEngine, q: &Query) -> (Row, Vec<u32>) {
    let t0 = Instant::now();
    let snapshot = live.map(LiveEngine::snapshot);
    let t1 = Instant::now();
    let engine = snapshot.as_ref().map_or(engine, |(e, _)| e.as_ref());
    let mut ctx = QueryContext::with_capacity(engine.store().len());
    let t2 = Instant::now();
    let mut stats = SearchStats::new();
    engine.filter().candidates_into(q, &mut ctx, &mut stats);
    let t3 = Instant::now();
    let answers = seal_core::verify::verify(
        engine.store(),
        &engine.config(),
        q,
        ctx.candidates(),
        &mut stats,
    );
    let t4 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
    let row = Row {
        snapshot_ns: if live.is_some() { ns(t0, t1) } else { 0.0 },
        scratch_ns: ns(t1, t2),
        filter_ns: ns(t2, t3),
        verify_ns: ns(t3, t4),
        stats,
        ..Row::default()
    };
    (row, answers.into_iter().map(|id| id.0).collect())
}

fn timed_singleton(live: Option<&LiveEngine>, engine: &SealEngine, q: &Query) -> (f64, Vec<u32>) {
    let one = std::slice::from_ref(q);
    let t0 = Instant::now();
    let mut results = match live {
        Some(l) => l.search_batch(one, 1),
        None => engine.search_batch(one, 1),
    };
    let ns = t0.elapsed().as_nanos() as f64;
    let answers = results.pop().map(|r| r.answers).unwrap_or_default();
    (ns, answers.into_iter().map(|id| id.0).collect())
}

fn summarize(rows: &[Row], queries: usize) -> Replay {
    let col = |f: fn(&Row) -> f64| p50(&rows.iter().map(f).collect::<Vec<f64>>());
    // Counters are deterministic per query: take them from one round.
    let first = &rows[..queries.min(rows.len())];
    let per_query = |f: fn(&SearchStats) -> usize| {
        mean(&first.iter().map(|r| f(&r.stats) as f64).collect::<Vec<_>>())
    };
    let candidates: usize = first.iter().map(|r| r.stats.candidates).sum();
    let results: usize = first.iter().map(|r| r.stats.results).sum();
    let parts: f64 = rows
        .iter()
        .map(|r| r.snapshot_ns + r.scratch_ns + r.filter_ns + r.verify_ns)
        .sum();
    let single: f64 = rows.iter().map(|r| r.singleton_ns).sum();
    // Cost model: π1 is filter time per posting scanned, π2 verify
    // time per candidate, each the least-squares slope over the queries
    // (per-query times are medians over rounds); R² scores
    // π1·postings + π2·candidates against filter + verify time.
    let per_query_median = |query: usize, f: fn(&Row) -> f64| {
        let times: Vec<f64> = rows.iter().filter(|x| x.query == query).map(f).collect();
        median(&times)
    };
    let points: Vec<(f64, f64, f64, f64)> = first
        .iter()
        .map(|r| {
            (
                r.stats.postings_scanned as f64,
                r.stats.candidates as f64,
                per_query_median(r.query, |x| x.filter_ns),
                per_query_median(r.query, |x| x.verify_ns),
            )
        })
        .collect();
    let pi1 = slope_through_origin(&points.iter().map(|p| (p.0, p.2)).collect::<Vec<_>>());
    let pi2 = slope_through_origin(&points.iter().map(|p| (p.1, p.3)).collect::<Vec<_>>());
    let (pi1, pi2) = (pi1.unwrap_or(0.0), pi2.unwrap_or(0.0));
    let modelled: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (pi1 * p.0 + pi2 * p.1, p.2 + p.3))
        .collect();
    Replay {
        snapshot_ns_p50: col(|r| r.snapshot_ns),
        scratch_us_p50: col(|r| r.scratch_ns) / 1e3,
        filter_us_p50: col(|r| r.filter_ns) / 1e3,
        verify_us_p50: col(|r| r.verify_ns) / 1e3,
        lists_per_query: per_query(|s| s.lists_probed),
        postings_per_query: per_query(|s| s.postings_scanned),
        candidates_per_query: per_query(|s| s.candidates),
        answers_per_query: per_query(|s| s.results),
        precision: if candidates == 0 {
            0.0
        } else {
            results as f64 / candidates as f64
        },
        reconcile_ratio: if single > 0.0 { parts / single } else { 0.0 },
        pi1_ns: pi1,
        pi2_ns: pi2,
        r2: r_squared(&modelled).unwrap_or(0.0),
    }
}

impl Replay {
    /// Records the engine-layer, reconciliation and cost-model metrics,
    /// and checks the reconciliation.
    pub fn record(&self, report: &mut Report) {
        report.metric("engine.scratch_us_p50", self.scratch_us_p50, "us");
        report.metric("filters.us_p50", self.filter_us_p50, "us");
        report.metric("filters.lists_per_query", self.lists_per_query, "count");
        report.metric(
            "filters.postings_per_query",
            self.postings_per_query,
            "count",
        );
        report.metric(
            "filters.candidates_per_query",
            self.candidates_per_query,
            "count",
        );
        report.metric("filters.precision", self.precision, "ratio");
        report.metric("verify.us_p50", self.verify_us_p50, "us");
        report.metric("verify.answers_per_query", self.answers_per_query, "count");
        report.metric("trace.reconcile_ratio", self.reconcile_ratio, "ratio");
        report.metric("costmodel.pi1_ns", self.pi1_ns, "ns");
        report.metric("costmodel.pi2_ns", self.pi2_ns, "ns");
        report.metric("costmodel.r2", self.r2, "ratio");
        report.check(self.reconciles());
    }

    /// Checks the reconciliation: the parts must add up to the
    /// singleton time within [`RECONCILE_TOLERANCE`].
    pub fn reconciles(&self) -> Result<(), String> {
        if (self.reconcile_ratio - 1.0).abs() <= RECONCILE_TOLERANCE {
            Ok(())
        } else {
            Err(format!(
                "reconciliation: snapshot + scratch + filter + verify add up to {:.3}× the singleton search_batch time (tolerance ±{RECONCILE_TOLERANCE})",
                self.reconcile_ratio
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_core::store::figure1_store;
    use seal_core::FilterKind;
    use std::sync::Arc;

    #[test]
    fn replay_counts_match_a_direct_search() {
        let (store, q) = figure1_store();
        let live = LiveEngine::new(Arc::new(store), FilterKind::Token);
        let engine = live.engine();
        let direct = engine.search(&q);
        let r = replay(Some(&live), &engine, std::slice::from_ref(&q), 3).expect("answers agree");
        assert_eq!(r.candidates_per_query, direct.stats.candidates as f64);
        assert_eq!(r.answers_per_query, direct.answers.len() as f64);
        assert_eq!(r.postings_per_query, direct.stats.postings_scanned as f64);
        assert!(r.reconcile_ratio > 0.0);
        let bare = replay(None, &engine, std::slice::from_ref(&q), 1).expect("answers agree");
        assert_eq!(bare.snapshot_ns_p50, 0.0);
    }
}
