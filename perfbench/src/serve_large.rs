//! `serve-large`: wire serving over a store larger than cache.
//!
//! A 200k-object Twitter-like `LiveEngine` behind `seal-server`.
//! Queries repeat stored objects at τ 0.5/0.5, so every answer set is
//! non-empty. Five query rounds each run an open loop at a fixed
//! 1,000 qps (about a quarter of capacity on a 2-core host) for
//! `query_p50_us`, then a closed loop on two connections for
//! `query_qps`. After the third and the last round a writer pushes
//! 10-object batches (`push_p50_us`) and one refresh folds them in
//! (`refresh_s`).

use crate::inputs::{object_queries, Corpus};
use crate::load::{completed_rate, Clock};
use crate::oracle::{self, answer_ids};
use crate::replay::record_replay;
use crate::report::Report;
use crate::serving::{self, PushLog, WireRun};
use crate::stats::{mean, median, p50, p99};
use crate::traced::{record_wire_layers, TraceLog, Traced};
use crate::{container_bytes_per_object, note, record_persist, secs, wire, Args, KIND};
use seal_core::{BuildOpts, LiveEngine, SimilarityConfig};
use seal_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

const OBJECTS: usize = 200_000;
const HELD: usize = 2_000;
const QUERIES: usize = 2_000;
const TAU: f64 = 0.5;
const OPEN_RATE: f64 = 1_000.0;
const LANES: usize = 2;
const PUSH_RATE: f64 = 50.0;
/// Query rounds per run; each runs every query phase once.
const ROUNDS: usize = 5;
/// The query rounds a push-then-refresh phase follows.
const WRITE_AFTER: [usize; 2] = [2, ROUNDS - 1];
/// Queries checked against the naive oracle (a full scan each).
const NAIVE_SAMPLE: usize = 100;
/// Queries answered again after the refresh.
const POST_REFRESH: usize = 200;
const REPLAY_QUERIES: usize = 400;
const REPLAY_ROUNDS: usize = 3;
/// Set-up repetitions per run. A 200k-object build takes ~5 s, so
/// three set-ups (not the five the smaller workloads use) keep the run
/// inside its time budget.
const SETUPS: usize = 3;

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let corpus = Corpus::twitter(OBJECTS, HELD, args.seed);
    let queries = object_queries(&corpus.base, QUERIES, args.seed, TAU);
    let targets: Vec<String> = queries.iter().map(wire::query_target).collect();
    let clock = Clock::start();

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut up: Option<(Arc<LiveEngine>, Server)> = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = up.take() {
            server.shutdown();
        }
        let t = Instant::now();
        let live = Arc::new(LiveEngine::with_opts(
            corpus.base_store(),
            KIND,
            SimilarityConfig::default(),
            BuildOpts::with_threads(0),
        ));
        build_s.push(secs(t));
        let server = Server::spawn(live.clone(), ServerConfig::default()).expect("bind server");
        setup_s.push(secs(t));
        up = Some((live, server));
    }
    let (live, server) = up.expect("at least one set-up");
    note(format!("set up {} objects: {setup_s:?} s", live.len()));

    let gen0 = live.engine();
    let expected = answer_ids(gen0.search_batch(&queries, 0));
    if let Some(i) = expected.iter().position(Vec::is_empty) {
        report.error(format!("serve-large: query {i} has no answers"));
    }
    report.check(oracle::check_naive(
        "serve-large",
        gen0.store(),
        &queries,
        &expected,
        NAIVE_SAMPLE,
    ));
    let addr = server.addr().to_string();
    report.check(serving::check_wire(
        "serve-large warm-up",
        &addr,
        &targets[..POST_REFRESH],
        &expected[..POST_REFRESH],
    ));
    println!(
        "answer_digest serve-large seed={} {:016x}",
        args.seed,
        oracle::digest(&expected)
    );
    let answers: Vec<f64> = expected.iter().map(|a| a.len() as f64).collect();
    println!("answers_per_query {:.4}", mean(&answers));

    // The traced run serves the same engine through a second, traced
    // server and alternates between the two.
    let traced = args
        .trace
        .then(|| Arc::new(Traced::new(live.clone(), clock)));
    let traced_server = traced
        .as_ref()
        .map(|t| Server::spawn(t.clone(), ServerConfig::default()).expect("bind server"));
    let traced_addr = traced_server.as_ref().map(|s| s.addr().to_string());
    let drain = || traced.as_ref().map(|t| t.drain()).unwrap_or_default();

    // Query rounds: every round runs each query phase once, so each
    // metric samples the whole window instead of one slice of it. Writes
    // (pushes, then a refresh) follow the third and the last round, so
    // queries never see a staged delta.
    let round = 0.8 * args.seconds / ROUNDS as f64;
    let write_addr = traced_addr.as_deref().unwrap_or(&addr);
    let (mut open, mut traced_open, mut closed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut qps, mut open_log, mut closed_log) =
        (Vec::new(), TraceLog::default(), TraceLog::default());
    let (mut pushes, mut refresh_s, mut write_log) = (Vec::new(), Vec::new(), TraceLog::default());
    let mut current = expected.clone();
    for r in 0..ROUNDS {
        let closed_addr = match &traced_addr {
            None => {
                open.push(serving::open_queries(
                    &clock,
                    &addr,
                    &targets,
                    OPEN_RATE,
                    0.6 * round,
                    LANES,
                ));
                &addr
            }
            Some(t) => {
                open.push(serving::open_queries(
                    &clock,
                    &addr,
                    &targets,
                    OPEN_RATE,
                    0.35 * round,
                    LANES,
                ));
                traced_open.push(serving::open_queries(
                    &clock,
                    t,
                    &targets,
                    OPEN_RATE,
                    0.35 * round,
                    LANES,
                ));
                open_log.append(drain());
                t
            }
        };
        let share = if traced_addr.is_some() { 0.3 } else { 0.4 };
        let (run, start) =
            serving::closed_queries(&clock, closed_addr, &targets, share * round, LANES);
        qps.push(completed_rate(&run.samples, start));
        closed.push(run);
        closed_log.append(drain());
        // Every response of the round against the engine's answers for
        // the generation it was served from.
        let round_runs = [open.last(), traced_open.last(), closed.last()];
        for run in round_runs.into_iter().flatten() {
            report.check(run.check("serve-large query phase", &current));
        }
        if !WRITE_AFTER.contains(&r) {
            continue;
        }
        let first = pushes.iter().map(|p: &PushLog| p.samples.len()).sum();
        let secs = 0.2 * args.seconds / WRITE_AFTER.len() as f64;
        pushes.push(serving::pusher(
            &clock, write_addr, &corpus, first, PUSH_RATE, secs,
        ));
        let (s, ok) = serving::refresh(&clock, write_addr);
        refresh_s.push(s);
        report.count(1, usize::from(!ok));
        write_log.append(drain());
        current = answer_ids(live.search_batch(&queries, 0));
    }
    server.shutdown();
    if let Some(s) = traced_server {
        s.shutdown();
    }
    let pushed_batches: usize = pushes.iter().map(|p| p.samples.len()).sum();
    for p in &pushes {
        let (a, f) = p.counts();
        report.count(a, f);
    }
    let runs: Vec<&WireRun> = open.iter().chain(&traced_open).chain(&closed).collect();
    serving::count(&mut report, &runs);
    let lat: Vec<f64> = open.iter().flat_map(WireRun::latency_us).collect();

    if !args.trace {
        println!("query_p99_us {:.1} (not gated)", p99(&lat));
        report.metric("setup_s", median(&setup_s), "s");
        let round_p50: Vec<f64> = open.iter().map(|r| p50(&r.latency_us())).collect();
        report.metric("query_p50_us", median(&round_p50), "us");
        report.metric("query_qps", median(&qps), "1/s");
        let push_us: Vec<f64> = pushes.iter().flat_map(PushLog::push_us).collect();
        report.metric("push_p50_us", p50(&push_us), "us");
        report.metric("refresh_s", median(&refresh_s), "s");
        report.metric(
            "index_bytes_per_object",
            gen0.index_bytes() as f64 / gen0.store().len() as f64,
            "B",
        );
        match container_bytes_per_object(&gen0) {
            Ok(v) => report.metric("container_bytes_per_object", v, "B"),
            Err(e) => report.error(e),
        }
    } else {
        record_wire_layers(
            &mut report,
            &queries,
            &open,
            &traced_open,
            &open_log,
            &closed_log,
            &write_log,
        );
        let engine = live.engine();
        record_replay(
            &mut report,
            Some(&live),
            &engine,
            &queries[..REPLAY_QUERIES],
            REPLAY_ROUNDS,
        );
        report.metric("sharded.fanout", 1.0, "ratio");
        report.metric("sharded.merge_us_mean", 0.0, "us");
        report.metric("build.s", median(&build_s), "s");
        record_persist(&mut report, &engine, "serve-large");
    }

    // After the refresh the engine must answer like a full scan of the
    // base corpus plus everything pushed.
    let union = corpus.union_store(pushed_batches);
    if live.len() != union.len() || live.staged_len() != 0 {
        report.error(format!(
            "serve-large: {} objects ({} staged) after the refresh, expected {}",
            live.len(),
            live.staged_len(),
            union.len()
        ));
    }
    let post = answer_ids(live.search_batch(&queries[..POST_REFRESH], 0));
    report.check(oracle::check_naive(
        "serve-large after refresh",
        &union,
        &queries[..POST_REFRESH],
        &post,
        NAIVE_SAMPLE / 2,
    ));
    report
}
