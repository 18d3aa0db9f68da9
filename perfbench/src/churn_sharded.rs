//! `churn-sharded`: writes beside reads across shards.
//!
//! A two-shard `ShardedEngine` over 90% of a 50k-object Twitter-like
//! corpus, behind `seal-server`. One connection sends queries (object-
//! derived, τ 0.5/0.5) in six rounds, each an open loop at a fixed
//! 3,000 qps, then a closed loop, then an open loop at the same rate
//! for as long as a refresh takes. `query_p50_us` is the p50 over
//! every request of the first open loops and `query_qps` the rate
//! over all closed loops together. The other connection pushes
//! 10-object batches from the held-back 10% every 100 ms
//! (`push_p50_us`) throughout, and sends each round's refresh
//! (`refresh_s`), about every 33rd push in a 20 s window. After the
//! window a final refresh folds in the rest, and the sharded answers
//! must equal a fresh single-engine build over the union.

use crate::inputs::{object_queries, Corpus};
use crate::load::{completed, pooled_rate, Clock};
use crate::oracle::{self, answer_ids};
use crate::replay::record_replay;
use crate::report::Report;
use crate::serving::{self, WireRun, WriterControl};
use crate::stats::{mean, median, p50, p99};
use crate::traced::{record_wire_layers, TraceLog, Traced};
use crate::{container_bytes_per_object, note, record_persist, secs, wire, Args, KIND, SETUPS};
use seal_core::{BuildOpts, LiveEngine, QueryEngine, ShardedEngine, SimilarityConfig};
use seal_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

const BASE: usize = 45_000;
const HELD: usize = 5_000;
const QUERIES: usize = 2_000;
const TAU: f64 = 0.5;
const SHARDS: usize = 2;
/// About a fifth of what one connection's closed loop completes: busy
/// enough that an idle request's thread hand-offs between the two
/// vCPUs do not make most of its latency. At 300 qps they made about
/// 60% of it, and over ten runs the p50 moved with the host's
/// scheduling by about three times as much as `query_qps` did.
const OPEN_RATE: f64 = 3_000.0;
const PUSH_RATE: f64 = 10.0;
/// Query rounds per run; each runs every query phase once and holds
/// one refresh.
const ROUNDS: usize = 6;
const NAIVE_SAMPLE: usize = 50;
const WIRE_SAMPLE: usize = 200;
/// Share of each round given to the closed loop.
const CLOSED_SHARE: f64 = 0.4;
const REPLAY_QUERIES: usize = 400;
const REPLAY_ROUNDS: usize = 3;

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let corpus = Corpus::twitter(BASE, HELD, args.seed);
    let queries = object_queries(&corpus.base, QUERIES, args.seed, TAU);
    let targets: Vec<String> = queries.iter().map(wire::query_target).collect();
    let clock = Clock::start();
    let cfg = SimilarityConfig::default();

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut up: Option<(Arc<ShardedEngine>, Server)> = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = up.take() {
            server.shutdown();
        }
        let t = Instant::now();
        let store = corpus.base_store();
        let sharded = Arc::new(ShardedEngine::with_opts(
            &store,
            KIND,
            cfg,
            BuildOpts::with_threads(0),
            SHARDS,
            None,
        ));
        build_s.push(secs(t));
        let server = Server::spawn(sharded.clone(), ServerConfig::default()).expect("bind server");
        setup_s.push(secs(t));
        up = Some((sharded, server));
    }
    let (sharded, server) = up.expect("at least one set-up");
    note(format!(
        "set up {} objects over shards {:?}: {setup_s:?} s",
        sharded.len(),
        sharded.shard_sizes()
    ));
    let index_bytes = sharded.status().index_bytes as f64 / sharded.len() as f64;

    let before = answer_ids(sharded.search_batch(&queries, 0));
    report.check(oracle::check_naive(
        "churn-sharded before churn",
        &corpus.base_store(),
        &queries,
        &before,
        NAIVE_SAMPLE,
    ));
    let addr = server.addr().to_string();
    report.check(serving::check_wire(
        "churn-sharded warm-up",
        &addr,
        &targets[..WIRE_SAMPLE],
        &before[..WIRE_SAMPLE],
    ));

    // The traced run serves the same engine through a second, traced
    // server and alternates queries between the two; the writer then
    // goes through the traced one.
    let traced = args
        .trace
        .then(|| Arc::new(Traced::new(sharded.clone(), clock)));
    let traced_server = traced
        .as_ref()
        .map(|t| Server::spawn(t.clone(), ServerConfig::default()).expect("bind server"));
    let traced_addr = traced_server.as_ref().map(|s| s.addr().to_string());
    let write_addr = traced_addr.as_deref().unwrap_or(&addr);
    let drain = || traced.as_ref().map(|t| t.drain()).unwrap_or_default();

    // The writer pushes on its own connection for as long as the query
    // rounds run. Every round runs each query phase once, open loop
    // first, so each metric samples the whole window. Then the round
    // asks the writer for a refresh, and an open loop at the same rate
    // keeps reading until it is answered: the rebuild, which holds both
    // cores for most of a second, always runs under the same read load,
    // and neither timed phase holds one. Inside the open loop a refresh
    // slowed a third of its requests, and inside the closed loop half
    // its time; the p50 or the rate then moved with how long each
    // refresh took, by more than the host's speed moved the rest.
    // Traced and untraced open loops, which the traced run compares for
    // the tracing overhead, so run alike.
    let round = args.seconds / ROUNDS as f64;
    let control = WriterControl::default();
    let (mut open, mut traced_open, mut closed, mut during) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut qps, mut open_log, mut closed_log, mut write_log) = (
        Vec::new(),
        TraceLog::default(),
        TraceLog::default(),
        TraceLog::default(),
    );
    let pushes = std::thread::scope(|scope| {
        let writer = scope
            .spawn(|| serving::pusher_on_request(&clock, write_addr, &corpus, PUSH_RATE, &control));
        for _ in 0..ROUNDS {
            let open_s = (1.0 - CLOSED_SHARE) * round;
            let closed_addr = match &traced_addr {
                None => {
                    open.push(serving::open_queries(
                        &clock, &addr, &targets, OPEN_RATE, open_s, 1,
                    ));
                    &addr
                }
                Some(t) => {
                    open.push(serving::open_queries(
                        &clock,
                        &addr,
                        &targets,
                        OPEN_RATE,
                        0.4 * open_s,
                        1,
                    ));
                    traced_open.push(serving::open_queries(
                        &clock,
                        t,
                        &targets,
                        OPEN_RATE,
                        0.6 * open_s,
                        1,
                    ));
                    open_log.append(drain());
                    t
                }
            };
            let (run, start) =
                serving::closed_queries(&clock, closed_addr, &targets, CLOSED_SHARE * round, 1);
            qps.push(completed(&run.samples, start));
            closed.push(run);
            closed_log.append(drain());
            control.ask_refresh();
            during.push(serving::open_queries_until(
                &clock,
                &addr,
                &targets,
                OPEN_RATE,
                || control.refreshed(),
            ));
            write_log.append(drain());
        }
        control.stop();
        writer.join().expect("writer thread panicked")
    });
    let (_, final_ok) = serving::refresh(&clock, write_addr);
    report.count(1, usize::from(!final_ok));
    let runs: Vec<&WireRun> = open
        .iter()
        .chain(&traced_open)
        .chain(&closed)
        .chain(&during)
        .collect();
    serving::count(&mut report, &runs);
    let (a, f) = pushes.counts();
    report.count(a, f);
    for run in &runs {
        report.check(run.check_well_formed("churn-sharded"));
    }

    // After the final refresh: equal to a fresh single-engine build over
    // the base corpus plus everything pushed, in push order.
    let union = corpus.union_store(pushes.samples.len());
    let oracle_live = LiveEngine::with_opts(union.clone(), KIND, cfg, BuildOpts::with_threads(0));
    let oracle_engine = oracle_live.engine();
    let want = answer_ids(oracle_engine.search_batch(&queries, 0));
    report.check(oracle::check_equal(
        "churn-sharded after the final refresh vs a fresh single-engine build",
        &answer_ids(sharded.search_batch(&queries, 0)),
        &want,
    ));
    report.check(serving::check_wire(
        "churn-sharded after the final refresh, over the wire",
        write_addr,
        &targets[..WIRE_SAMPLE],
        &want[..WIRE_SAMPLE],
    ));
    report.check(oracle::check_naive(
        "churn-sharded after the final refresh",
        &union,
        &queries,
        &want,
        NAIVE_SAMPLE,
    ));
    println!(
        "answer_digest churn-sharded seed={} {:016x}",
        args.seed,
        oracle::digest(&want)
    );
    let answers: Vec<f64> = want.iter().map(|a| a.len() as f64).collect();
    println!("answers_per_query {:.4}", mean(&answers));
    server.shutdown();
    if let Some(s) = traced_server {
        s.shutdown();
    }

    let lat: Vec<f64> = open.iter().flat_map(WireRun::latency_us).collect();
    if !args.trace {
        println!("query_p99_us {:.1} (not gated)", p99(&lat));
        let refreshing: Vec<f64> = during.iter().flat_map(WireRun::latency_us).collect();
        println!(
            "query_p50_us during refreshes {:.1}, p99 {:.1} (not gated)",
            p50(&refreshing),
            p99(&refreshing)
        );
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("query_p50_us", p50(&lat), "us");
        report.metric("query_qps", pooled_rate(&qps), "1/s");
        report.metric("push_p50_us", p50(&pushes.push_us()), "us");
        report.metric("refresh_s", median(&pushes.refresh_s), "s");
        report.metric("index_bytes_per_object", index_bytes, "B");
        match container_bytes_per_object(&oracle_engine) {
            Ok(v) => report.metric("container_bytes_per_object", v, "B"),
            Err(e) => report.error(e),
        }
        return report;
    }

    record_wire_layers(
        &mut report,
        &queries,
        &open,
        &traced_open,
        &open_log,
        &closed_log,
        &write_log,
    );
    record_replay(
        &mut report,
        Some(&oracle_live),
        &oracle_engine,
        &queries[..REPLAY_QUERIES],
        REPLAY_ROUNDS,
    );
    // Fan-out and merge, read from the sharded engine's own counters.
    let (mut probed, mut merge_us) = (Vec::new(), Vec::new());
    for q in &queries[..REPLAY_QUERIES] {
        let r = QueryEngine::search(sharded.as_ref(), q);
        probed.push(r.stats.shards_probed as f64 / SHARDS as f64);
        merge_us.push(r.stats.merge_time.as_secs_f64() * 1e6);
    }
    report.metric("sharded.fanout", mean(&probed), "ratio");
    report.metric("sharded.merge_us_mean", mean(&merge_us), "us");
    report.metric("build.s", median(&build_s), "s");
    record_persist(&mut report, &oracle_engine, "churn-sharded");
    report
}
