//! `batch-paper`: in-process filter and verify work, no server.
//!
//! Set-up builds a 50k-object Twitter-like Seal engine, saves it to a
//! `.seal` container and loads it back with two threads; the loaded
//! engine is the one measured. Queries are the paper's SmallRegion and
//! LargeRegion sets (250 each) at τ 0.2. Five rounds each run a closed
//! loop of `search_batch` over the whole set with two workers
//! (`query_qps`), an in-process open loop of single warm-scratch
//! queries (`query_p50_us`), and 10-object `push_all` batches into an
//! in-process `LiveEngine` over the loaded store (`push_p50_us`) ended
//! by a refresh (`refresh_s`).

use crate::inputs::{paper_queries, Corpus, PUSH_BATCH};
use crate::load::{self, Clock, Sample, Schedule};
use crate::oracle::{self, answer_ids};
use crate::replay::record_replay;
use crate::report::Report;
use crate::stats::{mean, median, p50, p99};
use crate::{note, persist, secs, Args, Persisted, KIND, SETUPS};
use seal_core::{
    BuildOpts, LiveEngine, Query, QueryContext, SealEngine, SearchStats, SimilarityConfig,
};
use std::time::Instant;

const OBJECTS: usize = 50_000;
const HELD: usize = 5_000;
const PER_SET: usize = 250;
const TAU: f64 = 0.2;
const WORKERS: usize = 2;
/// About a quarter of one thread's capacity at ~20 µs a query.
const OPEN_RATE: f64 = 10_000.0;
/// `push_all` calls per second, sent in bursts of [`PUSH_BURST`].
const PUSH_RATE: f64 = 250.0;
const PUSH_BURST: usize = 10;
/// Rounds per run; each runs every phase once.
const ROUNDS: usize = 5;
const NAIVE_SAMPLE: usize = 50;
const REPLAY_ROUNDS: usize = 5;
const SNAPSHOTS: usize = 500;

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let corpus = Corpus::twitter(OBJECTS, HELD, args.seed);
    let queries = paper_queries(&corpus.dataset, PER_SET, args.seed, TAU);
    let clock = Clock::start();

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut save_s = Vec::new();
    let mut load_s = Vec::new();
    let mut last: Option<(SealEngine, Persisted)> = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let built = SealEngine::build_with_opts(
            corpus.base_store(),
            KIND,
            SimilarityConfig::default(),
            BuildOpts::with_threads(0),
        );
        build_s.push(secs(t));
        let p = match persist(&built, "batch-paper") {
            Ok(p) => p,
            Err(e) => {
                report.error(e);
                return report;
            }
        };
        setup_s.push(secs(t));
        save_s.push(p.save_s);
        load_s.push(p.load_s);
        last = Some((built, p));
    }
    let (built, persisted) = last.expect("at least one set-up");
    let engine = &persisted.loaded;
    note(format!(
        "set up {} objects: {setup_s:?} s",
        engine.store().len()
    ));

    let expected = answer_ids(built.search_batch(&queries, WORKERS));
    report.check(oracle::check_equal(
        "batch-paper loaded vs built",
        &answer_ids(engine.search_batch(&queries, WORKERS)),
        &expected,
    ));
    report.check(oracle::check_naive(
        "batch-paper",
        engine.store(),
        &queries,
        &expected,
        NAIVE_SAMPLE,
    ));
    drop(built);
    println!(
        "answer_digest batch-paper seed={} {:016x}",
        args.seed,
        oracle::digest(&expected)
    );
    let answers: Vec<f64> = expected.iter().map(|a| a.len() as f64).collect();
    println!("answers_per_query {:.4}", mean(&answers));

    // Writes go to an in-process live engine over the loaded store.
    let live = LiveEngine::with_opts(
        engine.store().clone(),
        KIND,
        SimilarityConfig::default(),
        BuildOpts::with_threads(0),
    );

    // Rounds: each runs the closed loop, the open loop and a write phase
    // that ends in a refresh, so every metric samples the whole window.
    let round = args.seconds / ROUNDS as f64;
    let (mut qps, mut calls_us) = (Vec::new(), Vec::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut push_us, mut staged, mut snapshot_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut refresh_s, mut refresh_build_s) = (Vec::new(), Vec::new());
    let mut pushed_batches = 0;
    for _ in 0..ROUNDS {
        // Closed loop: the whole query set per `search_batch` call.
        let start = clock.now_ns();
        let deadline = start + (0.5 * round * 1e9) as u64;
        let mut results = Vec::new();
        let mut calls = 0;
        while clock.now_ns() < deadline {
            let t = Instant::now();
            results = engine.search_batch(&queries, WORKERS);
            calls_us.push(secs(t) * 1e6);
            calls += 1;
        }
        let elapsed = (clock.now_ns() - start) as f64 / 1e9;
        qps.push((calls * queries.len()) as f64 / elapsed);
        report.count(calls * queries.len(), 0);
        report.check(oracle::check_equal(
            "batch-paper closed loop",
            &answer_ids(results),
            &expected,
        ));

        // Open loop: untraced, or untraced then traced halves.
        if args.trace {
            untraced.push(open_queries(&clock, engine, &queries, 0.15 * round, false));
            traced.push(open_queries(&clock, engine, &queries, 0.15 * round, true));
        } else {
            untraced.push(open_queries(&clock, engine, &queries, 0.3 * round, false));
        }

        // Writes: bursts of back-to-back `push_all` calls at a fixed
        // rate, each call timed, then one refresh. A lone call takes 1–2
        // µs and reads mostly cache misses; in a burst the median call
        // measures the push path itself.
        let ticks = PUSH_RATE / PUSH_BURST as f64;
        let schedule = Schedule::new(clock.now_ns() + 1_000_000, ticks, 0.2 * round);
        for i in 0..schedule.count {
            let first = pushed_batches + i * PUSH_BURST;
            let burst: Vec<_> = (first..first + PUSH_BURST)
                .map(|k| corpus.push_batch(k))
                .collect();
            load::wait_until(&clock, schedule.due_ns(i));
            for batch in burst {
                let t = Instant::now();
                live.push_all(batch);
                push_us.push(secs(t) * 1e6);
            }
            staged.push(live.staged_len() as f64);
        }
        let pushed = schedule.count * PUSH_BURST;
        pushed_batches += pushed;
        if args.trace {
            snapshot_ns.extend((0..SNAPSHOTS).map(|_| {
                let t = Instant::now();
                let snap = live.snapshot();
                let ns = t.elapsed().as_nanos() as f64;
                drop(snap);
                ns
            }));
        }
        let t = Instant::now();
        let refresh = live.refresh();
        refresh_s.push(secs(t));
        refresh_build_s.push(refresh.build_seconds);
        report.count(pushed + 1, 0);
        if refresh.merged != pushed * PUSH_BATCH {
            report.error(format!(
                "batch-paper: refresh merged {} of {} pushed objects",
                refresh.merged,
                pushed * PUSH_BATCH
            ));
        }
    }
    for run in untraced.iter().chain(&traced) {
        report.count(run.samples.len(), 0);
        if let Some((i, got)) = run
            .answers
            .iter()
            .find(|(i, got)| got != &expected[i % expected.len()])
        {
            report.error(format!(
                "batch-paper open loop: query {i} answered {got:?}, expected {:?}",
                expected[i % expected.len()]
            ));
        }
    }
    let union = corpus.union_store(pushed_batches);
    if live.len() != union.len() {
        report.error(format!(
            "batch-paper: {} objects after the refreshes, expected {}",
            live.len(),
            union.len()
        ));
    }
    let post = answer_ids(live.search_batch(&queries, WORKERS));
    report.check(oracle::check_naive(
        "batch-paper after the refreshes",
        &union,
        &queries,
        &post,
        NAIVE_SAMPLE / 2,
    ));

    let lat: Vec<f64> = untraced.iter().flat_map(OpenRun::latency_us).collect();
    let objects = engine.store().len() as f64;
    if !args.trace {
        println!("query_p99_us {:.1} (not gated)", p99(&lat));
        report.metric("setup_s", median(&setup_s), "s");
        let round_p50: Vec<f64> = untraced.iter().map(|r| p50(&r.latency_us())).collect();
        report.metric("query_p50_us", median(&round_p50), "us");
        report.metric("query_qps", median(&qps), "1/s");
        report.metric("push_p50_us", p50(&push_us), "us");
        report.metric("refresh_s", median(&refresh_s), "s");
        report.metric(
            "index_bytes_per_object",
            engine.index_bytes() as f64 / objects,
            "B",
        );
        report.metric(
            "container_bytes_per_object",
            persisted.bytes as f64 / objects,
            "B",
        );
        return report;
    }

    let traced_lat: Vec<f64> = traced.iter().flat_map(OpenRun::latency_us).collect();
    let late: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.samples.iter().map(Sample::late_us))
        .collect();
    let filter_us: Vec<f64> = traced.iter().flat_map(|r| r.filter_us.clone()).collect();
    let verify_us: Vec<f64> = traced.iter().flat_map(|r| r.verify_us.clone()).collect();
    note(format!(
        "traced open loop: filter p50 {:.2} us, verify p50 {:.2} us",
        p50(&filter_us),
        p50(&verify_us)
    ));
    report.metric("client.query_p99_us", p99(&traced_lat), "us");
    report.metric("client.late_p99_us", p99(&late), "us");
    report.metric("server.self_us_p50", 0.0, "us");
    report.metric(
        "batcher.queries_per_dispatch",
        queries.len() as f64,
        "count",
    );
    report.metric("batcher.dispatches", calls_us.len() as f64, "count");
    report.metric("query_engine.search_batch_us_p50", p50(&calls_us), "us");
    record_replay(&mut report, None, engine, &queries, REPLAY_ROUNDS);
    report.metric("live.snapshot_ns_p50", p50(&snapshot_ns), "ns");
    report.metric("live.staged_mean", mean(&staged), "count");
    report.metric("live.push_all_us_p50", p50(&push_us), "us");
    report.metric("live.refresh_build_s", median(&refresh_build_s), "s");
    report.metric("sharded.fanout", 1.0, "ratio");
    report.metric("sharded.merge_us_mean", 0.0, "us");
    report.metric("build.s", median(&build_s), "s");
    report.metric("persist.save_s", median(&save_s), "s");
    report.metric("persist.load_s", median(&load_s), "s");
    report.metric("persist.container_bytes", persisted.bytes as f64, "B");
    let (u, t) = (p50(&lat), p50(&traced_lat));
    report.metric("trace.overhead_frac", (t - u) / u, "ratio");
    report
}

/// One in-process open-loop phase.
struct OpenRun {
    samples: Vec<Sample>,
    /// `(request index, sorted answers)` of every request.
    answers: Vec<(usize, Vec<u32>)>,
    /// Per request, µs in `candidates_into` (traced runs only).
    filter_us: Vec<f64>,
    /// Per request, µs in `verify` (traced runs only).
    verify_us: Vec<f64>,
}

impl OpenRun {
    fn latency_us(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_us).collect()
    }
}

/// Single queries at a fixed rate on one thread, each answered with
/// warm scratch: through `SealEngine::search` (its thread-local
/// context), or — `traced` — through `candidates_into` and `verify`
/// with a lane-owned context and a clock read around each call, the
/// traced counterpart of the same path.
fn open_queries(
    clock: &Clock,
    engine: &SealEngine,
    queries: &[Query],
    seconds: f64,
    traced: bool,
) -> OpenRun {
    struct Lane {
        ctx: QueryContext,
        run: OpenRun,
    }
    let lane = Lane {
        ctx: QueryContext::with_capacity(engine.store().len()),
        run: OpenRun {
            samples: Vec::new(),
            answers: Vec::new(),
            filter_us: Vec::new(),
            verify_us: Vec::new(),
        },
    };
    let schedule = Schedule::new(clock.now_ns() + 1_000_000, OPEN_RATE, seconds);
    let (samples, mut lanes) = load::open_loop(clock, &schedule, vec![lane], |l, i| {
        let q = &queries[i % queries.len()];
        let ids = if traced {
            let mut stats = SearchStats::new();
            let t0 = Instant::now();
            engine.filter().candidates_into(q, &mut l.ctx, &mut stats);
            let t1 = Instant::now();
            let ids = seal_core::verify::verify(
                engine.store(),
                &engine.config(),
                q,
                l.ctx.candidates(),
                &mut stats,
            );
            l.run.filter_us.push((t1 - t0).as_secs_f64() * 1e6);
            l.run.verify_us.push(t1.elapsed().as_secs_f64() * 1e6);
            ids
        } else {
            engine.search(q).answers
        };
        let mut ids: Vec<u32> = ids.into_iter().map(|id| id.0).collect();
        ids.sort_unstable();
        l.run.answers.push((i, ids));
        true
    });
    let mut run = lanes.pop().expect("one lane").run;
    run.samples = samples;
    run
}
