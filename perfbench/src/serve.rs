//! The serving workloads, `serve_longtail` and `serve_ingest_mix`, their
//! output checks and the serving tier's layer probes.
//!
//! Both serve the 1M-user `huge` scenario with a seeded TransE model
//! (dim 32). Load comes from this one process on [`WORKERS`] threads.

use crate::trace::{write_trace, Tracer};
use crate::util::{
    good_quartile, median, median_secs, mix64, percentile, sorted, unit, wait_until, zipf_rank,
};
use crate::{catch_expected, Args, Report};
use kgrec_data::synth::generate_streaming;
use kgrec_data::{Interaction, InteractionMatrix, ItemId, KgDataset, ScenarioConfig, UserId};
use kgrec_kge::{KgeModel, TransE};
use kgrec_serve::{
    candidates_for, rank_candidates, serve_score, ServeConfig, ServeScratch, Server, TopKCache,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Load threads: the core count of the reference host.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Embedding dimension of the served model.
const DIM: usize = 32;
/// Requests per round. Every round names one user past the served range,
/// so unknown-user requests are exactly `1 / ROUND` of every run.
const ROUND: usize = 256;
/// Position of the unknown-user request within its round.
const UNKNOWN_AT: usize = ROUND / 2;
/// Offered rate (requests/s over all workers) of the latency phase.
const FIXED_RATE: f64 = 16_000.0;
/// Tail percentile of a request's service time in `serve_longtail`. From
/// the due time, everything beyond about p95 measures the reference
/// host's vCPU stalls (a spinning thread loses the CPU for over 1 ms some
/// 20 times a second), and so does the service time's p99 through
/// 10–100 µs stalls inside a request; p90 still measures the program.
const SERVICE_TAIL_Q: f64 = 0.9;
/// `serve_longtail`'s two timed phases are each cut into this many
/// sub-phases, summarised by [`good_quartile`].
const SUBPHASES: usize = 10;
/// `serve_ingest_mix`'s timed phase is cut into this many sub-phases.
const MIX_SUBPHASES: usize = 10;
/// Sub-phases of a traced run, untraced and traced in turn.
const TRACE_SUBPHASES: usize = 4;
/// Users whose slates are checked after the timed phases.
const CHECK_USERS: usize = 5000;
/// Users of the serving stage probe (traced run).
const PROBE_USERS: usize = 2000;
/// Absolute tolerance of the benchmark's own f64 ranking score.
const SCORE_EPS: f64 = 1e-4;

/// `serve_ingest_mix`: hot users (ids `0..HOT_USERS`), which the cache
/// holds exactly.
const HOT_USERS: usize = 1 << 16;
/// `serve_ingest_mix`: Zipf exponent of the read and write traffic.
const ZIPF_S: f64 = 1.1;
/// `serve_ingest_mix`: replayed read-trace length.
const TRACE_LEN: usize = 1 << 22;
/// `serve_ingest_mix`: one ingest batch is due every this many seconds.
const BATCH_EVERY_S: f64 = 1.0;
/// `serve_ingest_mix`: interactions per ingest batch.
const BATCH_ROWS: usize = 16;
/// `serve_ingest_mix`: every this many reads is timed for the read tail.
const SAMPLE_EVERY: u64 = 16;

/// One set-up: the server plus what the checks need to know about it.
struct Setup {
    server: Server,
    /// An identical copy of the served model (same seed), for the checks
    /// and the stage probe.
    model: TransE,
    /// Planted primary topic of each item.
    item_topics: Vec<usize>,
}

/// Set-up timings of one run, medians over [`SETUPS`].
struct SetupTimes {
    total_s: f64,
    generate_s: f64,
    server_new_s: f64,
}

fn served_model(dataset: &KgDataset, seed: u64) -> TransE {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12);
    TransE::new(&mut rng, dataset.graph.num_entities(), dataset.graph.num_relations(), DIM, 1.0)
}

/// Generates the dataset, builds the model and server, and warms up with
/// `warm`; repeated [`SETUPS`] times, keeping the last.
fn set_up(
    seed: u64,
    config: &ServeConfig,
    tracer: &mut Tracer,
    warm: impl Fn(&Server),
) -> (Setup, SetupTimes) {
    let (mut total, mut generate, mut server_new) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let synth = tracer
            .span("data.generate", i as u64, |_| generate_streaming(&ScenarioConfig::huge(), seed));
        generate.push(t0.elapsed().as_secs_f64());
        let model = served_model(&synth.dataset, seed);
        let served = Box::new(served_model(&synth.dataset, seed));
        let t1 = Instant::now();
        let server = tracer.span("serve.server_new", i as u64, |_| {
            Server::new(synth.dataset, served, config.clone())
        });
        server_new.push(t1.elapsed().as_secs_f64());
        tracer.span("serve.warm_up", i as u64, |_| warm(&server));
        total.push(t0.elapsed().as_secs_f64());
        kept = Some(Setup { server, model, item_topics: synth.item_topics });
    }
    let times = SetupTimes {
        total_s: median(&total),
        generate_s: median(&generate),
        server_new_s: median(&server_new),
    };
    (kept.expect("at least one set-up"), times)
}

/// A slate is valid when it holds exactly `k` distinct items in range.
fn valid_slate(slate: &[ItemId], k: usize, num_items: usize) -> bool {
    slate.len() == k
        && slate.iter().all(|v| v.index() < num_items)
        && slate.iter().enumerate().all(|(i, v)| !slate[..i].contains(v))
}

/// Outcome of one open-loop step.
struct OpenLoop {
    /// Latency from each request's due time (ns), ascending;
    /// `f64::INFINITY` marks a failed request, which misses any limit.
    latency_ns: Vec<f64>,
    /// Time from each request's start until its answer (ns), ascending;
    /// failed requests as above.
    service_ns: Vec<f64>,
    counts: Counts,
    hits: u64,
    /// How late the generator started requests, worst case (ns).
    max_start_lag_ns: f64,
}

impl OpenLoop {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_ns, q)
    }

    fn service_p(&self, q: f64) -> f64 {
        percentile(&self.service_ns, q)
    }
}

/// The user of request `i` of worker `w` in traffic stream `stream`:
/// uniform over the served users, except one request per round that
/// names a user past the served range.
fn longtail_user(stream: u64, w: usize, i: usize, num_users: usize) -> (UserId, bool) {
    let h = mix64(stream ^ ((w as u64) << 56) ^ i as u64);
    if i % ROUND == UNKNOWN_AT {
        (UserId((num_users as u64 + h % 4096) as u32), false)
    } else {
        (UserId((h % num_users as u64) as u32), true)
    }
}

/// Sends `rounds` rounds of requests per worker at `rate` requests/s in
/// total, each worker on its own fixed schedule, and times every request
/// from its due time.
fn open_loop(
    server: &Server,
    rate: f64,
    rounds: usize,
    stream: u64,
    tracer: &mut Tracer,
) -> OpenLoop {
    let n = rounds * ROUND;
    let period_s = WORKERS as f64 / rate;
    let num_users = server.num_users();
    let start = Instant::now() + Duration::from_millis(5);
    let outs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let mut tr = tracer.child(true);
                s.spawn(move || {
                    let mut scratch = server.make_scratch();
                    let mut lat = Vec::with_capacity(n);
                    let mut svc = Vec::with_capacity(n);
                    let (mut c, mut hits, mut lag) = (Counts::default(), 0u64, 0f64);
                    let offset = w as f64 / WORKERS as f64;
                    for i in 0..n {
                        let due = start + Duration::from_secs_f64(period_s * (i as f64 + offset));
                        wait_until(due);
                        lag = lag.max(due.elapsed().as_nanos() as f64);
                        let (user, known) = longtail_user(stream, w, i, num_users);
                        let req = (stream << 40) ^ ((w as u64) << 32) ^ i as u64;
                        let t = Instant::now();
                        let (ok, hit) =
                            serve_request(server, user, known, &mut scratch, &mut tr, req, &mut c);
                        hits += u64::from(hit);
                        let failed = if ok { 0.0 } else { f64::INFINITY };
                        svc.push(t.elapsed().as_nanos() as f64 + failed);
                        lat.push(due.elapsed().as_nanos() as f64 + failed);
                    }
                    (lat, svc, c, hits, lag, tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve worker panicked")).collect()
    });
    let mut out = OpenLoop {
        latency_ns: Vec::with_capacity(n * WORKERS),
        service_ns: Vec::with_capacity(n * WORKERS),
        counts: Counts::default(),
        hits: 0,
        max_start_lag_ns: 0.0,
    };
    for (lat, svc, c, hits, lag, tr) in outs {
        out.latency_ns.extend(lat);
        out.service_ns.extend(svc);
        out.counts.add(&c);
        out.hits += hits;
        out.max_start_lag_ns = out.max_start_lag_ns.max(lag);
        tracer.absorb(tr);
    }
    out.latency_ns = sorted(out.latency_ns);
    out.service_ns = sorted(out.service_ns);
    out
}

/// Serves one request and counts it. A known user's request succeeds with
/// a slate of `k` items; an unknown user's request, which may panic,
/// succeeds only with `k` distinct valid items. Returns `(ok, hit)`.
fn serve_request(
    server: &Server,
    user: UserId,
    known: bool,
    scratch: &mut ServeScratch,
    tr: &mut Tracer,
    req: u64,
    c: &mut Counts,
) -> (bool, bool) {
    let k = server.config().k;
    if known {
        let hit = tr.span("serve.serve", req, |_| server.serve(user, scratch));
        let ok = scratch.top_k().len() == k;
        c.requests += 1;
        c.requests_failed += u64::from(!ok);
        (ok, hit)
    } else {
        let served = tr.span("serve.serve_unknown_user", req, |_| {
            catch_expected(|| server.serve(user, scratch))
        });
        let ok = served.is_some() && valid_slate(scratch.top_k(), k, server.index().num_items());
        c.unknown += 1;
        c.unknown_failed += u64::from(!ok);
        (ok, served == Some(true))
    }
}

/// Whole rounds per worker that last about `seconds` at `rate`.
fn rounds_for(rate: f64, seconds: f64) -> usize {
    ((rate * seconds / WORKERS as f64 / ROUND as f64).round() as usize).max(1)
}

/// Request counters of the timed phases of a run.
#[derive(Debug, Default)]
struct Counts {
    requests: u64,
    requests_failed: u64,
    unknown: u64,
    unknown_failed: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.requests += o.requests;
        self.requests_failed += o.requests_failed;
        self.unknown += o.unknown;
        self.unknown_failed += o.unknown_failed;
    }
}

/// Serves whole rounds back to back on every worker for `seconds`: the
/// completed requests per second of the saturated serving tier.
fn closed_loop(server: &Server, seconds: f64, stream: u64, counts: &mut Counts) -> f64 {
    let num_users = server.num_users();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let outs: Vec<(Counts, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    let mut scratch = server.make_scratch();
                    let mut off = Tracer::new(Instant::now(), false);
                    let mut c = Counts::default();
                    let start = Instant::now();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        for _ in 0..ROUND {
                            let (user, known) = longtail_user(stream, w, i, num_users);
                            serve_request(server, user, known, &mut scratch, &mut off, 0, &mut c);
                            i += 1;
                        }
                    }
                    (c, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve worker panicked")).collect()
    });
    let mut rate = 0.0;
    for (c, secs) in outs {
        rate += (c.requests + c.unknown) as f64 / secs;
        counts.add(&c);
    }
    rate
}

/// Checks that a repeated request of each of `users` hits the cache and
/// that the cached slate equals `compute_fresh`.
fn check_cache(server: &Server, users: &[UserId], report: &mut Report) {
    let (mut a, mut b) = (server.make_scratch(), server.make_scratch());
    for &u in users {
        server.serve(u, &mut a);
        let hit = server.serve(u, &mut a);
        report.check(hit, || format!("{u:?}: repeated request missed the cache"));
        server.compute_fresh(u, &mut b);
        report.check(a.top_k() == b.top_k(), || format!("{u:?}: cached slate != compute_fresh"));
    }
}

/// Serves each of `users` and compares every slate that comes from the
/// cache with `compute_fresh`; returns `(stale, hits)`.
///
/// After an ingest this finds slates the cache should have dropped: a
/// slate also reads other users' rows (co-visitation) and the global
/// popularity order, but `Server::ingest` bumps only the touched users'
/// stamps. How many go stale depends on the seed's batches, so the count
/// is reported, not gated (see the README).
fn audit_cache(server: &Server, users: &[UserId]) -> (usize, usize) {
    let (mut a, mut b) = (server.make_scratch(), server.make_scratch());
    let (mut stale, mut hits) = (0, 0);
    for &u in users {
        if server.serve(u, &mut a) {
            hits += 1;
            server.compute_fresh(u, &mut b);
            stale += usize::from(a.top_k() != b.top_k());
        }
    }
    (stale, hits)
}

/// Checks the served slates of `users` and returns the serving quality:
/// the share of served items whose planted topic is the topic of at least
/// one item in the user's history (users with a history only).
fn check_slates(setup: &Setup, users: &[UserId], report: &mut Report) -> f64 {
    let server = &setup.server;
    let cfg = server.config();
    let (k, max_history) = (cfg.k, cfg.max_history);
    let index = server.index();
    let num_items = index.num_items();
    let interactions = server.interactions();
    let mut a = server.make_scratch();
    let mut profile = vec![0.0f32; DIM];
    let mut own = vec![0.0f64; DIM];
    let (mut topical, mut rated) = (0usize, 0usize);
    let mut own_checked = 0usize;
    for &u in users {
        server.serve(u, &mut a);
        let slate = a.top_k();
        report
            .check(valid_slate(slate, k, num_items), || format!("{u:?}: invalid slate {slate:?}"));
        report.check(slate.iter().all(|&v| !interactions.contains(u, v)), || {
            format!("{u:?}: slate holds a history item")
        });
        let scores: Vec<f32> = slate
            .iter()
            .map(|&v| {
                serve_score(index, &setup.model, &interactions, u, v, &mut profile, max_history)
            })
            .collect();
        report.check(scores.windows(2).all(|w| w[0] >= w[1]), || {
            format!("{u:?}: slate not ordered by serve_score: {scores:?}")
        });
        let hist = interactions.items_of(u);
        if !hist.is_empty() && hist.len() <= max_history {
            // The benchmark's own score: mean history embedding · item
            // embedding, in f64 over the whole history.
            own.fill(0.0);
            for &h in hist {
                for (o, &x) in own.iter_mut().zip(setup.model.entity_embedding(index.entity_of(h)))
                {
                    *o += f64::from(x) / hist.len() as f64;
                }
            }
            let own_scores: Vec<f64> = slate
                .iter()
                .map(|&v| {
                    let e = setup.model.entity_embedding(index.entity_of(v));
                    own.iter().zip(e).map(|(p, &x)| p * f64::from(x)).sum()
                })
                .collect();
            report.check(own_scores.windows(2).all(|w| w[0] + SCORE_EPS >= w[1]), || {
                format!("{u:?}: slate not ordered by mean-embedding score: {own_scores:?}")
            });
            own_checked += 1;
        }
        if !hist.is_empty() {
            let topic_of = |v: &ItemId| setup.item_topics[v.index()];
            topical +=
                slate.iter().filter(|v| hist.iter().any(|h| topic_of(h) == topic_of(v))).count();
            rated += slate.len();
        }
    }
    report.check(own_checked > 0, || "no check user had a short history".to_owned());
    println!("  checks: {} slates ({own_checked} against the benchmark's own score)", users.len());
    topical as f64 / rated.max(1) as f64
}

/// Items most popular first (count descending, id ascending): the stage-1
/// fill order, rebuilt by the benchmark for the stage probe.
fn popularity_order(interactions: &InteractionMatrix) -> Vec<u32> {
    let counts = interactions.item_popularity();
    let mut order: Vec<u32> = (0..counts.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
    order
}

/// Layer probes of the serving tier (traced run): the two pipeline
/// stages and `compute_fresh` on `users`, `vector::dot`, a standalone
/// cache of the server's shape replaying `cache_trace`, and `append` and
/// `item_popularity` on the live matrix with `batch`.
fn serve_probes(
    setup: &Setup,
    users: &[UserId],
    cache_trace: &[u32],
    batch: &[Interaction],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let server = &setup.server;
    let cfg = server.config();
    let index = server.index();
    let interactions = server.interactions();
    let pop = popularity_order(&interactions);
    // Two passes, so neither warms the caches for the other.
    let mut scratch = server.make_scratch();
    let fresh: Vec<Vec<ItemId>> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            tracer.span("serve.compute_fresh", i as u64, |_| server.compute_fresh(u, &mut scratch));
            scratch.top_k().to_vec()
        })
        .collect();
    for (i, (&u, fresh)) in users.iter().zip(&fresh).enumerate() {
        tracer.span("serve.candidates_for", i as u64, |_| {
            candidates_for(index, &interactions, &pop, u, cfg, &mut scratch);
        });
        tracer.span("serve.rank_candidates", i as u64, |_| {
            rank_candidates(index, &setup.model, &interactions, u, cfg, &mut scratch);
        });
        report.check(scratch.top_k() == &fresh[..], || {
            format!("{u:?}: candidates_for + rank_candidates != compute_fresh")
        });
    }
    report.set("serve.compute_fresh_us", tracer.p50_ns("serve.compute_fresh") / 1e3);
    report.set("serve.candidates_us", tracer.p50_ns("serve.candidates_for") / 1e3);
    report.set("serve.rank_us", tracer.p50_ns("serve.rank_candidates") / 1e3);

    let x = setup.model.entity_embedding(index.entity_of(ItemId(0)));
    let y = setup.model.entity_embedding(index.entity_of(ItemId(1)));
    const DOTS: usize = 1 << 21;
    let dot_s = tracer.span("linalg.dot_block", 0, |_| {
        median_secs(3, || {
            let mut acc = 0.0f32;
            for _ in 0..DOTS {
                acc += kgrec_linalg::vector::dot(black_box(x), black_box(y));
            }
            black_box(acc);
        })
    });
    report.set("linalg.dot_ns", dot_s * 1e9 / DOTS as f64);

    // Standalone cache of the server's shape: every request of the trace
    // is inserted once (stamps 0), then looked up once.
    let cache = TopKCache::new(cfg.cache_capacity, cfg.cache_shards, cfg.k);
    let slate: Vec<ItemId> = (0..cfg.k as u32).map(ItemId).collect();
    let t = Instant::now();
    tracer.span("serve.cache_insert_block", 0, |_| {
        for &u in cache_trace {
            cache.insert(UserId(black_box(u)), 0, 0, &slate);
        }
    });
    report.set("serve.cache_insert_ns", t.elapsed().as_nanos() as f64 / cache_trace.len() as f64);
    let mut out = Vec::with_capacity(cfg.k);
    let t = Instant::now();
    let found = tracer.span("serve.cache_lookup_block", 0, |_| {
        cache_trace.iter().filter(|&&u| cache.lookup(UserId(black_box(u)), 0, 0, &mut out)).count()
    });
    report.set("serve.cache_lookup_ns", t.elapsed().as_nanos() as f64 / cache_trace.len() as f64);
    black_box(found);

    let mut append = Vec::new();
    let mut popularity = Vec::new();
    for i in 0..3 {
        let t = Instant::now();
        let grown = tracer.span("data.append", i, |_| interactions.append(batch));
        append.push(t.elapsed().as_secs_f64());
        drop(grown);
        let t = Instant::now();
        black_box(tracer.span("data.item_popularity", i, |_| interactions.item_popularity()));
        popularity.push(t.elapsed().as_secs_f64());
    }
    report.set("data.append_ms", median(&append) * 1e3);
    report.set("data.item_popularity_ms", median(&popularity) * 1e3);
}

/// `serve_longtail`: uniform open-loop traffic over all 1M users.
pub fn longtail(args: &Args) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(Instant::now(), args.trace);
    let num_users = ScenarioConfig::huge().num_users;
    let check_users: Vec<UserId> = (0..CHECK_USERS as u64)
        .map(|i| UserId((mix64(args.seed ^ 0xC4EC_0000 ^ i) % num_users as u64) as u32))
        .collect();
    let warm_stream = mix64(args.seed ^ 0x3A53);
    let (setup, times) = set_up(args.seed, &ServeConfig::default(), &mut tracer, |s| {
        let mut scratch = s.make_scratch();
        for i in 0..4 * ROUND {
            if let (user, true) = longtail_user(warm_stream, 0, i, s.num_users()) {
                s.serve(user, &mut scratch);
            }
        }
    });
    let server = &setup.server;
    let stream = mix64(args.seed ^ 0x10E6_7A11);
    let mut counts = Counts::default();
    let mut off = Tracer::new(Instant::now(), false);
    if args.trace {
        // Untraced and traced sub-phases alternate at the same rate, so a
        // drift of the host's speed moves both; the difference of their
        // median p50s is the tracing overhead.
        let rounds = rounds_for(FIXED_RATE, args.seconds * 0.5 / TRACE_SUBPHASES as f64);
        let (mut plain_p50, mut traced_p50) = (Vec::new(), Vec::new());
        let (mut traced_hits, mut traced_served) = (0, 0);
        for p in 0..TRACE_SUBPHASES as u64 {
            let traced = p % 2 == 1;
            let tr = if traced { &mut tracer } else { &mut off };
            let o = open_loop(server, FIXED_RATE, rounds, mix64(stream + p), tr);
            counts.add(&o.counts);
            if traced {
                traced_p50.push(o.p(0.5));
                traced_hits += o.hits;
                traced_served += o.counts.requests + o.counts.unknown;
            } else {
                plain_p50.push(o.p(0.5));
            }
        }
        report.set("trace.overhead_pct", (median(&traced_p50) / median(&plain_p50) - 1.0) * 100.0);
        report.set("serve.hit_rate", traced_hits as f64 / traced_served as f64);
        report.set("data.generate_s", times.generate_s);
        report.set("serve.server_new_s", times.server_new_s);
        let probe_users: Vec<UserId> = (0..PROBE_USERS)
            .map(|i| longtail_user(stream ^ 2, 0, i, num_users))
            .filter_map(|(u, known)| known.then_some(u))
            .collect();
        let cache_trace: Vec<u32> =
            (0..1usize << 20).map(|i| longtail_user(stream ^ 3, 0, i, num_users).0 .0).collect();
        let batch = mix_batches(args.seed, 1, num_users, server.index().num_items()).remove(0);
        serve_probes(&setup, &probe_users, &cache_trace, &batch, &mut tracer, &mut report);
    } else {
        // Half the time at the fixed rate, half saturated.
        let sub_s = args.seconds * 0.5 / SUBPHASES as f64;
        let (mut p50, mut tail, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        for p in 0..SUBPHASES as u64 {
            let o = open_loop(
                server,
                FIXED_RATE,
                rounds_for(FIXED_RATE, sub_s),
                mix64(stream + p),
                &mut off,
            );
            counts.add(&o.counts);
            let served = o.counts.requests + o.counts.unknown;
            println!(
                "  at {FIXED_RATE:.0} req/s: {served} requests; from due time p50 {:.4} ms, \
                 p90 {:.4} ms, p99 {:.4} ms; service p90 {:.4} ms, p99 {:.4} ms; \
                 generator lag up to {:.3} ms; hit rate {:.4}",
                o.p(0.5) / 1e6,
                o.p(0.9) / 1e6,
                o.p(0.99) / 1e6,
                o.service_p(0.9) / 1e6,
                o.service_p(0.99) / 1e6,
                o.max_start_lag_ns / 1e6,
                o.hits as f64 / served as f64
            );
            p50.push(o.p(0.5));
            tail.push(o.service_p(SERVICE_TAIL_Q));
        }
        for p in 0..SUBPHASES as u64 {
            rates.push(closed_loop(
                server,
                sub_s,
                mix64(stream + SUBPHASES as u64 + p),
                &mut counts,
            ));
        }
        let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        println!("  saturated, {WORKERS} closed-loop workers: {} req/s", shown.join(", "));
        report.set("latency_p50_ms", good_quartile(&p50, true) / 1e6);
        report.set("latency_tail_ms", good_quartile(&tail, true) / 1e6);
        report.set("throughput_per_s", good_quartile(&rates, false));
        report.set("setup_s", times.total_s);
    }
    check_cache(server, &check_users, &mut report);
    let quality = check_slates(&setup, &check_users, &mut report);
    report.set("quality", quality);
    report.ops("requests", counts.requests, counts.requests_failed);
    report.ops("unknown_user_requests", counts.unknown, counts.unknown_failed);
    if args.trace {
        write_trace(args, &tracer);
    }
    report
}

/// A Zipf-skewed user id of `serve_ingest_mix` (rank = user id, so the
/// hot set is `0..HOT_USERS`).
fn zipf_user(h: u64, num_users: usize) -> UserId {
    UserId(zipf_rank(unit(h), num_users, ZIPF_S) as u32)
}

/// What one mix phase measured.
struct MixOut {
    reads: u64,
    hits: u64,
    read_secs: f64,
    sampled_read_ns: Vec<f64>,
    freshness_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    errors: Vec<String>,
}

/// One reader replays `trace` from `cursor` in a closed loop for `seconds` while one
/// writer ingests `batches` on a fixed schedule and, after each, serves
/// the batch's first user: freshness runs from the batch's due time until
/// that slate is served.
fn mix_phase(
    server: &Server,
    trace: &[u32],
    cursor: usize,
    batches: &[Vec<Interaction>],
    seconds: f64,
    tracer: &mut Tracer,
) -> MixOut {
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut reader_tr = tracer.child(true);
    let mut writer_tr = tracer.child(true);
    let (reader, writer) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut scratch = server.make_scratch();
            let (mut reads, mut hits) = (0u64, 0u64);
            let mut sampled = Vec::new();
            wait_until(start);
            'run: loop {
                for _ in 0..64 {
                    let user = UserId(trace[(cursor + reads as usize) % trace.len()]);
                    let hit = if reads % SAMPLE_EVERY == 0 {
                        let t = Instant::now();
                        let hit = reader_tr
                            .span("serve.serve", reads, |_| server.serve(user, &mut scratch));
                        sampled.push(t.elapsed().as_nanos() as f64);
                        hit
                    } else {
                        server.serve(user, &mut scratch)
                    };
                    hits += u64::from(hit);
                    reads += 1;
                }
                if Instant::now() >= deadline {
                    break 'run;
                }
            }
            (reads, hits, start.elapsed().as_secs_f64(), sampled)
        });
        let writer = s.spawn(|| {
            let mut scratch = server.make_scratch();
            let mut check = server.make_scratch();
            let (mut fresh, mut ingest, mut errors) = (Vec::new(), Vec::new(), Vec::new());
            for (b, batch) in batches.iter().enumerate() {
                let due = start + Duration::from_secs_f64((b as f64 + 0.5) * BATCH_EVERY_S);
                wait_until(due);
                let t = Instant::now();
                writer_tr.span("serve.ingest", b as u64, |_| server.ingest(batch));
                ingest.push(t.elapsed().as_secs_f64() * 1e3);
                let (user, item) = (batch[0].user, batch[0].item);
                writer_tr.span("serve.fresh_read", b as u64, |_| server.serve(user, &mut scratch));
                fresh.push(due.elapsed().as_secs_f64() * 1e3);
                if scratch.top_k().contains(&item) {
                    errors.push(format!("batch {b}: {user:?} still served ingested {item:?}"));
                }
                server.compute_fresh(user, &mut check);
                if scratch.top_k() != check.top_k() {
                    errors.push(format!("batch {b}: {user:?} slate after ingest != compute_fresh"));
                }
            }
            (fresh, ingest, errors)
        });
        (reader.join().expect("reader panicked"), writer.join().expect("writer panicked"))
    });
    tracer.absorb(reader_tr);
    tracer.absorb(writer_tr);
    let (reads, hits, read_secs, sampled) = reader;
    let (freshness_ms, ingest_ms, errors) = writer;
    MixOut {
        reads,
        hits,
        read_secs,
        sampled_read_ns: sorted(sampled),
        freshness_ms,
        ingest_ms,
        errors,
    }
}

/// Seeded ingest batches: Zipf-drawn users, uniform items.
fn mix_batches(
    seed: u64,
    count: usize,
    num_users: usize,
    num_items: usize,
) -> Vec<Vec<Interaction>> {
    (0..count as u64)
        .map(|b| {
            (0..BATCH_ROWS as u64)
                .map(|i| {
                    let h = mix64(seed ^ 0xB47C_0000 ^ (b << 20) ^ i);
                    let item = ItemId((mix64(h) % num_items as u64) as u32);
                    Interaction::implicit(zipf_user(h, num_users), item)
                })
                .collect()
        })
        .collect()
}

/// `serve_ingest_mix`: Zipf-skewed closed-loop reads beside scheduled
/// ingest batches, with the cache sized to the hot set.
pub fn ingest_mix(args: &Args) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(Instant::now(), args.trace);
    let scenario = ScenarioConfig::huge();
    let (num_users, num_items) = (scenario.num_users, scenario.num_items);
    let trace: Vec<u32> = (0..TRACE_LEN as u64)
        .map(|i| zipf_user(mix64(args.seed ^ 0x7EAD_0000_0000 ^ i), num_users).0)
        .collect();
    let check_users: Vec<UserId> = (0..CHECK_USERS as u64)
        .map(|i| zipf_user(mix64(args.seed ^ 0xC4EC_0000 ^ i), num_users))
        .collect();
    let config =
        ServeConfig { cache_capacity: HOT_USERS, cache_shards: 64, ..ServeConfig::default() };
    let (setup, times) = set_up(args.seed, &config, &mut tracer, |s| {
        // Fill the cache with the whole hot set, one worker per half.
        std::thread::scope(|sc| {
            for w in 0..WORKERS {
                sc.spawn(move || {
                    let mut scratch = s.make_scratch();
                    for u in (w..HOT_USERS).step_by(WORKERS) {
                        s.serve(UserId(u as u32), &mut scratch);
                    }
                });
            }
        });
    });
    let server = &setup.server;
    // Before the first ingest; after the last, `audit_cache` compares again.
    check_cache(server, &check_users, &mut report);
    let base = server.interactions();
    // The traced run alternates untraced and traced phases.
    let phases = if args.trace { TRACE_SUBPHASES } else { MIX_SUBPHASES };
    let phase_s = args.seconds / phases as f64;
    let per_phase = ((phase_s / BATCH_EVERY_S) as usize).max(1);
    let batches = mix_batches(args.seed, per_phase * phases, num_users, num_items);
    let mut new_pairs = HashSet::new();
    for i in batches.iter().flatten() {
        if !base.contains(i.user, i.item) {
            new_pairs.insert((i.user, i.item));
        }
    }
    let mut off = Tracer::new(Instant::now(), false);
    let mut outs: Vec<MixOut> = Vec::new();
    for p in 0..phases {
        let cursor = outs.iter().map(|o| o.reads as usize).sum();
        let traced = args.trace && p % 2 == 1;
        let tr = if traced { &mut tracer } else { &mut off };
        let batches = &batches[p * per_phase..(p + 1) * per_phase];
        let out = mix_phase(server, &trace, cursor, batches, phase_s, tr);
        for e in &out.errors {
            report.check(false, || e.clone());
        }
        println!(
            "  mix phase {p}{}: {} reads in {:.2} s ({:.0}/s), hit rate {:.4}, read p99 {:.4} ms, \
             {} batches, ingest p50 {:.1} ms, freshness p50 {:.1} ms",
            if traced { " (traced)" } else { "" },
            out.reads,
            out.read_secs,
            out.reads as f64 / out.read_secs,
            out.hits as f64 / out.reads as f64,
            percentile(&out.sampled_read_ns, 0.99) / 1e6,
            out.freshness_ms.len(),
            median(&out.ingest_ms),
            median(&out.freshness_ms),
        );
        outs.push(out);
    }
    let grown = server.interactions().num_interactions();
    report.check(grown == base.num_interactions() + new_pairs.len(), || {
        format!(
            "rows after ingest {grown} != base {} + {} distinct new pairs",
            base.num_interactions(),
            new_pairs.len()
        )
    });
    let mut distinct = check_users.clone();
    distinct.sort_unstable_by_key(|u| u.0);
    distinct.dedup();
    let (stale, cached) = audit_cache(server, &distinct);
    println!(
        "  FAULT: after the last ingest, {stale} of {cached} cache-served slates of the {} \
         distinct check users differ from compute_fresh",
        distinct.len()
    );
    report.set("serve.stale_share", stale as f64 / cached.max(1) as f64);
    let reads: u64 = outs.iter().map(|o| o.reads).sum();
    report.ops("requests", reads, 0);
    report.ops("ingest_batches", batches.len() as u64, 0);
    if args.trace {
        let plain: Vec<&MixOut> = outs.iter().step_by(2).collect();
        let traced: Vec<&MixOut> = outs.iter().skip(1).step_by(2).collect();
        let rate = |o: &&MixOut| o.reads as f64 / o.read_secs;
        let plain_rate = median(&plain.iter().map(rate).collect::<Vec<_>>());
        let traced_rate = median(&traced.iter().map(rate).collect::<Vec<_>>());
        report.set("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0);
        let traced_reads: u64 = traced.iter().map(|o| o.reads).sum();
        let traced_hits: u64 = traced.iter().map(|o| o.hits).sum();
        report.set("serve.hit_rate", traced_hits as f64 / traced_reads as f64);
        let ingest: Vec<f64> = traced.iter().flat_map(|o| o.ingest_ms.iter().copied()).collect();
        report.set("serve.ingest_ms", median(&ingest));
        report.set("data.generate_s", times.generate_s);
        report.set("serve.server_new_s", times.server_new_s);
        let probe_users: Vec<UserId> =
            trace[trace.len() - PROBE_USERS..].iter().map(|&u| UserId(u)).collect();
        serve_probes(
            &setup,
            &probe_users,
            &trace[..1 << 20],
            &batches[0],
            &mut tracer,
            &mut report,
        );
    } else {
        let rates: Vec<f64> = outs.iter().map(|o| o.reads as f64 / o.read_secs).collect();
        let tails: Vec<f64> = outs.iter().map(|o| percentile(&o.sampled_read_ns, 0.99)).collect();
        let fresh: Vec<f64> = outs.iter().flat_map(|o| o.freshness_ms.iter().copied()).collect();
        report.set("setup_s", times.total_s);
        report.set("throughput_per_s", good_quartile(&rates, false));
        report.set("latency_p50_ms", median(&fresh));
        report.set("latency_tail_ms", good_quartile(&tails, true) / 1e6);
    }
    let quality = check_slates(&setup, &check_users, &mut report);
    report.set("quality", quality);
    if args.trace {
        write_trace(args, &tracer);
    }
    report
}
