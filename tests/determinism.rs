//! Determinism regression tests: the guarantee that the same fleet seed
//! produces byte-identical detection output, run to run and regardless of
//! worker-thread count.
//!
//! The hot-path overhaul advertises bit-identical detection fingerprints;
//! `fbd-lint`'s determinism rules (`hash-order`, `nondet-source`) guard the
//! code paths, and this test pins the end-to-end behavior: two full
//! pipeline runs — fleet simulation, tsdb ingestion, supervised parallel
//! scan, dedup, RCA, report rendering — must serialize to identical bytes.

use fbdetect::changelog::{ChangeLog, ChangeTrafficConfig, ChangeTrafficGenerator};
use fbdetect::core::{report, DetectorConfig, Pipeline, ScanContext, Threshold};
use fbdetect::fleet::server::Fleet;
use fbdetect::fleet::{ServiceSim, ServiceSimConfig};
use fbdetect::profiler::callgraph::{CallGraph, CallGraphBuilder};
use fbdetect::tsdb::{TsdbStore, WindowConfig};

const SEED: u64 = 0xDE7EC7;

fn service_graph() -> CallGraph {
    let mut b = CallGraphBuilder::new("main", 0.01);
    let dispatch = b.add_child(0, "dispatch", 0.01, "Runtime").unwrap();
    b.add_child(dispatch, "Render::page", 0.3, "Render")
        .unwrap();
    b.add_child(dispatch, "Render::body", 0.2, "Render")
        .unwrap();
    b.add_child(dispatch, "Data::fetch", 0.2, "Data").unwrap();
    b.add_child(dispatch, "Data::serialize", 0.1, "Data")
        .unwrap();
    b.add_child(dispatch, "Auth::check", 0.1, "Auth").unwrap();
    b.build().unwrap()
}

/// One full end-to-end build: simulate a fleet with an injected regression
/// from `SEED`, scan it, and serialize everything observable.
fn build_world() -> (TsdbStore, ServiceSim, ChangeLog, CallGraph) {
    let graph = service_graph();
    let fleet = Fleet::two_generations(50).unwrap();
    let config = ServiceSimConfig {
        name: "svc".to_string(),
        tick_interval: 60,
        samples_per_tick: 3_000,
        seed: SEED,
        ..Default::default()
    };
    let mut sim = ServiceSim::new(config, graph.clone(), fleet).unwrap();
    let mut log = ChangeLog::new();
    let mut traffic = ChangeTrafficGenerator::new(
        ChangeTrafficConfig {
            service: "svc".to_string(),
            changes_per_day: 50.0,
            subroutine_pool: graph.names().iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        },
        SEED,
    );
    traffic.generate_background(&mut log, 0, 43_200);
    let frame = graph.frame_by_name("Data::serialize").unwrap();
    let culprit = traffic.plant_culprit(
        &mut log,
        35_900,
        &["Data::serialize"],
        Some("Enable schema validation in serializer"),
    );
    sim.inject_regression(frame, 36_000, 0.05, culprit).unwrap();
    let store = TsdbStore::new();
    sim.run(&store, 0, 43_200).unwrap();
    (store, sim, log, graph)
}

fn detector_config() -> DetectorConfig {
    let windows = WindowConfig {
        historic: 8 * 3_600,
        analysis: 2 * 3_600,
        extended: 3_600,
        rerun_interval: 3_600,
    };
    DetectorConfig::new("determinism", windows, Threshold::Absolute(0.01))
}

/// Scans the world with `threads` workers and serializes the complete
/// observable outcome: rendered reports plus funnel and health telemetry.
fn scan_fingerprint(
    store: &TsdbStore,
    sim: &ServiceSim,
    log: &ChangeLog,
    graph: &CallGraph,
    threads: usize,
) -> String {
    let mut pipeline = Pipeline::new(detector_config()).unwrap();
    pipeline.threads = threads;
    let context = ScanContext {
        changelog: Some(log),
        samples: Some(sim.retained_samples()),
        graph: Some(graph),
        domain_providers: vec![],
    };
    let ids = store.series_ids_for_service("svc");
    let outcome = pipeline.scan(store, &ids, 43_200, &context).unwrap();
    let mut out = report::render_batch(&outcome.reports, Some(log));
    out.push_str(&format!("funnel: {:?}\n", outcome.funnel));
    out.push_str(&format!("health: {:?}\n", outcome.health));
    out
}

/// Runs the same world through several scan rounds with fresh points
/// appended between rounds, mimicking the production cadence: the scan
/// watermark is quantized to `rerun_interval` boundaries, so consecutive
/// rounds at the same watermark see identical windows while ingestion runs
/// ahead of it. Returns the concatenated per-round fingerprint.
///
/// With `streaming` enabled the incremental engine must reuse cached
/// outcomes on unchanged rounds; with it disabled every round is a cold
/// scan. Both must serialize to identical bytes. The third value is the
/// pipeline's reuse telemetry (`went_away_stats`, `cache_stats`), which the
/// engine does change and the worker count must not.
fn multi_round_fingerprint(streaming: bool, threads: usize) -> (String, u64, String) {
    let (store, mut sim, log, graph) = build_world();
    let mut pipeline = Pipeline::new(detector_config()).unwrap();
    pipeline.threads = threads;
    pipeline.set_streaming(streaming);
    let ids = store.series_ids_for_service("svc");
    let mut out = String::new();
    let mut frontier = 43_200;
    for round in 0..6u64 {
        // Two rounds per watermark: the second sees the same windows as the
        // first (appends land at or past `now`), then the watermark jumps.
        let now = 43_200 + (round / 2) * 3_600;
        {
            let context = ScanContext {
                changelog: Some(&log),
                samples: Some(sim.retained_samples()),
                graph: Some(&graph),
                domain_providers: vec![],
            };
            let outcome = pipeline.scan(&store, &ids, now, &context).unwrap();
            out.push_str(&format!("== round {round} now {now}\n"));
            out.push_str(&report::render_batch(&outcome.reports, Some(&log)));
            out.push_str(&format!("funnel: {:?}\n", outcome.funnel));
            out.push_str(&format!("health: {:?}\n", outcome.health));
        }
        // Ingest half a rerun interval of fresh data before the next round.
        sim.run(&store, frontier, frontier + 1_800).unwrap();
        frontier += 1_800;
    }
    let reused = pipeline
        .streaming_stats()
        .map(|s| s.reused_full)
        .unwrap_or(0);
    let telemetry = format!("{:?} {:?}", pipeline.went_away_stats(), pipeline.cache_stats());
    (out, reused, telemetry)
}

#[test]
fn streaming_engine_does_not_change_fingerprint() {
    let (on, reused, _) = multi_round_fingerprint(true, 4);
    let (off, _, _) = multi_round_fingerprint(false, 4);
    assert!(
        reused > 0,
        "streaming run never exercised the reuse path; the comparison is vacuous"
    );
    assert_eq!(
        on.as_bytes(),
        off.as_bytes(),
        "streaming engine changed the fingerprint:\n--- streaming ---\n{on}\n--- cold ---\n{off}"
    );
}

#[test]
fn streaming_engine_is_thread_invariant() {
    // Engine on and off are two modes of one shard-stealing driver; both
    // must be blind to the worker count.
    for streaming in [true, false] {
        let (serial, _, serial_telemetry) = multi_round_fingerprint(streaming, 1);
        let (parallel, reused, parallel_telemetry) = multi_round_fingerprint(streaming, 8);
        assert!(
            !streaming || reused > 0,
            "streaming run never exercised the reuse path"
        );
        assert_eq!(
            serial.as_bytes(),
            parallel.as_bytes(),
            "thread count changed the fingerprint (streaming = {streaming}):\n--- 1 thread ---\n{serial}\n--- 8 threads ---\n{parallel}"
        );
        // The filters run on the workers: what they decided, replayed and
        // shared is a sum over series, whichever worker took each.
        assert_eq!(
            serial_telemetry, parallel_telemetry,
            "thread count changed the reuse telemetry (streaming = {streaming})"
        );
    }
}

#[test]
fn double_run_same_seed_is_byte_identical() {
    let (store_a, sim_a, log_a, graph_a) = build_world();
    let (store_b, sim_b, log_b, graph_b) = build_world();
    let a = scan_fingerprint(&store_a, &sim_a, &log_a, &graph_a, 4);
    let b = scan_fingerprint(&store_b, &sim_b, &log_b, &graph_b, 4);
    assert!(!a.is_empty());
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "same seed produced different serialized reports:\n--- run A ---\n{a}\n--- run B ---\n{b}"
    );
}

#[test]
fn thread_count_does_not_change_fingerprint() {
    let (store, sim, log, graph) = build_world();
    let serial = scan_fingerprint(&store, &sim, &log, &graph, 1);
    let parallel = scan_fingerprint(&store, &sim, &log, &graph, 8);
    assert_eq!(
        serial.as_bytes(),
        parallel.as_bytes(),
        "thread count changed the fingerprint:\n--- 1 thread ---\n{serial}\n--- 8 threads ---\n{parallel}"
    );
}
