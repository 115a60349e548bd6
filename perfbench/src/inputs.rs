//! Seeded input generation and the fingerprints that guard it.
//!
//! The generators themselves live in `fbd-fleet` and `fbd-changelog`,
//! outside this package: every generated input is hashed, and the hashes
//! for the default seed are committed in `golden.rs`, so drift there cannot
//! silently change a workload.

use bytes::Bytes;
use fbd_changelog::{ChangeLog, ChangeTrafficConfig, ChangeTrafficGenerator};
use fbd_fleet::scenarios::{labelled_suite, LabelledSeries, SuiteConfig};
use fbd_fleet::seasonality::SeasonalProfile;
use fbd_fleet::spec::{Event, SeriesSpec};
use fbd_ingest::wire::{encode_batch, SampleBatch};
use fbd_tsdb::{MetricKind, SeriesId, StoreConfig, TimeSeries, TsdbStore, WindowConfig};
use fbdetect_core::{DetectorConfig, Threshold};
use std::collections::BTreeMap;

/// Sample cadence of every generated series, seconds.
pub const CADENCE: u64 = 60;
/// Samples per generated series: one full detection window.
pub const LEN: usize = 900;

/// 64-bit FNV-1a folded over whole words: fast enough to hash millions of
/// samples per run, and order-sensitive.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn values(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer: the harness's only source of per-item randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zero-mean uniform noise with the given standard deviation.
fn uniform_noise(key: u64, std: f64) -> f64 {
    let unit = (mix(key) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    // Uniform on [-a, a] has std a/sqrt(3).
    unit * 2.0 * std * 3.0f64.sqrt()
}

/// Noise level of the production mix; appended points reuse it so clean
/// series stay clean.
pub const MIX_NOISE_STD: f64 = 0.002;

/// The production mix (§5.1 capacity planning): 70 % clean, 25 %
/// transients, 4 % seasonal, 1 % step regressions.
pub fn production_mix(n_series: usize, seed: u64) -> Vec<LabelledSeries> {
    let config = SuiteConfig {
        clean: n_series * 7 / 10,
        regressions: n_series / 100,
        gradual: 0,
        transients: n_series / 4,
        seasonal: n_series / 25,
        len: LEN,
        change_fraction: 0.75,
        relative_magnitude_range: (0.01, 0.2),
        base: 1.0,
        noise_std: MIX_NOISE_STD,
    };
    labelled_suite(&config, seed).expect("the production mix is a valid suite")
}

pub fn suite_fingerprint(suite: &[LabelledSeries]) -> u64 {
    let mut fp = Fingerprint::default();
    for s in suite {
        fp.values(&s.values);
    }
    fp.finish()
}

/// The scaled-down window split for `LEN`-sample series: 2/3 historic, 2/9
/// analysis, 1/9 extended, re-run every 1/9.
pub fn mix_windows() -> WindowConfig {
    let total = LEN as u64 * CADENCE;
    WindowConfig {
        historic: total * 2 / 3,
        analysis: total * 2 / 9,
        extended: total / 9,
        rerun_interval: total / 9,
    }
}

pub fn mix_config() -> DetectorConfig {
    DetectorConfig::new("perfbench", mix_windows(), Threshold::Absolute(0.01))
}

/// Scan time covering a whole freshly loaded suite.
pub const MIX_SCAN_TIME: u64 = LEN as u64 * CADENCE;

/// Loads a suite into a fresh store; ids are `svc/gcpu/s<index>` in suite
/// order.
pub fn load_suite(suite: &[LabelledSeries], config: StoreConfig) -> (TsdbStore, Vec<SeriesId>) {
    let store = TsdbStore::with_config(config);
    let ids = suite
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let id = SeriesId::new("svc", MetricKind::GCpu, format!("s{i:05}"));
            store.insert_series(id.clone(), TimeSeries::from_values(0, CADENCE, &s.values));
            id
        })
        .collect();
    (store, ids)
}

/// The level appended points continue a series at: the median of its
/// trailing 128 samples, robust to a transient overlapping the tail.
pub fn continuation_levels(suite: &[LabelledSeries]) -> Vec<f64> {
    suite
        .iter()
        .map(|s| crate::stats::median(&s.values[s.values.len().saturating_sub(128)..]))
        .collect()
}

/// The value series `i` takes at time `t` once it continues past the suite.
pub fn continuation_value(level: f64, seed: u64, i: usize, t: u64) -> f64 {
    level + uniform_noise(seed ^ t ^ ((i as u64) << 32), MIX_NOISE_STD)
}

// ---------------------------------------------------------------------
// Wire batches for `ingest_under_scan`.
// ---------------------------------------------------------------------

/// Samples per series per wire batch; the batch's time span
/// (`5 × CADENCE = 300 s`) stays inside the validator's 900 s late slack.
pub const WAVE_SAMPLES: usize = 5;
pub const TENANTS: [&str; 4] = ["tenant-a", "tenant-b", "tenant-c", "tenant-d"];
/// How far behind its slot a planted late point is stamped: past the
/// validator's 900 s slack even for the last sample of a wave.
const LATE_BY: u64 = 1_500;
/// One batch in `FAULT_ONE_IN` is truncated; one point in `FAULT_ONE_IN` is
/// late.
const FAULT_ONE_IN: u64 = 100;
const TRUNCATE_SALT: u64 = 0x7472_756e_6361_7465;
const LATE_SALT: u64 = 0x6c61_7465_706f_696e;

/// What the generator planted so far: the exact counts the ingest
/// pipeline's loss buckets must show when nothing else is shed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Planted {
    pub batches: u64,
    pub points: u64,
    /// Batches cut short on the wire: each is one decode error.
    pub truncated_batches: u64,
    /// Points those batches declared.
    pub truncated_points: u64,
    /// Late points in batches that do decode.
    pub late_points: u64,
}

impl Planted {
    /// Points the store must end up holding when nothing else is lost.
    pub fn expected_appended(&self) -> u64 {
        self.points - self.truncated_points - self.late_points
    }
}

/// Deterministic wire-batch source: batch `k` carries `WAVE_SAMPLES`
/// consecutive samples of every series for tenant `k % 4`.
pub struct WireGen<'a> {
    ids: &'a [SeriesId],
    levels: &'a [f64],
    seed: u64,
    next_batch: u64,
    frontier: u64,
    pub planted: Planted,
}

impl<'a> WireGen<'a> {
    pub fn new(ids: &'a [SeriesId], levels: &'a [f64], seed: u64, start: u64) -> Self {
        WireGen {
            ids,
            levels,
            seed,
            next_batch: 0,
            frontier: start,
            planted: Planted::default(),
        }
    }

    pub fn points_per_batch(&self) -> u64 {
        (self.ids.len() * WAVE_SAMPLES) as u64
    }

    fn is_truncated(&self, batch: u64) -> bool {
        mix(self.seed ^ TRUNCATE_SALT ^ batch).is_multiple_of(FAULT_ONE_IN)
    }

    fn is_late(&self, batch: u64, series: usize, sample: usize) -> bool {
        let key = (batch << 24) ^ ((series as u64) << 4) ^ sample as u64;
        mix(self.seed ^ LATE_SALT ^ key).is_multiple_of(FAULT_ONE_IN)
    }

    /// Encodes the next batch and accounts what it plants.
    pub fn next_batch(&mut self) -> Bytes {
        let k = self.next_batch;
        let wave_end = self.frontier + WAVE_SAMPLES as u64 * CADENCE;
        let mut batch = SampleBatch::new(TENANTS[k as usize % TENANTS.len()], wave_end);
        let mut late = 0u64;
        for (i, id) in self.ids.iter().enumerate() {
            for w in 0..WAVE_SAMPLES {
                let slot = self.frontier + w as u64 * CADENCE;
                let value = continuation_value(self.levels[i], self.seed, i, slot);
                let t = if self.is_late(k, i, w) {
                    late += 1;
                    slot - LATE_BY
                } else {
                    slot
                };
                batch.push(id, t, value).expect("a wave fits the wire format");
            }
        }
        let points = batch.point_count() as u64;
        let mut raw = encode_batch(&batch).expect("a wave encodes");
        self.planted.batches += 1;
        self.planted.points += points;
        if self.is_truncated(k) {
            raw = Bytes::copy_from_slice(&raw[..raw.len() - 5]);
            self.planted.truncated_batches += 1;
            self.planted.truncated_points += points;
        } else {
            self.planted.late_points += late;
        }
        self.next_batch += 1;
        self.frontier = wave_end;
        raw
    }
}

/// Hash of the first `batches` wire batches the generator would emit.
pub fn wire_fingerprint(ids: &[SeriesId], levels: &[f64], seed: u64, batches: usize) -> u64 {
    let mut gen = WireGen::new(ids, levels, seed, MIX_SCAN_TIME);
    let mut fp = Fingerprint::default();
    for _ in 0..batches {
        fp.bytes(&gen.next_batch());
    }
    fp.finish()
}

// ---------------------------------------------------------------------
// The `funnel_storm` population.
// ---------------------------------------------------------------------

/// What a funnel series was generated as: the ground truth reports are
/// scored against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunnelKind {
    Transient,
    Noise,
    Seasonal,
    /// Member of regression cluster `n` (callers and the latency metric).
    Cluster(usize),
    CostShift,
    /// A real shift too small to matter.
    Tiny,
    /// Gradual ramp `n`.
    Ramp(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct FunnelSize {
    pub transients: usize,
    pub noise: usize,
    pub seasonal: usize,
    pub clusters: usize,
    pub callers: usize,
    pub shift_pairs: usize,
    pub tiny: usize,
    pub ramps: usize,
    pub background_changes: usize,
}

pub struct FunnelPopulation {
    pub store: TsdbStore,
    pub ids: Vec<SeriesId>,
    pub kinds: BTreeMap<SeriesId, FunnelKind>,
    /// Subroutine → its cost domain (the shift pair it belongs to).
    pub shift_domains: BTreeMap<String, Vec<String>>,
    pub changelog: ChangeLog,
    /// Planted culprit change of each cluster, by cluster number.
    pub culprits: Vec<u64>,
    pub clusters: usize,
    pub ramps: usize,
    /// Hash of every generated series and of the changelog.
    pub fingerprint: u64,
}

pub fn funnel_windows() -> WindowConfig {
    WindowConfig {
        historic: 600 * CADENCE,
        analysis: 200 * CADENCE,
        extended: 100 * CADENCE,
        rerun_interval: 100 * CADENCE,
    }
}

pub fn funnel_config() -> DetectorConfig {
    let mut config = DetectorConfig::new("perfbench funnel", funnel_windows(), Threshold::Absolute(0.1));
    config.long_term_enabled = true;
    config
}

/// The two overlapping scan times of one funnel trial.
pub const FUNNEL_SCAN_TIMES: [u64; 2] = [(LEN as u64 - 100) * CADENCE, LEN as u64 * CADENCE];

const MODULES: [&str; 10] = [
    "render",
    "feed",
    "adserve",
    "authn",
    "cachelayer",
    "dbquery",
    "diskio",
    "network",
    "gcwork",
    "rpcstack",
];

/// Builds the Table 3 shape at the given size: a transient-dominated
/// background, noise, hourly-seasonal series, clustered true regressions
/// (several callers of one subroutine plus a latency metric), cost-shift
/// pairs, sub-threshold shifts and gradual ramps, with a changelog holding
/// background traffic and one planted culprit per cluster.
pub fn funnel_population(size: &FunnelSize, seed: u64, config: StoreConfig) -> FunnelPopulation {
    let store = TsdbStore::with_config(config);
    let mut ids = Vec::new();
    let mut kinds = BTreeMap::new();
    let mut fp = Fingerprint::default();
    let mut k = 0u64;
    let mut put = |name: String, metric: MetricKind, kind: FunnelKind, spec: SeriesSpec| {
        k += 1;
        let values = spec
            .generate(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k))
            .expect("funnel specs are valid");
        fp.values(&values);
        let id = SeriesId::new("FrontFaaS", metric, name);
        store.insert_series(id.clone(), TimeSeries::from_values(0, CADENCE, &values));
        kinds.insert(id.clone(), kind);
        ids.push(id);
    };
    for i in 0..size.transients {
        let spec = SeriesSpec::flat(LEN, 1.0, 0.02).with_event(Event::Transient {
            at: 610 + (i * 7) % 70,
            duration: 15 + (i * 13) % 65,
            delta: if i % 2 == 0 { 0.4 } else { -0.4 } * (1.0 + (i % 5) as f64 * 0.2),
        });
        put(
            format!("transient{i:05}"),
            MetricKind::GCpu,
            FunnelKind::Transient,
            spec,
        );
    }
    for i in 0..size.noise {
        let spec = SeriesSpec::flat(LEN, 1.0, 0.02);
        put(format!("noise{i:05}"), MetricKind::GCpu, FunnelKind::Noise, spec);
    }
    for i in 0..size.seasonal {
        // Hourly cadence spans a 24-sample daily cycle.
        let mut spec = SeriesSpec::flat(LEN, 1.0, 0.01).with_seasonality(SeasonalProfile {
            diurnal_amplitude: 0.10 + (i % 4) as f64 * 0.03,
            weekly_amplitude: 0.0,
            phase: i as u64 * 1_800,
        });
        spec.interval = 3_600;
        put(format!("seasonal{i:05}"), MetricKind::GCpu, FunnelKind::Seasonal, spec);
    }
    // Distinct per-cluster name roots keep unrelated clusters textually
    // dissimilar, as distinct subsystems are in production.
    let mut cluster_plan = Vec::with_capacity(size.clusters);
    for c in 0..size.clusters {
        let at = 660 + (c * 11) % 60;
        let module = MODULES[c % MODULES.len()];
        let mut members = Vec::with_capacity(size.callers + 1);
        for member in 0..size.callers {
            let name = format!("{module}{c:03}::caller{member:02}::{module}_hot");
            let spec = SeriesSpec::flat(LEN, 1.0, 0.02).with_event(Event::Step { at, delta: 0.3 });
            put(name.clone(), MetricKind::GCpu, FunnelKind::Cluster(c), spec);
            members.push(name);
        }
        let name = format!("{module}{c:03}::{module}_hot");
        let spec = SeriesSpec::flat(LEN, 5.0, 0.1).with_event(Event::Step { at, delta: 1.5 });
        put(name.clone(), MetricKind::Latency, FunnelKind::Cluster(c), spec);
        members.push(name);
        cluster_plan.push((at, format!("{module}{c:03}"), members));
    }
    let mut shift_domains = BTreeMap::new();
    for p in 0..size.shift_pairs {
        let at = 650 + (p * 17) % 80;
        let (dest, src) = (format!("shift{p:03}::dest"), format!("shift{p:03}::src"));
        for (name, delta) in [(&dest, 0.25), (&src, -0.25)] {
            let spec = SeriesSpec::flat(LEN, 1.0, 0.01).with_event(Event::Step { at, delta });
            put(name.clone(), MetricKind::GCpu, FunnelKind::CostShift, spec);
            shift_domains.insert(name.clone(), vec![dest.clone(), src.clone()]);
        }
    }
    for i in 0..size.tiny {
        let spec = SeriesSpec::flat(LEN, 1.0, 0.005).with_event(Event::Step {
            at: 660 + (i * 5) % 60,
            delta: 0.02,
        });
        put(format!("tiny{i:05}"), MetricKind::GCpu, FunnelKind::Tiny, spec);
    }
    for i in 0..size.ramps {
        let spec = SeriesSpec::flat(LEN, 1.0, 0.02).with_event(Event::Ramp {
            start: 400,
            end: 800,
            delta: 0.3 + (i % 4) as f64 * 0.1,
        });
        put(format!("drift{i:04}"), MetricKind::GCpu, FunnelKind::Ramp(i), spec);
    }

    // Background change traffic over the whole series span, touching the
    // population's own subroutines, plus one culprit per cluster deployed
    // two samples before its step.
    let span = LEN as u64 * CADENCE;
    let mut changelog = ChangeLog::new();
    let mut traffic = ChangeTrafficGenerator::new(
        ChangeTrafficConfig {
            service: "FrontFaaS".to_string(),
            changes_per_day: size.background_changes as f64 * 86_400.0 / span as f64,
            subroutine_pool: ids.iter().map(|id| id.target.clone()).collect(),
            ..Default::default()
        },
        seed,
    );
    traffic.generate_background(&mut changelog, 0, span);
    let mut culprits = Vec::with_capacity(size.clusters);
    for (at, root, members) in &cluster_plan {
        let touched: Vec<&str> = members.iter().map(String::as_str).collect();
        culprits.push(traffic.plant_culprit(
            &mut changelog,
            (*at as u64 - 2) * CADENCE,
            &touched,
            Some(&format!("Rework {root} hot path")),
        ));
    }
    for change in changelog.all() {
        fp.word(change.id);
        fp.word(change.deploy_time);
        fp.bytes(change.title.as_bytes());
        for s in &change.modified_subroutines {
            fp.bytes(s.as_bytes());
        }
    }
    FunnelPopulation {
        store,
        ids,
        kinds,
        shift_domains,
        changelog,
        culprits,
        clusters: size.clusters,
        ramps: size.ramps,
        fingerprint: fp.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_ingest::pipeline::{IngestConfig, IngestPipeline};
    use fbd_ingest::quota::QuotaConfig;
    use std::sync::Arc;

    #[test]
    fn fingerprints_follow_the_seed_and_the_order() {
        let a = suite_fingerprint(&production_mix(100, 7));
        assert_eq!(a, suite_fingerprint(&production_mix(100, 7)));
        assert_ne!(a, suite_fingerprint(&production_mix(100, 8)));
        let (mut x, mut y) = (Fingerprint::default(), Fingerprint::default());
        x.values(&[1.0, 2.0]);
        y.values(&[2.0, 1.0]);
        assert_ne!(x.finish(), y.finish());
    }

    /// Planted-fault arithmetic: what the generator says it planted is
    /// exactly what a backpressured ingest pipeline counts, and nothing
    /// else is lost.
    #[test]
    fn planted_faults_are_what_the_ingest_pipeline_counts() {
        let suite = production_mix(100, 11);
        let (store, ids) = load_suite(&suite, StoreConfig::compressed());
        let store = Arc::new(store);
        let levels = continuation_levels(&suite);
        let mut gen = WireGen::new(&ids, &levels, 11, MIX_SCAN_TIME);
        let batches: Vec<Bytes> = (0..300).map(|_| gen.next_batch()).collect();
        let planted = gen.planted;
        assert_eq!(planted.batches, 300);
        assert_eq!(planted.points, 300 * gen.points_per_batch());
        assert!(
            planted.truncated_batches > 0 && planted.truncated_batches < 15,
            "{planted:?}"
        );
        assert_eq!(
            planted.truncated_points,
            planted.truncated_batches * gen.points_per_batch()
        );
        // ~1 % of the points in decodable batches.
        let decodable = planted.points - planted.truncated_points;
        assert!(planted.late_points > decodable / 200 && planted.late_points < decodable / 50);

        let config = IngestConfig {
            quota: QuotaConfig {
                burst: u64::MAX / 2,
                points_per_sec: 0,
            },
            ..IngestConfig::default()
        };
        let before = store.stats().points() as u64;
        let pipeline = IngestPipeline::new(Arc::clone(&store), config);
        for raw in batches {
            pipeline.submit(raw).unwrap();
        }
        let stats = pipeline.finish();
        assert!(stats.is_accounted(), "{stats:?}");
        assert_eq!(stats.decode_errors, planted.truncated_batches);
        assert_eq!(stats.decode_error_points, planted.truncated_points);
        assert_eq!(stats.late_shed_points, planted.late_points);
        assert_eq!(stats.points_appended, planted.expected_appended());
        assert_eq!(store.stats().points() as u64 - before, planted.expected_appended());
        assert_eq!(stats.points_shed + stats.quota_shed_points + stats.append_rejected, 0);
    }

    #[test]
    fn funnel_population_has_the_planted_shape() {
        let size = FunnelSize {
            transients: 20,
            noise: 5,
            seasonal: 3,
            clusters: 4,
            callers: 6,
            shift_pairs: 3,
            tiny: 2,
            ramps: 2,
            background_changes: 50,
        };
        let p = funnel_population(&size, 5, StoreConfig::compressed());
        assert_eq!(p.ids.len(), 20 + 5 + 3 + 4 * 7 + 3 * 2 + 2 + 2);
        assert_eq!(p.kinds.len(), p.ids.len());
        assert_eq!(p.culprits.len(), 4);
        assert_eq!(p.changelog.len(), 50 + 4);
        assert_eq!(p.shift_domains.len(), 6);
        let again = funnel_population(&size, 5, StoreConfig::compressed());
        assert_eq!(p.fingerprint, again.fingerprint);
        assert_ne!(
            p.fingerprint,
            funnel_population(&size, 6, StoreConfig::compressed()).fingerprint
        );
    }
}
