//! The four workloads, one per execution plane. Each generates its feed from
//! the seed, computes purge-free reference digests on demand, and runs timed
//! passes: untraced for the end-to-end figures, traced for the per-layer
//! split.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::safety::check_query;
use cjq_core::scheme::SchemeSet;
use cjq_planner::choose::{choose_plan, Objective};
use cjq_planner::cost::Stats;
use cjq_stream::checkpoint::{list_snapshots, CheckpointStore, InputCursor};
use cjq_stream::element::StreamElement;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence, StateBudget};
use cjq_stream::metrics::Metrics;
use cjq_stream::parallel::{Partitioning, ShardedExecutor};
use cjq_stream::registry::QueryRegistry;
use cjq_stream::source::Feed;
use cjq_stream::tier::TierConfig;
use cjq_workload::auction::{self, AuctionConfig};
use cjq_workload::multi::{self, MultiConfig, MultiTenant};
use cjq_workload::sensor::{self, SensorConfig};
use cjq_workload::skewed::{self, SkewedConfig};
use punctuated_cjq::register::{Register, RegisteredQuery};

use crate::digest::{Digest, DigestSink, SharedDigestSink};
use crate::drive;
use crate::trace::{Kind, Tracer};

/// Per-layer samples by metric name.
pub type Layers = BTreeMap<&'static str, Vec<f64>>;

/// What one pass over a workload's feed measured.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Elements of the feed the pass's rates are taken over.
    pub elements: usize,
    /// Elements pushed in all, when more than `elements` (0 otherwise).
    pub attempted: usize,
    /// First push to the return of `finish` (or of the run call), in ns.
    pub wall_ns: f64,
    /// Tail elements and the ns spent pushing them.
    pub tail: Option<(usize, f64)>,
    /// Untraced push-call durations, in ns.
    pub pushes_ns: Vec<f64>,
    /// `Metrics::peak_join_state`.
    pub peak_state_rows: f64,
    /// Failed `try_*` calls.
    pub failed: u64,
    /// Output digests by label, checked against the references.
    pub digests: Vec<(&'static str, Digest)>,
    /// Duration of `try_resume`, in ns.
    pub recovery_ns: Option<f64>,
    /// Final metrics of the pass.
    pub metrics: Metrics,
    /// Workload-specific per-layer figures.
    pub extra: Vec<(&'static str, f64)>,
}

/// One workload on one plane.
pub trait Workload {
    /// Element count of each feed the workload pushes, for the stamp.
    fn feeds(&self) -> Vec<(&'static str, usize)>;
    /// Purge-free reference digests, by the labels [`PassOut::digests`] uses.
    fn references(&self) -> Vec<(&'static str, Digest)>;
    /// One set-up, in seconds.
    fn setup_s(&self) -> f64;
    /// One pass; traced when a tracer is given.
    fn pass(&mut self, trace: Option<&mut Tracer>) -> PassOut;
    /// The untraced counterpart of the traced pass, for `trace.overhead`.
    fn baseline_pass(&mut self) -> PassOut {
        self.pass(None)
    }
    /// Set-up layer timings (traced runs only).
    fn setup_layers(&self, l: &mut Layers);
}

/// Builds the named workload from `seed`; `run_dir` is a fresh directory
/// the workload may write to.
pub fn build(name: &str, seed: u64, run_dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "auction" => Box::new(Auction::new(seed)),
        "sensor-p2" => Box::new(Sensor::new(seed)),
        "registry-16" => Box::new(Registry16::new(seed)),
        "skewed-tiered" => Box::new(SkewedTiered::new(seed, run_dir)),
        _ => return None,
    })
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["auction", "sensor-p2", "registry-16", "skewed-tiered"];

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Timing samples (µs) of `f`, repeated for about 0.1 s (5 to 200 times).
fn time_us(mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 5 || (out.len() < 200 && start.elapsed().as_secs_f64() < 0.1) {
        let t = Instant::now();
        f();
        out.push(ns_since(t) / 1e3);
    }
    out
}

/// The register's plan-choice inputs, for timing `choose_plan` alone.
fn choose_plan_us(query: &Cjq, schemes: &SchemeSet) -> Vec<f64> {
    time_us(|| {
        let stats = Stats::uniform(query.n_streams(), 1.0, 10.0, 0.1, 0.3);
        black_box(choose_plan(
            query,
            schemes,
            stats,
            Objective::MinDataMemory,
            200,
        ));
    })
}

fn check_query_us(query: &Cjq, schemes: &SchemeSet) -> Vec<f64> {
    time_us(|| {
        black_box(check_query(query, schemes));
    })
}

/// The full join of `feed`, computed without purging: a sequential
/// executor with `PurgeCadence::Never` keeps every row, so its output does
/// not depend on the purge engine.
fn reference(query: &Cjq, schemes: &SchemeSet, plan: &Plan, feed: &Feed) -> Digest {
    let cfg = ExecConfig {
        cadence: PurgeCadence::Never,
        record_outputs: false,
        ..ExecConfig::default()
    };
    let mut sink = DigestSink::default();
    Executor::compile(query, schemes, plan, cfg)
        .expect("reference plan compiles")
        .run_with_sink(feed, &mut sink);
    sink.0
}

fn register(query: &Cjq, schemes: &SchemeSet) -> RegisteredQuery {
    Register::new(schemes.clone())
        .register(query.clone())
        .unwrap_or_else(|r| panic!("workload query must be safe: {}", r.reason))
}

/// Drives a registered query's sequential executor with micro-batches into
/// a digest sink.
fn executor_pass(
    reg: &RegisteredQuery,
    cfg: ExecConfig,
    feed: &Feed,
    label: &'static str,
    trace: Option<&mut Tracer>,
) -> PassOut {
    let mut exec = reg.executor(cfg).expect("registered plan compiles");
    let mut sink = DigestSink::default();
    let mut trace = trace.map(|tr| {
        let p = tr.begin("pass", None);
        (tr, p)
    });
    let t0 = Instant::now();
    let d = drive::batches(
        feed.elements(),
        cfg.batch_size,
        trace.as_mut().map(|(tr, p)| (&mut **tr, *p)),
        |b| exec.try_push_batch(b, &mut sink),
    );
    let mut out = PassOut {
        elements: feed.len(),
        pushes_ns: d.pushes_ns,
        tail: Some((d.tail_elems, d.tail_ns)),
        ..PassOut::default()
    };
    if d.error.is_some() {
        out.failed = 1;
        return out;
    }
    let f0 = Instant::now();
    let res = exec.finish();
    out.wall_ns = ns_since(t0);
    if let Some((tr, p)) = trace {
        tr.record("exec.finish", Some(p), Kind::Call, 0, 0, f0, Instant::now());
        tr.end(p);
    }
    out.peak_state_rows = res.metrics.peak_join_state as f64;
    out.digests.push((label, sink.0));
    out.metrics = res.metrics;
    out
}

// ---------------------------------------------------------------- auction

/// The paper's running example through `Register` → sequential `Executor`.
pub struct Auction {
    query: Cjq,
    schemes: SchemeSet,
    reg: RegisteredQuery,
    feed: Feed,
    cfg: ExecConfig,
}

impl Auction {
    /// Auctions in the feed; 7 elements each (item, 4 bids, 2 closes).
    const ITEMS: usize = 8_000;

    fn new(seed: u64) -> Self {
        let (query, schemes) = auction::auction_query();
        let feed = auction::generate(&AuctionConfig {
            n_items: Self::ITEMS,
            bids_per_item: 4,
            concurrent: 96,
            item_punctuations: true,
            bid_punctuations: true,
            seed,
        });
        let reg = register(&query, &schemes);
        Auction {
            query,
            schemes,
            reg,
            feed,
            cfg: ExecConfig {
                record_outputs: false,
                ..ExecConfig::default()
            },
        }
    }
}

impl Workload for Auction {
    fn feeds(&self) -> Vec<(&'static str, usize)> {
        vec![("auction", self.feed.len())]
    }

    fn references(&self) -> Vec<(&'static str, Digest)> {
        vec![(
            "auction",
            reference(&self.query, &self.schemes, self.reg.plan(), &self.feed),
        )]
    }

    fn setup_s(&self) -> f64 {
        let t = Instant::now();
        let reg = register(&self.query, &self.schemes);
        black_box(reg.executor(self.cfg).expect("registered plan compiles"));
        ns_since(t) / 1e9
    }

    fn pass(&mut self, trace: Option<&mut Tracer>) -> PassOut {
        executor_pass(&self.reg, self.cfg, &self.feed, "auction", trace)
    }

    fn setup_layers(&self, l: &mut Layers) {
        l.insert(
            "core.check_query_us",
            check_query_us(&self.query, &self.schemes),
        );
        l.insert(
            "planner.choose_plan_us",
            choose_plan_us(&self.query, &self.schemes),
        );
        l.insert(
            "exec.compile_us",
            time_us(|| {
                black_box(
                    self.reg
                        .executor(self.cfg)
                        .expect("registered plan compiles"),
                );
            }),
        );
    }
}

// ---------------------------------------------------------------- sensor

/// A 3-way sensor join on `ShardedExecutor` with one shard per core.
pub struct Sensor {
    query: Cjq,
    schemes: SchemeSet,
    reg: RegisteredQuery,
    feed: Feed,
    /// The first three quarters of `feed`: the tail rate is the last
    /// quarter's elements over the run-time difference between the two.
    prefix: Feed,
    shards: usize,
    cfg: ExecConfig,
}

impl Sensor {
    /// Epochs of 64 sensors; about 480 elements each.
    const EPOCHS: usize = 100;

    fn new(seed: u64) -> Self {
        let (query, schemes) = sensor::sensor_query();
        let (feed, _) = sensor::generate(&SensorConfig {
            n_sensors: 64,
            epochs: Self::EPOCHS,
            readings_per_epoch: 3,
            seed,
            ..SensorConfig::default()
        });
        let n = feed.len();
        let prefix = Feed::from_elements(feed.elements()[..n - n / 4].to_vec());
        let reg = register(&query, &schemes);
        let cfg = ExecConfig {
            record_outputs: false,
            wcoj: reg.physical().is_wcoj(),
            ..ExecConfig::default()
        };
        Sensor {
            query,
            schemes,
            reg,
            feed,
            prefix,
            shards: std::thread::available_parallelism().map_or(1, usize::from),
            cfg,
        }
    }

    fn compile(&self, shards: usize) -> ShardedExecutor {
        ShardedExecutor::compile(
            &self.query,
            &self.schemes,
            self.reg.plan(),
            self.cfg,
            shards,
        )
        .expect("registered plan compiles")
    }

    /// One `run_with_sinks` over `feed` at `shards`: (ns, digest, metrics).
    fn run(&self, feed: &Feed, shards: usize) -> Result<(f64, Digest, Metrics), ()> {
        let sx = self.compile(shards);
        let t = Instant::now();
        let r = sx.try_run_with_sinks(feed, |_| DigestSink::default());
        let ns = ns_since(t);
        let (res, sinks) = r.map_err(|_| ())?;
        let d = sinks
            .iter()
            .fold(Digest::default(), |acc, s| acc.merge(s.0));
        Ok((ns, d, res.metrics))
    }
}

impl Workload for Sensor {
    fn feeds(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("sensor", self.feed.len()),
            ("sensor.prefix", self.prefix.len()),
        ]
    }

    fn references(&self) -> Vec<(&'static str, Digest)> {
        let plan = self.reg.plan();
        vec![
            (
                "sensor",
                reference(&self.query, &self.schemes, plan, &self.feed),
            ),
            (
                "sensor.prefix",
                reference(&self.query, &self.schemes, plan, &self.prefix),
            ),
        ]
    }

    fn setup_s(&self) -> f64 {
        let t = Instant::now();
        let reg = register(&self.query, &self.schemes);
        black_box(
            ShardedExecutor::compile(
                &self.query,
                &self.schemes,
                reg.plan(),
                self.cfg,
                self.shards,
            )
            .expect("registered plan compiles"),
        );
        ns_since(t) / 1e9
    }

    fn pass(&mut self, trace: Option<&mut Tracer>) -> PassOut {
        let Some(tr) = trace else {
            let mut out = PassOut {
                elements: self.feed.len(),
                attempted: self.feed.len() + self.prefix.len(),
                ..PassOut::default()
            };
            match (
                self.run(&self.feed, self.shards),
                self.run(&self.prefix, self.shards),
            ) {
                (Ok((full, d, m)), Ok((prefix, dp, _))) => {
                    out.wall_ns = full;
                    let tail = self.feed.len() - self.prefix.len();
                    out.tail = Some((tail, (full - prefix).max(1.0)));
                    out.digests = vec![("sensor", d), ("sensor.prefix", dp)];
                    out.peak_state_rows = m.peak_join_state as f64;
                    out.metrics = m;
                }
                _ => out.failed = 1,
            }
            return out;
        };

        // Routing, measured apart from the shards.
        let part = Partitioning::for_query(&self.query, self.shards);
        let mut per_shard = vec![0usize; self.shards];
        let mut broadcast = 0usize;
        let t = Instant::now();
        for e in self.feed.elements() {
            match black_box(part.route(black_box(e))) {
                Some(s) => per_shard[s] += 1,
                None => broadcast += 1,
            }
        }
        let route_ns = ns_since(t);
        tr.record(
            "parallel.route",
            None,
            Kind::Call,
            0,
            self.feed.len(),
            t,
            Instant::now(),
        );
        let n = self.feed.len() as f64;
        let loads: Vec<f64> = per_shard.iter().map(|&c| (c + broadcast) as f64).collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        let skew = loads.iter().copied().fold(0.0, f64::max) / mean;

        // The job at P and at P = 1, through the same public call.
        let mut extra = vec![
            ("parallel.route_ns", route_ns / n),
            ("parallel.broadcast_share", broadcast as f64 / n),
            ("parallel.shard_skew", skew),
        ];
        let mut digests = Vec::new();
        let mut failed = 0;
        let mut timed = |name, shards| {
            let t = Instant::now();
            let r = self.run(&self.feed, shards);
            tr.record(
                name,
                None,
                Kind::Call,
                0,
                self.feed.len(),
                t,
                Instant::now(),
            );
            match r {
                Ok((ns, d, _)) => {
                    digests.push(("sensor", d));
                    ns
                }
                Err(()) => {
                    failed += 1;
                    f64::NAN
                }
            }
        };
        let at_p = timed("parallel.run_p", self.shards);
        let at_1 = timed("parallel.run_p1", 1);
        if failed == 0 {
            extra.push(("parallel.speedup_p1", at_1 / at_p));
        }

        // Join and purge layers: the same plan on one sequential executor.
        let mut out = executor_pass(&self.reg, self.cfg, &self.feed, "sensor", Some(tr));
        out.failed += failed;
        out.digests.extend(digests);
        out.extra = extra;
        out
    }

    fn baseline_pass(&mut self) -> PassOut {
        executor_pass(&self.reg, self.cfg, &self.feed, "sensor", None)
    }

    fn setup_layers(&self, l: &mut Layers) {
        l.insert(
            "core.check_query_us",
            check_query_us(&self.query, &self.schemes),
        );
        l.insert(
            "planner.choose_plan_us",
            choose_plan_us(&self.query, &self.schemes),
        );
        l.insert(
            "exec.compile_us",
            time_us(|| {
                black_box(self.compile(self.shards));
            }),
        );
    }
}

// ---------------------------------------------------------------- registry

/// Sixteen overlapping tenants sharing one `QueryRegistry`.
pub struct Registry16 {
    tenants: MultiTenant,
    feed: Feed,
    expected_rows: u64,
    cfg: ExecConfig,
}

impl Registry16 {
    /// Key rounds; 12 elements each (4 tuples, 8 closing punctuations).
    const ROUNDS: usize = 1_600;

    fn new(seed: u64) -> Self {
        // The tenant mix comes from the generator's default seed: which
        // predicates the derived tenants vary decides how much they share,
        // and moves the cost by more than run-to-run noise. The run's seed
        // picks the order in which the tenants are admitted.
        let mc = MultiConfig {
            streams: 4,
            queries: 16,
            overlap: 0.5,
            rounds: Self::ROUNDS,
            lag: 2,
            tuples_per_round: 1,
            ..MultiConfig::default()
        };
        let mut tenants = multi::generate_queries(&mc);
        shuffle(&mut tenants.queries, seed);
        Registry16 {
            tenants,
            feed: multi::generate_feed(&mc),
            expected_rows: multi::expected_outputs_per_query(&mc),
            cfg: ExecConfig {
                record_outputs: false,
                ..ExecConfig::default()
            },
        }
    }

    /// A registry with every tenant admitted, each with its own digest sink.
    fn admit_all(&self) -> (QueryRegistry, Vec<SharedDigestSink>) {
        let mut reg = QueryRegistry::new(self.tenants.schemes.clone(), self.cfg);
        let sinks: Vec<SharedDigestSink> = self
            .tenants
            .queries
            .iter()
            .map(|_| SharedDigestSink::default())
            .collect();
        for ((q, p), s) in self.tenants.queries.iter().zip(&sinks) {
            reg.try_admit(q, p, Some(Box::new(s.clone())))
                .unwrap_or_else(|r| panic!("tenant must be admitted: {}", r.reason));
        }
        (reg, sinks)
    }
}

/// Seeded Fisher-Yates shuffle (splitmix64 steps).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Labels for the sixteen tenants' digests.
const TENANTS: [&str; 16] = [
    "tenant00", "tenant01", "tenant02", "tenant03", "tenant04", "tenant05", "tenant06", "tenant07",
    "tenant08", "tenant09", "tenant10", "tenant11", "tenant12", "tenant13", "tenant14", "tenant15",
];

impl Workload for Registry16 {
    fn feeds(&self) -> Vec<(&'static str, usize)> {
        vec![("registry", self.feed.len())]
    }

    fn references(&self) -> Vec<(&'static str, Digest)> {
        let s = &self.tenants.schemes;
        self.tenants
            .queries
            .iter()
            .zip(TENANTS)
            .map(|((q, p), label)| {
                let d = reference(q, s, p, &self.feed);
                // The generator's count is a second, independent check.
                assert_eq!(d.rows, self.expected_rows, "{label}: reference row count");
                (label, d)
            })
            .collect()
    }

    fn setup_s(&self) -> f64 {
        let t = Instant::now();
        let admitted = self.admit_all();
        let s = ns_since(t) / 1e9;
        drop(admitted);
        s
    }

    fn pass(&mut self, trace: Option<&mut Tracer>) -> PassOut {
        let (mut reg, sinks) = self.admit_all();
        let mut trace = trace.map(|tr| {
            let p = tr.begin("pass", None);
            (tr, p)
        });
        let t0 = Instant::now();
        let d = drive::batches(
            self.feed.elements(),
            self.cfg.batch_size,
            trace.as_mut().map(|(tr, p)| (&mut **tr, *p)),
            |b| reg.try_push_batch(b),
        );
        let mut out = PassOut {
            elements: self.feed.len(),
            pushes_ns: d.pushes_ns,
            tail: Some((d.tail_elems, d.tail_ns)),
            ..PassOut::default()
        };
        if d.error.is_some() {
            out.failed = 1;
            return out;
        }
        out.extra = vec![
            ("registry.shared_nodes", reg.live_nodes() as f64),
            ("registry.subscriptions", reg.subscribed_nodes() as f64),
        ];
        let f0 = Instant::now();
        let res = reg.finish();
        out.wall_ns = ns_since(t0);
        if let Some((tr, p)) = trace {
            tr.record("exec.finish", Some(p), Kind::Call, 0, 0, f0, Instant::now());
            tr.end(p);
        }
        out.peak_state_rows = res.metrics.peak_join_state as f64;
        out.digests = sinks
            .iter()
            .zip(TENANTS)
            .map(|(s, l)| (l, s.get()))
            .collect();
        out.metrics = res.metrics;
        out
    }

    fn setup_layers(&self, l: &mut Layers) {
        let s = &self.tenants.schemes;
        let qs = &self.tenants.queries;
        let each = |f: &dyn Fn(&Cjq, &Plan) -> Vec<f64>| -> Vec<f64> {
            qs.iter()
                .map(|(q, p)| crate::stats::median(&f(q, p)))
                .collect()
        };
        l.insert("core.check_query_us", each(&|q, _| check_query_us(q, s)));
        l.insert("planner.choose_plan_us", each(&|q, _| choose_plan_us(q, s)));
        l.insert(
            "exec.compile_us",
            each(&|q, p| {
                time_us(|| {
                    black_box(Executor::compile(q, s, p, self.cfg).expect("tenant plan compiles"));
                })
            }),
        );
        let mut admits = Vec::new();
        for _ in 0..20 {
            let mut reg = QueryRegistry::new(s.clone(), self.cfg);
            for (q, p) in qs {
                let t = Instant::now();
                let r = reg.try_admit(q, p, Some(Box::new(SharedDigestSink::default())));
                admits.push(ns_since(t) / 1e3);
                r.unwrap_or_else(|r| panic!("tenant must be admitted: {}", r.reason));
            }
        }
        l.insert(
            "registry.admit_us_max",
            vec![admits.iter().copied().fold(0.0, f64::max)],
        );
        l.insert("registry.admit_us", admits);
    }
}

// ---------------------------------------------------------------- skewed

/// Fig. 5's triangle on a sequential `Executor` under a 512-row budget with
/// the cold tier, checkpointed, then killed and resumed.
pub struct SkewedTiered {
    query: Cjq,
    schemes: SchemeSet,
    plan: Plan,
    feed: Feed,
    expected_rows: u64,
    cfg: ExecConfig,
    run_dir: PathBuf,
    dirs: usize,
}

impl SkewedTiered {
    /// Events on the first stream; each yields exactly one result.
    const EVENTS: usize = 8_000;
    /// Elements between checkpoint commits.
    const EVERY: u64 = 4_096;

    fn new(seed: u64, run_dir: &Path) -> Self {
        let (query, schemes) = cjq_core::fixtures::fig5();
        let sc = SkewedConfig {
            events: Self::EVENTS,
            hot_keys: 32,
            cold_keys: Self::EVENTS / 5,
            cold_window: 512,
            hot_pct: 80,
            punct_lag: 2_000,
            punctuate: true,
            seed,
        };
        let feed = skewed::generate(&query, &schemes, &sc);
        SkewedTiered {
            plan: Plan::mjoin_all(&query),
            query,
            schemes,
            feed,
            expected_rows: skewed::expected_outputs(&sc),
            cfg: ExecConfig {
                state_budget: Some(StateBudget::hard(512)),
                tiering: Some(TierConfig::default()),
                record_outputs: true,
                ..ExecConfig::default()
            },
            run_dir: run_dir.to_path_buf(),
            dirs: 0,
        }
    }

    /// A checkpoint directory no earlier pass used. Creating it fails if it
    /// exists, so a pass never reads another pass's snapshots.
    fn fresh_dir(&mut self) -> PathBuf {
        self.dirs += 1;
        let dir = self.run_dir.join(format!("ckpt-{}", self.dirs));
        std::fs::create_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot create checkpoint dir {}: {e}", dir.display()));
        dir
    }

    fn compile(&self) -> Executor {
        Executor::compile(&self.query, &self.schemes, &self.plan, self.cfg)
            .expect("fig5 flat plan compiles")
    }
}

impl Workload for SkewedTiered {
    fn feeds(&self) -> Vec<(&'static str, usize)> {
        vec![("skewed", self.feed.len())]
    }

    fn references(&self) -> Vec<(&'static str, Digest)> {
        let d = reference(&self.query, &self.schemes, &self.plan, &self.feed);
        assert_eq!(d.rows, self.expected_rows, "skewed: reference row count");
        vec![("skewed", d), ("skewed.resumed", d)]
    }

    fn setup_s(&self) -> f64 {
        // The store opens an existing empty directory: creating directories
        // is the benchmark's own disk isolation, and its cost swings with
        // whatever the filesystem journal is flushing.
        let dir = self.run_dir.join("setup");
        std::fs::create_dir_all(&dir).expect("create set-up checkpoint dir");
        let t = Instant::now();
        let exec = self.compile();
        let store = CheckpointStore::open(&dir, Self::EVERY).expect("open checkpoint store");
        let s = ns_since(t) / 1e9;
        drop((exec, store));
        s
    }

    fn pass(&mut self, mut trace: Option<&mut Tracer>) -> PassOut {
        let dir = self.fresh_dir();
        let mut exec = self.compile();
        let mut store = CheckpointStore::open(&dir, Self::EVERY).expect("open checkpoint store");
        let mut cursor = InputCursor::zero(self.query.n_streams());
        let pass_span = trace.as_mut().map(|tr| tr.begin("pass", None));
        let n = self.feed.len();
        let tail_from = n - n / 4;
        let mut out = PassOut {
            elements: n,
            ..PassOut::default()
        };
        let mut peak_cold = 0usize;
        let mut tail_start = None;
        let t0 = Instant::now();
        for (i, e) in self.feed.elements().iter().enumerate() {
            if i == tail_from {
                tail_start = Some(Instant::now());
            }
            let r = match (trace.as_mut(), pass_span) {
                (Some(tr), Some(p)) => {
                    // `push_checkpointed`, unrolled so the push and the
                    // commit are timed apart.
                    let (stream, punct) = match e {
                        StreamElement::Tuple(t) => (t.stream, false),
                        StreamElement::Punctuation(p) => (p.stream, true),
                    };
                    let cold = exec.cold_rows();
                    let s = Instant::now();
                    let r = exec.try_push(e);
                    let end = Instant::now();
                    let after = exec.cold_rows();
                    peak_cold = peak_cold.max(after);
                    let name = match after.cmp(&cold) {
                        std::cmp::Ordering::Equal => "tier.hot",
                        std::cmp::Ordering::Greater => "tier.demote",
                        std::cmp::Ordering::Less => "tier.faultback",
                    };
                    let kind = if punct { Kind::Punct } else { Kind::Tuples };
                    tr.record(name, Some(p), kind, i, 1, s, end);
                    cursor.advance(stream);
                    store.note_element();
                    if r.is_ok() && store.due(punct) {
                        let s = Instant::now();
                        let r = exec.commit_checkpoint(&mut store, &cursor);
                        tr.record(
                            "checkpoint.commit",
                            Some(p),
                            Kind::Call,
                            i,
                            0,
                            s,
                            Instant::now(),
                        );
                        r
                    } else {
                        r
                    }
                }
                _ => {
                    let s = Instant::now();
                    let r = exec.push_checkpointed(e, &mut store, &mut cursor);
                    out.pushes_ns.push(ns_since(s));
                    r
                }
            };
            if r.is_err() {
                out.failed = 1;
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }
        }
        let tail_ns = tail_start.map_or(0.0, ns_since);
        let f0 = Instant::now();
        let res = exec.finish();
        out.wall_ns = ns_since(t0);
        out.tail = Some((n - tail_from, tail_ns));
        if let (Some(tr), Some(p)) = (trace.as_mut(), pass_span) {
            tr.record("exec.finish", Some(p), Kind::Call, 0, 0, f0, Instant::now());
            tr.end(p);
        }
        let run = Digest::of_rows(&res.outputs);
        out.digests.push(("skewed", run));
        out.peak_state_rows = res.metrics.peak_join_state as f64;

        // Kill after the last commit: drop the newest snapshot so resume
        // restores the one before it and replays the suffix.
        let snaps = list_snapshots(&dir);
        let (_, newest) = snaps.last().expect("the feed spans several checkpoints");
        let bytes = std::fs::metadata(newest).map_or(0, |m| m.len());
        std::fs::remove_file(newest).expect("remove newest snapshot");
        if let Some(tr) = trace.as_mut() {
            let t = Instant::now();
            let restored =
                Executor::restore(&dir, &self.query, &self.schemes, &self.plan, self.cfg);
            tr.record(
                "checkpoint.restore",
                None,
                Kind::Call,
                0,
                0,
                t,
                Instant::now(),
            );
            out.failed += u64::from(restored.is_err());
        }
        let t = Instant::now();
        let resumed = Executor::try_resume(
            &dir,
            &self.query,
            &self.schemes,
            &self.plan,
            self.cfg,
            &self.feed,
            Self::EVERY,
        );
        out.recovery_ns = Some(ns_since(t));
        if let Some(tr) = trace.as_mut() {
            tr.record(
                "checkpoint.resume",
                None,
                Kind::Call,
                0,
                0,
                t,
                Instant::now(),
            );
        }
        match resumed {
            Ok(r) => out
                .digests
                .push(("skewed.resumed", Digest::of_rows(&r.outputs))),
            Err(_) => out.failed += 1,
        }
        std::fs::remove_dir_all(&dir).expect("remove checkpoint dir");

        let m = &res.metrics;
        out.extra = vec![
            ("tier.peak_cold_rows", peak_cold as f64),
            ("checkpoint.bytes", bytes as f64),
            (
                "checkpoint.rows",
                m.checkpoint_rows as f64 / m.checkpoints_written.max(1) as f64,
            ),
        ];
        out.metrics = res.metrics;
        out
    }

    fn setup_layers(&self, l: &mut Layers) {
        l.insert(
            "core.check_query_us",
            check_query_us(&self.query, &self.schemes),
        );
        l.insert(
            "planner.choose_plan_us",
            choose_plan_us(&self.query, &self.schemes),
        );
        l.insert(
            "exec.compile_us",
            time_us(|| {
                black_box(self.compile());
            }),
        );
    }
}
