//! The repository's benchmark: one workload per execution plane, driven in
//! a closed loop from one thread, with outputs checked against a purge-free
//! reference.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] --seconds <n> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) times the calls into each layer and reports the
//! per-layer metrics, writing its spans to `.bench_out/`. The last line of
//! standard output is one JSON object; the lines before it are a readable
//! report and an environment stamp.

mod digest;
mod drive;
mod mem;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use digest::Digest;
use stats::median;
use trace::Tracer;
use workloads::{Layers, PassOut, Workload};

/// End-to-end metrics in `BENCHMARK.json`, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("eps", "elements/s"),
    ("eps_tail", "elements/s"),
    ("setup_s", "s"),
    ("peak_state_rows", "rows"),
    ("peak_mem_mb", "MiB"),
];

/// Per-layer metrics in `BENCHMARK.json`, with their units.
const PER_LAYER: [(&str, &str); 41] = [
    ("core.check_query_us", "us"),
    ("planner.choose_plan_us", "us"),
    ("exec.compile_us", "us"),
    ("registry.admit_us", "us"),
    ("registry.admit_us_max", "us"),
    ("join.tuple_push_ns", "ns"),
    ("join.probe_dedup_ratio", "ratio"),
    ("join.intermediate_rows", "rows"),
    ("guard.quarantined", "count"),
    ("purge.punct_push_ns", "ns"),
    ("purge.punct_push_ns_q1", "ns"),
    ("purge.punct_push_ns_q4", "ns"),
    ("purge.cycles", "count"),
    ("purge.examined", "rows"),
    ("purge.purged", "rows"),
    ("purge.yield", "ratio"),
    ("punct_store.peak_entries", "count"),
    ("state.peak_mirror", "rows"),
    ("exec.finish_us", "us"),
    ("parallel.route_ns", "ns"),
    ("parallel.broadcast_share", "fraction"),
    ("parallel.shard_skew", "ratio"),
    ("parallel.speedup_p1", "ratio"),
    ("registry.shared_nodes", "count"),
    ("registry.subscriptions", "count"),
    ("tier.hot_push_ns", "ns"),
    ("tier.demote_push_ns", "ns"),
    ("tier.faultback_push_ns", "ns"),
    ("tier.rows_demoted", "rows"),
    ("tier.rows_faulted", "rows"),
    ("tier.segments_written", "count"),
    ("tier.segments_retired", "count"),
    ("tier.peak_cold_rows", "rows"),
    ("checkpoint.commit_us", "us"),
    ("checkpoint.commit_us_max", "us"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.rows", "rows"),
    ("checkpoint.restore_us", "us"),
    ("checkpoint.replay_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.residual", "fraction"),
];

/// Set-up is sub-millisecond: before every pass, repeat it for this long
/// (and to a multiple of 5 times), so its samples spread over the whole run,
/// and report their median.
const SETUP_SLICE_S: f64 = 0.03;

/// Timed passes per run, at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> [--seed <n>] --seconds <n> --trace <0|1>";

/// The seed when none is given. Seed 7919 is held out: it is for checking
/// a claimed gain on inputs no one tuned against.
const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds as f64,
        trace,
    })
}

/// `HEAD`'s commit, read from `.git` without running git; "unknown" outside
/// a repository.
fn git_head() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn stamp(args: &Args, w: &dyn Workload) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let feeds: Vec<String> = w
        .feeds()
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_str(name)))
        .collect();
    format!(
        "env {{\"available_parallelism\": {cores}, \"git_head\": {}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"feed_elements\": {{{}}}}}",
        json_str(&git_head()),
        json_str(&rustc_version()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        feeds.join(", ")
    )
}

/// Tallies what every pass of a run did against the references.
#[derive(Default)]
struct Gate {
    references: BTreeMap<&'static str, Digest>,
    attempted: u64,
    failed_calls: u64,
    quarantined: u64,
    mismatches: u64,
}

impl Gate {
    fn check(&mut self, p: &PassOut) {
        self.attempted += p.attempted.max(p.elements) as u64;
        self.failed_calls += p.failed;
        self.quarantined += p.metrics.quarantined;
        let wrong = p
            .digests
            .iter()
            .filter(|(label, d)| self.references.get(label) != Some(d))
            .count();
        if wrong > 0 {
            eprintln!(
                "output digest mismatch in {wrong} of {} outputs",
                p.digests.len()
            );
        }
        self.mismatches += wrong as u64;
        if p.failed == 0 && p.digests.is_empty() {
            self.mismatches += 1;
        }
    }

    fn failed(&self) -> u64 {
        self.failed_calls + self.quarantined + self.mismatches
    }

    fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Prints the result object; returns whether the run was correct.
fn print_result(gate: &Gate, metrics: &[(&str, &str, f64)]) -> bool {
    let correct = gate.failed() == 0;
    let mut body = Vec::new();
    for &(name, unit, value) in metrics {
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted.max(1),
        gate.failed(),
        body.join(", ")
    );
    correct
}

/// Elements per second over `(elements, ns)` pairs taken together.
fn pooled_rate(pairs: impl Iterator<Item = (usize, f64)>) -> f64 {
    let (n, ns) = pairs.fold((0usize, 0.0), |(n, ns), (a, b)| (n + a, ns + b));
    if ns > 0.0 {
        n as f64 / ns * 1e9
    } else {
        0.0
    }
}

fn untraced(w: &mut dyn Workload, args: &Args, gate: &mut Gate) -> BTreeMap<&'static str, f64> {
    // Peak memory over the first pass, before the reference or anything
    // else has grown the heap; the feed is already resident and excluded.
    let rss0 = mem::rss_kib().expect("read VmRSS");
    mem::reset_peak().expect("reset the resident high-water mark");
    let first = w.pass(None);
    let hwm = mem::hwm_kib().expect("read VmHWM");
    let peak_mem_mb = hwm.saturating_sub(rss0) as f64 / 1024.0;

    gate.references = w.references().into_iter().collect();
    gate.check(&first);

    let mut setup = Vec::new();
    let mut passes = Vec::new();
    let t = Instant::now();
    while passes.len() < MIN_PASSES || t.elapsed().as_secs_f64() < args.seconds {
        let s = Instant::now();
        while s.elapsed().as_secs_f64() < SETUP_SLICE_S || setup.len() % 5 != 0 {
            setup.push(w.setup_s());
        }
        let p = w.pass(None);
        gate.check(&p);
        passes.push(p);
    }

    // Rates are pooled over all passes rather than taken per pass: on a
    // shared host machine speed shifts between regimes lasting seconds, and
    // a per-pass median reports whichever regime dominated the run.
    let ok: Vec<&PassOut> = passes
        .iter()
        .filter(|p| p.failed == 0 && p.wall_ns > 0.0)
        .collect();
    let eps = pooled_rate(ok.iter().map(|p| (p.elements, p.wall_ns)));
    let eps_tail = pooled_rate(ok.iter().filter_map(|p| p.tail));
    let peak_rows: Vec<f64> = passes.iter().map(|p| p.peak_state_rows).collect();
    let metrics = BTreeMap::from([
        ("eps", eps),
        ("eps_tail", eps_tail),
        ("setup_s", median(&setup)),
        ("peak_state_rows", median(&peak_rows)),
        ("peak_mem_mb", peak_mem_mb),
    ]);

    // Figures that not every plane has, reported here but not gated.
    let pushes: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.pushes_ns.iter().map(|ns| ns / 1e3))
        .collect();
    let rates: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.elements as f64 / p.wall_ns * 1e9))
        .collect();
    let mut report = format!(
        "eps per pass: {}\n{} passes; error_rate {} fraction (failed calls {}, quarantined {}, digest mismatches {}, attempted {})",
        rates.join(" "),
        passes.len(),
        gate.error_rate(),
        gate.failed_calls,
        gate.quarantined,
        gate.mismatches,
        gate.attempted
    );
    for (name, permille) in [("push_p50_us", 500), ("push_p99_us", 990)] {
        if let Some(v) = stats::backed_percentile(&pushes, permille) {
            let _ = write!(report, "\n{name} {v} us (n={})", pushes.len());
        }
    }
    if let Some(t) = stats::tail(&pushes) {
        let _ = write!(
            report,
            "\npush tail: p{} = {} us over {} samples",
            t.pct, t.value, t.samples
        );
    }
    let recovery: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.recovery_ns.map(|ns| ns / 1e9))
        .collect();
    if !recovery.is_empty() {
        let _ = write!(report, "\nrecovery_s {} s", median(&recovery));
    }
    println!("{report}");
    metrics
}

fn traced(w: &mut dyn Workload, args: &Args, gate: &mut Gate) -> BTreeMap<&'static str, f64> {
    let mut layers: Layers = BTreeMap::new();
    w.setup_layers(&mut layers);
    gate.references = w.references().into_iter().collect();

    let mut tr = Tracer::new();
    let (mut base_runs, mut traced_runs) = (Vec::new(), Vec::new());
    let mut n = 0;
    let mut rounds = 0;
    let t = Instant::now();
    while rounds == 0 || t.elapsed().as_secs_f64() < args.seconds {
        rounds += 1;
        let b = w.baseline_pass();
        gate.check(&b);
        let p = w.pass(Some(&mut tr));
        gate.check(&p);
        if b.wall_ns > 0.0 && p.wall_ns > 0.0 {
            base_runs.push((b.elements, b.wall_ns));
            traced_runs.push((p.elements, p.wall_ns));
        }
        n = p.elements;
        let m = &p.metrics;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        for (k, v) in p.extra.iter().copied().chain([
            ("purge.cycles", m.purge_cycles as f64),
            ("purge.examined", m.purge_candidates_examined as f64),
            ("purge.purged", m.purged as f64),
            (
                "purge.yield",
                ratio(m.purged + m.mirror_purged, m.purge_candidates_examined),
            ),
            ("punct_store.peak_entries", m.peak_punct_entries as f64),
            ("state.peak_mirror", m.peak_mirror as f64),
            (
                "join.probe_dedup_ratio",
                ratio(m.probe_keys_deduped, m.tuples_in),
            ),
            ("join.intermediate_rows", m.intermediate_rows as f64),
            ("guard.quarantined", m.quarantined as f64),
            ("tier.rows_demoted", m.rows_demoted as f64),
            ("tier.rows_faulted", m.rows_faulted as f64),
            ("tier.segments_written", m.segments_written as f64),
            ("tier.segments_retired", m.segments_retired as f64),
        ]) {
            layers.entry(k).or_default().push(v);
        }
    }
    for (k, v) in tr.layers(n) {
        layers.insert(k, vec![v]);
    }
    if !base_runs.is_empty() {
        let overhead =
            pooled_rate(base_runs.into_iter()) / pooled_rate(traced_runs.into_iter()) - 1.0;
        layers.insert("trace.overhead", vec![overhead]);
    }

    let out = PathBuf::from(".bench_out");
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        tr.write(
            &out.join(format!("trace-{}.tsv", args.workload)),
            &args.workload,
        )
    });
    match written {
        Ok(()) => println!(
            "{} spans written to .bench_out/trace-{}.tsv",
            tr.spans.len(),
            args.workload
        ),
        Err(e) => eprintln!("could not write spans: {e}"),
    }

    layers
        .into_iter()
        .map(|(name, v)| {
            let v = if name.ends_with("_max") {
                v.iter().copied().fold(0.0, f64::max)
            } else {
                median(&v)
            };
            (name, v)
        })
        .collect()
}

fn run(args: &Args, run_dir: &Path) -> bool {
    let mut w =
        workloads::build(&args.workload, args.seed, run_dir).expect("workload name checked");
    println!("{}", stamp(args, w.as_ref()));
    let mut gate = Gate::default();
    let (values, names) = if args.trace {
        (traced(w.as_mut(), args, &mut gate), &PER_LAYER[..])
    } else {
        (untraced(w.as_mut(), args, &mut gate), &END_TO_END[..])
    };
    assert!(
        values.keys().all(|k| names.iter().any(|(n, _)| n == k)),
        "every metric a workload reports is listed"
    );
    // A metric the workload's layers never reported is 0.
    let metrics: Vec<(&str, &str, f64)> = names
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, value) in &metrics {
        println!("{} {name} {value} {unit}", args.workload);
    }
    print_result(&gate, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Checkpoints and cold-tier segments go under a directory of this run's
    // own; creating it fails rather than reusing a leftover.
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_dir = std::env::temp_dir().join(format!("perfbench-{}-{nonce:x}", std::process::id()));
    if let Err(e) = std::fs::create_dir(&run_dir) {
        eprintln!("cannot create run directory {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let correct = run(&args, &run_dir);
    if let Err(e) = std::fs::remove_dir_all(&run_dir) {
        eprintln!("cannot remove run directory {}: {e}", run_dir.display());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(d: Digest) -> PassOut {
        PassOut {
            elements: 10,
            digests: vec![("q", d)],
            ..PassOut::default()
        }
    }

    #[test]
    fn a_corrupted_digest_fails_the_run() {
        let good = Digest { rows: 3, sum: 42 };
        let mut gate = Gate {
            references: [("q", good)].into_iter().collect(),
            ..Gate::default()
        };
        gate.check(&pass(good));
        assert_eq!(gate.failed(), 0);
        gate.check(&pass(Digest { rows: 3, sum: 43 }));
        assert_eq!(gate.failed(), 1);
        assert_eq!(gate.error_rate(), 1.0 / 20.0);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn a_pass_without_outputs_fails_the_run() {
        let mut gate = Gate::default();
        gate.check(&PassOut {
            elements: 10,
            ..PassOut::default()
        });
        assert_eq!(gate.failed(), 1);
    }
}
