//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench steady [--seed N]
//! ```
//!
//! The first form runs one workload for `S` seconds of whole rounds and
//! prints one JSON object as its last stdout line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`), plus operations
//! attempted and failed. The second form is the steadiness check (see
//! `steady.rs`). README.md describes the workloads and metrics.

mod checks;
mod detect;
mod memsim;
mod serving;
mod steady;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::{Layers, LAYER_METRICS};

/// The workloads this binary runs.
pub const WORKLOADS: &[&str] = &["detect", "detect_mech", "campaign", "serve", "memsim"];

/// One round of a workload: the same operations every round.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations attempted (modules profiled, checks answered, runs).
    pub ops: u64,
    /// Operations whose output failed a ground-truth check.
    pub failed: u64,
    /// Units of work the round completed, for `throughput_per_cpu_s`.
    pub work: f64,
    /// Wall-clock seconds of the timed part of the round.
    pub wall_s: f64,
    /// CPU seconds this process spent in the timed part of the round.
    pub cpu_s: f64,
    /// Every simulated statistic of the round; identical across rounds and
    /// between traced and untraced rounds.
    pub sim: Vec<String>,
    /// Per-layer values (simulated ones in every round, times and counts
    /// only in traced rounds).
    pub layers: Layers,
    /// Descriptions of the failed operations.
    pub failures: Vec<String>,
    /// Checks that no single operation owns (ledgers, aggregates): any
    /// entry makes the run incorrect.
    pub incorrect: Vec<String>,
}

/// A workload's lifecycle: a set-up repeated several times (the median is
/// `setup_s`), ground truth computed apart from the timed work, then whole
/// rounds until the run's time is up.
pub trait Workload: Sized {
    /// How many times a run sets up.
    const SETUPS: usize;

    fn setup(seed: u64) -> Result<Self, String>;

    /// Ground truth and other untimed preparation.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn round(&mut self, index: usize, traced: bool) -> Result<Round, String>;

    /// Layer values measured during set-up (reported with the traced run).
    fn setup_layers(&self) -> Layers {
        Layers::default()
    }

    /// Releases anything the run left on disk.
    fn cleanup(&mut self) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses `--name value` pairs, rejecting any flag not in `allowed`.
pub fn parse_flags(raw: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag}"))?;
        if !allowed.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let flags = parse_flags(raw, &["workload", "seed", "seconds", "trace"])?;
    let get = |name: &str| {
        flags
            .get(name)
            .ok_or_else(|| format!("missing --{name}"))
            .cloned()
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// splitmix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU time this process has consumed, over all its threads (exited ones
/// included), from `CLOCK_PROCESS_CPUTIME_ID`.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value laid out as the C `struct
    // timespec` of 64-bit Linux (two 64-bit fields); `clock_gettime` writes
    // only into it and keeps no pointer after returning.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall-clock and process CPU time since a start point.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }
}

/// Peak resident set of this process, from `/proc/self/status` (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What one run prints.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut setup_times = Vec::with_capacity(W::SETUPS);
    let mut state = None;
    for _ in 0..W::SETUPS {
        drop(state.take());
        let t = Clock::start();
        state = Some(W::setup(args.seed)?);
        setup_times.push(t.cpu_s());
    }
    let mut w = state.expect("at least one set-up");
    w.prepare()?;

    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rates = Vec::new();
    // Work per wall-clock second, untraced and traced rounds.
    let mut plain_speeds = Vec::new();
    let mut traced_speeds = Vec::new();
    let mut traced_layers = Vec::new();
    let mut first_sim: Option<Vec<String>> = None;
    let start = Instant::now();
    let mut index = 0;
    loop {
        // The traced run interleaves untraced rounds, so its overhead ratio
        // compares rounds measured under the same conditions.
        let traced = args.trace && index % 2 == 1;
        let mut round = w.round(index, traced)?;
        attempted += round.ops;
        failed += round.failed;
        if index == 0 {
            for f in &round.failures {
                eprintln!("failed: {f}");
            }
        }
        problems.append(&mut round.incorrect);
        match &first_sim {
            None => first_sim = Some(round.sim.clone()),
            Some(first) if *first != round.sim => problems.push(format!(
                "round {index} ({}) changed a simulated statistic",
                if traced { "traced" } else { "untraced" }
            )),
            Some(_) => {}
        }
        let speed = round.work / round.wall_s;
        if traced {
            traced_speeds.push(speed);
            round.layers.close(round.wall_s);
            traced_layers.push(round.layers);
        } else {
            plain_speeds.push(speed);
            rates.push(round.work / round.cpu_s);
        }
        eprintln!(
            "round {index}{}: {:.4} s wall, {:.4} s cpu, {:.6} per cpu second",
            if traced { " (traced)" } else { "" },
            round.wall_s,
            round.cpu_s,
            round.work / round.cpu_s
        );
        index += 1;
        let enough = !args.trace || !traced_speeds.is_empty();
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    w.cleanup();
    for p in &problems {
        eprintln!("incorrect: {p}");
    }

    let mut metrics = Vec::new();
    if args.trace {
        let mut layers = Layers::mean(&traced_layers);
        for (name, value) in w.setup_layers().entries() {
            layers.set(name, value);
        }
        layers.set(
            "trace.overhead_ratio",
            median(&plain_speeds) / median(&traced_speeds),
        );
        for (name, unit, _) in LAYER_METRICS {
            metrics.push((name.to_string(), layers.get(name), unit.to_string()));
        }
    } else {
        metrics.push(("setup_s".into(), median(&setup_times), "s".into()));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb()?, "MB".into()));
        metrics.push(("throughput_per_cpu_s".into(), median(&rates), "1/s".into()));
    }
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number: {v}"));
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn print_outcome(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = if raw.first().map(String::as_str) == Some("steady") {
        steady::main(&raw[1..])
    } else {
        parse_args(&raw).and_then(|args| {
            let outcome = match args.workload.as_str() {
                "detect" => run::<detect::Detect>(&args),
                "detect_mech" => run::<detect::DetectMech>(&args),
                "campaign" => run::<serving::Campaign>(&args),
                "serve" => run::<serving::Serve>(&args),
                "memsim" => run::<memsim::Memsim>(&args),
                _ => unreachable!("workload names are validated"),
            }?;
            print_outcome(&outcome);
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
