//! `perfbench steady`: runs every workload of `BENCHMARK.json` repeatedly
//! as separate processes of `run_seconds` each, in an interleaved order, as
//! two sets of runs on different seeds; prints the median and quartiles of
//! each end-to-end metric per set and says whether the two sets agree
//! within the bounds in `BENCHMARK.json`.
//!
//! ```text
//! perfbench steady [--seed N]
//! ```
//!
//! Set one uses seeds `seed .. seed+10`, set two the held-out seeds
//! `seed+10 .. seed+20`. Run from the checkout root (it reads
//! `BENCHMARK.json` there). Exits non-zero when the sets disagree: a spread
//! (quartile distance over median) above a metric's bound in either set,
//! medians of the two sets further apart than the bound in either
//! direction, or a different share of failed operations.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

/// One end-to-end metric as declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    bound: f64,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
        .ok_or_else(|| format!("missing key {key}"))
}

fn num(v: &Value) -> Result<f64, String> {
    match v {
        Value::I64(i) => Ok(*i as f64),
        Value::U64(u) => Ok(*u as f64),
        Value::F64(f) => Ok(*f),
        other => Err(format!("expected a number, got {}", other.kind())),
    }
}

fn count(v: &Value) -> Result<u64, String> {
    match v {
        Value::I64(i) if *i >= 0 => Ok(*i as u64),
        Value::U64(u) => Ok(*u),
        other => Err(format!("expected a whole number, got {}", other.kind())),
    }
}

fn text(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {}", other.kind())),
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method): the first and third quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(|a, b| a.total_cmp(b));
    let ld = d.len() as i64;
    let n = 4i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (d[(j - 1) as usize] * (n - delta) as f64 + d[j as usize] * delta as f64) / n as f64
    };
    (q(1), q(3))
}

/// The outcome of one benchmark process.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() || last.is_empty() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let v = serde_json::parse_value(last).map_err(|e| format!("{workload}: {e}"))?;
    if field(&v, "correct")? != &Value::Bool(true) {
        return Err(format!("{workload} seed {seed}: output incorrect"));
    }
    let mut metrics = BTreeMap::new();
    for (name, m) in field(&v, "metrics")?
        .as_map()
        .ok_or("metrics is not a map")?
    {
        metrics.insert(name.clone(), num(field(m, "value")?)?);
    }
    Ok(RunResult {
        attempted: count(field(&v, "attempted")?)?,
        failed: count(field(&v, "failed")?)?,
        metrics,
    })
}

/// Runs per workload in each set.
const RUNS: u64 = 10;

pub fn main(raw: &[String]) -> Result<(), String> {
    let flags = crate::parse_flags(raw, &["seed"])?;
    let seed: u64 = flags.get("seed").map_or(Ok(1), |v| {
        v.parse().map_err(|_| "--seed must be a whole number".to_string())
    })?;
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the checkout root): {e}"))?;
    let bench = serde_json::parse_value(&bench).map_err(|e| e.to_string())?;
    let declared: Vec<Declared> = field(&bench, "end_to_end")?
        .as_seq()
        .ok_or("end_to_end is not a list")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: text(field(m, "name")?)?.to_string(),
                bound: num(field(m, "bound")?)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let workloads: Vec<String> = field(&bench, "workloads")?
        .as_seq()
        .ok_or("workloads is not a list")?
        .iter()
        .map(|w| text(field(w, "name")?).map(str::to_string))
        .collect::<Result<_, String>>()?;
    let seconds = count(field(&bench, "run_seconds")?)?;

    // results[workload][set] = runs
    let mut results: BTreeMap<&str, [Vec<RunResult>; 2]> = BTreeMap::new();
    for rep in 0..RUNS {
        let sets = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in sets {
            for k in 0..workloads.len() {
                let w = &workloads[(k + rep as usize) % workloads.len()];
                let s = seed + set as u64 * RUNS + rep;
                let r = run_once(w, s, seconds)?;
                eprintln!("set {} {w} seed {s}: {:?}", set + 1, r.metrics);
                results.entry(w.as_str()).or_default()[set].push(r);
            }
        }
    }

    let mut agree = true;
    println!(
        "{:<12} {:<18} {:>5} {:>14} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "set", "median", "q1", "q3", "spread", "bound"
    );
    for (w, sets) in &results {
        let share = |runs: &[RunResult]| -> (u128, u128) {
            (
                runs.iter().map(|r| u128::from(r.failed)).sum(),
                runs.iter().map(|r| u128::from(r.attempted)).sum(),
            )
        };
        let (f0, a0) = share(&sets[0]);
        let (f1, a1) = share(&sets[1]);
        if f0 * a1 != f1 * a0 {
            agree = false;
            println!("{w:<12} failed share differs: {f0}/{a0} vs {f1}/{a1}");
        }
        for d in &declared {
            let mut medians = [0.0; 2];
            for (set, runs) in sets.iter().enumerate() {
                let values: Vec<f64> = runs
                    .iter()
                    .map(|r| r.metrics.get(&d.name).copied().unwrap_or(f64::NAN))
                    .collect();
                let med = crate::median(&values);
                let (q1, q3) = quartiles(&values);
                let spread = (q3 - q1) / med;
                medians[set] = med;
                let verdict = if spread > d.bound {
                    agree = false;
                    "SPREAD ABOVE BOUND"
                } else if spread > d.bound / 3.0 {
                    "spread above a third of the bound"
                } else {
                    "ok"
                };
                println!(
                    "{w:<12} {:<18} {:>5} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {:>8.3}  {verdict}",
                    d.name,
                    set + 1,
                    d.bound
                );
            }
            let moved = (medians[1] - medians[0]).abs() / medians[0];
            if moved > d.bound {
                agree = false;
                println!(
                    "{w:<12} {:<18} medians differ by {moved:.4} > bound {}",
                    d.name, d.bound
                );
            }
        }
    }
    println!(
        "two sets of {RUNS} runs {} within the bounds in BENCHMARK.json",
        if agree { "agree" } else { "DO NOT agree" }
    );
    if agree {
        Ok(())
    } else {
        Err("the two sets of runs disagree".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
