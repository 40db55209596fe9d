//! `detect` and `detect_mech`: the full pipeline, one module at a time,
//! from spec to finished profile.

use std::sync::Arc;

use parbor_core::{Parbor, ParborConfig, ParborReport};
use parbor_dram::{ChipGeometry, DramModule, ModuleSpec, Vendor};
use parbor_hal::{MechanismSpec, ParallelMode};
use parbor_obs::{metrics, InMemoryRecorder, RecorderHandle};

use crate::checks::{self, CellSet};
use crate::trace::{ratio, Layers, MechanismClock, TimedMechanism, TimedPort};
use crate::{mix, Clock, Round, Workload};

const VENDORS: [Vendor; 3] = [Vendor::A, Vendor::B, Vendor::C];

/// A module population and its ground truth.
struct Population {
    specs: Vec<ModuleSpec>,
    /// Built in set-up; the oracle reads its ground truth from these, never
    /// from the modules the pipeline tests. Consumed by `prepare`.
    modules: Vec<DramModule>,
    truth: Vec<CellSet>,
    /// Whether outputs must also match the paper's distances and Table 1.
    paper_exact: bool,
}

impl Population {
    fn build(specs: Vec<ModuleSpec>, paper_exact: bool) -> Result<Self, String> {
        let modules = specs
            .iter()
            .map(|s| s.build().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Population {
            specs,
            modules,
            truth: Vec::new(),
            paper_exact,
        })
    }

    /// Reads each module's oracle and drops the module before the next, so
    /// the oracle's fault maps never outlive their module.
    fn prepare(&mut self) {
        self.truth = self
            .modules
            .drain(..)
            .map(|mut module| checks::oracle_cells(&mut module))
            .collect();
    }

    fn round(&self, traced: bool) -> Result<Round, String> {
        let mut round = Round::default();
        let (mut found_total, mut rounds_total) = (0usize, 0usize);
        for (spec, truth) in self.specs.iter().zip(&self.truth) {
            let (report, clock) = if traced {
                profile_traced(spec, &mut round.layers)?
            } else {
                profile(spec)?
            };
            round.wall_s += clock.0;
            round.cpu_s += clock.1;
            round.ops += 1;
            let detected = report.chipwide.failing_bits();
            let found = truth.iter().filter(|c| detected.contains(c)).count();
            found_total += found;
            rounds_total += report.total_rounds();
            round.sim.push(format!(
                "{} seed {}: distances {:?} tests {} rounds {} failures {} oracle {}/{}",
                spec.vendor,
                spec.seed,
                report.distances(),
                report.recursion.total_tests,
                report.total_rounds(),
                report.failure_count(),
                found,
                truth.len()
            ));
            if let Err(e) = self.check(spec.vendor, &report, truth, &detected) {
                round.failed += 1;
                round
                    .failures
                    .push(format!("module {} seed {}: {e}", spec.vendor, spec.seed));
            }
        }
        round.work = round.ops as f64;
        let modules = self.specs.len() as f64;
        round
            .layers
            .set("parbor.dd_cells_found", found_total as f64 / modules);
        round.layers.set(
            "parbor.dd_cells_per_round",
            found_total as f64 / rounds_total as f64,
        );
        round
            .layers
            .set("parbor.rounds_per_module", rounds_total as f64 / modules);
        Ok(round)
    }

    fn check(
        &self,
        vendor: Vendor,
        report: &ParborReport,
        truth: &CellSet,
        detected: &CellSet,
    ) -> Result<(), String> {
        if self.paper_exact {
            checks::check_distances(vendor, report.distances())?;
            checks::check_recursion_tests(vendor, report.recursion.total_tests)?;
        }
        checks::check_covers_oracle(truth, detected)
    }
}

/// Builds the module as the CLI does and runs the pipeline on it.
fn build(spec: &ModuleSpec) -> Result<DramModule, String> {
    let mut module = spec.build().map_err(|e| e.to_string())?;
    module.set_parallel_mode(ParallelMode::Auto);
    Ok(module)
}

/// Wall-clock and CPU seconds of one module's profiling.
type Spent = (f64, f64);

fn profile(spec: &ModuleSpec) -> Result<(ParborReport, Spent), String> {
    let t = Clock::start();
    let mut module = build(spec)?;
    let report = Parbor::new(ParborConfig::default())
        .run(&mut module)
        .map_err(|e| format!("module {} seed {}: {e}", spec.vendor, spec.seed))?;
    Ok((report, (t.wall_s(), t.cpu_s())))
}

/// [`profile`] with the timing decorators and an in-memory recorder.
fn profile_traced(spec: &ModuleSpec, layers: &mut Layers) -> Result<(ParborReport, Spent), String> {
    let t = Clock::start();
    let mut module = build(spec)?;
    let build_s = t.wall_s();
    let recorder = InMemoryRecorder::handle();
    let rec = RecorderHandle::from(recorder.clone());
    let clock = Arc::new(MechanismClock::default());
    if !module.mechanisms().is_empty() {
        let stack = TimedMechanism::wrap_stack(module.mechanisms(), &clock);
        module.set_mechanisms(stack);
    }
    module.set_recorder(rec.clone());
    let mut port = TimedPort::new(module);
    let report = Parbor::new(ParborConfig::default())
        .with_recorder(rec)
        .run(&mut port)
        .map_err(|e| format!("module {} seed {}: {e}", spec.vendor, spec.seed))?;
    let spent = (t.wall_s(), t.cpu_s());

    let span_s = |name: &str| {
        recorder
            .finished_spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us() as f64 / 1e6)
            .sum::<f64>()
    };
    let port = port.stats();
    let mech_s = clock.busy_s();
    layers.add("parbor.discover_s", span_s(metrics::pipeline::DISCOVER));
    layers.add("parbor.recursion_s", span_s(metrics::pipeline::RECURSION));
    layers.add("parbor.chipwide_s", span_s(metrics::pipeline::CHIPWIDE));
    layers.add(
        "parbor.self_s",
        span_s(metrics::pipeline::RUN) - port.busy_s,
    );
    layers.add("hal.port.busy_s", port.busy_s);
    layers.add("hal.port.rounds", port.rounds as f64);
    layers.add("hal.port.row_writes", port.row_writes as f64);
    layers.add("dram.build_s", build_s);
    layers.add("dram.chip_s", port.busy_s - mech_s);
    layers.add("hal.mechanism.busy_s", mech_s);
    layers.add("hal.mechanism.calls", clock.calls() as f64);
    let c = |name: &str| recorder.counter(name);
    layers.add("dram.row_reads", c(metrics::dram::ROW_READS) as f64);
    layers.add(
        "dram.fault_maps_built",
        c(metrics::dram::FAULT_MAPS_BUILT) as f64,
    );
    // Summed per module here; `average_ratios` turns the sums into means.
    layers.add(
        "hal.engine.arena_hit_ratio",
        ratio(
            c(metrics::engine::ARENA_HITS),
            c(metrics::engine::ARENA_MISSES),
        ),
    );
    layers.add(
        "dram.eval_cache_hit_ratio",
        ratio(
            c(metrics::dram::EVAL_CACHE_HITS),
            c(metrics::dram::EVAL_CACHE_MISSES),
        ),
    );
    Ok((report, spent))
}

/// The CLI's default module (8 chips × 128 rows × 8192 columns, stock
/// coupling model, module id 1) for vendors A, B and C, two module seeds
/// each, drawn from the workload seed.
pub struct Detect(Population);

impl Workload for Detect {
    const SETUPS: usize = 31;

    fn setup(seed: u64) -> Result<Self, String> {
        let geometry = ChipGeometry::new(1, 128, 8192).map_err(|e| e.to_string())?;
        let mut specs = Vec::new();
        for (v, vendor) in VENDORS.into_iter().enumerate() {
            for k in 0..2 {
                specs.push(ModuleSpec {
                    geometry,
                    chips: 8,
                    seed: mix(seed, (v * 2 + k) as u64 + 1),
                    module_id: 1,
                    ..ModuleSpec::new(vendor)
                });
            }
        }
        Population::build(specs, true).map(Detect)
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.0.prepare();
        Ok(())
    }

    fn round(&mut self, _index: usize, traced: bool) -> Result<Round, String> {
        let mut round = self.0.round(traced)?;
        average_ratios(&mut round, self.0.specs.len());
        Ok(round)
    }
}

/// The efficacy harness's geometry (1 chip × 128 rows × 1024 columns) with
/// a live `hammer;press;drift` stack, vendors A, B and C at module seeds
/// 1–3, module id 1.
///
/// These inputs do not depend on the workload seed, which only rotates the
/// order the modules run in: four of the nine modules (A seed 2, B seeds
/// 1–3) hit a known fault, and the failure share must stay exactly the
/// same across seeds so that a fix shows as fewer failed operations.
pub struct DetectMech(Population);

impl Workload for DetectMech {
    const SETUPS: usize = 101;

    fn setup(seed: u64) -> Result<Self, String> {
        let geometry = ChipGeometry::new(1, 128, 1024).map_err(|e| e.to_string())?;
        let stack = MechanismSpec::parse_stack("hammer;press;drift").map_err(|e| e.to_string())?;
        let mut specs = Vec::new();
        for vendor in VENDORS {
            for module_seed in 1..=3 {
                specs.push(ModuleSpec {
                    geometry,
                    chips: 1,
                    seed: module_seed,
                    module_id: 1,
                    mechanisms: Some(stack.clone()),
                    ..ModuleSpec::new(vendor)
                });
            }
        }
        let n = specs.len();
        specs.rotate_left((seed % n as u64) as usize);
        Population::build(specs, false).map(DetectMech)
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.0.prepare();
        Ok(())
    }

    fn round(&mut self, _index: usize, traced: bool) -> Result<Round, String> {
        let mut round = self.0.round(traced)?;
        average_ratios(&mut round, self.0.specs.len());
        Ok(round)
    }
}

/// Turns the per-module sums of hit ratios into their mean.
fn average_ratios(round: &mut Round, modules: usize) {
    for name in ["hal.engine.arena_hit_ratio", "dram.eval_cache_hit_ratio"] {
        let sum = round.layers.get(name);
        round.layers.set(name, sum / modules as f64);
    }
}
