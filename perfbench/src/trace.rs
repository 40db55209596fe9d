//! The traced run's instruments: a timing [`TestPort`] decorator, a timing
//! [`FailureMechanism`] wrapper, and the per-layer accumulator.
//!
//! Both decorators only observe. `TimedPort` forwards `run_rounds` to the
//! inner port's own `run_rounds`, so batching and the module's parallel
//! modes are exactly those of an undecorated run; `TimedMechanism` forwards
//! `flips` unchanged. The tests at the bottom pin that transparency.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parbor_hal::{
    BitFlip, ChipGeometry, DramError, FailureMechanism, Flip, KernelMode, ParallelMode, RoundArena,
    RoundPlan, RowView, RowWrite, TestPort,
};
use parbor_obs::RecorderHandle;

/// Time spent inside the inner port, and the work it was given.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PortStats {
    /// Seconds inside `run_round`/`run_rounds` of the inner port.
    pub busy_s: f64,
    /// Test rounds executed.
    pub rounds: u64,
    /// Row images written.
    pub row_writes: u64,
}

/// A [`TestPort`] decorator that times every round call of the port it
/// wraps.
pub struct TimedPort<P> {
    inner: P,
    stats: PortStats,
}

impl<P: TestPort> TimedPort<P> {
    pub fn new(inner: P) -> Self {
        TimedPort {
            inner,
            stats: PortStats::default(),
        }
    }

    pub fn stats(&self) -> PortStats {
        self.stats
    }
}

impl<P: TestPort> TestPort for TimedPort<P> {
    fn geometry(&self) -> ChipGeometry {
        self.inner.geometry()
    }

    fn units(&self) -> u32 {
        self.inner.units()
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        let n = writes.len() as u64;
        let t = Instant::now();
        let out = self.inner.run_round(writes);
        self.stats.busy_s += t.elapsed().as_secs_f64();
        self.stats.rounds += 1;
        self.stats.row_writes += n;
        out
    }

    fn run_rounds(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        let rounds = plans.len() as u64;
        let writes: u64 = plans.iter().map(|p| p.len() as u64).sum();
        let t = Instant::now();
        let out = self.inner.run_rounds(plans);
        self.stats.busy_s += t.elapsed().as_secs_f64();
        self.stats.rounds += rounds;
        self.stats.row_writes += writes;
        out
    }

    fn rounds_run(&self) -> u64 {
        self.inner.rounds_run()
    }

    fn fast_forward(&mut self, rounds: u64) {
        self.inner.fast_forward(rounds);
    }

    fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.inner.set_parallel_mode(mode);
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.inner.set_kernel_mode(mode);
    }

    fn set_recorder(&mut self, rec: RecorderHandle) {
        self.inner.set_recorder(rec);
    }

    fn set_arena(&mut self, arena: RoundArena) {
        self.inner.set_arena(arena);
    }
}

/// Busy time and call count shared by every [`TimedMechanism`] of a stack.
#[derive(Debug, Default)]
pub struct MechanismClock {
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

impl MechanismClock {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A [`FailureMechanism`] wrapper that times each `flips` call.
pub struct TimedMechanism {
    inner: Arc<dyn FailureMechanism>,
    clock: Arc<MechanismClock>,
}

impl TimedMechanism {
    /// Wraps every mechanism of a stack around one shared clock.
    pub fn wrap_stack(
        stack: &[Arc<dyn FailureMechanism>],
        clock: &Arc<MechanismClock>,
    ) -> Vec<Arc<dyn FailureMechanism>> {
        stack
            .iter()
            .map(|m| {
                Arc::new(TimedMechanism {
                    inner: Arc::clone(m),
                    clock: Arc::clone(clock),
                }) as Arc<dyn FailureMechanism>
            })
            .collect()
    }
}

impl fmt::Debug for TimedMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedMechanism")
            .field("inner", &self.inner)
            .finish()
    }
}

impl FailureMechanism for TimedMechanism {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn flips(&self, view: &RowView<'_>) -> Vec<BitFlip> {
        let t = Instant::now();
        let out = self.inner.flips(view);
        self.clock
            .busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn truth(&self, bank: u32, row: u32, cols: u32) -> Vec<u32> {
        self.inner.truth(bank, row, cols)
    }

    fn is_inert(&self) -> bool {
        self.inner.is_inert()
    }
}

/// Every per-layer metric the benchmark reports: name, unit, and whether it
/// is a self time that takes part in the wall-time identity.
pub const LAYER_METRICS: &[(&str, &str, bool)] = &[
    ("parbor.discover_s", "s", false),
    ("parbor.recursion_s", "s", false),
    ("parbor.chipwide_s", "s", false),
    ("parbor.self_s", "s", true),
    ("parbor.dd_cells_found", "count/module", false),
    ("parbor.dd_cells_per_round", "count/round", false),
    ("parbor.rounds_per_module", "count", false),
    ("hal.port.busy_s", "s", false),
    ("hal.port.rounds", "count", false),
    ("hal.port.row_writes", "count", false),
    ("hal.engine.arena_hit_ratio", "ratio", false),
    ("dram.build_s", "s", true),
    ("dram.chip_s", "s", true),
    ("dram.row_reads", "count", false),
    ("dram.fault_maps_built", "count", false),
    ("dram.eval_cache_hit_ratio", "ratio", false),
    ("hal.mechanism.busy_s", "s", true),
    ("hal.mechanism.calls", "count", false),
    ("fleet.run_s", "s", true),
    ("fleet.checkpoints", "count", false),
    ("fleet.checkpoint_bytes", "bytes", false),
    ("store.compact_s", "s", true),
    ("store.open_s", "s", true),
    ("store.get_s", "s", true),
    ("store.aggregate_s", "s", true),
    ("store.segment_bytes", "bytes", false),
    ("serve.compile_s", "s", true),
    ("serve.run_s", "s", true),
    ("serve.arena_hit_ratio", "ratio", false),
    ("memsim.alone_s", "s", false),
    ("memsim.uniform_s", "s", true),
    ("memsim.raidr_s", "s", true),
    ("memsim.dcref_s", "s", true),
    ("memsim.row_hit_ratio", "ratio", false),
    ("memsim.avg_read_latency_cycles", "cycles", false),
    ("memsim.dcref_refresh_busy_cycles", "cycles", false),
    ("memsim.dcref_weighted_speedup", "ratio", false),
    ("memsim.dcref_refresh_windows", "count", false),
    ("trace.wall_s", "s", false),
    ("trace.unattributed_s", "s", false),
    ("trace.overhead_ratio", "ratio", false),
];

/// Per-round layer values of one traced round, keyed by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to a metric, which must be one of [`LAYER_METRICS`].
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _, _)| *n == name),
            "unregistered layer metric {name}"
        );
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.remove(name);
        self.add(name, value);
    }

    pub fn entries(&self) -> Vec<(&'static str, f64)> {
        self.0.iter().map(|(n, v)| (*n, *v)).collect()
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the self times: the part of `trace.wall_s` the layers explain.
    pub fn attributed_s(&self) -> f64 {
        LAYER_METRICS
            .iter()
            .filter(|(_, _, is_self)| *is_self)
            .map(|(name, _, _)| self.get(name))
            .sum()
    }

    /// Records the round's wall time and the remainder no layer explains.
    pub fn close(&mut self, wall_s: f64) {
        self.set("trace.wall_s", wall_s);
        self.set("trace.unattributed_s", wall_s - self.attributed_s());
    }

    /// Element-wise mean of several rounds' layers.
    pub fn mean(rounds: &[Layers]) -> Layers {
        let mut out = Layers::default();
        for round in rounds {
            for (name, value) in &round.0 {
                out.add(name, value / rounds.len() as f64);
            }
        }
        out
    }
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_core::{FailureProfile, Parbor, ParborConfig};
    use parbor_dram::{ChipGeometry, ModuleConfig, ModuleId, Vendor};
    use parbor_hal::MechanismSpec;

    fn small_module(vendor: Vendor) -> parbor_dram::DramModule {
        ModuleConfig::new(vendor)
            .geometry(ChipGeometry::new(1, 32, 1024).expect("static geometry"))
            .chips(2)
            .seed(3)
            .module_id(ModuleId(1))
            .mechanisms(MechanismSpec::parse_stack("hammer;press;drift").expect("static stack"))
            .build()
            .expect("small module builds")
    }

    fn plans() -> Vec<RoundPlan> {
        (0..4u64)
            .map(|r| {
                let mut plan = RoundPlan::new();
                for unit in 0..2 {
                    for row in 0..32 {
                        plan.write(
                            unit,
                            parbor_hal::RowId::new(0, row),
                            parbor_dram::PatternKind::Random {
                                seed: r * 7 + u64::from(unit),
                            }
                            .row_bits(row, 1024),
                        );
                    }
                }
                plan
            })
            .collect()
    }

    #[test]
    fn timed_port_and_mechanisms_are_transparent() {
        let mut bare = small_module(Vendor::A);
        let mut timed_module = small_module(Vendor::A);
        let clock = Arc::new(MechanismClock::default());
        let stack = TimedMechanism::wrap_stack(timed_module.mechanisms(), &clock);
        timed_module.set_mechanisms(stack);
        let mut timed = TimedPort::new(timed_module);
        let a = bare.run_rounds(plans()).expect("bare rounds");
        let b = timed.run_rounds(plans()).expect("timed rounds");
        assert_eq!(a, b);
        let single = plans().remove(0).into_writes();
        assert_eq!(
            bare.run_round(single.clone()).expect("bare round"),
            timed.run_round(single).expect("timed round")
        );
        assert_eq!(timed.stats().rounds, 5);
        assert_eq!(timed.stats().row_writes, 5 * 64);
        assert!(clock.calls() > 0);
        assert_eq!(bare.rounds_run(), timed.rounds_run());
    }

    #[test]
    fn timed_pipeline_report_is_identical() {
        for vendor in [Vendor::A, Vendor::B, Vendor::C] {
            let mut bare = small_module(vendor);
            let want = Parbor::new(ParborConfig::default()).run(&mut bare);
            let mut module = small_module(vendor);
            let clock = Arc::new(MechanismClock::default());
            let stack = TimedMechanism::wrap_stack(module.mechanisms(), &clock);
            module.set_mechanisms(stack);
            let mut timed = TimedPort::new(module);
            let got = Parbor::new(ParborConfig::default()).run(&mut timed);
            match (want, got) {
                (Ok(w), Ok(g)) => assert_eq!(
                    FailureProfile::from_report(&w),
                    FailureProfile::from_report(&g)
                ),
                (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string()),
                (w, g) => panic!("outcomes differ: {w:?} vs {g:?}"),
            }
        }
    }

    #[test]
    fn layers_close_to_wall() {
        let mut l = Layers::default();
        l.add("parbor.self_s", 1.0);
        l.add("dram.chip_s", 2.0);
        l.add("hal.port.busy_s", 5.0); // inclusive, not a self time
        l.close(4.0);
        assert_eq!(l.get("trace.unattributed_s"), 1.0);
        assert_eq!(l.attributed_s() + l.get("trace.unattributed_s"), 4.0);
    }
}
