//! `memsim`: uniform-64 ms, RAIDR and DC-REF runs of the memory-system
//! simulator over 8, 16 and 32 Gb chips and eight paper mixes of eight
//! cores.

use std::collections::BTreeMap;
use std::time::Instant;

use parbor_memsim::{weighted_speedup, Density, RefreshPolicyKind, Simulation, SystemConfig};
use parbor_obs::{InMemoryRecorder, RecorderHandle};
use parbor_workloads::{paper_mixes, WorkloadMix};

use crate::checks;
use crate::trace::{ratio, Layers};
use crate::{mix, Clock, Round, Workload};

/// Memory cycles simulated per run.
const MEM_CYCLES: u64 = 100_000;
/// Workload mixes per density.
const MIXES: usize = 8;
/// The mixes are one fixed draw, as the paper evaluates one fixed set of
/// random mixes: how many memory-intensive applications a draw holds moves
/// simulation cost by ±15 % (five seeds spread 0.28 between quartiles),
/// which would bury any change to the simulator. `--seed` moves the address
/// streams every core generates instead.
const MIX_SEED: u64 = 2016;
const DENSITIES: [Density; 3] = [Density::Gb8, Density::Gb16, Density::Gb32];
const POLICIES: [(RefreshPolicyKind, &str); 3] = [
    (RefreshPolicyKind::Uniform64, "memsim.uniform_s"),
    (RefreshPolicyKind::Raidr, "memsim.raidr_s"),
    (RefreshPolicyKind::DcRef, "memsim.dcref_s"),
];

/// The paper's system (Table 2: 8 cores, DDR3-1600, 2 channels × 2
/// ranks) without a modelled LLC, so no cache carries state between runs.
fn config(density: Density) -> SystemConfig {
    SystemConfig {
        density,
        ..SystemConfig::paper()
    }
}

pub struct Memsim {
    mixes: Vec<WorkloadMix>,
    /// Alone IPC per (density index, application), on uniform refresh: the
    /// common weighted-speedup denominator.
    alone: Vec<BTreeMap<&'static str, f64>>,
    alone_s: f64,
    sim_seed: u64,
}

impl Workload for Memsim {
    const SETUPS: usize = 5;

    fn setup(seed: u64) -> Result<Self, String> {
        let mixes = paper_mixes(MIXES, SystemConfig::paper().cores as usize, MIX_SEED);
        let alone_seed = mix(seed, 3);
        let t = Instant::now();
        let alone = DENSITIES
            .iter()
            .map(|&d| {
                let mut ipc = BTreeMap::new();
                for app in mixes.iter().flat_map(|m| &m.apps) {
                    ipc.entry(app.name).or_insert_with(|| {
                        Simulation::alone_ipc(
                            config(d),
                            RefreshPolicyKind::Uniform64,
                            app,
                            alone_seed,
                            MEM_CYCLES,
                        )
                    });
                }
                ipc
            })
            .collect();
        Ok(Memsim {
            mixes,
            alone,
            alone_s: t.elapsed().as_secs_f64(),
            sim_seed: mix(seed, 4),
        })
    }

    fn setup_layers(&self) -> Layers {
        let mut l = Layers::default();
        l.set("memsim.alone_s", self.alone_s);
        l
    }

    fn round(&mut self, index: usize, traced: bool) -> Result<Round, String> {
        let mut round = Round::default();
        let (mut row_hits, mut accesses, mut latency) = (0u64, 0u64, 0.0);
        let (mut dcref_ws_ratio, mut dcref_windows, mut dcref_busy) = (0.0, 0.0, 0u64);
        for (di, &density) in DENSITIES.iter().enumerate() {
            let cfg = config(density);
            let mut busy = [0u64; 3];
            let mut ws = [0.0f64; 3];
            let mut dcref_runs = 0u64;
            for mix in &self.mixes {
                let alone: Vec<f64> = mix.apps.iter().map(|a| self.alone[di][a.name]).collect();
                for (pi, (policy, layer)) in POLICIES.into_iter().enumerate() {
                    let t = Clock::start();
                    let sim = Simulation::new(cfg, policy, mix, self.sim_seed);
                    let report = if traced {
                        let rec = RecorderHandle::from(InMemoryRecorder::handle());
                        let r = sim.with_recorder(rec).run(MEM_CYCLES);
                        round.layers.add(layer, t.wall_s());
                        r
                    } else {
                        sim.run(MEM_CYCLES)
                    };
                    round.wall_s += t.wall_s();
                    round.cpu_s += t.cpu_s();
                    round.ops += 1;
                    round.work += MEM_CYCLES as f64;
                    let speedup = weighted_speedup(&report.ipcs(), &alone);
                    busy[pi] += report.refresh_busy_cycles;
                    ws[pi] += speedup;
                    row_hits += report.row_hits;
                    accesses += report.reads + report.writes;
                    latency += report.avg_read_latency;
                    round.sim.push(format!(
                        "{density:?} mix {} {policy:?}: windows {} busy {} work {} reads {} writes {} hits {} ws {speedup}",
                        mix.id,
                        report.refresh_windows,
                        report.refresh_busy_cycles,
                        report.refresh_work_fraction,
                        report.reads,
                        report.writes,
                        report.row_hits
                    ));
                    if policy == RefreshPolicyKind::Uniform64 {
                        let ranks = u64::from(cfg.channels * cfg.ranks);
                        if let Err(e) = checks::check_refresh_windows(
                            report.refresh_windows,
                            MEM_CYCLES,
                            ranks,
                            cfg.refresh_postpone,
                        ) {
                            round.failed += 1;
                            round
                                .failures
                                .push(format!("{density:?} mix {}: {e}", mix.id));
                        }
                    }
                    if policy == RefreshPolicyKind::DcRef {
                        dcref_windows +=
                            report.refresh_windows as f64 * report.refresh_work_fraction;
                        dcref_busy += report.refresh_busy_cycles;
                        dcref_runs += 1;
                    }
                }
            }
            dcref_ws_ratio += ws[2] / ws[0];
            if index == 0 {
                eprintln!(
                    "{density:?}: refresh busy cycles RAIDR/uniform {:.4}, DC-REF/uniform {:.4}; \
                     weighted speedup RAIDR/uniform {:.4}, DC-REF/uniform {:.4}",
                    busy[1] as f64 / busy[0] as f64,
                    busy[2] as f64 / busy[0] as f64,
                    ws[1] / ws[0],
                    ws[2] / ws[0]
                );
            }
            // The orderings are claims about a density, summed over its
            // mixes; a violation fails that density's DC-REF runs.
            let order = checks::check_refresh_order(busy)
                .and_then(|()| checks::check_speedup_order(ws[1], ws[2]));
            if let Err(e) = order {
                round.failed += dcref_runs;
                round.failures.push(format!("{density:?}: {e}"));
            }
        }
        let l = &mut round.layers;
        l.set("memsim.row_hit_ratio", ratio(row_hits, accesses - row_hits));
        l.set("memsim.avg_read_latency_cycles", latency / round.ops as f64);
        l.set("memsim.dcref_refresh_busy_cycles", dcref_busy as f64);
        l.set(
            "memsim.dcref_weighted_speedup",
            dcref_ws_ratio / DENSITIES.len() as f64,
        );
        l.set("memsim.dcref_refresh_windows", dcref_windows);
        Ok(round)
    }
}
