//! Ground-truth checks. Every expected value here is computed apart from
//! the pipeline under test: the paper's distance sets and Table 1 counts,
//! the simulator's data-dependent oracle read from a separately built
//! module, the benchmark's own tally of stored profiles, the retained
//! scalar reference kernel, and DDR3 refresh arithmetic.

use std::collections::{BTreeMap, HashSet};

use parbor_core::FailureProfile;
use parbor_dram::{DramModule, RowBits, RowId, Vendor};
use parbor_hal::BitAddr;
use parbor_serve::LoadReport;
use parbor_store::FleetAggregate;

/// A set of `(unit, cell)` coordinates.
pub type CellSet = HashSet<(u32, BitAddr)>;

/// Recursion tests per vendor in the paper's Table 1.
pub fn table1_tests(vendor: Vendor) -> usize {
    match vendor {
        Vendor::A => 90,
        Vendor::B => 66,
        Vendor::C => 90,
    }
}

/// The paper's neighbor distance set per vendor (Fig. 11).
pub fn paper_distances(vendor: Vendor) -> &'static [i64] {
    match vendor {
        Vendor::A => &[-48, -16, -8, 8, 16, 48],
        Vendor::B => &[-64, -1, 1, 64],
        Vendor::C => &[-49, -33, -16, 16, 33, 49],
    }
}

/// Every data-dependent cell of a module, read from the simulator's oracle.
/// Pass a module built apart from the one under test.
pub fn oracle_cells(module: &mut DramModule) -> CellSet {
    let mut truth = CellSet::new();
    for (unit, chip) in module.chips_mut().iter_mut().enumerate() {
        for row in chip.geometry().rows() {
            for (col, _) in chip.oracle_data_dependent(row) {
                truth.insert((unit as u32, BitAddr::new(row.bank, row.row, col)));
            }
        }
    }
    truth
}

/// The detected cells of a stored profile.
pub fn profile_cells(profile: &FailureProfile) -> CellSet {
    profile
        .failures
        .iter()
        .map(|c| (c.unit, BitAddr::new(c.bank, c.row, c.col)))
        .collect()
}

pub fn check_distances(vendor: Vendor, distances: &[i64]) -> Result<(), String> {
    let want = paper_distances(vendor);
    if distances == want {
        Ok(())
    } else {
        Err(format!(
            "vendor {vendor}: distances {distances:?}, paper {want:?}"
        ))
    }
}

pub fn check_recursion_tests(vendor: Vendor, tests: usize) -> Result<(), String> {
    let want = table1_tests(vendor);
    if tests == want {
        Ok(())
    } else {
        Err(format!(
            "vendor {vendor}: {tests} recursion tests, Table 1 {want}"
        ))
    }
}

/// Checks that `detected` holds every oracle cell.
pub fn check_covers_oracle(truth: &CellSet, detected: &CellSet) -> Result<(), String> {
    let found = truth.iter().filter(|c| detected.contains(c)).count();
    if found == truth.len() {
        Ok(())
    } else {
        Err(format!(
            "detected {found} of {} oracle cells (recall {:.3})",
            truth.len(),
            found as f64 / truth.len() as f64
        ))
    }
}

/// Checks the store's aggregate against the benchmark's own tally of the
/// profiles it read back.
pub fn check_aggregate(
    agg: &FleetAggregate,
    profiles: &[(String, FailureProfile)],
) -> Result<(), String> {
    if agg.modules != profiles.len() {
        return Err(format!(
            "aggregate counts {} modules, {} were read back",
            agg.modules,
            profiles.len()
        ));
    }
    let mut tally: BTreeMap<i64, u64> = BTreeMap::new();
    for (_, p) in profiles {
        for &d in &p.distances {
            *tally.entry(d).or_insert(0) += 1;
        }
    }
    if agg.distance_counts != tally {
        return Err(format!(
            "aggregate distance histogram {:?}, tally {tally:?}",
            agg.distance_counts
        ));
    }
    let failures: u64 = profiles.iter().map(|(_, p)| p.failures.len() as u64).sum();
    if agg.total_failures != failures {
        return Err(format!(
            "aggregate counts {} failures, tally {failures}",
            agg.total_failures
        ));
    }
    Ok(())
}

/// The serve ledger: `offered = accepted + dropped + busy` and every
/// accepted request answered.
pub fn check_ledger(r: &LoadReport) -> Result<(), String> {
    if r.offered != r.accepted + r.dropped + r.busy || r.accepted != r.answered {
        return Err(format!(
            "ledger unbalanced: offered {} accepted {} dropped {} busy {} answered {}",
            r.offered, r.accepted, r.dropped, r.busy, r.answered
        ));
    }
    Ok(())
}

/// Failing columns of `row` under `content`, from the scalar reference
/// kernel of `module` (which must be in `KernelMode::Reference`).
pub fn reference_fail_columns(
    module: &mut DramModule,
    unit: u32,
    row: RowId,
    content: &RowBits,
) -> Vec<u32> {
    let chip = &mut module.chips_mut()[unit as usize];
    let shift = chip.theta_shift();
    let map = chip.fault_map(row);
    map.coupling_fail_indices(content, shift)
        .into_iter()
        .map(|i| map.entries[i as usize].sys)
        .collect()
}

/// A served answer lists fault-map entries; maps them to columns through
/// the reference fault map and compares with the reference columns.
pub fn check_served(
    module: &mut DramModule,
    unit: u32,
    row: RowId,
    served: &[u32],
    reference: &[u32],
) -> Result<(), String> {
    let map = module.chips_mut()[unit as usize].fault_map(row);
    let columns: Option<Vec<u32>> = served
        .iter()
        .map(|&i| map.entries.get(i as usize).map(|e| e.sys))
        .collect();
    match columns {
        Some(cols) if cols == reference => Ok(()),
        other => Err(format!(
            "unit {unit} row {row}: served columns {other:?}, reference {reference:?}"
        )),
    }
}

/// DDR3-1600 refresh arithmetic: one refresh per rank every tREFI = 7.8 µs
/// = 6240 memory cycles at 800 MHz. Each rank may be one window off by its
/// phase, plus the postponement allowance.
pub fn check_refresh_windows(
    windows: u64,
    mem_cycles: u64,
    ranks_total: u64,
    postpone: u64,
) -> Result<(), String> {
    const T_REFI_CYCLES: f64 = 7.8e-6 * 800e6;
    let expected = ranks_total as f64 * mem_cycles as f64 / T_REFI_CYCLES;
    let allowance = (ranks_total * (1 + postpone)) as f64;
    if (windows as f64 - expected).abs() <= allowance {
        Ok(())
    } else {
        Err(format!(
            "{windows} refresh windows in {mem_cycles} cycles, tREFI arithmetic gives {expected:.1} ± {allowance}"
        ))
    }
}

/// Refresh work, in `[uniform, raidr, dcref]` order, must strictly fall.
pub fn check_refresh_order(busy: [u64; 3]) -> Result<(), String> {
    if busy[2] < busy[1] && busy[1] < busy[0] {
        Ok(())
    } else {
        Err(format!(
            "refresh busy cycles uniform {} RAIDR {} DC-REF {}: want DC-REF < RAIDR < uniform",
            busy[0], busy[1], busy[2]
        ))
    }
}

pub fn check_speedup_order(raidr_ws: f64, dcref_ws: f64) -> Result<(), String> {
    if dcref_ws >= raidr_ws {
        Ok(())
    } else {
        Err(format!(
            "DC-REF weighted speedup {dcref_ws:.4} below RAIDR's {raidr_ws:.4}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_core::FailingCell;
    use parbor_dram::{ChipGeometry, ModuleConfig, PatternKind};
    use parbor_hal::KernelMode;
    use parbor_store::AggregateBuilder;

    fn profile(distances: &[i64], cells: &[(u32, u32)]) -> FailureProfile {
        FailureProfile {
            victim_count: 1,
            discovery_rounds: 10,
            tests_per_level: vec![2],
            recursion_tests: 2,
            distances: distances.to_vec(),
            chipwide_rounds: 4,
            failures: cells
                .iter()
                .map(|&(row, col)| FailingCell {
                    unit: 0,
                    bank: 0,
                    row,
                    col,
                    value: true,
                })
                .collect(),
        }
    }

    #[test]
    fn dropped_distance_is_rejected() {
        for vendor in [Vendor::A, Vendor::B, Vendor::C] {
            let full = paper_distances(vendor);
            assert!(check_distances(vendor, full).is_ok());
            let dropped = &full[1..];
            assert!(check_distances(vendor, dropped).is_err());
        }
        assert!(check_recursion_tests(Vendor::B, 66).is_ok());
        assert!(check_recursion_tests(Vendor::B, 74).is_err());
    }

    #[test]
    fn missed_oracle_cell_is_rejected() {
        let truth: CellSet = [(0, BitAddr::new(0, 1, 2)), (1, BitAddr::new(0, 3, 4))].into();
        let mut detected = truth.clone();
        detected.insert((0, BitAddr::new(0, 9, 9)));
        assert!(check_covers_oracle(&truth, &detected).is_ok());
        detected.remove(&(1, BitAddr::new(0, 3, 4)));
        assert!(check_covers_oracle(&truth, &detected).is_err());
    }

    #[test]
    fn miscounted_aggregate_bucket_is_rejected() {
        let profiles = vec![
            ("A0".to_string(), profile(&[-8, 8], &[(1, 2), (3, 4)])),
            ("B1".to_string(), profile(&[-1, 1, 8], &[(5, 6)])),
        ];
        let mut builder = AggregateBuilder::new();
        for (name, p) in &profiles {
            builder.add(name, p);
        }
        let mut agg = builder.finish();
        assert!(check_aggregate(&agg, &profiles).is_ok());
        *agg.distance_counts.get_mut(&8).expect("bucket 8 exists") += 1;
        assert!(check_aggregate(&agg, &profiles).is_err());
        *agg.distance_counts.get_mut(&8).expect("bucket 8 exists") -= 1;
        agg.modules += 1;
        assert!(check_aggregate(&agg, &profiles).is_err());
    }

    #[test]
    fn flipped_served_column_is_rejected() {
        let mut module = ModuleConfig::new(Vendor::A)
            .geometry(ChipGeometry::new(1, 8, 1024).expect("static geometry"))
            .chips(1)
            .seed(4)
            .build()
            .expect("module builds");
        let snapshot_stencils: Vec<_> = (0..8)
            .map(|r| module.chips()[0].compile_stencil(RowId::new(0, r)))
            .collect();
        module.set_kernel_mode(KernelMode::Reference);
        let mut checked = 0;
        for (r, stencil) in snapshot_stencils.iter().enumerate() {
            let row = RowId::new(0, r as u32);
            for seed in 0..8 {
                let content = PatternKind::Random { seed }.row_bits(r as u32, 1024);
                let served = stencil.eval(&content);
                let reference = reference_fail_columns(&mut module, 0, row, &content);
                assert!(check_served(&mut module, 0, row, &served, &reference).is_ok());
                if let Some(&first) = served.first() {
                    // Flip the answer to a different entry of the row.
                    let entries = module.chips_mut()[0].fault_map(row).entries.len() as u32;
                    let mut corrupt = served.clone();
                    corrupt[0] = (first + 1) % entries.max(2);
                    if corrupt != served {
                        assert!(check_served(&mut module, 0, row, &corrupt, &reference).is_err());
                        checked += 1;
                    }
                }
                let mut dropped = served.clone();
                dropped.push(u32::MAX);
                assert!(check_served(&mut module, 0, row, &dropped, &reference).is_err());
            }
        }
        assert!(
            checked > 0,
            "no failing content drawn; the test checks nothing"
        );
    }

    #[test]
    fn swapped_refresh_counts_are_rejected() {
        assert!(check_refresh_order([76_800, 28_608, 20_544]).is_ok());
        assert!(check_refresh_order([20_544, 28_608, 76_800]).is_err());
        assert!(check_refresh_order([76_800, 20_544, 28_608]).is_err());
        assert!(check_speedup_order(3.95, 4.01).is_ok());
        assert!(check_speedup_order(4.01, 3.95).is_err());
        // 2 channels x 2 ranks over 150k cycles: 96 windows.
        assert!(check_refresh_windows(96, 150_000, 4, 0).is_ok());
        assert!(check_refresh_windows(48, 150_000, 4, 0).is_err());
        assert!(check_refresh_windows(96 + 9, 150_000, 4, 0).is_err());
    }

    #[test]
    fn unbalanced_ledger_is_rejected() {
        let module = ModuleConfig::new(Vendor::B)
            .geometry(ChipGeometry::new(1, 4, 1024).expect("static geometry"))
            .chips(1)
            .build()
            .expect("module builds");
        let load = parbor_serve::LoadConfig {
            seconds: 0.02,
            ..parbor_serve::LoadConfig::default()
        };
        let mut report = parbor_serve::run(
            parbor_serve::ServeSnapshot::compile(&[module]),
            &parbor_serve::ServeConfig::default(),
            parbor_serve::Engine::Inline,
            &load,
            parbor_obs::RecorderHandle::null(),
        );
        assert!(report.offered > 0);
        assert!(check_ledger(&report).is_ok());
        report.answered -= 1;
        assert!(check_ledger(&report).is_err());
        report.answered += 1;
        report.dropped += 1;
        assert!(check_ledger(&report).is_err());
    }
}
