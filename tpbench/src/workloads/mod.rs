//! The four workloads. Each stresses different layers, so that for any one
//! layer's optimisation there is a workload that runs it and one that
//! bypasses it (see README.md for the reasons and the predictions).

mod join;
mod served;
mod windows;

use crate::cal::RefKernel;
use crate::run::{Config, SetupReport, Workload};
use tpdb_core::TpJoinKind;

pub fn build(
    config: &Config,
    kernel: &mut RefKernel,
) -> Result<(Box<dyn Workload>, SetupReport), String> {
    match config.workload.as_str() {
        "meteo_outer" => join::build(config, kernel, join::Dataset::Meteo, TpJoinKind::LeftOuter),
        "webkit_full" => join::build(config, kernel, join::Dataset::Webkit, TpJoinKind::FullOuter),
        "wuon_windows" => windows::build(config, kernel),
        "served_mix" => served::build(config, kernel),
        other => Err(format!("unknown workload `{other}`")),
    }
}
