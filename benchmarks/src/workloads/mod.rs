//! The six workloads. Each module builds its inputs from the seed (timed
//! as `setup_s`), lists its cells, and runs a cell two ways: through the
//! public harness call users make, and through the same sequence of layer
//! calls with a span around each.

mod gen_pipeline;
mod probed;
mod suite;
mod tag_sweep;

use crate::harness::Opts;
use crate::metrics::WorkloadResult;

/// Workload names, in run order.
pub const NAMES: [&str; 6] =
    ["suite_ideal", "suite_lat200", "suite_cached", "tag_sweep", "probed", "gen_pipeline"];

/// Runs workload `name`; `None` for an unknown name. Returns the metrics
/// and, for a traced run, the spans as a JSON document.
pub fn run(name: &str, opts: &Opts) -> Option<(WorkloadResult, Option<String>)> {
    Some(match name {
        "suite_ideal" => suite::run(name, suite::Mem::Ideal, opts),
        "suite_lat200" => suite::run(name, suite::Mem::Lat200, opts),
        "suite_cached" => suite::run(name, suite::Mem::Cached, opts),
        "tag_sweep" => tag_sweep::run(name, opts),
        "probed" => probed::run(name, opts),
        "gen_pipeline" => gen_pipeline::run(name, opts),
        _ => return None,
    })
}
