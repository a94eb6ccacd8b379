//! `tag_sweep`: the paper's central knob (Figs. 9, 11, 16, 17). Three
//! kernels are lowered once at set-up; the cells then run the TYR graph at
//! 2, 8 and 64 local tags × issue width 8 and 128, and the unordered
//! baseline with unlimited tags and with bounded global pools. Lowering is
//! amortised away, so the tag allocator, pending-allocate queues,
//! starvation stalls and deadlock detection do the work that the 64-tag
//! suite runs never reach. The 8- and 64-tag global pools *must* deadlock
//! (Fig. 11); the large pool must complete.

use tyr_bench::LoweredWorkload;
use tyr_sim::tagged::TagPolicy;
use tyr_sim::{NoProbe, Probe};
use tyr_workloads::{by_name, Workload};

use crate::cell::{CellSpec, Digest, Expect, TYR};
use crate::engines::{split_workload, Graph, Machine, Params};
use crate::harness::{Bench, EventCounts, Layers, Opts, Setup, Size, TraceCtx};
use crate::host;
use crate::metrics::WorkloadResult;
use crate::span::Tracer;

const KERNELS: [&str; 3] = ["dmv", "tc", "spmspm"];
const LOCAL_TAGS: [usize; 3] = [2, 8, 64];
const WIDTHS: [usize; 2] = [8, 128];
const UNORDERED: &str = "unordered";

/// One configuration of the sweep.
#[derive(Clone)]
struct Config {
    policy: TagPolicy,
    width: usize,
    /// `run_tyr` (TYR graph) or `run_unordered` (naïve graph, or the TYR
    /// graph for a bounded pool, which needs the free barriers).
    tyr_call: bool,
}

struct TagSweep<'w> {
    lowered: Vec<LoweredWorkload<'w>>,
    configs: Vec<Config>,
    cells: Vec<CellSpec>,
}

fn build_kernels(size: Size, seed: u64) -> Vec<Workload> {
    KERNELS.iter().map(|k| by_name(k, size.scale(), seed).expect("a known kernel")).collect()
}

fn lower(kernels: &[Workload]) -> Vec<LoweredWorkload<'_>> {
    kernels.iter().map(LoweredWorkload::new).collect()
}

impl<'w> TagSweep<'w> {
    fn new(lowered: Vec<LoweredWorkload<'w>>, size: Size) -> Self {
        // Global pools that wedge the nested loops (Fig. 11), and one large
        // enough to finish; tiny inputs need fewer tags than full-size ones.
        let (deadlocking_pools, completing_pool) =
            if size == Size::Smoke { ([2, 8], 4096) } else { ([8, 64], 512) };
        let mut configs = Vec::new();
        let mut labels = Vec::new();
        for tags in LOCAL_TAGS {
            for width in WIDTHS {
                configs.push(Config { policy: TagPolicy::local(tags), width, tyr_call: true });
                labels.push((format!("tyr/tags={tags}/width={width}"), TYR, Expect::Complete));
            }
        }
        configs.push(Config { policy: TagPolicy::GlobalUnbounded, width: 128, tyr_call: false });
        labels.push(("unordered/unbounded".to_string(), UNORDERED, Expect::Complete));
        for (pools, expect) in
            [(&deadlocking_pools[..], Expect::Deadlock), (&[completing_pool][..], Expect::Complete)]
        {
            for &tags in pools {
                configs.push(Config {
                    policy: TagPolicy::GlobalBounded { tags },
                    width: 128,
                    tyr_call: false,
                });
                labels.push((format!("unordered/pool={tags}"), UNORDERED, expect));
            }
        }
        let cells = lowered
            .iter()
            .flat_map(|l| {
                labels.iter().map(|(label, system, expect)| CellSpec {
                    id: format!("{}/{label}", l.workload.name),
                    ops: 1,
                    expect: *expect,
                    system,
                })
            })
            .collect();
        TagSweep { lowered, configs, cells }
    }

    fn cell(&self, i: usize) -> (&LoweredWorkload<'w>, &Config) {
        (&self.lowered[i / self.configs.len()], &self.configs[i % self.configs.len()])
    }

    /// The hand-sequenced equivalent of `run_tyr` / `run_unordered`.
    fn split<P: Probe>(&self, i: usize, probe: P, t: &mut Tracer) -> Result<Digest, String> {
        let (l, c) = self.cell(i);
        let graph = match (&c.policy, c.tyr_call) {
            (_, true) | (TagPolicy::GlobalBounded { .. }, false) => &l.tyr,
            _ => &l.unordered,
        };
        let machine = Machine::Tagged { graph: Graph::Pre(graph), policy: c.policy.clone() };
        let params = Params {
            issue_width: c.width,
            max_cycles: 2_000_000_000,
            ..Params::of_run_config(&tyr_bench::RunConfig::default())
        };
        split_workload(l.workload, &machine, &params, probe, self.cells[i].system, t)
    }
}

impl Bench for TagSweep<'_> {
    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn run_cell(&self, i: usize) -> (Result<Digest, String>, f64) {
        let (l, c) = self.cell(i);
        let (r, secs) = host::timed(|| {
            if c.tyr_call {
                l.run_tyr(c.policy.clone(), c.width)
            } else {
                l.run_unordered(c.policy.clone(), c.width)
            }
        });
        (Digest::of(&r, self.cells[i].system), secs)
    }

    fn trace_cell(&self, i: usize, t: &mut Tracer) -> Result<Digest, String> {
        self.split(i, NoProbe, t)
    }

    fn trace_extras(
        &self,
        _ctx: &TraceCtx<'_>,
        _t: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        // Tag allocations and stall intervals, from a second run with a
        // counting sink (kept out of the traced pass's timings).
        let mut counts = EventCounts::default();
        for i in 0..self.cells.len() {
            self.split(i, &mut counts, &mut Tracer::off())?;
        }
        counts.record(layers);
        Ok(())
    }
}

/// Runs the `tag_sweep` workload.
pub fn run(name: &str, opts: &Opts) -> (WorkloadResult, Option<String>) {
    let setup = Setup::measure(|| {
        let kernels = build_kernels(opts.size, opts.seed);
        let nodes: usize = lower(&kernels).iter().map(|l| l.tyr.len() + l.unordered.len()).sum();
        (kernels, nodes)
    });
    let kernels = build_kernels(opts.size, opts.seed);
    let sweep = TagSweep::new(lower(&kernels), opts.size);
    crate::harness::measure(name, opts, &sweep, &setup)
}
