//! Inspecting the compiler's output: pretty-print a structured program and
//! export its TYR and unordered elaborations as Graphviz DOT (compare with
//! the paper's Figs. 7a/7b).
//!
//! ```sh
//! cargo run --release --example inspect_graph > /tmp/dmv.dot
//! dot -Tpdf /tmp/dmv.dot -o /tmp/dmv.pdf   # if graphviz is installed
//! ```

use tyr::ir::pretty::print_program;
use tyr::prelude::*;
use tyr::workloads::dmv;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = dmv::build(4, 4, 1);

    eprintln!("--- structured IR (the UDIR analogue) ---");
    eprintln!("{}", print_program(&w.program));

    let tyr = lower_tagged(&w.program, TaggingDiscipline::Tyr)?;
    let unordered = lower_tagged(&w.program, TaggingDiscipline::UnorderedUnbounded)?;
    eprintln!("--- elaboration sizes ---");
    eprintln!(
        "TYR (Fig. 7b style):       {:>3} nodes, {} concurrent blocks",
        tyr.len(),
        tyr.blocks.len()
    );
    eprintln!("unordered (Fig. 7a style): {:>3} nodes (no barriers, global tags)", unordered.len());
    for (i, b) in tyr.blocks.iter().enumerate() {
        let members = tyr.nodes().filter(|n| n.block().0 as usize == i).count();
        eprintln!(
            "  block {i}: '{}' ({} instructions{})",
            b.name,
            members,
            if b.is_loop { ", loop" } else { "" }
        );
    }

    // DOT of the TYR graph to stdout.
    println!("{}", tyr.to_dot());
    Ok(())
}
