//! Byte pin of the lowerings themselves: an FNV-1a of `Dfg::to_dot()` for
//! the seven tiny suite kernels and 50 generated programs, each under the
//! TYR, unordered-unbounded and ordered lowerings. The DOT text names every
//! node in order with its label and mnemonic, then every edge in producer,
//! port and connect order, so a change to node order, labels or target
//! order shows here directly rather than through a simulator's statistics.
//! The digests sit in `golden/lower_tiny_fnv.txt`, blessed
//! (`TYR_BLESS=1 cargo test -p tyr-bench --test lower_golden`) on the
//! commit *before* a change to `tyr-dfg` and passing unmodified after it.

use std::path::PathBuf;

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::Dfg;
use tyr_workloads::gen::Recipe;
use tyr_workloads::{suite, Scale};

const RECIPES: u64 = 50;
const RECIPE_SIZE: usize = 16;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn lowered_dot_matches_its_blessed_digest() {
    let mut programs: Vec<(String, tyr_ir::Program)> =
        suite(Scale::Tiny, 5).into_iter().map(|w| (w.name, w.program)).collect();
    programs.extend(
        (0..RECIPES).map(|s| {
            (format!("recipe{s}"), Recipe::generate(s, RECIPE_SIZE).materialize().program)
        }),
    );
    let mut digest = String::new();
    for (name, program) in &programs {
        let graphs: [(&str, Dfg); 3] = [
            ("tyr", lower_tagged(program, TaggingDiscipline::Tyr).unwrap()),
            ("unordered", lower_tagged(program, TaggingDiscipline::UnorderedUnbounded).unwrap()),
            ("ordered", lower_ordered(program).unwrap()),
        ];
        for (lowering, dfg) in &graphs {
            let dot = dfg.to_dot();
            digest += &format!(
                "{name} {lowering}: nodes={} bytes={} fnv={:016x}\n",
                dfg.len(),
                dot.len(),
                fnv1a(dot.as_bytes())
            );
        }
    }

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lower_tiny_fnv.txt");
    if std::env::var_os("TYR_BLESS").is_some() {
        std::fs::write(&golden, &digest).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with TYR_BLESS=1", golden.display())
    });
    assert_eq!(digest, expected, "lowered DOT text drifted from its blessed digest");
}
