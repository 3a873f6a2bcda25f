//! Circuit generators: random logic, ISCAS89-sized stand-ins, and the
//! paper's arithmetic benchmarks (`mult88`, `alu88`).

pub mod alu;
pub mod iscas;
pub mod multiplier;
pub mod random;

pub use alu::alu;
pub use iscas::{from_profile, iscas_like, iscas_suite, IscasProfile, ISCAS89_PROFILES};
pub use multiplier::multiplier;
pub use random::{random_circuit, RandomCircuitSpec};

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::normalize::normalize;
use crate::raw::RawCircuit;

/// The eight benchmark circuits of the paper's Fig. 12, in order:
/// `s838, s1196, s1423, s5378, s9234, s13207, alu88, mult88` (raw form).
pub fn paper_suite_raw() -> Vec<RawCircuit> {
    let mut suite = iscas_suite();
    suite.push(alu(8));
    suite.push(multiplier(8));
    suite
}

/// The builtin circuit named `name`: an ISCAS89 stand-in (see
/// [`iscas_like`]) or one of the paper's arithmetic benchmarks
/// (`"alu88"`, `"mult88"`), in raw form. `None` for any other name.
pub fn builtin(name: &str) -> Option<RawCircuit> {
    match name {
        "alu88" => Some(alu(8)),
        "mult88" => Some(multiplier(8)),
        other => iscas_like(other),
    }
}

/// The paper suite, normalized to library cells.
///
/// # Errors
/// Propagates normalization failures (none occur for the built-in
/// generators; the `Result` is for API honesty).
pub fn paper_suite() -> Result<Vec<Circuit>, CircuitError> {
    paper_suite_raw().iter().map(normalize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_has_eight_circuits_in_order() {
        let suite = paper_suite_raw();
        let names: Vec<&str> = suite.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["s838", "s1196", "s1423", "s5378", "s9234", "s13207", "alu88", "mult88"]
        );
        for name in names {
            assert_eq!(builtin(name).map(|c| c.name), Some(name.to_string()), "{name}");
        }
        assert!(builtin("s9999").is_none());
    }
}
