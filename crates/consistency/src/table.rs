//! Rendering of the Figure 1 ordering restrictions as text tables.
//!
//! EXPERIMENTS.md's E1 block shows these tables (checked by
//! `tests/experiments.rs`); the unit tests here pin the SC and RC tables
//! so an accidental change to the delay relation is caught in review.

use crate::access::AccessClass;
use crate::model::Model;
use std::fmt::Write as _;

/// The access classes shown along each axis of the Figure 1 table.
pub const TABLE_CLASSES: [AccessClass; 5] = [
    AccessClass::LOAD,
    AccessClass::STORE,
    AccessClass::ACQUIRE_LOAD,
    AccessClass::ACQUIRE_RMW,
    AccessClass::RELEASE_STORE,
];

/// Renders one model's delay-arc matrix. Rows are the *earlier* access,
/// columns the *later* access; `X` marks "later must be delayed until the
/// earlier access performs".
#[must_use]
pub fn render_model(model: Model) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} — {}", model.name(), model.description());
    let width = 11;
    let _ = write!(out, "{:width$}", "earlier\\later");
    for c in TABLE_CLASSES {
        let _ = write!(out, " {:>9}", c.to_string());
    }
    out.push('\n');
    for e in TABLE_CLASSES {
        let _ = write!(out, "{:width$}", e.to_string());
        for l in TABLE_CLASSES {
            let mark = if model.must_delay(e, l) { "X" } else { "." };
            let _ = write!(out, " {mark:>9}");
        }
        out.push('\n');
    }
    out
}

/// Renders every implemented model's table (the full Figure 1, extended
/// with TSO/PSO and RCsc).
#[must_use]
pub fn render_all() -> String {
    let mut out =
        String::from("Figure 1 — ordering restrictions on memory accesses (X = delay arc)\n\n");
    for m in Model::ALL_EXTENDED {
        out.push_str(&render_model(m));
        out.push('\n');
    }
    out
}

/// Counts the delay arcs in a model's matrix — a scalar measure of
/// strictness used in reports (SC = 25, the full matrix).
#[must_use]
pub fn arc_count(model: Model) -> usize {
    TABLE_CLASSES
        .iter()
        .flat_map(|e| TABLE_CLASSES.iter().map(move |l| (e, l)))
        .filter(|(e, l)| model.must_delay(**e, **l))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_is_full_matrix() {
        assert_eq!(arc_count(Model::Sc), 25);
    }

    #[test]
    fn strictly_fewer_arcs_down_the_spectrum() {
        assert!(arc_count(Model::Tso) < arc_count(Model::Sc));
        assert!(arc_count(Model::Pc) < arc_count(Model::Tso));
        assert!(arc_count(Model::Pso) < arc_count(Model::Tso));
        assert!(arc_count(Model::Wc) < arc_count(Model::Pso));
        assert!(arc_count(Model::RcSc) < arc_count(Model::Wc));
        assert!(arc_count(Model::Rc) < arc_count(Model::RcSc));
    }

    #[test]
    fn store_buffer_model_arc_counts() {
        // TSO drops exactly the store->load arc; PSO also store->store.
        assert_eq!(arc_count(Model::Tso), 24);
        assert_eq!(arc_count(Model::Pso), 23);
    }

    #[test]
    fn render_contains_model_names() {
        let all = render_all();
        for m in Model::ALL {
            assert!(all.contains(m.name()));
        }
    }

    #[test]
    fn rc_table_shape() {
        let t = render_model(Model::Rc);
        // The ordinary load row must be all '.' except the release column.
        let row: Vec<&str> = t
            .lines()
            .find(|l| l.starts_with("load "))
            .unwrap()
            .split_whitespace()
            .collect();
        assert_eq!(row, vec!["load", ".", ".", ".", ".", "X"]);
    }

    #[test]
    fn pc_store_row_lets_loads_pass() {
        let t = render_model(Model::Pc);
        let row: Vec<&str> = t
            .lines()
            .find(|l| l.starts_with("store "))
            .unwrap()
            .split_whitespace()
            .collect();
        // store -> load free; store -> store ordered; acquire-load column
        // free (it reads), rmw and release columns ordered (they write).
        assert_eq!(row, vec!["store", ".", "X", ".", "X", "X"]);
    }
}
