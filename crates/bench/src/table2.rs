//! Table 2 — switch resource usage on Tofino2 (108-ToR configuration).

use crate::util::Table;
use openoptics_switch::{ResourceUsage, SwitchResourceModel};

/// The modeled usage alongside the paper's reported numbers.
#[derive(Clone, Debug)]
pub(crate) struct Table2 {
    /// Model prediction for the 108-ToR deployment.
    pub usage: ResourceUsage,
}

/// Evaluate the resource model at the paper's configuration.
pub(crate) fn run() -> Table2 {
    Table2 { usage: SwitchResourceModel::paper_108_tor().usage() }
}

/// Render as a table with the paper's column for comparison.
pub(crate) fn render(t2: &Table2) -> String {
    let u = &t2.usage;
    let mut t = Table::new(&["resource", "model", "paper"]);
    let rows = [
        ("SRAM", u.sram, 3.8),
        ("TCAM", u.tcam, 2.3),
        ("Stateful ALU", u.stateful_alu, 9.4),
        ("Ternary Xbar", u.ternary_xbar, 13.8),
        ("VLIW Actions", u.vliw_actions, 5.6),
        ("Exact Xbar", u.exact_xbar, 7.8),
    ];
    for (name, model, paper) in rows {
        t.row(vec![name.to_string(), format!("{model:.1}%"), format!("{paper:.1}%")]);
    }
    t.render()
}
