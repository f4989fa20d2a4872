//! DESIGN.md §13's wire table is the one the wire schema prints: the
//! block between the `wire-table` markers must be byte-identical to
//! `Payload::wire_table()`, so the documentation cannot drift from the
//! code. On a mismatch the test prints the rendered table to paste.

use selsync_comm::Payload;

#[test]
fn design_wire_table_matches_the_schema() {
    let design = include_str!("../DESIGN.md");
    let block = design
        .split_once("<!-- wire-table:begin -->\n")
        .and_then(|(_, rest)| rest.split_once("<!-- wire-table:end -->"))
        .map(|(block, _)| block)
        .expect("DESIGN.md has a wire-table:begin / wire-table:end block");
    let rendered = Payload::wire_table();
    assert!(
        block == rendered,
        "DESIGN.md §13's wire table is stale; paste this between its markers:\n{rendered}"
    );
}
