//! `nimbus-audit` — a workspace invariant linter for the Nimbus serving
//! path.
//!
//! The market's paper-level guarantees rest on code-level invariants the
//! compiler cannot see: money is charged, journalled, recorded and
//! refunded in one order, no lock is held across an fsync, money is never
//! truncated or compared exactly, pricing code does not compare floats
//! exactly, and the wire tables match the documented protocol. This crate
//! pins the implementation to that spec on every CI run:
//!
//! ```text
//! cargo run -p nimbus-audit -- check          # human diagnostics
//! cargo run -p nimbus-audit -- check --json   # machine-readable
//! ```
//!
//! See [`rules`] for the rule set and scopes, [`suppress`] for the
//! mandatory-reason suppression syntax, and [`wire_sync`] for the
//! DESIGN.md protocol-table cross-check. Determinism, panic-freedom and
//! `unsafe` documentation are clippy lints instead (`crates/clippy.toml`
//! and the root `Cargo.toml`'s `[workspace.lints]`). The lexer underneath
//! ([`lexer`]) is a purpose-built Rust tokenizer that never matches
//! rule patterns inside comments, strings, raw strings, or char
//! literals.

pub mod diagnostics;
pub mod facts;
pub mod json;
pub mod lexer;
pub mod lockgraph;
pub mod parse;
pub mod protocol;
pub mod rules;
pub mod suppress;
pub mod testmap;
pub mod wire_sync;
pub mod workspace;

pub use diagnostics::{render_json, Finding};
pub use workspace::{audit_workspace, find_root, AuditReport};
