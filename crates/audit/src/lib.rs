//! `nimbus-audit` — a workspace invariant linter for the Nimbus serving
//! path.
//!
//! The market's paper-level guarantees rest on code-level invariants the
//! compiler cannot see: money is charged, journalled, recorded and
//! refunded in one order, no lock is held across an fsync, money is never
//! truncated or compared exactly, and pricing code does not compare
//! floats exactly. This crate pins the implementation to that spec on
//! every CI run, with rustc-style diagnostics:
//!
//! ```text
//! cargo run -p nimbus-audit -- check
//! ```
//!
//! See [`rules`] for the rule set and scopes, and [`suppress`] for the
//! mandatory-reason suppression syntax. Determinism, panic-freedom and
//! `unsafe` documentation are clippy lints instead (`crates/clippy.toml`
//! and the root `Cargo.toml`'s `[workspace.lints]`), and a unit test in
//! `crates/server/src/wire.rs` holds the `DESIGN.md` protocol tables to
//! the codec. The lexer underneath ([`lexer`]) is a purpose-built Rust
//! tokenizer that never matches rule patterns inside comments, strings,
//! raw strings, or char literals.

pub mod diagnostics;
pub mod facts;
pub mod lexer;
pub mod lockgraph;
pub mod parse;
pub mod protocol;
pub mod rules;
pub mod suppress;
pub mod testmap;
pub mod workspace;

pub use diagnostics::Finding;
pub use workspace::{audit_workspace, find_root, AuditReport};
