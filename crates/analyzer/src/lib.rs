//! Static verification for the DVMC workspace.
//!
//! Three passes, all pure functions over existing workspace artifacts:
//!
//! - [`explorer`]: an exhaustive BFS model checker over small coherence
//!   configurations (2–5 caches, one home, 1–3 blocks), driving the real
//!   `CacheNode`/`HomeCtrl` step functions and asserting SWMR, data-value
//!   integrity against a golden memory model, deadlock-freedom, and
//!   absence of unhandled (state, message) combinations (surfaced as
//!   controller panics). The search quotients the graph by the
//!   cache/block symmetry group (the `symmetry` module) and can run its frontier
//!   on a parallel worker pool with bit-identical results; with rollback
//!   enabled it model-checks the protocol × checkpoint/rollback product
//!   machine.
//! - [`tablelint`]: well-formedness checks over the SC/TSO/PSO/RMO
//!   ordering tables — strength hierarchy, membar mask placement, membar
//!   self-ordering, and agreement with the `Model` predicate helpers.
//! - [`transientlint`]: cross-checks the declared transient-state tables
//!   of each protocol against the transients the explorer actually
//!   reached — unknown observed states fail, dead table entries are
//!   reported.
//!
//! The CLI (`dvmc-analyzer --all`) runs all passes and exits non-zero
//! with a printed counterexample on any failure, making this the standing
//! static gate alongside the dynamic checkers.

pub mod explorer;
pub mod report;
mod symmetry;
pub mod tablelint;
pub mod transientlint;

pub use explorer::{
    explore, explore_jobs, ConfigError, ExploreConfig, ExploreConfigBuilder, ExploreOutcome,
    Mutant,
};
pub use report::{bench_json, BenchRow, ReductionRow};
pub use tablelint::{
    lint_all_models, lint_hierarchy_pair, lint_hierarchy_pair_over, lint_model_predicates,
    lint_table, op_alphabet, LintError,
};
pub use transientlint::{audit_transients, declared_transients, TransientAudit};
