//! Engine error types.

use std::fmt;

/// Errors produced by the execution engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A run did not quiesce within its round limit — either the limit was too small or
    /// the algorithm diverged.
    RoundLimitExceeded {
        /// Name of the offending algorithm.
        algorithm: &'static str,
        /// The limit that was hit.
        limit: usize,
    },
    /// An algorithm's `next_activity` named a round that is not after the
    /// current one: the idle skip would never advance, so the run is refused.
    StalledActivity {
        /// Name of the offending algorithm.
        algorithm: &'static str,
        /// The round (or simulated phase) that had just gone idle.
        round: usize,
        /// The round `next_activity` returned.
        next: usize,
    },
    /// A routing task referenced a path that is not a walk in the graph.
    InvalidPath {
        /// Index of the offending task.
        task: usize,
    },
    /// A forest description was not actually a forest (cycle or non-edge parent link).
    InvalidForest {
        /// Explanation.
        reason: String,
    },
    /// An operation sent more messages than its per-call budget allowed.
    BudgetExceeded {
        /// Name of the budgeted operation (e.g. `"convergecast"`).
        op: &'static str,
        /// Messages the operation actually needed.
        used: u64,
        /// The budget it was given.
        budget: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::RoundLimitExceeded { algorithm, limit } => {
                write!(
                    f,
                    "algorithm '{algorithm}' exceeded the round limit of {limit}"
                )
            }
            EngineError::StalledActivity {
                algorithm,
                round,
                next,
            } => write!(
                f,
                "algorithm '{algorithm}' reported next activity at round {next}, not after round {round}"
            ),
            EngineError::InvalidPath { task } => {
                write!(
                    f,
                    "routing task {task} has a path that is not a walk in the graph"
                )
            }
            EngineError::InvalidForest { reason } => write!(f, "invalid forest: {reason}"),
            EngineError::BudgetExceeded { op, used, budget } => {
                write!(f, "{op} exceeded its message budget: {used} > {budget}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// The forward-progress rule of idle-round skipping: the `next` activity an
    /// algorithm reports must come after the idle `round`. Returns `next`, or
    /// [`EngineError::StalledActivity`] instead of letting the runner spin.
    pub fn check_progress(
        algorithm: &'static str,
        round: usize,
        next: usize,
    ) -> Result<usize, EngineError> {
        let stalled = EngineError::StalledActivity {
            algorithm,
            round,
            next,
        };
        (next > round).then_some(next).ok_or(stalled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = EngineError::RoundLimitExceeded {
            algorithm: "x",
            limit: 5,
        };
        assert!(e.to_string().contains("round limit"));
        assert!(EngineError::check_progress("x", 4, 4)
            .unwrap_err()
            .to_string()
            .contains("not after round 4"));
        assert_eq!(EngineError::check_progress("x", 4, 5), Ok(5));
        assert!(EngineError::InvalidPath { task: 3 }
            .to_string()
            .contains("task 3"));
        assert!(EngineError::InvalidForest {
            reason: "cycle".into()
        }
        .to_string()
        .contains("cycle"));
        assert!(EngineError::BudgetExceeded {
            op: "upcast",
            used: 10,
            budget: 4
        }
        .to_string()
        .contains("10 > 4"));
    }
}
